#include "huffman/stream_format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "workload/corpus.h"
#include "workload/rng.h"

namespace {

using huff::CompressedStream;

TEST(StreamFormat, SerializeDeserializeRoundTrips) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 20000);
  const auto container = huff::compress_buffer(data, 4096);
  const CompressedStream s = huff::deserialize(container);
  EXPECT_EQ(s.original_bytes, data.size());
  EXPECT_EQ(s.block_size, 4096u);
  EXPECT_EQ(s.n_blocks, (data.size() + 4095) / 4096);
  EXPECT_EQ(huff::serialize(s), container);
}

class StreamRoundTrip
    : public ::testing::TestWithParam<std::tuple<wl::FileKind, std::size_t>> {};

TEST_P(StreamRoundTrip, CompressDecompressIsIdentity) {
  const auto [kind, bytes] = GetParam();
  const auto data = wl::make_corpus(kind, bytes);
  const auto container = huff::compress_buffer(data);
  EXPECT_EQ(huff::decompress_buffer(container), data);
  EXPECT_LT(container.size(), data.size() + 400)
      << "container should not blow up the input";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, StreamRoundTrip,
    ::testing::Combine(::testing::Values(wl::FileKind::Txt, wl::FileKind::Bmp,
                                         wl::FileKind::Pdf),
                       ::testing::Values(std::size_t{1}, std::size_t{4096},
                                         std::size_t{100000})));

TEST(StreamFormat, TextCompressesWell) {
  // "text files use only around 70 characters ... allowing at minimum a
  // nearly 3.5x compression ratio" (paper §IV-A). Our synthetic text is
  // lowercase-heavy, so expect < 60 % of the input size.
  const auto data = wl::make_corpus(wl::FileKind::Txt, 200000);
  const auto container = huff::compress_buffer(data);
  EXPECT_LT(container.size(), data.size() * 6 / 10);
}

TEST(StreamFormat, BadMagicThrows) {
  auto container = huff::compress_buffer(wl::make_corpus(wl::FileKind::Txt, 100));
  container[0] = 'X';
  EXPECT_THROW(huff::deserialize(container), std::runtime_error);
}

TEST(StreamFormat, BadVersionThrows) {
  auto container = huff::compress_buffer(wl::make_corpus(wl::FileKind::Txt, 100));
  container[4] = 99;
  EXPECT_THROW(huff::deserialize(container), std::runtime_error);
}

TEST(StreamFormat, TruncationThrows) {
  const auto container =
      huff::compress_buffer(wl::make_corpus(wl::FileKind::Txt, 5000));
  for (const std::size_t keep : {std::size_t{3}, std::size_t{20},
                                 container.size() / 2, container.size() - 1}) {
    const std::span<const std::uint8_t> cut(container.data(), keep);
    EXPECT_THROW((void)huff::deserialize(cut), std::runtime_error) << keep;
  }
}

TEST(StreamFormat, CorruptLengthsThrow) {
  auto container = huff::compress_buffer(wl::make_corpus(wl::FileKind::Txt, 100));
  // Code lengths start after magic(4)+version(2)+n_bytes(8)+blocks(4)+bs(4).
  const std::size_t lengths_off = 22;
  for (std::size_t i = 0; i < 8; ++i) {
    container[lengths_off + i] = 1;  // many 1-bit codes violate Kraft
  }
  EXPECT_THROW(huff::deserialize(container), std::runtime_error);
}

TEST(StreamFormat, ZeroBlockSizeRejected) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 100);
  EXPECT_THROW(huff::compress_buffer(data, 0), std::invalid_argument);
}

// --- Header consistency: rejected before any block is decoded -------------

TEST(StreamFormat, BlockCountMismatchThrows) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 10000);  // 3 blocks
  const auto s = huff::deserialize(
      huff::compress_buffer(data, 4096, /*with_index=*/false));
  for (const std::uint32_t n_blocks : {2u, 4u}) {
    auto bad = s;
    bad.n_blocks = n_blocks;
    EXPECT_THROW((void)huff::deserialize(huff::serialize(bad)),
                 std::runtime_error)
        << n_blocks;
    EXPECT_THROW((void)huff::decompress(bad), std::runtime_error) << n_blocks;
  }
}

TEST(StreamFormat, ZeroBlockSizeWithBlocksThrows) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 10000);
  auto s = huff::deserialize(huff::compress_buffer(data));
  s.block_size = 0;
  EXPECT_THROW((void)huff::deserialize(huff::serialize(s)), std::runtime_error);
  EXPECT_THROW((void)huff::decompress_buffer(huff::serialize(s)),
               std::runtime_error);
}

TEST(StreamFormat, BadIndexOffsetThrows) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 10000);
  const auto s = huff::deserialize(huff::compress_buffer(data));
  ASSERT_EQ(s.n_blocks, 3u);
  auto decreasing = s;
  std::swap(decreasing.block_offsets[1], decreasing.block_offsets[2]);
  auto past_end = s;
  past_end.block_offsets[2] = s.payload_bits + 1;
  for (const auto& bad : {decreasing, past_end}) {
    EXPECT_THROW((void)huff::deserialize(huff::serialize(bad)),
                 std::runtime_error);
    EXPECT_THROW((void)huff::decompress(bad), std::runtime_error);
  }
}

TEST(StreamFormat, MoreBytesThanPayloadBitsThrows) {
  // Every code is at least one bit, so original_bytes > payload_bits cannot
  // decode. The payload left behind the shortened bit count is ignored.
  const auto data = wl::make_corpus(wl::FileKind::Txt, 10000);
  auto s = huff::deserialize(
      huff::compress_buffer(data, 4096, /*with_index=*/false));
  s.payload_bits = s.original_bytes - 1;
  EXPECT_THROW((void)huff::deserialize(huff::serialize(s)), std::runtime_error);
}

// --- Block-parallel decode (more than 64 indexed blocks) -------------------

TEST(StreamFormat, ParallelDecodeIsByteExact) {
  // 257 blocks, the last one short: five 64-block tasks, the last with one.
  const auto data = wl::make_corpus(wl::FileKind::Pdf, 256 * 1024 + 100, 5);
  const auto container = huff::compress_buffer(data, 1024);
  const auto s = huff::deserialize(container);
  ASSERT_EQ(s.n_blocks, 257u);
  ASSERT_EQ(s.block_bytes(256), 100u);
  EXPECT_EQ(huff::decompress_buffer(container), data);
  EXPECT_EQ(huff::decompress(s), data);
  // Without an index the same payload decodes serially.
  EXPECT_EQ(huff::decompress_buffer(
                huff::compress_buffer(data, 1024, /*with_index=*/false)),
            data);
}

TEST(StreamFormat, ParallelDecodeErrorInATaskThrows) {
  // The last block's entry points one bit before the payload's end: the
  // header is consistent, but that block's task runs out of bits. The error
  // must surface from decompress_buffer, not hang it.
  const auto data = wl::make_corpus(wl::FileKind::Txt, 256 * 1024 + 100, 6);
  auto s = huff::deserialize(huff::compress_buffer(data, 1024));
  s.block_offsets.back() = s.payload_bits - 1;
  EXPECT_THROW((void)huff::decompress_buffer(huff::serialize(s)),
               std::runtime_error);
}

TEST(StreamFormat, FileHelpersRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "tvs_fmt_test";
  std::filesystem::create_directories(dir);
  const auto path = (dir / "x.tvsh").string();
  const auto data = wl::make_corpus(wl::FileKind::Bmp, 30000);
  const auto container = huff::compress_buffer(data);
  huff::write_file(path, container);
  EXPECT_EQ(huff::read_file(path), container);
  EXPECT_EQ(huff::decompress_buffer(huff::read_file(path)), data);
  std::filesystem::remove_all(dir);
}

TEST(StreamFormat, ReadMissingFileThrows) {
  EXPECT_THROW(huff::read_file("/nonexistent/tvs/file"), std::runtime_error);
}

// --- Random access (format v2 block index) ---------------------------------

TEST(RandomAccess, DecodeBlockMatchesFullDecode) {
  const auto data = wl::make_corpus(wl::FileKind::Pdf, 50000);
  const auto container = huff::compress_buffer(data, 4096, /*with_index=*/true);
  const auto s = huff::deserialize(container);
  ASSERT_TRUE(s.has_index());
  ASSERT_EQ(s.block_offsets.size(), s.n_blocks);

  for (std::size_t b = 0; b < s.n_blocks; ++b) {
    const auto block = huff::decode_block(s, b);
    const std::size_t begin = b * 4096;
    const std::size_t len = std::min<std::size_t>(4096, data.size() - begin);
    ASSERT_EQ(block.size(), len) << b;
    EXPECT_TRUE(std::equal(block.begin(), block.end(), data.begin() +
                                                           static_cast<std::ptrdiff_t>(begin)))
        << "block " << b;
  }
}

TEST(RandomAccess, LastShortBlockDecodes) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 10000);  // 4096*2+1808
  const auto s = huff::deserialize(huff::compress_buffer(data));
  EXPECT_EQ(s.block_bytes(0), 4096u);
  EXPECT_EQ(s.block_bytes(2), 10000u - 2 * 4096u);
  const auto last = huff::decode_block(s, 2);
  EXPECT_TRUE(std::equal(last.begin(), last.end(), data.begin() + 8192));
}

TEST(RandomAccess, NoIndexThrows) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 10000);
  const auto s = huff::deserialize(
      huff::compress_buffer(data, 4096, /*with_index=*/false));
  EXPECT_FALSE(s.has_index());
  EXPECT_THROW(huff::decode_block(s, 0), std::logic_error);
  // Full decode still works without the index.
  EXPECT_EQ(huff::decompress_buffer(huff::serialize(s)), data);
}

TEST(RandomAccess, OutOfRangeBlockThrows) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 10000);
  const auto s = huff::deserialize(huff::compress_buffer(data));
  EXPECT_THROW(huff::decode_block(s, s.n_blocks), std::out_of_range);
  EXPECT_THROW(s.block_bytes(99), std::out_of_range);
}

TEST(RandomAccess, IndexCostIsSmall) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 1 << 20);
  const auto with = huff::compress_buffer(data, 4096, true);
  const auto without = huff::compress_buffer(data, 4096, false);
  EXPECT_EQ(with.size() - without.size(), (data.size() / 4096) * 8);
}

TEST(RandomAccess, CorruptIndexFlagThrows) {
  auto container = huff::compress_buffer(wl::make_corpus(wl::FileKind::Txt, 100));
  container[22 + 256] = 7;  // the has_index flag byte
  EXPECT_THROW(huff::deserialize(container), std::runtime_error);
}

TEST(RandomAccess, FuzzedCorruptionThrowsButNeverCrashes) {
  // 8 blocks decode inline; 74 blocks take the block-parallel path.
  for (const std::size_t bytes : {std::size_t{30000}, std::size_t{300000}}) {
    const auto data = wl::make_corpus(wl::FileKind::Bmp, bytes);
    const auto container = huff::compress_buffer(data);
    wl::Rng rng(99);
    for (int trial = 0; trial < 200; ++trial) {
      auto bad = container;
      const std::size_t flips = 1 + rng.below(8);
      for (std::size_t f = 0; f < flips; ++f) {
        bad[rng.below(bad.size())] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      }
      // Any result is acceptable except memory errors: a clean decode (the
      // corruption hit padding), a thrown exception, or a wrong-but-bounded
      // output.
      try {
        const auto out = huff::decompress_buffer(bad);
        EXPECT_LE(out.size(), data.size());
      } catch (const std::exception&) {
        // expected for most corruptions
      }
    }
  }
}

}  // namespace
