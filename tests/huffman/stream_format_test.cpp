#include "huffman/stream_format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "huffman/bitio.h"
#include "huffman/encoder.h"
#include "huffman/fast_decoder.h"
#include "huffman/histogram.h"
#include "support/temp_dir.h"
#include "workload/corpus.h"
#include "workload/rng.h"

namespace {

using huff::CompressedStream;

/// Container bytes before the block index: magic, version, n_bytes,
/// n_blocks, block_size and the 256 code lengths.
constexpr std::size_t kIndexAt = 4 + 2 + 8 + 4 + 4 + 256;

/// Block `b` of `data` in 4 KiB blocks, compress_buffer's default.
std::span<const std::uint8_t> block_of(const std::vector<std::uint8_t>& data,
                                       std::size_t b) {
  return std::span(data).subspan(
      b * 4096, std::min<std::size_t>(4096, data.size() - b * 4096));
}

/// deserialize(container) throws a std::runtime_error naming `what`.
void expect_rejected(std::span<const std::uint8_t> container,
                     const std::string& what) {
  try {
    (void)huff::deserialize(container);
    ADD_FAILURE() << "accepted; expected \"" << what << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

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
  const auto s = huff::deserialize(huff::compress_buffer(data, 4096));
  for (const std::uint32_t n_blocks : {2u, 4u}) {
    auto bad = s;
    bad.n_blocks = n_blocks;
    bad.block_offsets.resize(n_blocks, s.block_offsets.back());
    EXPECT_THROW((void)huff::deserialize(huff::serialize(bad)),
                 std::runtime_error)
        << n_blocks;
    EXPECT_THROW((void)huff::decompress_buffer(huff::serialize(bad)),
                 std::runtime_error)
        << n_blocks;
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
    EXPECT_THROW((void)huff::decompress_buffer(huff::serialize(bad)),
                 std::runtime_error);
  }
}

TEST(StreamFormat, MoreBytesThanPayloadBitsThrows) {
  // Every code is at least one bit, so original_bytes > payload_bits cannot
  // decode. The payload left behind the shortened bit count is ignored.
  const auto data = wl::make_corpus(wl::FileKind::Txt, 10000);
  auto s = huff::deserialize(huff::compress_buffer(data, 4096));
  s.payload_bits = s.original_bytes - 1;
  expect_rejected(huff::serialize(s), "more bytes than payload bits");
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
  EXPECT_EQ(huff::decompress_buffer(huff::serialize(s)), data);
}

TEST(StreamFormat, ParallelDecodeErrorInATaskThrows) {
  // The last block's entry points at the payload's last byte: the header
  // is consistent, but that block's task runs out of bits. The error must
  // surface from decompress_buffer, not hang it.
  const auto data = wl::make_corpus(wl::FileKind::Txt, 256 * 1024 + 100, 6);
  auto s = huff::deserialize(huff::compress_buffer(data, 1024));
  s.block_offsets.back() = (s.payload_bits - 1) / 8 * 8;
  EXPECT_THROW((void)huff::decompress_buffer(huff::serialize(s)),
               std::runtime_error);
}

TEST(StreamFormat, FileHelpersRoundTrip) {
  const test_support::TempDir dir("tvs_fmt_test");
  const auto path = dir.file("x.tvsh");
  const auto data = wl::make_corpus(wl::FileKind::Bmp, 30000);
  const auto container = huff::compress_buffer(data);
  huff::write_file(path, container);
  EXPECT_EQ(huff::read_file(path), container);
  EXPECT_EQ(huff::decompress_buffer(huff::read_file(path)), data);
}

TEST(StreamFormat, ReadMissingFileThrows) {
  EXPECT_THROW(huff::read_file("/nonexistent/tvs/file"), std::runtime_error);
}

// --- Exact size: coded bits plus each block's byte padding -----------------

TEST(StreamFormat, PayloadIsCodedBitsPlusExactPadding) {
  // Whole 4 KiB blocks, and a short last block (100000 = 24 × 4096 + 1696).
  for (const wl::FileKind kind :
       {wl::FileKind::Txt, wl::FileKind::Bmp, wl::FileKind::Pdf}) {
    for (const std::size_t bytes :
         {std::size_t{16 * 4096}, std::size_t{100000}}) {
      const auto data = wl::make_corpus(kind, bytes);
      const CompressedStream s = huff::deserialize(huff::compress_buffer(data));
      std::uint64_t coded = 0;
      std::uint64_t padding = 0;
      for (std::size_t b = 0; b < s.n_blocks; ++b) {
        const std::uint64_t bits =
            huff::encoded_bits(s.lengths, huff::Histogram::of(block_of(data, b)));
        coded += bits;
        if (b + 1 < s.n_blocks) padding += (bits + 7) / 8 * 8 - bits;
      }
      EXPECT_EQ(s.payload_bits, coded + padding)
          << wl::to_string(kind) << " " << bytes;
    }
  }
}

// --- Random access (the block index) ---------------------------------------

TEST(RandomAccess, DecodeBlockMatchesFullDecode) {
  // FastDecoder::decode from block b's index entry decodes block b alone.
  const auto data = wl::make_corpus(wl::FileKind::Pdf, 50000);
  const auto container = huff::compress_buffer(data, 4096);
  const auto s = huff::deserialize(container);
  ASSERT_EQ(s.block_offsets.size(), s.n_blocks);

  const huff::FastDecoder decoder(s.table());
  for (std::size_t b = 0; b < s.n_blocks; ++b) {
    const auto block =
        decoder.decode(s.payload, s.block_bytes(b), s.block_offsets[b]);
    const auto expected = block_of(data, b);
    ASSERT_EQ(block.size(), expected.size()) << b;
    EXPECT_TRUE(std::equal(block.begin(), block.end(), expected.begin()))
        << "block " << b;
  }
}

TEST(RandomAccess, LastShortBlockDecodes) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 10000);  // 4096*2+1808
  const auto s = huff::deserialize(huff::compress_buffer(data));
  EXPECT_EQ(s.block_bytes(0), 4096u);
  EXPECT_EQ(s.block_bytes(2), 10000u - 2 * 4096u);
  const auto last = huff::FastDecoder(s.table()).decode(
      s.payload, s.block_bytes(2), s.block_offsets[2]);
  EXPECT_TRUE(std::equal(last.begin(), last.end(), data.begin() + 8192));
}

TEST(RandomAccess, OutOfRangeBlockThrows) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 10000);
  const auto s = huff::deserialize(huff::compress_buffer(data));
  EXPECT_THROW((void)s.block_bytes(s.n_blocks), std::out_of_range);
  EXPECT_THROW((void)s.block_bytes(99), std::out_of_range);
}

TEST(RandomAccess, IndexCostIsSmall) {
  // The index is 8 bytes per block and nothing else.
  const auto data = wl::make_corpus(wl::FileKind::Txt, 1 << 20);
  const auto container = huff::compress_buffer(data, 4096);
  const auto s = huff::deserialize(container);
  EXPECT_EQ(container.size() - s.payload.size() - (kIndexAt + 8),
            (data.size() / 4096) * 8);
}

constexpr std::uint8_t kGuard = 0xA5;
constexpr std::size_t kGuardBytes = 64;

bool guards_intact(const std::vector<std::uint8_t>& buf, std::size_t inner) {
  const auto is_guard = [](std::uint8_t b) { return b == kGuard; };
  return std::all_of(buf.begin(), buf.begin() + kGuardBytes, is_guard) &&
         std::all_of(buf.begin() + static_cast<std::ptrdiff_t>(kGuardBytes + inner),
                     buf.end(), is_guard);
}

TEST(RandomAccess, FuzzedCorruptionThrowsButNeverCrashes) {
  // 8 blocks decode inline; 74 and 198 blocks take the block-parallel
  // path. Every 64-block run decodes four blocks at a time in one
  // interleaved loop; 198 = 3 × 64 + 6 leaves a last run of one group of
  // four and two single blocks.
  struct Case {
    wl::FileKind kind;
    std::size_t bytes;
    int trials;
  };
  for (const auto& [kind, bytes, trials] :
       {Case{wl::FileKind::Bmp, 30000, 200}, Case{wl::FileKind::Bmp, 300000, 200},
        Case{wl::FileKind::Txt, 198 * 4096 - 100, 60}}) {
    const auto data = wl::make_corpus(kind, bytes);
    const auto container = huff::compress_buffer(data);
    wl::Rng rng(99);
    for (int trial = 0; trial < trials; ++trial) {
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
      // The same into exact-size caller storage: a corrupted byte count is
      // rejected before the decode, and no decode writes past `out`.
      try {
        std::vector<std::uint8_t> out(data.size());
        huff::decompress_into(bad, out);
      } catch (const std::exception&) {
        // expected for most corruptions
      }
    }

    // Corruptions the parser must reject outright: each throws with its
    // message, and none decodes a byte into the caller's storage.
    std::vector<std::uint8_t> buf(data.size() + 2 * kGuardBytes, kGuard);
    const auto expect_no_decode = [&](std::span<const std::uint8_t> hostile,
                                      const std::string& what) {
      expect_rejected(hostile, what);
      EXPECT_THROW(huff::decompress_into(
                       hostile, std::span(buf).subspan(kGuardBytes, bytes)),
                   std::runtime_error)
          << what;
    };
    const std::size_t n_blocks = huff::read_header(container).n_blocks;
    auto bad = container;
    // An index entry off a byte boundary: first, middle and last block.
    for (const std::size_t b : {std::size_t{0}, n_blocks / 2, n_blocks - 1}) {
      for (std::uint8_t bit = 1; bit < 8; ++bit) {
        bad[kIndexAt + 8 * b] ^= bit;
        expect_no_decode(bad, "bad block index");
        bad[kIndexAt + 8 * b] ^= bit;
      }
    }
    bad[4] = 2;
    expect_no_decode(bad, "unsupported version 2");
    // Truncated at each byte of the index and of the payload's edges.
    const std::size_t payload = kIndexAt + 8 * n_blocks + 8;
    for (std::size_t keep = kIndexAt; keep < container.size(); ++keep) {
      if (keep <= payload + 1 || keep + 8 >= container.size()) {
        expect_no_decode(std::span(container).first(keep), "truncated input");
      }
    }
    EXPECT_TRUE(guards_intact(buf, 0));
  }
}

// --- decompress_into (caller storage) --------------------------------------

TEST(DecompressInto, SizeMismatchThrowsBeforeWriting) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 300 * 1024 + 9);
  const auto container = huff::compress_buffer(data, 1024);
  for (const std::size_t size :
       {std::size_t{0}, data.size() - 1, data.size() + 1}) {
    std::vector<std::uint8_t> buf(size + 2 * kGuardBytes, kGuard);
    EXPECT_THROW(huff::decompress_into(
                     container, std::span(buf).subspan(kGuardBytes, size)),
                 std::invalid_argument)
        << size;
    EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                            [](std::uint8_t b) { return b == kGuard; }))
        << size;
  }
  std::vector<std::uint8_t> one(1, kGuard);
  EXPECT_THROW(huff::decompress_into(huff::compress_buffer({}), one),
               std::invalid_argument);
  EXPECT_EQ(one[0], kGuard);
}

TEST(DecompressInto, DecodesIntoASpanInsideALargerBuffer) {
  // 1024-byte blocks, the last one 7 bytes short: inline decode up to 64
  // blocks, then one to four 64-block tasks (65 and 129 leave a task of
  // one block, 198 one of six).
  for (const std::size_t blocks : {0, 1, 64, 65, 129, 198}) {
    const std::size_t bytes = blocks == 0 ? 0 : blocks * 1024 - 7;
    // make_corpus reads 0 bytes as the paper's size.
    const auto data = bytes == 0
                          ? std::vector<std::uint8_t>{}
                          : wl::make_corpus(wl::FileKind::Pdf, bytes, blocks);
    const auto container = huff::compress_buffer(data, 1024);
    ASSERT_EQ(huff::read_header(container).n_blocks, blocks);
    std::vector<std::uint8_t> buf(bytes + 2 * kGuardBytes, kGuard);
    const auto out = std::span(buf).subspan(kGuardBytes, bytes);
    huff::decompress_into(container, out);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin(), data.end()))
        << blocks << " blocks";
    EXPECT_TRUE(guards_intact(buf, bytes)) << blocks << " blocks";
  }
}

TEST(DecompressInto, ErrorInATaskThrows) {
  // As ParallelDecodeErrorInATaskThrows, into caller storage.
  const auto data = wl::make_corpus(wl::FileKind::Txt, 256 * 1024 + 100, 6);
  auto s = huff::deserialize(huff::compress_buffer(data, 1024));
  s.block_offsets.back() = (s.payload_bits - 1) / 8 * 8;
  std::vector<std::uint8_t> out(data.size());
  EXPECT_THROW(huff::decompress_into(huff::serialize(s), out),
               std::runtime_error);
}

TEST(ReadHeader, MatchesDeserializeWithoutThePayload) {
  const auto data = wl::make_corpus(wl::FileKind::Bmp, 70000);
  const auto container = huff::compress_buffer(data);
  auto full = huff::deserialize(container);
  const auto header = huff::read_header(container);
  EXPECT_TRUE(header.payload.empty());
  full.payload.clear();
  EXPECT_EQ(huff::serialize(header), huff::serialize(full));
  EXPECT_THROW((void)huff::read_header(std::span(container).first(
                   container.size() - 1)),
               std::runtime_error);
}

// --- ContainerWriter -------------------------------------------------------

/// `n` bytes in which every symbol occurs n / 256 or n / 256 + 1 times, so
/// every code is 8 bits long and the payload is exactly n bytes.
std::vector<std::uint8_t> flat_bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 167);
  }
  return out;
}

TEST(ContainerWriter, BytesAtTheHugePageEdgeMatchSerialize) {
  // ContainerWriter's storage takes the huge-page advice only when its
  // interior spans a whole 2 MiB page. The bytes must not depend on it:
  // compress_buffer's container equals serialize() of the same stream
  // assembled with huff::assemble, on either side of the edge.
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  constexpr std::uint32_t kBlock = 4096;
  for (const std::size_t n :
       {2 * kMiB - 1, 2 * kMiB, 2 * kMiB + 1, 5 * kMiB + 3}) {
    const auto data = flat_bytes(n);
    const auto table = huff::CodeTable::from_histogram(huff::Histogram::of(data));
    CompressedStream ref;
    ref.original_bytes = n;
    ref.n_blocks = static_cast<std::uint32_t>((n + kBlock - 1) / kBlock);
    ref.block_size = kBlock;
    ref.lengths = table.lengths();
    std::vector<huff::EncodedBlock> blocks;
    for (std::size_t b = 0; b < n; b += kBlock) {
      ref.block_offsets.push_back(ref.payload_bits);
      blocks.push_back(huff::encode_block(
          std::span(data).subspan(b, std::min<std::size_t>(kBlock, n - b)),
          table));
      ref.payload_bits += blocks.back().bit_count;
    }
    ref.payload = huff::assemble(blocks, ref.block_offsets);
    ASSERT_EQ(ref.payload.size(), n) << "every code should be 8 bits";
    EXPECT_EQ(huff::compress_buffer(data, kBlock), huff::serialize(ref)) << n;
  }
}

TEST(ContainerWriter, RejectsABlockOutsideTheContainer) {
  // 100 coded bits in two blocks: the payload is bounded at 107 bits.
  huff::ContainerWriter writer(8192, 2, 4096, huff::CodeLengths{}, 100);
  std::vector<std::uint8_t> bytes(8, 0xFF);
  bytes.back() = 0xF0;
  const huff::EncodedBlock block{bytes, 60};
  EXPECT_THROW(writer.place(2, 0, block), std::out_of_range) << "i >= n_blocks";
  EXPECT_THROW(writer.place(1, 48, block), std::out_of_range)
      << "offset + bits > the bound";
  EXPECT_THROW(writer.place(1, ~std::uint64_t{7}, block), std::out_of_range)
      << "offset past the bound";
  EXPECT_THROW(writer.place(0, 0, {std::vector<std::uint8_t>(7, 0xFF), 60}),
               std::out_of_range)
      << "fewer bytes than bits";
  for (const std::uint64_t offset : {1u, 4u, 7u, 60u, 65u}) {
    EXPECT_THROW(writer.place(1, offset, block), std::invalid_argument)
        << "misaligned " << offset;
  }
  writer.place(0, 0, block);
  writer.place(1, 64, {std::vector<std::uint8_t>(5, 0xFF), 40});
  EXPECT_EQ(writer.payload_bits(), 104u);
  // Block 0's 8 bytes, then block 1's 5.
  bytes.resize(13, 0xFF);
  EXPECT_EQ(writer.take(), huff::serialize({.original_bytes = 8192,
                                            .n_blocks = 2,
                                            .block_size = 4096,
                                            .block_offsets = {0, 64},
                                            .payload_bits = 104,
                                            .payload = bytes}));
}

TEST(ContainerWriter, TakeRejectsABlockOfAnotherTable) {
  // The writer is sized for table a's coded bits. In cases 0-2 block
  // `wrong` is encoded with its own, shorter optimal table and placed where
  // the blocks before it end: it fits, and only take() can tell. In case 3
  // every block is under a, but block 2 starts a byte late.
  const auto data = wl::make_corpus(wl::FileKind::Txt, 10000);  // 3 blocks
  std::vector<huff::Histogram> hists;
  for (std::size_t b = 0; b < 3; ++b) {
    hists.push_back(huff::Histogram::of(block_of(data, b)));
  }
  const auto merged = huff::Histogram::merged(hists);
  const auto a = huff::CodeTable::from_histogram(merged);
  for (std::size_t wrong = 0; wrong < 4; ++wrong) {
    huff::ContainerWriter writer(data.size(), 3, 4096, a.lengths(),
                                 a.encoded_bits(merged));
    std::uint64_t at = 0;
    for (std::size_t i = 0; i < 3; ++i) {
      const auto table =
          i == wrong ? huff::CodeTable::from_histogram(hists[i]) : a;
      const auto enc = huff::encode_block(block_of(data, i), table);
      writer.place(i, at + (wrong == 3 && i == 2 ? 8 : 0), enc);
      at += (enc.bit_count + 7) / 8 * 8;
    }
    EXPECT_THROW((void)writer.take(), std::logic_error) << wrong;
  }
}

TEST(ContainerWriter, ZeroBlocksIsHeaderOnly) {
  // What compress_buffer and the pipeline write for an empty file: no
  // index entries, no payload.
  CompressedStream header;
  header.block_size = 4096;
  const auto empty = huff::serialize(header);
  EXPECT_EQ(huff::ContainerWriter(0, 0, 4096, huff::CodeLengths{}, 0).take(),
            empty);
  EXPECT_EQ(huff::compress_buffer({}), empty);
  EXPECT_TRUE(huff::decompress_buffer(empty).empty());
}

/// Blocks of random bits, zero past each bit count as the encoder leaves
/// them, laid out back to back on byte boundaries. Their bit counts end at
/// every phase 0-7, and some hold fewer than 8 bits.
struct PlacementCase {
  std::vector<huff::EncodedBlock> blocks;
  std::vector<std::uint64_t> offsets;
  std::uint64_t coded_bits = 0;
  std::uint64_t payload_bits = 0;
};

PlacementCase placement_case(std::uint64_t seed) {
  wl::Rng rng(seed);
  PlacementCase c;
  bool phase_seen[8] = {};
  std::uint64_t at = 0;
  for (std::size_t i = 0; i < 512; ++i) {
    const std::uint64_t bits =
        i % 5 == 0 ? 1 + rng.below(7) : 1 + rng.below(400);
    huff::BitWriter w;
    for (std::uint64_t b = 0; b < bits; ++b) w.put(rng.below(2), 1);
    phase_seen[bits % 8] = true;
    c.offsets.push_back(at);
    c.blocks.push_back({w.take(), bits});
    c.coded_bits += bits;
    c.payload_bits = at + bits;
    at += (bits + 7) / 8 * 8;
  }
  for (const bool seen : phase_seen) EXPECT_TRUE(seen);
  return c;
}

/// The container ContainerWriter must produce for `c`.
CompressedStream placement_stream(const PlacementCase& c) {
  const auto n = static_cast<std::uint32_t>(c.blocks.size());
  return {.original_bytes = n,
          .n_blocks = n,
          .block_size = 1,
          .block_offsets = c.offsets,
          .payload_bits = c.payload_bits,
          .payload = huff::assemble(c.blocks, c.offsets)};
}

TEST(ContainerWriter, ConcurrentPlacementEqualsSerialAssemble) {
  constexpr unsigned kThreads = 4;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const PlacementCase c = placement_case(seed);
    const auto n = static_cast<std::uint32_t>(c.blocks.size());
    const CompressedStream expected = placement_stream(c);

    // Adjacent blocks land on different threads in shuffled order, so
    // neighbouring bytes are written concurrently.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    wl::Rng rng(seed * 77);
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.below(i + 1)]);
    }
    huff::ContainerWriter writer(n, n, 1, expected.lengths, c.coded_bits);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (std::size_t k; (k = next.fetch_add(1)) < n;) {
          const std::size_t i = order[k];
          writer.place(i, c.offsets[i], c.blocks[i]);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(writer.take(), huff::serialize(expected)) << "seed " << seed;
  }
}

/// The independent reference for `c`'s payload: each block's bits through
/// a BitWriter of its own, whose take() pads it to a byte, concatenated.
std::vector<std::uint8_t> bitwriter_payload(const PlacementCase& c) {
  std::vector<std::uint8_t> seq;
  for (const auto& block : c.blocks) {
    huff::BitReader in(block.bits);
    huff::BitWriter w;
    for (std::uint64_t b = 0; b < block.bit_count; ++b) w.put(in.get_bit(), 1);
    const auto bytes = w.take();
    seq.insert(seq.end(), bytes.begin(), bytes.end());
  }
  return seq;
}

class SpliceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpliceProperty, SplicedStreamsEqualSequentialWrites) {
  // Copying each block to its byte-aligned offset in a zeroed buffer must
  // equal writing the blocks one after another, each padded to a byte —
  // the parallel-encode correctness property.
  const PlacementCase c = placement_case(GetParam());
  EXPECT_EQ(huff::assemble(c.blocks, c.offsets), bitwriter_payload(c));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpliceProperty,
                         ::testing::Values(17, 34, 51, 68, 85, 102));

TEST(ContainerWriter, SerialPlacementMatchesBitWriter) {
  const PlacementCase c = placement_case(9);
  const auto n = static_cast<std::uint32_t>(c.blocks.size());
  huff::ContainerWriter writer(n, n, 1, huff::CodeLengths{}, c.coded_bits);
  for (std::size_t i = 0; i < n; ++i) {
    writer.place(i, c.offsets[i], c.blocks[i]);
  }
  CompressedStream expected = placement_stream(c);
  expected.payload = bitwriter_payload(c);
  EXPECT_EQ(writer.take(), huff::serialize(expected));
}

}  // namespace
