// Encoder + decoder + offsets: block-level round trips and the parallel
// assembly property (encode blocks independently, splice at offsets, decode
// the whole stream).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <type_traits>

#include "huffman/encoder.h"
#include "huffman/fast_decoder.h"
#include "huffman/offsets.h"
#include "workload/corpus.h"
#include "workload/rng.h"

namespace {

using huff::CodeTable;
using huff::FastDecoder;
using huff::Histogram;

TEST(Encoder, EncodedBitCountMatchesActual) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 5000);
  const CodeTable t = CodeTable::from_histogram(Histogram::of(data));
  const auto enc = huff::encode_block(data, t);
  EXPECT_EQ(enc.bit_count, t.encoded_bits(Histogram::of(data)));
  EXPECT_EQ(enc.bits.size(), (enc.bit_count + 7) / 8);
}

TEST(Encoder, ThrowsOnUncodedSymbol) {
  Histogram h;
  h.at('a') = 1;
  h.at('b') = 1;
  const CodeTable t = CodeTable::from_histogram(h);
  const std::vector<std::uint8_t> bad = {'a', 'z'};
  EXPECT_THROW(huff::encode_block(bad, t), std::invalid_argument);
}

TEST(Encoder, EmptyBlockGivesEmptyOutput) {
  Histogram h;
  h.at('a') = 1;
  h.at('b') = 1;
  const CodeTable t = CodeTable::from_histogram(h);
  const auto enc = huff::encode_block({}, t);
  EXPECT_EQ(enc.bit_count, 0u);
  EXPECT_TRUE(enc.bits.empty());
}

TEST(Decoder, RejectsEmptyTable) {
  EXPECT_THROW(FastDecoder{CodeTable{}}, std::invalid_argument);
}

TEST(Decoder, RoundTripsSimpleBlock) {
  const std::vector<std::uint8_t> data = {'h', 'e', 'l', 'l', 'o'};
  const CodeTable t = CodeTable::from_histogram(Histogram::of(data));
  const auto enc = huff::encode_block(data, t);
  const FastDecoder d(t);
  EXPECT_EQ(d.decode(enc.bits, data.size()), data);
}

TEST(Decoder, SingleSymbolStream) {
  const std::vector<std::uint8_t> data(100, 'x');
  const CodeTable t = CodeTable::from_histogram(Histogram::of(data));
  const auto enc = huff::encode_block(data, t);
  EXPECT_EQ(enc.bit_count, 100u);  // 1-bit code
  const FastDecoder d(t);
  EXPECT_EQ(d.decode(enc.bits, data.size()), data);
}

TEST(Decoder, ThrowsOnTruncatedStream) {
  const std::vector<std::uint8_t> data = {'a', 'b', 'c', 'a', 'b'};
  const CodeTable t = CodeTable::from_histogram(Histogram::of(data));
  const auto enc = huff::encode_block(data, t);
  const FastDecoder d(t);
  EXPECT_THROW(d.decode(enc.bits, data.size() + 20), std::runtime_error);
}

// gtest prints a CodecCase as its raw bytes, and that print is the case's
// ctest name. The padding after `kind` is spelled out and zeroed so the
// names do not pick up whatever bytes happened to be in memory.
struct CodecCase {
  CodecCase(wl::FileKind k, std::size_t b, std::uint64_t s)
      : kind(k), bytes(b), seed(s) {}
  wl::FileKind kind;
  std::array<std::uint8_t, 7> zero_padding{};
  std::size_t bytes;
  std::uint64_t seed;
};
static_assert(sizeof(CodecCase) == 24 &&
              std::has_unique_object_representations_v<CodecCase>);

class CodecRoundTrip : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecRoundTrip, WholeBufferRoundTrips) {
  const auto& p = GetParam();
  const auto data = wl::make_corpus(p.kind, p.bytes, p.seed);
  const CodeTable t =
      CodeTable::from_histogram(Histogram::of(data).with_floor(1));
  const auto enc = huff::encode_block(data, t);
  const FastDecoder d(t);
  EXPECT_EQ(d.decode(enc.bits, data.size()), data);
}

TEST_P(CodecRoundTrip, ParallelAssemblyEqualsSerialEncoding) {
  const auto& p = GetParam();
  const auto data = wl::make_corpus(p.kind, p.bytes, p.seed);
  const std::size_t block_size = 1024;
  const std::size_t n_blocks = (data.size() + block_size - 1) / block_size;

  std::vector<Histogram> hists(n_blocks);
  std::vector<std::span<const std::uint8_t>> blocks(n_blocks);
  for (std::size_t i = 0; i < n_blocks; ++i) {
    const std::size_t begin = i * block_size;
    blocks[i] = std::span(data).subspan(
        begin, std::min(block_size, data.size() - begin));
    hists[i] = Histogram::of(blocks[i]);
  }
  const CodeTable t = CodeTable::from_histogram(Histogram::merged(hists));

  // "Serial" reference: one pass over the whole buffer.
  const auto serial = huff::encode_block(data, t);

  // "Parallel": per-block encodes spliced at offset-phase positions.
  const auto offsets = huff::all_offsets(hists, t);
  std::vector<huff::EncodedBlock> encs(n_blocks);
  for (std::size_t i = 0; i < n_blocks; ++i) {
    encs[i] = huff::encode_block(blocks[i], t);
    EXPECT_EQ(encs[i].bit_count, t.encoded_bits(hists[i]));
  }
  const auto assembled = huff::assemble(encs, offsets);
  EXPECT_EQ(assembled, serial.bits);

  const FastDecoder d(t);
  EXPECT_EQ(d.decode(assembled, data.size()), data);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CodecRoundTrip,
    ::testing::Values(CodecCase{wl::FileKind::Txt, 10000, 1},
                      CodecCase{wl::FileKind::Txt, 65536, 2},
                      CodecCase{wl::FileKind::Bmp, 10000, 3},
                      CodecCase{wl::FileKind::Bmp, 65536, 4},
                      CodecCase{wl::FileKind::Pdf, 10000, 5},
                      CodecCase{wl::FileKind::Pdf, 65537, 6},
                      CodecCase{wl::FileKind::Txt, 1, 7},
                      CodecCase{wl::FileKind::Pdf, 1023, 8}));

TEST(Offsets, MatchActualEncodedPositions) {
  const auto data = wl::make_corpus(wl::FileKind::Pdf, 30000, 9);
  const std::size_t block_size = 777;  // deliberately unaligned
  const std::size_t n_blocks = (data.size() + block_size - 1) / block_size;
  std::vector<Histogram> hists(n_blocks);
  for (std::size_t i = 0; i < n_blocks; ++i) {
    const std::size_t begin = i * block_size;
    hists[i] = Histogram::of(std::span(data).subspan(
        begin, std::min(block_size, data.size() - begin)));
  }
  const CodeTable t = CodeTable::from_histogram(Histogram::merged(hists));
  const auto offsets = huff::all_offsets(hists, t);

  std::uint64_t running = 0;
  for (std::size_t i = 0; i < n_blocks; ++i) {
    EXPECT_EQ(offsets[i], running);
    running += t.encoded_bits(hists[i]);
  }
}

TEST(Offsets, GroupsComposeLikeWholeRange) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 40960, 10);
  const std::size_t block_size = 4096;
  std::vector<Histogram> hists(10);
  for (std::size_t i = 0; i < 10; ++i) {
    hists[i] = Histogram::of(std::span(data).subspan(i * block_size, block_size));
  }
  const CodeTable t = CodeTable::from_histogram(Histogram::merged(hists));

  const auto whole = huff::all_offsets(hists, t);

  // Groups of 3, chained through end_offset — the pipeline's Offset tasks.
  std::vector<std::uint64_t> grouped;
  std::uint64_t carry = 0;
  for (std::size_t g = 0; g * 3 < 10; ++g) {
    const std::size_t begin = g * 3;
    const std::size_t len = std::min<std::size_t>(3, 10 - begin);
    const auto group = huff::compute_offsets(
        std::span(hists).subspan(begin, len), t, carry);
    grouped.insert(grouped.end(), group.block_offsets.begin(),
                   group.block_offsets.end());
    carry = group.end_offset;
  }
  EXPECT_EQ(grouped, whole);
}

TEST(Assemble, SizeMismatchThrows) {
  std::vector<huff::EncodedBlock> blocks(2);
  std::vector<std::uint64_t> offsets(3, 0);
  EXPECT_THROW(huff::assemble(blocks, offsets), std::invalid_argument);
}

}  // namespace
