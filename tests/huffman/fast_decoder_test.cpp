// Length-limited codes and the table-driven decoder: correctness, and the
// same output from every window, whether codes resolve in the table or in
// the over-window canonical walk.
#include <gtest/gtest.h>

#include "huffman/encoder.h"
#include "huffman/fast_decoder.h"
#include "huffman/length_limited.h"
#include "huffman/stream_format.h"
#include "workload/corpus.h"
#include "workload/rng.h"

namespace {

using huff::CodeLengths;
using huff::CodeTable;
using huff::FastDecoder;
using huff::Histogram;

TEST(LengthLimited, ValidatesArguments) {
  Histogram h;
  h.at('a') = 1;
  const CodeLengths lens = huff::HuffmanTree::build(h).lengths();
  EXPECT_THROW(huff::limit_code_lengths(lens, h, 0), std::invalid_argument);
  // 256 floored symbols cannot fit in 7 bits.
  const Histogram full = h.with_floor(1);
  const CodeLengths full_lens = huff::HuffmanTree::build(full).lengths();
  EXPECT_THROW(huff::limit_code_lengths(full_lens, full, 7),
               std::invalid_argument);
  EXPECT_NO_THROW(huff::limit_code_lengths(full_lens, full, 8));
}

TEST(LengthLimited, AlreadyShortLengthsUnchangedInCost) {
  const Histogram h =
      Histogram::of(wl::make_corpus(wl::FileKind::Txt, 50000));
  const CodeLengths optimal = huff::HuffmanTree::build(h).lengths();
  const CodeLengths limited = huff::limit_code_lengths(optimal, h, 32);
  // Generous limit: cost must not get worse.
  EXPECT_LE(huff::encoded_bits(limited, h), huff::encoded_bits(optimal, h));
}

class LengthLimitSweep
    : public ::testing::TestWithParam<std::tuple<wl::FileKind, int>> {};

TEST_P(LengthLimitSweep, LimitedCodesAreValidAndNearOptimal) {
  const auto [kind, max_bits] = GetParam();
  const Histogram h =
      Histogram::of(wl::make_corpus(kind, 200000)).with_floor(1);
  const CodeLengths optimal = huff::HuffmanTree::build(h).lengths();
  const CodeLengths limited =
      huff::limit_code_lengths(optimal, h, static_cast<std::uint8_t>(max_bits));

  EXPECT_TRUE(huff::kraft_valid(limited));
  std::uint8_t max_seen = 0;
  for (std::size_t s = 0; s < huff::kSymbols; ++s) {
    EXPECT_EQ(limited[s] == 0, optimal[s] == 0) << "coverage must not change";
    max_seen = std::max(max_seen, limited[s]);
  }
  EXPECT_LE(max_seen, max_bits);

  // Squeezing 256 floored symbols under a 10-bit ceiling has a real,
  // input-dependent price; what optimality guarantees is that it stays
  // bounded and can never beat unconstrained Huffman.
  const auto base = static_cast<double>(huff::encoded_bits(optimal, h));
  const auto cost = static_cast<double>(huff::encoded_bits(limited, h));
  EXPECT_GE(cost, base - 1e-9) << "cannot beat unconstrained Huffman";
  EXPECT_LT(cost, base * 1.10) << "limit " << max_bits;

  // And the limited table still round-trips real data.
  const auto table = CodeTable::from_lengths(limited);
  const auto data = wl::make_corpus(kind, 20000, 3);
  const auto enc = huff::encode_block(data, table);
  const FastDecoder fast(table);
  EXPECT_EQ(fast.decode(enc.bits, data.size()), data);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LengthLimitSweep,
    ::testing::Combine(::testing::Values(wl::FileKind::Txt, wl::FileKind::Bmp,
                                         wl::FileKind::Pdf),
                       ::testing::Values(10, 12, 14)));

TEST(LengthLimited, CostIsMonotoneInTheLimit) {
  // A property only optimal solutions have: loosening the constraint can
  // never increase the optimal cost. (The earlier greedy heuristic violated
  // this; package-merge must not.)
  for (wl::FileKind kind : wl::all_kinds()) {
    const Histogram h =
        Histogram::of(wl::make_corpus(kind, 150000)).with_floor(1);
    const auto unconstrained =
        huff::encoded_bits(huff::HuffmanTree::build(h).lengths(), h);
    std::uint64_t prev = ~0ULL;
    for (std::uint8_t limit : {9, 10, 11, 12, 14, 16, 20}) {
      const auto cost =
          huff::encoded_bits(huff::build_limited_lengths(h, limit), h);
      EXPECT_LE(cost, prev) << wl::to_string(kind) << " limit " << int{limit};
      EXPECT_GE(cost, unconstrained);
      prev = cost;
    }
    // By 20 bits the constraint is inactive on these inputs.
    EXPECT_EQ(prev, unconstrained) << wl::to_string(kind);
  }
}

TEST(FastDecoder, ValidatesWindow) {
  Histogram h;
  h.at('a') = 2;
  h.at('b') = 1;
  const CodeTable t = CodeTable::from_histogram(h);
  EXPECT_THROW(FastDecoder(t, 0), std::invalid_argument);
  EXPECT_THROW(FastDecoder(t, 17), std::invalid_argument);
}

TEST(FastDecoder, FullyTabledWhenCodesFitWindow) {
  const Histogram h =
      Histogram::of(wl::make_corpus(wl::FileKind::Txt, 100000)).with_floor(1);
  const CodeTable limited =
      CodeTable::from_lengths(huff::build_limited_lengths(h, 12));
  EXPECT_TRUE(FastDecoder(limited, 12).fully_tabled());
  EXPECT_FALSE(FastDecoder(limited, 8).fully_tabled());
}

class FastDecoderEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FastDecoderEquivalence, MatchesCanonicalDecoder) {
  // Unlimited code lengths: a 4-bit window resolves only codes of up to 4
  // bits in its table and walks every longer one; wider windows walk fewer.
  const auto kind =
      static_cast<wl::FileKind>(GetParam() % 3);
  const auto data = wl::make_corpus(kind, 40000, GetParam());
  const Histogram h = Histogram::of(data);
  const CodeTable t = CodeTable::from_histogram(h);
  const auto enc = huff::encode_block(data, t);

  ASSERT_FALSE(FastDecoder(t, 4).fully_tabled());
  for (std::uint8_t window : {4, 8, 12, 16}) {
    const FastDecoder fast(t, window);
    EXPECT_EQ(fast.decode(enc.bits, data.size()), data)
        << "window " << int{window};
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastDecoderEquivalence,
                         ::testing::Range<std::uint64_t>(0, 9));

TEST(FastDecoder, StartBitOffsetsWork) {
  const auto data = wl::make_corpus(wl::FileKind::Pdf, 20000, 2);
  const auto container = huff::compress_buffer(data, 4096);
  const auto s = huff::deserialize(container);
  const FastDecoder fast(s.table(), 12);
  for (std::size_t b = 0; b < s.n_blocks; ++b) {
    const auto block =
        fast.decode(s.payload, s.block_bytes(b), s.block_offsets[b]);
    EXPECT_TRUE(std::equal(block.begin(), block.end(),
                           data.begin() + static_cast<std::ptrdiff_t>(b * 4096)))
        << b;
  }
}

TEST(FastDecoder, TruncatedInputThrows) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 1000);
  const CodeTable t = CodeTable::from_histogram(Histogram::of(data));
  const auto enc = huff::encode_block(data, t);
  const FastDecoder fast(t, 10);
  EXPECT_THROW(fast.decode(enc.bits, data.size() + 100), std::runtime_error);
}

}  // namespace
