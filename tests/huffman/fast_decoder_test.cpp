// Length-limited codes and the table-driven decoder: correctness, the same
// output from every window, whether codes resolve in the table or in the
// over-window canonical walk, and a differential of both decode entry
// points (one block, four interleaved) against a bit-at-a-time reference.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <unordered_map>

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
  EXPECT_THROW((void)huff::limit_code_lengths(lens, h, 0),
               std::invalid_argument);
  // 256 floored symbols cannot fit in 7 bits.
  const Histogram full = h.with_floor(1);
  const CodeLengths full_lens = huff::HuffmanTree::build(full).lengths();
  EXPECT_THROW((void)huff::limit_code_lengths(full_lens, full, 7),
               std::invalid_argument);
  EXPECT_NO_THROW((void)huff::limit_code_lengths(full_lens, full, 8));
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

// --- Differential: decode_into and decode4_into vs a reference ----------

/// Bit-at-a-time canonical decode straight from the table's codes: the
/// reference both entry points are held to. Throws std::runtime_error on a
/// read past the end or an invalid code.
std::vector<std::uint8_t> reference_decode(const CodeTable& t,
                                           std::span<const std::uint8_t> data,
                                           std::uint64_t pos, std::size_t n) {
  // Keyed by code << 6 | length: codes are at most 58 bits.
  std::unordered_map<std::uint64_t, std::uint8_t> codes;
  for (std::size_t s = 0; s < huff::kSymbols; ++s) {
    if (t.has_code(s)) {
      codes[t.code(s) << 6 | t.length(s)] = static_cast<std::uint8_t>(s);
    }
  }
  std::vector<std::uint8_t> out;
  while (out.size() < n) {
    std::uint64_t code = 0;
    for (unsigned len = 1;; ++len, ++pos) {
      if (len > t.max_length()) throw std::runtime_error("invalid code");
      if (pos >= data.size() * std::uint64_t{8}) throw std::runtime_error("past end");
      code = (code << 1) | ((data[pos >> 3] >> (7 - (pos & 7))) & 1U);
      if (const auto it = codes.find(code << 6 | len); it != codes.end()) {
        out.push_back(it->second);
        ++pos;
        break;
      }
    }
  }
  return out;
}

/// Kraft-complete lengths whose longest code is `longest` (≥ 8), taken by
/// 128 symbols — half the alphabet: symbols 0..longest-8 get 1..longest-7
/// bits, and the last 2^-(longest-7) of the code space is 128 codes of
/// `longest` bits.
CodeTable half_longest_table(unsigned longest) {
  CodeLengths lengths{};
  const unsigned chain = longest - 7;
  for (unsigned s = 0; s < chain; ++s) {
    lengths[s] = static_cast<std::uint8_t>(s + 1);
  }
  for (unsigned s = 0; s < 128; ++s) {
    lengths[chain + s] = static_cast<std::uint8_t>(longest);
  }
  return CodeTable::from_lengths(lengths);
}

/// `n` symbols of a half_longest_table(longest): half of them a longest
/// code, the rest uniform over every coded symbol.
std::vector<std::uint8_t> half_longest_data(std::size_t n, unsigned longest,
                                            std::mt19937& rng) {
  const unsigned chain = longest - 7;
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) {
    b = static_cast<std::uint8_t>(rng() % 2 == 0 ? chain + rng() % 128
                                                 : rng() % (chain + 128));
  }
  return v;
}

/// Blocks encoded back to back into one bit stream.
struct Stream {
  std::vector<std::vector<std::uint8_t>> blocks;
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint8_t> bytes;  ///< ceil(bits / 8)

  Stream(std::vector<std::vector<std::uint8_t>> in, const CodeTable& t)
      : blocks(std::move(in)) {
    std::vector<std::uint8_t> all;
    for (const auto& b : blocks) {
      offsets.push_back(t.encoded_bits(Histogram::of(all)));
      all.insert(all.end(), b.begin(), b.end());
    }
    const auto enc = huff::encode_block(all, t);
    bytes.assign(enc.bits.begin(), enc.bits.begin() + (enc.bit_count + 7) / 8);
  }
};

/// A stream's bytes and `tail` filler bytes, less the last `cut`, in
/// exact-size heap storage, so asan sees any read past the end.
struct Exact {
  std::unique_ptr<std::uint8_t[]> bytes;
  std::size_t size;

  Exact(const Stream& s, std::size_t tail, std::size_t cut = 0)
      : bytes(new std::uint8_t[s.bytes.size() + tail - cut]),
        size(s.bytes.size() + tail - cut) {
    std::fill_n(bytes.get(), size, std::uint8_t{0xFF});
    std::copy_n(s.bytes.begin(), std::min(size, s.bytes.size()), bytes.get());
  }
  [[nodiscard]] std::span<const std::uint8_t> span() const {
    return {bytes.get(), size};
  }
};

/// Decodes every block of `p` from `data` as decompress_buffer does
/// (groups of four through decode4_into, the rest through decode_into)
/// into `out`, one range per block.
void decode_grouped(const FastDecoder& d, std::span<const std::uint8_t> data,
                    const Stream& p,
                    std::vector<std::vector<std::uint8_t>>& out) {
  out.clear();
  for (const auto& b : p.blocks) out.emplace_back(b.size(), std::uint8_t{0xEE});
  constexpr std::size_t kLanes = FastDecoder::kLanes;
  std::size_t i = 0;
  for (; p.blocks.size() - i >= kLanes; i += kLanes) {
    std::array<std::uint64_t, kLanes> starts;
    std::array<std::span<std::uint8_t>, kLanes> outs;
    for (std::size_t j = 0; j < kLanes; ++j) {
      starts[j] = p.offsets[i + j];
      outs[j] = out[i + j];
    }
    d.decode4_into(data, starts, outs);
  }
  for (; i < p.blocks.size(); ++i) d.decode_into(data, p.offsets[i], out[i]);
}

TEST(FastDecoderDifferential, BothEntryPointsMatchReferenceAndInput) {
  // Longest codes on both sides of the default 11-bit window, and up to the
  // 58-bit limit; block sizes across the per-load group (5 symbols at
  // W = 11); block counts that leave 0..3 blocks after the groups of four;
  // and filler tails of 0, 1, 7, 8 and 9 bytes, which put the last
  // block's end in the last byte, in the second-to-last, in the first of
  // the last 8 bytes, just before them, and further before them.
  const std::size_t sizes[] = {0, 1, 2, 3, 7, 4095};
  std::size_t checked = 0;
  for (unsigned longest : {11u, 12u, 13u, 17u, 28u, 58u}) {
    const CodeTable t = half_longest_table(longest);
    ASSERT_TRUE(huff::kraft_valid(t.lengths()));
    ASSERT_EQ(t.max_length(), longest);
    const FastDecoder d(t);
    EXPECT_EQ(d.fully_tabled(), longest <= FastDecoder::kDefaultWindow);
    std::mt19937 rng(longest);
    // One list per uniform size, and one that mixes every size.
    std::vector<std::vector<std::size_t>> shapes;
    for (std::size_t n : sizes) shapes.emplace_back(1, n);
    shapes.emplace_back(std::begin(sizes), std::end(sizes));
    for (const auto& shape : shapes) {
      for (std::size_t count = 1; count <= 9; ++count) {
        std::vector<std::vector<std::uint8_t>> blocks;
        for (std::size_t b = 0; b < count; ++b) {
          blocks.push_back(
              half_longest_data(shape[b % shape.size()], longest, rng));
        }
        const Stream p(std::move(blocks), t);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(reference_decode(t, p.bytes, p.offsets[i],
                                     p.blocks[i].size()),
                    p.blocks[i])
              << "longest " << longest << " block " << i;
        }
        for (std::size_t tail : {0u, 1u, 7u, 8u, 9u}) {
          const Exact data(p, tail);
          const std::string where = "longest " + std::to_string(longest) +
                                    " first block " + std::to_string(shape[0]) +
                                    " x" + std::to_string(count) + " tail " +
                                    std::to_string(tail);
          std::vector<std::vector<std::uint8_t>> out;
          decode_grouped(d, data.span(), p, out);
          ASSERT_EQ(out, p.blocks) << where;
          // One block at a time; the tail moves only the last block's end.
          for (std::size_t i = tail == 0 ? 0 : count - 1; i < count; ++i) {
            ASSERT_EQ(d.decode(data.span(), p.blocks[i].size(), p.offsets[i]),
                      p.blocks[i])
                << where << " block " << i;
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 6u * 7u * 9u * 5u);
}

TEST(FastDecoderDifferential, TruncatedPayloadThrowsFromBothEntryPoints) {
  for (unsigned longest : {12u, 17u, 58u}) {
    const CodeTable t = half_longest_table(longest);
    const FastDecoder d(t);
    std::mt19937 rng(longest);
    // The last block ends in the last byte, so cutting that byte leaves
    // its last code unfinished: a read past the end or a truncated code.
    for (std::size_t count : {4u, 5u}) {
      std::vector<std::vector<std::uint8_t>> blocks;
      for (std::size_t b = 0; b < count; ++b) {
        blocks.push_back(half_longest_data(700, longest, rng));
      }
      const Stream p(std::move(blocks), t);
      for (std::size_t cut : {1u, 5u, 9u}) {
        const Exact data(p, 0, cut);
        std::vector<std::vector<std::uint8_t>> out;
        EXPECT_THROW(decode_grouped(d, data.span(), p, out), std::runtime_error)
            << "longest " << longest << " x" << count << " cut " << cut;
        EXPECT_THROW(reference_decode(t, data.span(), p.offsets.back(), 700),
                     std::runtime_error);
        EXPECT_THROW((void)d.decode(data.span(), p.blocks.back().size(),
                                    p.offsets.back()),
                     std::runtime_error);
      }
    }
  }
}

TEST(FastDecoderDifferential, InvalidCodeThrowsFromBothEntryPoints) {
  // Kraft-incomplete tables: 'a' = 0, 'b' = 10, and no code starts with
  // 11, so all-ones bits are invalid in the table; with a 20-bit code
  // 110…0 as well, the over-window walk finds them invalid instead.
  CodeLengths short_only{};
  short_only['a'] = 1;
  short_only['b'] = 2;
  CodeLengths with_long = short_only;
  with_long['c'] = 20;
  for (const CodeLengths& lengths : {short_only, with_long}) {
    const CodeTable t = CodeTable::from_lengths(lengths);
    const FastDecoder d(t);
    // Valid lanes of 'a'/'b' codes and, in lane `bad`, all-ones bits.
    for (std::size_t bad = 0; bad < FastDecoder::kLanes; ++bad) {
      std::vector<std::uint8_t> good(200, 'a');
      for (std::size_t i = 0; i < good.size(); i += 3) good[i] = 'b';
      const auto enc = huff::encode_block(good, t);
      std::vector<std::uint8_t> data(enc.bits.begin(), enc.bits.end());
      const std::uint64_t ones_at = data.size() * std::uint64_t{8};
      data.resize(data.size() + 64, 0xFF);
      std::array<std::uint64_t, FastDecoder::kLanes> starts{};
      std::array<std::vector<std::uint8_t>, FastDecoder::kLanes> store;
      std::array<std::span<std::uint8_t>, FastDecoder::kLanes> outs;
      for (std::size_t j = 0; j < FastDecoder::kLanes; ++j) {
        starts[j] = j == bad ? ones_at : 0;
        store[j].resize(good.size());
        outs[j] = store[j];
      }
      EXPECT_THROW(d.decode4_into(data, starts, outs), std::runtime_error)
          << "lane " << bad;
      EXPECT_THROW((void)d.decode(data, 10, ones_at), std::runtime_error);
      EXPECT_THROW(reference_decode(t, data, ones_at, 10), std::runtime_error);
    }
  }
}

}  // namespace
