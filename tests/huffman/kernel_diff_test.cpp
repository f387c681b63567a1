// Differential suite for the data-plane kernel dispatch contract
// (docs/data-plane.md): every tvs::simd level must produce bit-identical
// histograms and containers, and containers must round-trip. Run directly
// it sweeps all levels in-process via force(); `tools/ci.sh kernels` also
// runs it with TVS_SIMD forced through the environment under asan/ubsan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "huffman/canonical.h"
#include "huffman/encoder.h"
#include "huffman/fast_decoder.h"
#include "huffman/hist_kernels.h"
#include "huffman/histogram.h"
#include "huffman/stream_format.h"
#include "huffman/tree.h"
#include "simd/simd.h"
#include "workload/corpus.h"

namespace {

using tvs::simd::Level;

/// Restores the pre-test dispatch level even on assertion failure.
struct ForceGuard {
  ~ForceGuard() { tvs::simd::clear_force(); }
};

std::vector<Level> levels_to_test() {
  std::vector<Level> out{Level::Scalar, Level::Swar};
  if (tvs::simd::detect() == Level::Avx2) out.push_back(Level::Avx2);
  return out;
}

// --- Corpora ---------------------------------------------------------------

std::vector<std::uint8_t> uniform_random(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

std::vector<std::uint8_t> one_symbol(std::size_t n, std::uint8_t sym) {
  return std::vector<std::uint8_t>(n, sym);
}

/// Heavily skewed: long runs of few symbols (text-like, deep codes).
std::vector<std::uint8_t> skewed(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::geometric_distribution<int> g(0.4);
  std::vector<std::uint8_t> v(n);
  std::size_t i = 0;
  while (i < n) {
    const auto sym = static_cast<std::uint8_t>(g(rng) & 0xff);
    const std::size_t run = 1 + (rng() % 64);
    for (std::size_t k = 0; k < run && i < n; ++k) v[i++] = sym;
  }
  return v;
}

std::vector<std::vector<std::uint8_t>> corpora() {
  // Sizes straddle block boundaries: empty, single byte, one byte short of
  // a block, exactly one block, several blocks plus a ragged tail.
  const std::size_t sizes[] = {0, 1, 4095, 4096, 65536 + 17};
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t n : sizes) {
    out.push_back(uniform_random(n, 0xC0FFEE));  // incompressible
    out.push_back(one_symbol(n, 'x'));           // degenerate 1-symbol
    out.push_back(skewed(n, 42));                // deep, uneven codes
  }
  return out;
}

// --- Histogram kernels -----------------------------------------------------

TEST(KernelDiff, HistogramKernelsAgreeOnAllCorpora) {
  for (const auto& data : corpora()) {
    std::uint64_t ref[256] = {};
    huff::detail::hist_scalar(data, ref);
    std::uint64_t swar[256] = {};
    huff::detail::hist_swar(data, swar);
    std::uint64_t avx[256] = {};
    huff::detail::hist_avx2(data, avx);
    for (std::size_t s = 0; s < 256; ++s) {
      ASSERT_EQ(swar[s], ref[s]) << "swar sym " << s << " n=" << data.size();
      ASSERT_EQ(avx[s], ref[s]) << "avx2 sym " << s << " n=" << data.size();
    }
  }
}

TEST(KernelDiff, KernelsAccumulateIntoNonZeroCounts) {
  const auto data = skewed(10000, 7);
  std::uint64_t ref[256] = {};
  huff::detail::hist_scalar(data, ref);
  huff::detail::hist_scalar(data, ref);  // counted twice
  std::uint64_t twice[256] = {};
  huff::detail::hist_swar(data, twice);
  huff::detail::hist_avx2(data, twice);  // swar + avx2 = counted twice
  for (std::size_t s = 0; s < 256; ++s) ASSERT_EQ(twice[s], ref[s]) << s;
}

TEST(KernelDiff, HistogramDispatchMatchesScalarAtEveryLevel) {
  const ForceGuard guard;
  for (const auto& data : corpora()) {
    tvs::simd::force(Level::Scalar);
    const huff::Histogram ref = huff::Histogram::of(data);
    for (Level lvl : levels_to_test()) {
      tvs::simd::force(lvl);
      ASSERT_EQ(huff::Histogram::of(data), ref)
          << tvs::simd::name(lvl) << " n=" << data.size();
    }
  }
}

// --- Encoder kernels -------------------------------------------------------

TEST(KernelDiff, EncodeBlockBitIdenticalAcrossLevels) {
  const ForceGuard guard;
  for (const auto& data : corpora()) {
    if (data.empty()) continue;
    const auto table = huff::CodeTable::from_histogram(
        huff::Histogram::of(data).with_floor(1));
    tvs::simd::force(Level::Scalar);
    const huff::EncodedBlock ref = huff::encode_block(data, table);
    for (Level lvl : levels_to_test()) {
      tvs::simd::force(lvl);
      const huff::EncodedBlock enc = huff::encode_block(data, table);
      ASSERT_EQ(enc.bit_count, ref.bit_count)
          << tvs::simd::name(lvl) << " n=" << data.size();
      ASSERT_TRUE(enc.bits == ref.bits)
          << tvs::simd::name(lvl) << " n=" << data.size();
    }
  }
}

TEST(KernelDiff, EncodeBlockIntoMatchesEncodeBlock) {
  const ForceGuard guard;
  for (Level lvl : levels_to_test()) {
    tvs::simd::force(lvl);
    for (const auto& data : corpora()) {
      if (data.empty()) continue;
      const huff::Histogram hist = huff::Histogram::of(data);
      const auto table = huff::CodeTable::from_histogram(hist.with_floor(1));
      const huff::EncodedBlock ref = huff::encode_block(data, table);
      auto storage = std::make_shared<std::vector<std::uint8_t>>(
          (table.encoded_bits(hist) + 7) / 8);
      const huff::EncodedBlock enc = huff::encode_block_into(
          data, table, {storage->data(), storage->size()}, storage);
      ASSERT_EQ(enc.bit_count, ref.bit_count) << tvs::simd::name(lvl);
      ASSERT_TRUE(enc.bits == ref.bits) << tvs::simd::name(lvl);
      ASSERT_EQ(enc.bits.data(), storage->data());  // wrote in place
    }
  }
}

TEST(KernelDiff, EncodeBlockIntoRejectsUndersizedOutput) {
  const ForceGuard guard;
  const auto data = uniform_random(4096, 1);
  const auto table = huff::CodeTable::from_histogram(
      huff::Histogram::of(data).with_floor(1));
  const std::uint64_t nbits = huff::encoded_bit_count(data, table);
  auto storage = std::make_shared<std::vector<std::uint8_t>>(
      (nbits + 7) / 8 - 1);  // one byte short
  for (Level lvl : levels_to_test()) {
    tvs::simd::force(lvl);
    EXPECT_THROW(huff::encode_block_into(
                     data, table, {storage->data(), storage->size()}, storage),
                 std::logic_error)
        << tvs::simd::name(lvl);
  }
}

TEST(KernelDiff, EncodeThrowsOnCodelessSymbolAtEveryLevel) {
  const ForceGuard guard;
  // Table over 'a'..'b' only; input contains 'z'.
  huff::Histogram h;
  h.at('a') = 10;
  h.at('b') = 3;
  const auto table = huff::CodeTable::from_histogram(h);
  const std::vector<std::uint8_t> bad = {'a', 'z', 'b'};
  for (Level lvl : levels_to_test()) {
    tvs::simd::force(lvl);
    EXPECT_THROW((void)huff::encode_block(bad, table), std::invalid_argument)
        << tvs::simd::name(lvl);
  }
}

// --- Packer edges ----------------------------------------------------------
//
// The word packer takes two codes per step up to 28-bit codes, one up to 56
// bits, and hands longer tables to the BitWriter reference; its word loop
// stops where a full 8-byte store would leave `out`, and the last bytes go
// one at a time. These cases pin each of those paths to the Scalar bytes.

/// Kraft-complete lengths whose longest code is exactly `longest`: symbol s
/// gets s + 1 bits for s < longest - 1, and symbols longest - 1 and longest
/// both get `longest` bits.
huff::CodeTable chain_table(unsigned longest) {
  huff::CodeLengths lengths{};
  for (unsigned s = 0; s + 1 < longest; ++s) {
    lengths[s] = static_cast<std::uint8_t>(s + 1);
  }
  lengths[longest - 1] = static_cast<std::uint8_t>(longest);
  lengths[longest] = static_cast<std::uint8_t>(longest);
  return huff::CodeTable::from_lengths(lengths);
}

/// `n` symbols of a chain_table(longest): half of them, on average, one of
/// the two longest codes (so steps that fill the register to 7 pending bits
/// + 2 × longest occur), the rest uniform over every coded symbol. The last
/// symbol is always a longest code.
std::vector<std::uint8_t> chain_data(std::size_t n, unsigned longest,
                                     std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) {
    b = static_cast<std::uint8_t>(rng() % 2 == 0 ? longest - rng() % 2
                                                 : rng() % (longest + 1));
  }
  if (n > 0) v.back() = static_cast<std::uint8_t>(longest);
  return v;
}

/// encode_block_into `data` through an exact-size heap buffer (so asan sees
/// any store past it) and through the same size in front of a guard zone
/// (so any build sees one); checks the two agree and the guard is intact.
huff::EncodedBlock encode_exact(std::span<const std::uint8_t> data,
                                const huff::CodeTable& table,
                                std::uint64_t nbits) {
  const std::size_t bytes = (nbits + 7) / 8;
  auto guarded = std::make_shared<std::vector<std::uint8_t>>(
      bytes + 64, std::uint8_t{0xA5});
  const huff::EncodedBlock in_guarded = huff::encode_block_into(
      data, table, {guarded->data(), bytes}, guarded);
  EXPECT_TRUE(std::all_of(guarded->begin() + static_cast<long>(bytes),
                          guarded->end(),
                          [](std::uint8_t b) { return b == 0xA5; }))
      << "store past out, n=" << data.size();
  std::shared_ptr<std::uint8_t[]> storage(new std::uint8_t[bytes]);
  huff::EncodedBlock enc = huff::encode_block_into(
      data, table, {storage.get(), bytes}, storage);
  EXPECT_TRUE(enc.bits == in_guarded.bits) << "n=" << data.size();
  return enc;
}

TEST(KernelDiff, CraftedLongestCodesBitIdenticalAndRoundTrip) {
  const ForceGuard guard;
  for (unsigned longest : {28u, 29u, 56u, 58u}) {
    const auto table = chain_table(longest);
    ASSERT_EQ(table.max_length(), longest);
    const huff::FastDecoder decoder(table);
    for (std::size_t n : {0u, 1u, 2u, 3u, 4095u}) {
      const auto data = chain_data(n, longest, 1000 + longest);
      tvs::simd::force(Level::Scalar);
      const huff::EncodedBlock ref = huff::encode_block(data, table);
      ASSERT_EQ(ref.bit_count, huff::encoded_bit_count(data, table));
      for (Level lvl : levels_to_test()) {
        tvs::simd::force(lvl);
        const huff::EncodedBlock block = huff::encode_block(data, table);
        const huff::EncodedBlock into = encode_exact(data, table, ref.bit_count);
        for (const auto* enc : {&block, &into}) {
          ASSERT_EQ(enc->bit_count, ref.bit_count)
              << tvs::simd::name(lvl) << " longest=" << longest << " n=" << n;
          ASSERT_TRUE(enc->bits == ref.bits)
              << tvs::simd::name(lvl) << " longest=" << longest << " n=" << n;
        }
        ASSERT_EQ(decoder.decode(into.bits, n), data)
            << tvs::simd::name(lvl) << " longest=" << longest << " n=" << n;
      }
    }
  }
}

TEST(KernelDiff, OutputsEndingOnAndInsideTheLastWordMatchScalar) {
  const ForceGuard guard;
  // Every block length 0..96 under a 2-code-per-step table, a 1-code one
  // and an all-8-bit one, whose outputs end on a 64-bit word whenever the
  // length is a multiple of 8.
  huff::CodeLengths flat{};
  flat.fill(8);
  const huff::CodeTable tables[] = {chain_table(20), chain_table(40),
                                    huff::CodeTable::from_lengths(flat)};
  std::size_t on_word = 0;
  std::size_t inside_word = 0;
  for (const auto& table : tables) {
    for (std::size_t n = 0; n <= 96; ++n) {
      const auto data = chain_data(n, table.max_length(), n);
      tvs::simd::force(Level::Scalar);
      const huff::EncodedBlock ref = huff::encode_block(data, table);
      (ref.bit_count % 64 == 0 ? on_word : inside_word) += 1;
      for (Level lvl : levels_to_test()) {
        tvs::simd::force(lvl);
        const huff::EncodedBlock enc = encode_exact(data, table, ref.bit_count);
        ASSERT_EQ(enc.bit_count, ref.bit_count) << tvs::simd::name(lvl);
        ASSERT_TRUE(enc.bits == ref.bits)
            << tvs::simd::name(lvl) << " longest=" << table.max_length()
            << " n=" << n;
      }
    }
  }
  EXPECT_GE(on_word, 12u);
  EXPECT_GE(inside_word, 100u);
}

TEST(KernelDiff, UndersizedOutputThrowsWithoutWritingPastIt) {
  const ForceGuard guard;
  for (unsigned longest : {20u, 40u, 58u}) {
    const auto table = chain_table(longest);
    const auto data = chain_data(4095, longest, longest);
    const std::size_t exact = (huff::encoded_bit_count(data, table) + 7) / 8;
    for (std::size_t short_by : {std::size_t{1}, std::size_t{7},
                                 std::size_t{8}, std::size_t{9}, exact}) {
      const std::size_t size = exact - short_by;
      for (Level lvl : levels_to_test()) {
        tvs::simd::force(lvl);
        // Exact-size heap storage: asan reports any store past it.
        std::shared_ptr<std::uint8_t[]> heap(new std::uint8_t[size]);
        EXPECT_THROW((void)huff::encode_block_into(data, table,
                                                   {heap.get(), size}, heap),
                     std::logic_error)
            << tvs::simd::name(lvl) << " longest=" << longest
            << " size=" << size;
        // A guard zone after `out` must come back untouched.
        auto guarded = std::make_shared<std::vector<std::uint8_t>>(
            size + 64, std::uint8_t{0xA5});
        EXPECT_THROW((void)huff::encode_block_into(
                         data, table, {guarded->data(), size}, guarded),
                     std::logic_error);
        EXPECT_TRUE(std::all_of(guarded->begin() + static_cast<long>(size),
                                guarded->end(),
                                [](std::uint8_t b) { return b == 0xA5; }))
            << tvs::simd::name(lvl) << " longest=" << longest
            << " size=" << size;
      }
    }
  }
}

TEST(KernelDiff, CodelessSymbolThrowsInvalidArgumentAnywhereInTheBlock) {
  const ForceGuard guard;
  const auto table = chain_table(20);  // symbols 0..20 have codes
  for (std::size_t at : {std::size_t{0}, std::size_t{100}, std::size_t{4094}}) {
    auto data = chain_data(4095, 20, 3);
    data[at] = 200;
    const std::size_t exact = (huff::encoded_bit_count(data, table) + 7) / 8;
    for (Level lvl : levels_to_test()) {
      tvs::simd::force(lvl);
      EXPECT_THROW((void)huff::encode_block(data, table), std::invalid_argument)
          << tvs::simd::name(lvl) << " at=" << at;
      // The code-less symbol outranks an undersized buffer, as in the
      // reference, which encodes the whole block before it copies.
      for (std::size_t size : {exact, exact / 2}) {
        std::shared_ptr<std::uint8_t[]> heap(new std::uint8_t[size]);
        EXPECT_THROW((void)huff::encode_block_into(data, table,
                                                   {heap.get(), size}, heap),
                     std::invalid_argument)
            << tvs::simd::name(lvl) << " at=" << at << " size=" << size;
      }
    }
  }
}

TEST(KernelDiff, CompressBufferMatchesScalarOnEveryCorpusKind) {
  const ForceGuard guard;
  for (wl::FileKind kind : wl::all_kinds()) {
    const auto data = wl::make_corpus(kind, (256 << 10) + 4095, 7);
    tvs::simd::force(Level::Scalar);
    const auto ref = huff::compress_buffer(data);
    for (Level lvl : levels_to_test()) {
      tvs::simd::force(lvl);
      const auto container = huff::compress_buffer(data);
      ASSERT_EQ(container, ref)
          << tvs::simd::name(lvl) << " " << wl::to_string(kind);
      ASSERT_EQ(huff::decompress_buffer(container), data)
          << tvs::simd::name(lvl) << " " << wl::to_string(kind);
    }
  }
}

// --- Whole-container differential fuzz -------------------------------------

TEST(KernelDiff, ContainersBitIdenticalAndRoundTripAcrossLevels) {
  const ForceGuard guard;
  for (const auto& data : corpora()) {
    tvs::simd::force(Level::Scalar);
    const auto ref = huff::compress_buffer(data);
    for (Level lvl : levels_to_test()) {
      tvs::simd::force(lvl);
      const auto container = huff::compress_buffer(data);
      ASSERT_EQ(container, ref)
          << tvs::simd::name(lvl) << " n=" << data.size();
      ASSERT_EQ(huff::decompress_buffer(container), data)
          << tvs::simd::name(lvl) << " n=" << data.size();
    }
  }
}

TEST(KernelDiff, RandomizedContainerFuzzAcrossLevels) {
  const ForceGuard guard;
  std::mt19937 rng(20260809);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t n = rng() % 20000;
    std::vector<std::uint8_t> data;
    switch (iter % 3) {
      case 0: data = uniform_random(n, rng()); break;
      case 1: data = one_symbol(n, static_cast<std::uint8_t>(rng())); break;
      default: data = skewed(n, rng()); break;
    }
    tvs::simd::force(Level::Scalar);
    const auto ref = huff::compress_buffer(data, /*block_size=*/1024);
    for (Level lvl : levels_to_test()) {
      tvs::simd::force(lvl);
      ASSERT_EQ(huff::compress_buffer(data, 1024), ref)
          << tvs::simd::name(lvl) << " iter=" << iter << " n=" << n;
    }
    ASSERT_EQ(huff::decompress_buffer(ref), data) << "iter=" << iter;
  }
}

// --- Dispatch plumbing -----------------------------------------------------

// Must run before any other test hands parse() an unrecognized value: the
// warning fires once per process, and this test owns that first shot.
TEST(SimdProbe, WarnsOnceOnUnrecognizedValue) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(tvs::simd::parse("axv2"), tvs::simd::detect());   // typo: warns
  EXPECT_EQ(tvs::simd::parse("bogus"), tvs::simd::detect());  // silent now
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unrecognized TVS_SIMD"), std::string::npos)
      << "a typo'd TVS_SIMD must not silently become auto-detect";
  EXPECT_NE(err.find("axv2"), std::string::npos);
  EXPECT_NE(err.find("auto-detect"), std::string::npos);
  EXPECT_EQ(err.find("bogus"), std::string::npos) << "warns once per process";
}

TEST(SimdProbe, ParseHonorsTheTvsSimdGrammar) {
  EXPECT_EQ(tvs::simd::parse("0"), Level::Scalar);
  EXPECT_EQ(tvs::simd::parse("scalar"), Level::Scalar);
  EXPECT_EQ(tvs::simd::parse("1"), Level::Swar);
  EXPECT_EQ(tvs::simd::parse("swar"), Level::Swar);
  EXPECT_EQ(tvs::simd::parse("unrolled"), Level::Swar);
  // "2"/"avx2" clamps to the CPU's best; either way it never exceeds it.
  EXPECT_EQ(tvs::simd::parse("2"), tvs::simd::detect());
  EXPECT_EQ(tvs::simd::parse("avx2"), tvs::simd::detect());
  EXPECT_EQ(tvs::simd::parse("auto"), tvs::simd::detect());
  EXPECT_EQ(tvs::simd::parse(""), tvs::simd::detect());
  EXPECT_EQ(tvs::simd::parse(nullptr), tvs::simd::detect());
  EXPECT_EQ(tvs::simd::parse("bogus"), tvs::simd::detect());
}

TEST(SimdProbe, ForceOverridesAndClampsToCpuCapability) {
  const ForceGuard guard;
  tvs::simd::force(Level::Scalar);
  EXPECT_EQ(tvs::simd::active(), Level::Scalar);
  tvs::simd::force(Level::Avx2);
  EXPECT_EQ(tvs::simd::active(), tvs::simd::detect());  // clamped if no AVX2
  tvs::simd::clear_force();
}

TEST(SimdProbe, LevelNamesAreStable) {
  EXPECT_STREQ(tvs::simd::name(Level::Scalar), "scalar");
  EXPECT_STREQ(tvs::simd::name(Level::Swar), "swar");
  EXPECT_STREQ(tvs::simd::name(Level::Avx2), "avx2");
}

}  // namespace
