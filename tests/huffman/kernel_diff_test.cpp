// Differential suite for the data-plane kernel contract (docs/data-plane.md,
// "Kernel contract"): each fast kernel must match its reference bit for bit
// (Histogram::count against detail::hist_scalar, the word packer behind
// encode_block and encode_block_into against detail::encode_reference), a
// compress_buffer container must equal one built from the reference kernels
// alone, and containers must round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "huffman/canonical.h"
#include "huffman/encoder.h"
#include "huffman/fast_decoder.h"
#include "huffman/hist_kernels.h"
#include "huffman/histogram.h"
#include "huffman/offsets.h"
#include "huffman/stream_format.h"
#include "huffman/tree.h"
#include "workload/corpus.h"

namespace {

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
    for (std::size_t s = 0; s < 256; ++s) {
      ASSERT_EQ(swar[s], ref[s]) << "swar sym " << s << " n=" << data.size();
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
  huff::detail::hist_swar(data, twice);  // counted twice
  for (std::size_t s = 0; s < 256; ++s) ASSERT_EQ(twice[s], ref[s]) << s;
}

/// Histogram of `data` from the reference kernel alone.
huff::Histogram scalar_histogram(std::span<const std::uint8_t> data) {
  huff::Histogram h;
  huff::detail::hist_scalar(data, &h.at(0));
  return h;
}

TEST(KernelDiff, HistogramDispatchMatchesScalarAtEveryLevel) {
  // Histogram::count, the production entry, against the reference.
  for (const auto& data : corpora()) {
    ASSERT_EQ(huff::Histogram::of(data), scalar_histogram(data))
        << "n=" << data.size();
  }
}

// --- Encoder kernels -------------------------------------------------------

TEST(KernelDiff, EncodeBlockBitIdenticalAcrossLevels) {
  for (const auto& data : corpora()) {
    if (data.empty()) continue;
    const auto table = huff::CodeTable::from_histogram(
        huff::Histogram::of(data).with_floor(1));
    const huff::EncodedBlock ref = huff::detail::encode_reference(data, table);
    const huff::EncodedBlock enc = huff::encode_block(data, table);
    ASSERT_EQ(enc.bit_count, ref.bit_count) << "n=" << data.size();
    ASSERT_TRUE(enc.bits == ref.bits) << "n=" << data.size();
  }
}

TEST(KernelDiff, EncodeBlockIntoMatchesEncodeBlock) {
  for (const auto& data : corpora()) {
    if (data.empty()) continue;
    const huff::Histogram hist = huff::Histogram::of(data);
    const auto table = huff::CodeTable::from_histogram(hist.with_floor(1));
    const huff::EncodedBlock ref = huff::encode_block(data, table);
    auto storage = std::make_shared<std::vector<std::uint8_t>>(
        (table.encoded_bits(hist) + 7) / 8);
    const huff::EncodedBlock enc = huff::encode_block_into(
        data, table, {storage->data(), storage->size()}, storage);
    ASSERT_EQ(enc.bit_count, ref.bit_count) << "n=" << data.size();
    ASSERT_TRUE(enc.bits == ref.bits) << "n=" << data.size();
    ASSERT_EQ(enc.bits.data(), storage->data());  // wrote in place
  }
}

TEST(KernelDiff, EncodeBlockIntoRejectsUndersizedOutput) {
  const auto data = uniform_random(4096, 1);
  const auto table = huff::CodeTable::from_histogram(
      huff::Histogram::of(data).with_floor(1));
  const std::uint64_t nbits = table.encoded_bits(huff::Histogram::of(data));
  auto storage = std::make_shared<std::vector<std::uint8_t>>(
      (nbits + 7) / 8 - 1);  // one byte short
  EXPECT_THROW(huff::encode_block_into(
                   data, table, {storage->data(), storage->size()}, storage),
               std::logic_error);
}

TEST(KernelDiff, EncodeThrowsOnCodelessSymbolAtEveryLevel) {
  // Table over 'a'..'b' only; input contains 'z'.
  huff::Histogram h;
  h.at('a') = 10;
  h.at('b') = 3;
  const auto table = huff::CodeTable::from_histogram(h);
  const std::vector<std::uint8_t> bad = {'a', 'z', 'b'};
  EXPECT_THROW((void)huff::detail::encode_reference(bad, table),
               std::invalid_argument);
  EXPECT_THROW((void)huff::encode_block(bad, table), std::invalid_argument);
}

// --- Packer edges ----------------------------------------------------------
//
// The word packer takes two codes per step up to 28-bit codes, one up to 56
// bits, and hands longer tables to the BitWriter reference; its word loop
// stops where a full 8-byte store would leave `out`, and the last bytes go
// one at a time. These cases pin each of those paths to the reference bytes.

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
  for (unsigned longest : {28u, 29u, 56u, 58u}) {
    const auto table = chain_table(longest);
    ASSERT_EQ(table.max_length(), longest);
    const huff::FastDecoder decoder(table);
    for (std::size_t n : {0u, 1u, 2u, 3u, 4095u}) {
      const auto data = chain_data(n, longest, 1000 + longest);
      const huff::EncodedBlock ref = huff::detail::encode_reference(data, table);
      ASSERT_EQ(ref.bit_count, table.encoded_bits(huff::Histogram::of(data)));
      const huff::EncodedBlock block = huff::encode_block(data, table);
      const huff::EncodedBlock into = encode_exact(data, table, ref.bit_count);
      for (const auto* enc : {&block, &into}) {
        ASSERT_EQ(enc->bit_count, ref.bit_count)
            << "longest=" << longest << " n=" << n;
        ASSERT_TRUE(enc->bits == ref.bits)
            << "longest=" << longest << " n=" << n;
      }
      ASSERT_EQ(decoder.decode(into.bits, n), data)
          << "longest=" << longest << " n=" << n;
    }
  }
}

TEST(KernelDiff, OutputsEndingOnAndInsideTheLastWordMatchScalar) {
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
      const huff::EncodedBlock ref = huff::detail::encode_reference(data, table);
      (ref.bit_count % 64 == 0 ? on_word : inside_word) += 1;
      const huff::EncodedBlock enc = encode_exact(data, table, ref.bit_count);
      ASSERT_EQ(enc.bit_count, ref.bit_count)
          << "longest=" << table.max_length() << " n=" << n;
      ASSERT_TRUE(enc.bits == ref.bits)
          << "longest=" << table.max_length() << " n=" << n;
    }
  }
  EXPECT_GE(on_word, 12u);
  EXPECT_GE(inside_word, 100u);
}

TEST(KernelDiff, UndersizedOutputThrowsWithoutWritingPastIt) {
  for (unsigned longest : {20u, 40u, 58u}) {
    const auto table = chain_table(longest);
    const auto data = chain_data(4095, longest, longest);
    const std::size_t exact =
        (table.encoded_bits(huff::Histogram::of(data)) + 7) / 8;
    for (std::size_t short_by : {std::size_t{1}, std::size_t{7},
                                 std::size_t{8}, std::size_t{9}, exact}) {
      const std::size_t size = exact - short_by;
      // Exact-size heap storage: asan reports any store past it.
      std::shared_ptr<std::uint8_t[]> heap(new std::uint8_t[size]);
      EXPECT_THROW((void)huff::encode_block_into(data, table,
                                                 {heap.get(), size}, heap),
                   std::logic_error)
          << "longest=" << longest << " size=" << size;
      // A guard zone after `out` must come back untouched.
      auto guarded = std::make_shared<std::vector<std::uint8_t>>(
          size + 64, std::uint8_t{0xA5});
      EXPECT_THROW((void)huff::encode_block_into(
                       data, table, {guarded->data(), size}, guarded),
                   std::logic_error);
      EXPECT_TRUE(std::all_of(guarded->begin() + static_cast<long>(size),
                              guarded->end(),
                              [](std::uint8_t b) { return b == 0xA5; }))
          << "longest=" << longest << " size=" << size;
    }
  }
}

TEST(KernelDiff, CodelessSymbolThrowsInvalidArgumentAnywhereInTheBlock) {
  const auto table = chain_table(20);  // symbols 0..20 have codes
  for (std::size_t at : {std::size_t{0}, std::size_t{100}, std::size_t{4094}}) {
    auto data = chain_data(4095, 20, 3);
    data[at] = 200;
    const std::size_t exact =
        (table.encoded_bits(huff::Histogram::of(data)) + 7) / 8;
    EXPECT_THROW((void)huff::detail::encode_reference(data, table),
                 std::invalid_argument)
        << "at=" << at;
    EXPECT_THROW((void)huff::encode_block(data, table), std::invalid_argument)
        << "at=" << at;
    // The code-less symbol outranks an undersized buffer, as in the
    // reference, which encodes the whole block before it copies.
    for (std::size_t size : {exact, exact / 2}) {
      std::shared_ptr<std::uint8_t[]> heap(new std::uint8_t[size]);
      EXPECT_THROW((void)huff::encode_block_into(data, table,
                                                 {heap.get(), size}, heap),
                   std::invalid_argument)
          << "at=" << at << " size=" << size;
    }
  }
}

// --- Whole containers against the reference kernels -----------------------

/// What compress_buffer must write for `data`, built from the reference
/// kernels alone: a hist_scalar per block, the table of the merged counts,
/// the blocks' offsets and an encode_reference per block, spliced by
/// huff::assemble.
struct ReferenceContainer {
  huff::CodeLengths lengths;
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint8_t> payload;
};

ReferenceContainer reference_container(std::span<const std::uint8_t> data,
                                       std::size_t block_size) {
  std::vector<std::span<const std::uint8_t>> blocks;
  std::vector<huff::Histogram> hists;
  for (std::size_t b = 0; b < data.size(); b += block_size) {
    blocks.push_back(data.subspan(b, std::min(block_size, data.size() - b)));
    hists.push_back(scalar_histogram(blocks.back()));
  }
  const auto table =
      huff::CodeTable::from_histogram(huff::Histogram::merged(hists));
  ReferenceContainer ref{table.lengths(), huff::all_offsets(hists, table), {}};
  std::vector<huff::EncodedBlock> encoded;
  for (const auto block : blocks) {
    encoded.push_back(huff::detail::encode_reference(block, table));
  }
  ref.payload = huff::assemble(encoded, ref.offsets);
  return ref;
}

/// compress_buffer's default block size.
constexpr std::uint32_t kBlockSize = 4096;

/// compress_buffer(data, block_size) against reference_container: same
/// code lengths, block index and payload bytes; and it round-trips.
void expect_matches_reference(const std::vector<std::uint8_t>& data,
                              std::uint32_t block_size,
                              const std::string& what) {
  const auto container = huff::compress_buffer(data, block_size);
  const huff::CompressedStream s = huff::deserialize(container);
  const ReferenceContainer ref = reference_container(data, block_size);
  ASSERT_EQ(s.lengths, ref.lengths) << what;
  ASSERT_EQ(s.block_offsets, ref.offsets) << what;
  ASSERT_EQ(s.payload, ref.payload) << what;
  ASSERT_EQ(huff::decompress_buffer(container), data) << what;
}

TEST(KernelDiff, CompressBufferMatchesScalarOnEveryCorpusKind) {
  for (wl::FileKind kind : wl::all_kinds()) {
    const auto data = wl::make_corpus(kind, (256 << 10) + 4095, 7);
    expect_matches_reference(data, kBlockSize, wl::to_string(kind));
  }
}

TEST(KernelDiff, ContainersBitIdenticalAndRoundTripAcrossLevels) {
  for (const auto& data : corpora()) {
    expect_matches_reference(data, kBlockSize,
                             "n=" + std::to_string(data.size()));
  }
}

TEST(KernelDiff, RandomizedContainerFuzzAcrossLevels) {
  std::mt19937 rng(20260809);
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t n = rng() % 20000;
    std::vector<std::uint8_t> data;
    switch (iter % 3) {
      case 0: data = uniform_random(n, rng()); break;
      case 1: data = one_symbol(n, static_cast<std::uint8_t>(rng())); break;
      default: data = skewed(n, rng()); break;
    }
    expect_matches_reference(data, /*block_size=*/1024,
                             "iter=" + std::to_string(iter) +
                                 " n=" + std::to_string(n));
  }
}

}  // namespace
