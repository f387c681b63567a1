// FastDecoder: table-driven canonical Huffman decoding — the one decoder.
//
// A primary lookup table indexed by the next `window` bits resolves every
// code of length ≤ window in one load; longer codes take a canonical range
// walk. With length-limited codes (length_limited.h) the walk never runs
// and decoding is one table hit per symbol — the standard construction used
// by production decompressors (zlib, zstd's Huffman stage).
//
// The hot loop reads a 64-bit big-endian bit buffer: one unaligned 8-byte
// load gives at least 57 valid bits, enough for floor(57 / window) table
// hits before the next load. That loop runs without bounds checks, and only
// while every load it can make lies inside `data`; each block's last
// symbols and the last bytes of `data` go through a checked loop that
// throws std::runtime_error on a read past the end, a truncated code or an
// invalid code. decode4_into runs four independent blocks through the same
// loop in lockstep, so the core overlaps four load→length→shift chains
// (zstd splits its Huffman literals into four streams for the same reason).
//
// Every test round-trips decode(encode(x)) == x through this class, which
// is what proves that speculation, rollback and commit never corrupt output.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "huffman/canonical.h"

namespace huff {

class FastDecoder {
 public:
  /// Blocks one decode4_into call decodes together.
  static constexpr std::size_t kLanes = 4;
  /// The window every production caller uses: 5 table hits per load. It
  /// decoded TXT, BMP and PDF containers ~5 % faster than 12 (4 hits per
  /// load) on one thread, interleaved or not.
  static constexpr std::uint8_t kDefaultWindow = 11;

  /// Builds the lookup table. `window` ∈ [1, 16]; table memory is
  /// 2^window × 2 bytes. Throws std::invalid_argument on a bad window or a
  /// table with no coded symbols.
  explicit FastDecoder(const CodeTable& table,
                       std::uint8_t window = kDefaultWindow);

  /// Decodes exactly `out.size()` symbols from `data`, starting at
  /// `start_bit`, into `out`. Throws std::runtime_error on an invalid code
  /// or when the codes run past the end of `data`; `out` is then partly
  /// written.
  void decode_into(std::span<const std::uint8_t> data, std::uint64_t start_bit,
                   std::span<std::uint8_t> out) const;

  /// Decodes kLanes independent blocks in one interleaved loop: block j
  /// from `start_bits[j]` into `outs[j]`. Writes and throws what kLanes
  /// decode_into calls would (the first error found, in no fixed lane
  /// order); the spans must not overlap.
  void decode4_into(std::span<const std::uint8_t> data,
                    const std::array<std::uint64_t, kLanes>& start_bits,
                    const std::array<std::span<std::uint8_t>, kLanes>& outs) const;

  /// Decodes exactly `n_symbols` from `data` starting at `start_bit`.
  [[nodiscard]] std::vector<std::uint8_t> decode(
      std::span<const std::uint8_t> data, std::size_t n_symbols,
      std::uint64_t start_bit = 0) const;

  [[nodiscard]] std::uint8_t window() const { return window_; }

  /// True iff every code fits the window (no slow path possible).
  [[nodiscard]] bool fully_tabled() const { return fully_tabled_; }

 private:
  struct Entry {
    std::uint8_t symbol = 0;
    std::uint8_t length = 0;  ///< 0 = code longer than the window (slow path)
  };

  /// The lockstep loop behind decode_into (N = 1) and decode4_into.
  template <std::size_t N>
  void decode_lanes(std::span<const std::uint8_t> data,
                    const std::array<std::uint64_t, N>& start_bits,
                    const std::array<std::span<std::uint8_t>, N>& out) const;

  /// Slow path for a code longer than the window, at bit `pos < 8 ×
  /// data.size()`: the canonical range walk from length window+1 over the
  /// 64 bits at `pos`. Returns the code's symbol and length.
  [[nodiscard]] Entry decode_long(std::span<const std::uint8_t> data,
                                  std::uint64_t pos) const;

  std::uint8_t window_;
  /// Table hits one 64-bit load covers: floor(57 / window).
  std::uint8_t per_load_ = 0;
  bool fully_tabled_ = true;
  std::vector<Entry> table_;  ///< 2^window entries

  // Canonical range state per code length L (1..max_len_), for decode_long:
  //  first_code_[L]  — numeric value of the first code of length L
  //  first_index_[L] — index into symbols_ of that code's symbol
  //  count_[L]       — number of codes of length L
  std::array<std::uint64_t, kMaxCodeBits + 1> first_code_{};
  std::array<std::uint32_t, kMaxCodeBits + 1> first_index_{};
  std::array<std::uint32_t, kMaxCodeBits + 1> count_{};
  std::vector<std::uint8_t> symbols_;  ///< symbols in (length, symbol) order
  std::uint8_t max_len_ = 0;
};

}  // namespace huff
