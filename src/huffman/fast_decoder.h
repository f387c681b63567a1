// FastDecoder: table-driven canonical Huffman decoding — the one decoder.
//
// A primary lookup table indexed by the next `window` bits resolves every
// code of length ≤ window in one load; longer codes fall back to a private
// canonical range walk. With length-limited codes (length_limited.h) the
// fallback never triggers and decoding is one table hit per symbol — the
// standard construction used by production decompressors (zlib, zstd's
// Huffman stage).
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
  /// Builds the lookup table. `window` ∈ [1, 16]; table memory is
  /// 2^window × 2 bytes. Throws std::invalid_argument on a bad window or a
  /// table with no coded symbols.
  explicit FastDecoder(const CodeTable& table, std::uint8_t window = 12);

  /// Decodes exactly `out.size()` symbols from `data`, starting at
  /// `start_bit`, into `out`. Throws std::runtime_error on an invalid code
  /// or when the codes run past the end of `data`; `out` is then partly
  /// written.
  void decode_into(std::span<const std::uint8_t> data, std::uint64_t start_bit,
                   std::span<std::uint8_t> out) const;

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

  /// Slow path for a code longer than the window: continues the canonical
  /// range walk from length window+1, given the `prefix` (the window bits
  /// at `pos`). Advances `pos` past the code and returns its symbol.
  [[nodiscard]] std::uint8_t decode_long(std::span<const std::uint8_t> data,
                                         std::uint64_t& pos,
                                         std::uint32_t prefix) const;

  std::uint8_t window_;
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
