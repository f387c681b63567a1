// Canonical Huffman codes.
//
// Given per-symbol code lengths, canonical assignment produces the unique
// code set where codes of equal length are consecutive integers ordered by
// symbol and shorter codes numerically precede longer ones. Two benefits:
//  * a code table is fully described by its 256 lengths (compact headers);
//  * encode/decode need no tree walk — table lookups only.
#pragma once

#include <array>
#include <cstdint>

#include "huffman/tree.h"

namespace huff {

/// Fully materialized encoder table: for each byte value, its code bits
/// (right-aligned, MSB-first within the code) and length.
class CodeTable {
 public:
  /// The word packer's per-symbol entry (encoder.cpp): `code << 8 | length`
  /// for a coded symbol, kNoCode for a symbol without a code. Exact for
  /// codes of at most kPackedBits; a table with longer codes is encoded by
  /// the BitWriter reference instead.
  static constexpr unsigned kPackedBits = 56;
  static constexpr unsigned kCodeShift = 8;
  static constexpr std::uint64_t kLengthMask = 0x3F;
  /// Length 0 and code 0, so a no-code entry moves no bits; the flag bit
  /// lies above every real length, so OR-ing a block's entries detects it.
  static constexpr std::uint64_t kNoCode = 0x80;

  CodeTable() = default;

  /// Builds the canonical table from code lengths. Throws
  /// std::invalid_argument if the lengths violate the Kraft inequality
  /// (i.e. do not describe a prefix-free code).
  static CodeTable from_lengths(const CodeLengths& lengths);

  /// Convenience: canonical table of the Huffman tree for `hist`.
  static CodeTable from_histogram(const Histogram& hist) {
    return from_lengths(HuffmanTree::build(hist).lengths());
  }

  [[nodiscard]] std::uint64_t code(std::size_t symbol) const {
    return codes_[symbol];
  }
  [[nodiscard]] std::uint8_t length(std::size_t symbol) const {
    return lengths_[symbol];
  }
  [[nodiscard]] const CodeLengths& lengths() const { return lengths_; }

  /// Longest code length (0 for a table with no codes).
  [[nodiscard]] unsigned max_length() const { return max_length_; }

  /// Packer entries, one per symbol (see kPackedBits).
  [[nodiscard]] const std::array<std::uint64_t, kSymbols>& packed() const {
    return packed_;
  }

  /// True iff `symbol` has a code (length > 0).
  [[nodiscard]] bool has_code(std::size_t symbol) const {
    return lengths_[symbol] != 0;
  }

  /// True iff every symbol of `hist` is encodable with this table.
  [[nodiscard]] bool covers(const Histogram& hist) const;

  /// Exact compressed payload size in bits for data distributed per `hist`.
  [[nodiscard]] std::uint64_t encoded_bits(const Histogram& hist) const {
    return huff::encoded_bits(lengths_, hist);
  }

  /// Number of symbols with codes.
  [[nodiscard]] std::size_t coded_symbols() const;

  bool operator==(const CodeTable&) const = default;

 private:
  std::array<std::uint64_t, kSymbols> codes_{};
  std::array<std::uint64_t, kSymbols> packed_{};
  CodeLengths lengths_{};
  std::uint8_t max_length_ = 0;
};

/// Validates that `lengths` satisfy the Kraft–McMillan equality/inequality
/// required of a realizable prefix code; returns the Kraft sum scaled by
/// 2^kMaxCodeBits.
[[nodiscard]] bool kraft_valid(const CodeLengths& lengths);

}  // namespace huff
