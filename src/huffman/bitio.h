// Bit-granular writer/reader over byte buffers.
//
// Bit order: MSB-first within each byte — the first bit written occupies the
// most significant bit of byte 0. This makes canonical codes compare
// lexicographically in the byte stream, which the decoder exploits.
//
// BitWriter additionally supports starting at a nonzero *bit offset*, which
// is what the pipeline's Offset phase produces: each Encode task writes its
// block at a pre-computed absolute bit position so blocks can be encoded in
// parallel into one contiguous output (paper §IV-A).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace huff {

/// The 8 bytes at `p` as a big-endian word, and its inverse.
inline std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  if constexpr (std::endian::native == std::endian::little) {
    w = __builtin_bswap64(w);
  }
  return w;
}
inline void store_be64(std::uint8_t* p, std::uint64_t w) {
  if constexpr (std::endian::native == std::endian::little) {
    w = __builtin_bswap64(w);
  }
  std::memcpy(p, &w, 8);
}

class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the `nbits` low-order bits of `bits`, most significant of those
  /// first. nbits may be 0 (no-op) up to 64.
  void put(std::uint64_t bits, std::uint8_t nbits) {
    if (nbits > 64) {
      throw_bad_nbits();
    }
    // Accumulate into a 64-bit register and spill whole bytes: the hot path
    // (canonical codes are ≤ kMaxCodeBits = 58 bits) is a shift+or.
    if (nbits < 64 && pending_bits_ + nbits <= 64) {
      acc_ = (acc_ << nbits) | (nbits == 0 ? 0 : (bits & mask(nbits)));
      pending_bits_ += nbits;
      if (pending_bits_ >= 32) spill();
      return;
    }
    put_slow(bits, nbits);
  }

  /// Number of bits written so far.
  [[nodiscard]] std::uint64_t bit_size() const {
    return static_cast<std::uint64_t>(buf_.size()) * 8 + pending_bits_;
  }

  /// Pads with zero bits to the next byte boundary and returns the buffer;
  /// the writer is reset.
  [[nodiscard]] std::vector<std::uint8_t> take();

 private:
  static constexpr std::uint64_t mask(std::uint8_t n) {
    return n >= 64 ? ~0ULL : ((std::uint64_t{1} << n) - 1);
  }
  void spill();  ///< moves whole bytes from the accumulator to the buffer
  void put_slow(std::uint64_t bits, std::uint8_t nbits);
  [[noreturn]] static void throw_bad_nbits();

  std::vector<std::uint8_t> buf_;  ///< complete bytes only
  std::uint64_t acc_ = 0;          ///< pending bits, right-aligned
  unsigned pending_bits_ = 0;      ///< < 32 between calls
};

/// ORs `nbits` bits from the front of `src` into `dst` starting at absolute
/// bit position `dst_bit_offset`. `dst` must be pre-sized and the target bit
/// range zeroed. Bytes the range covers whole take plain stores (memcpy when
/// the offset is byte-aligned); the at most two edge bytes it shares with
/// neighbouring ranges are OR-merged through std::atomic_ref, so calls on
/// disjoint bit ranges of one buffer may run concurrently.
void splice_bits(std::span<std::uint8_t> dst, std::uint64_t dst_bit_offset,
                 std::span<const std::uint8_t> src, std::uint64_t nbits);

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Reads the next bit; 0 or 1. Throws std::out_of_range past the end.
  std::uint32_t get_bit();

  /// Reads `nbits` (≤ 64) bits MSB-first into the low bits of the result.
  std::uint64_t get(std::uint8_t nbits);

  /// Repositions to an absolute bit offset.
  void seek(std::uint64_t bit_offset) { bit_pos_ = bit_offset; }

  [[nodiscard]] std::uint64_t position() const { return bit_pos_; }
  [[nodiscard]] std::uint64_t bit_capacity() const {
    return static_cast<std::uint64_t>(data_.size()) * 8;
  }
  [[nodiscard]] bool exhausted() const { return bit_pos_ >= bit_capacity(); }

 private:
  std::span<const std::uint8_t> data_;
  std::uint64_t bit_pos_ = 0;
};

}  // namespace huff
