#include "huffman/bitio.h"

#include <stdexcept>

namespace huff {

void BitWriter::throw_bad_nbits() {
  throw std::invalid_argument("BitWriter::put: nbits > 64");
}

void BitWriter::spill() {
  while (pending_bits_ >= 8) {
    pending_bits_ -= 8;
    buf_.push_back(static_cast<std::uint8_t>(acc_ >> pending_bits_));
  }
  acc_ &= mask(static_cast<std::uint8_t>(pending_bits_));
}

void BitWriter::put_slow(std::uint64_t bits, std::uint8_t nbits) {
  // Rare path: the accumulator cannot hold the whole value (only possible
  // for nbits close to 64). Split in half; each half fits after a spill.
  const std::uint8_t hi = nbits / 2;
  const std::uint8_t lo = static_cast<std::uint8_t>(nbits - hi);
  put(bits >> lo, hi);
  put(bits & mask(lo), lo);
}

std::vector<std::uint8_t> BitWriter::take() {
  if (pending_bits_ > 0) {
    // Zero-pad the tail to a byte boundary.
    const auto pad = static_cast<std::uint8_t>((8 - (pending_bits_ & 7)) & 7);
    acc_ <<= pad;
    pending_bits_ += pad;
    spill();
  }
  std::vector<std::uint8_t> out = std::move(buf_);
  buf_.clear();
  acc_ = 0;
  pending_bits_ = 0;
  return out;
}

std::uint32_t BitReader::get_bit() {
  if (exhausted()) {
    throw std::out_of_range("BitReader::get_bit: past end of data");
  }
  const std::size_t byte_ix = static_cast<std::size_t>(bit_pos_ >> 3);
  const auto shift = static_cast<unsigned>(7 - (bit_pos_ & 7));
  ++bit_pos_;
  return (data_[byte_ix] >> shift) & 1U;
}

std::uint64_t BitReader::get(std::uint8_t nbits) {
  if (nbits > 64) {
    throw std::invalid_argument("BitReader::get: nbits > 64");
  }
  std::uint64_t out = 0;
  for (std::uint8_t i = 0; i < nbits; ++i) {
    out = (out << 1) | get_bit();
  }
  return out;
}

}  // namespace huff
