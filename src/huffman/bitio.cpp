#include "huffman/bitio.h"

#include <atomic>
#include <cstring>
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

namespace {

/// out[k] = the low `shift` bits of in[k] followed by the high 8 - shift
/// bits of in[k + 1], for k < n. Every byte read lies inside the block, so
/// nothing is masked.
void shift_merge(std::uint8_t* out, const std::uint8_t* in, std::size_t n,
                 unsigned shift) {
  const unsigned back = 8 - shift;
  std::size_t k = 0;
  // Eight bytes per step: byte j of be64(in + k) << back is already
  // in[k + j] << back | in[k + j + 1] >> shift, save the last, which takes
  // its low bits from in[k + 8].
  for (; k + 8 <= n; k += 8) {
    store_be64(out + k, (load_be64(in + k) << back) | (in[k + 8] >> shift));
  }
  for (; k < n; ++k) {
    out[k] = static_cast<std::uint8_t>((in[k] << back) | (in[k + 1] >> shift));
  }
}

}  // namespace

void splice_bits(std::span<std::uint8_t> dst, std::uint64_t dst_bit_offset,
                 std::span<const std::uint8_t> src, std::uint64_t nbits) {
  if ((dst_bit_offset + nbits + 7) / 8 > dst.size()) {
    throw std::out_of_range("splice_bits: destination too small");
  }
  if (nbits > static_cast<std::uint64_t>(src.size()) * 8) {
    throw std::out_of_range("splice_bits: source too small");
  }
  if (nbits == 0) return;

  const auto shift = static_cast<unsigned>(dst_bit_offset & 7);
  const std::uint64_t end_bit = dst_bit_offset + nbits;
  const auto first = static_cast<std::size_t>(dst_bit_offset >> 3);
  const auto last = static_cast<std::size_t>((end_bit - 1) >> 3);
  const auto last_src = static_cast<std::size_t>((nbits - 1) >> 3);
  // Source byte j with the bits past nbits cleared.
  const auto src_at = [&](std::size_t j) -> unsigned {
    if (j > last_src) return 0;
    const auto rem = static_cast<unsigned>(nbits & 7);
    return j == last_src && rem != 0 ? src[j] & (0xFFu << (8 - rem)) & 0xFFu
                                     : src[j];
  };
  // Destination byte first + j: the tail of source byte j - 1 and the head
  // of source byte j.
  const auto piece = [&](std::size_t j) {
    const unsigned prev =
        j == 0 || shift == 0 ? 0 : src_at(j - 1) << (8 - shift);
    return static_cast<std::uint8_t>(prev | (src_at(j) >> shift));
  };
  const auto merge_edge = [&](std::size_t k) {
    std::atomic_ref<std::uint8_t>(dst[k]).fetch_or(piece(k - first),
                                                   std::memory_order_relaxed);
  };

  // A byte shared with a neighbouring block — the head one if the block
  // starts mid-byte, the tail one if it ends mid-byte — is OR-merged
  // atomically; every byte in between belongs to this block alone and
  // takes a plain store.
  const bool head_shared = shift != 0;
  const bool tail_shared = (end_bit & 7) != 0;
  if (head_shared) merge_edge(first);
  if (tail_shared && (last != first || !head_shared)) merge_edge(last);
  const std::size_t lo = first + (head_shared ? 1 : 0);
  const std::size_t hi = last + (tail_shared ? 0 : 1);
  if (lo >= hi) return;
  if (shift == 0) {
    std::memcpy(dst.data() + lo, src.data(), hi - lo);
  } else {
    shift_merge(dst.data() + lo, src.data(), hi - lo, shift);
  }
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
