#include "huffman/encoder.h"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "huffman/bitio.h"
#include "simd/simd.h"

namespace huff {
namespace {

[[noreturn]] void throw_no_code(std::uint8_t b) {
  throw std::invalid_argument("encode_block: symbol " + std::to_string(b) +
                              " has no code");
}

/// Branchless packer: codes accumulate MSB-first into a 128-bit staging
/// register; whole 64-bit words are flushed big-endian, which reproduces
/// BitWriter's MSB-first byte stream exactly. The invariant between
/// symbols is n < 64 pending bits, so n + kMaxCodeBits (58) never
/// overflows the staging register. Returns the exact bit count.
std::uint64_t pack_fast(std::span<const std::uint8_t> block,
                        const CodeTable& table, std::uint8_t* out,
                        const std::uint8_t* out_end) {
  __uint128_t acc = 0;
  unsigned n = 0;
  std::uint64_t total_bits = 0;
  std::uint8_t* p = out;
  for (std::uint8_t b : block) {
    const unsigned len = table.length(b);
    if (len == 0) [[unlikely]] {
      throw_no_code(b);
    }
    // Mask like BitWriter::put does, so dirty high bits in a code value
    // can never diverge the two kernels.
    acc = (acc << len) | (table.code(b) & ((std::uint64_t{1} << len) - 1));
    n += len;
    total_bits += len;
    if (n >= 64) {
      n -= 64;
      if (p + 8 > out_end) [[unlikely]] {
        throw std::logic_error("encode_block_into: output buffer too small");
      }
      store_be64(p, static_cast<std::uint64_t>(acc >> n));
      p += 8;
      acc &= (__uint128_t{1} << n) - 1;
    }
  }
  // Tail: n < 64 pending bits, padded with zeros to the byte boundary.
  if (n > 0) {
    acc <<= (8 - (n & 7)) & 7;
    n = (n + 7) & ~7u;
    while (n > 0) {
      n -= 8;
      if (p >= out_end) [[unlikely]] {
        throw std::logic_error("encode_block_into: output buffer too small");
      }
      *p++ = static_cast<std::uint8_t>(acc >> n);
    }
  }
  return total_bits;
}

EncodedBlock encode_reference(std::span<const std::uint8_t> block,
                              const CodeTable& table) {
  BitWriter writer;
  for (std::uint8_t b : block) {
    const std::uint8_t len = table.length(b);
    if (len == 0) {
      throw_no_code(b);
    }
    writer.put(table.code(b), len);
  }
  EncodedBlock out;
  out.bit_count = writer.bit_size();
  out.bits = writer.take();
  return out;
}

}  // namespace

EncodedBlock encode_block(std::span<const std::uint8_t> block,
                          const CodeTable& table) {
  if (tvs::simd::active() == tvs::simd::Level::Scalar) {
    return encode_reference(block, table);
  }
  // Fast path into a heap vector sized exactly; one pass over the code
  // lengths is O(block) but touches only the 256-entry length table.
  std::vector<std::uint8_t> buf((encoded_bit_count(block, table) + 7) / 8);
  EncodedBlock out;
  out.bit_count = pack_fast(block, table, buf.data(), buf.data() + buf.size());
  out.bits = ByteBuf(std::move(buf));
  return out;
}

EncodedBlock encode_block_into(std::span<const std::uint8_t> block,
                               const CodeTable& table,
                               std::span<std::uint8_t> out,
                               std::shared_ptr<const void> keepalive) {
  EncodedBlock enc;
  if (tvs::simd::active() == tvs::simd::Level::Scalar) {
    // Reference kernel for differential runs: emit via BitWriter, then move
    // the bytes into the caller's storage so arena behavior stays uniform.
    EncodedBlock ref = encode_reference(block, table);
    if (ref.bits.size() > out.size()) {
      throw std::logic_error("encode_block_into: output buffer too small");
    }
    std::memcpy(out.data(), ref.bits.data(), ref.bits.size());
    enc.bit_count = ref.bit_count;
  } else {
    enc.bit_count = pack_fast(block, table, out.data(),
                              out.data() + out.size());
  }
  enc.bits = ByteBuf(out.data(), (enc.bit_count + 7) / 8, std::move(keepalive));
  return enc;
}

std::uint64_t encoded_bit_count(std::span<const std::uint8_t> block,
                                const CodeTable& table) {
  std::uint64_t bits = 0;
  for (std::uint8_t b : block) {
    bits += table.length(b);
  }
  return bits;
}

std::vector<std::uint8_t> assemble(std::span<const EncodedBlock> blocks,
                                   std::span<const std::uint64_t> offsets) {
  if (blocks.size() != offsets.size()) {
    throw std::invalid_argument("assemble: blocks/offsets size mismatch");
  }
  std::uint64_t end_bit = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    end_bit = std::max(end_bit, offsets[i] + blocks[i].bit_count);
  }
  std::vector<std::uint8_t> out((end_bit + 7) / 8, 0);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    splice_bits(out, offsets[i], blocks[i].bits, blocks[i].bit_count);
  }
  return out;
}

}  // namespace huff
