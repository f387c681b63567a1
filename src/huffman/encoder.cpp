#include "huffman/encoder.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "huffman/bitio.h"

namespace huff {
namespace {

[[noreturn]] void throw_no_code(std::uint8_t b) {
  throw std::invalid_argument("encode_block: symbol " + std::to_string(b) +
                              " has no code");
}

/// Throws the reference's error for the first code-less symbol of
/// `block`, if it has one.
void check_codes(std::span<const std::uint8_t> block, const CodeTable& table) {
  for (std::uint8_t b : block) {
    if (!table.has_code(b)) throw_no_code(b);
  }
}

/// A block that overran `out` throws as the reference would: a code-less
/// symbol first, else logic_error.
[[noreturn]] void throw_too_small(std::span<const std::uint8_t> block,
                                  const CodeTable& table) {
  check_codes(block, table);
  throw std::logic_error("encode_block_into: output buffer too small");
}

/// Word-flush packer. `acc` holds the n pending bits right-aligned (bits
/// above them are stale and never stored). Each step shifts kCodes codes
/// in, stores the pending bits big-endian with one unaligned 64-bit write
/// at `p`, advances `p` by the n / 8 whole bytes and keeps the n % 8 left
/// in the byte at `p`, which the next store rewrites; so 7 + kCodes × the
/// longest code must be at most 63. The word loop runs only while a full
/// store stays inside [out, end): as many steps as cannot reach the end at
/// the longest code's pace, then it recounts. The last bytes go one at a
/// time. Returns the exact bit count. Code-less symbols move no bits and
/// are caught once, from the OR of every entry.
template <unsigned kCodes>
std::uint64_t pack_words(std::span<const std::uint8_t> block,
                         const CodeTable& table, std::uint8_t* out,
                         std::uint8_t* end) {
  static_assert(kCodes == 1 || kCodes == 2);
  const auto& entry = table.packed();
  const std::size_t max_advance =
      std::max(1u, (7 + kCodes * table.max_length()) / 8);
  const std::uint8_t* in = block.data();
  const std::uint8_t* const in_end = in + block.size();
  const std::uint8_t* const in_words = in + block.size() / kCodes * kCodes;
  std::uint64_t acc = 0;
  unsigned n = 0;
  std::uint64_t seen = 0;
  std::uint8_t* p = out;
  while (in != in_words && end - p >= 8) {
    const std::size_t steps =
        static_cast<std::size_t>(end - p - 8) / max_advance + 1;
    const std::uint8_t* const stop =
        in + std::min<std::size_t>(steps * kCodes, in_words - in);
    for (; in != stop; in += kCodes) {
      const std::uint64_t e1 = entry[in[0]];
      unsigned len = e1 & CodeTable::kLengthMask;
      std::uint64_t codes = e1 >> CodeTable::kCodeShift;
      seen |= e1;
      if constexpr (kCodes == 2) {
        // Join the pair first, so acc takes one shift per step.
        const std::uint64_t e2 = entry[in[1]];
        const unsigned len2 = e2 & CodeTable::kLengthMask;
        codes = codes << len2 | e2 >> CodeTable::kCodeShift;
        len += len2;
        seen |= e2;
      }
      acc = acc << len | codes;
      n += len;
      // n is 0 only after code-less symbols, which throw below; the mask
      // keeps that shift defined.
      store_be64(p, acc << ((64 - n) & 63));
      p += n >> 3;
      n &= 7;
    }
  }
  for (; in != in_end; ++in) {
    const std::uint64_t e = entry[*in];
    const unsigned len = e & CodeTable::kLengthMask;
    acc = acc << len | e >> CodeTable::kCodeShift;
    n += len;
    seen |= e;
    while (n >= 8) {
      if (p == end) [[unlikely]] {
        throw_too_small(block, table);
      }
      n -= 8;
      *p++ = static_cast<std::uint8_t>(acc >> n);
    }
  }
  if (seen & CodeTable::kNoCode) [[unlikely]] {
    check_codes(block, table);
  }
  const std::uint64_t bits = static_cast<std::uint64_t>(p - out) * 8 + n;
  if (n > 0) {
    if (p == end) [[unlikely]] {
      throw_too_small(block, table);
    }
    *p = static_cast<std::uint8_t>(acc << (8 - n));
  }
  return bits;
}

/// True when the word packer can take `table`; tables with codes past
/// kPackedBits take the BitWriter reference.
bool packs(const CodeTable& table) {
  return table.max_length() <= CodeTable::kPackedBits;
}

/// Encodes `block` into `out`; returns the bit count.
std::uint64_t encode_into(std::span<const std::uint8_t> block,
                          const CodeTable& table, std::span<std::uint8_t> out) {
  if (!packs(table)) {
    // Emit via BitWriter, then copy the bytes into the caller's storage so
    // arena behavior stays uniform.
    const EncodedBlock ref = detail::encode_reference(block, table);
    if (ref.bits.size() > out.size()) {
      throw std::logic_error("encode_block_into: output buffer too small");
    }
    std::copy(ref.bits.begin(), ref.bits.end(), out.data());
    return ref.bit_count;
  }
  std::uint8_t* const end = out.data() + out.size();
  return table.max_length() <= CodeTable::kPackedBits / 2
             ? pack_words<2>(block, table, out.data(), end)
             : pack_words<1>(block, table, out.data(), end);
}

}  // namespace

EncodedBlock encode_block(std::span<const std::uint8_t> block,
                          const CodeTable& table) {
  if (!packs(table)) {
    return detail::encode_reference(block, table);
  }
  // Pack into room for the longest code per symbol, plus a word so the word
  // loop runs to the end, then copy out the exact bytes: no sizing pass
  // over the block and no zero fill.
  const std::size_t room = (block.size() * table.max_length() + 7) / 8 + 8;
  const auto scratch = std::make_unique_for_overwrite<std::uint8_t[]>(room);
  EncodedBlock enc;
  enc.bit_count = encode_into(block, table, {scratch.get(), room});
  const std::size_t bytes = (enc.bit_count + 7) / 8;
  auto exact = std::make_shared_for_overwrite<std::uint8_t[]>(bytes);
  std::uint8_t* const data = exact.get();
  std::copy_n(scratch.get(), bytes, data);
  enc.bits = ByteBuf(data, bytes, std::move(exact));
  return enc;
}

EncodedBlock encode_block_into(std::span<const std::uint8_t> block,
                               const CodeTable& table,
                               std::span<std::uint8_t> out,
                               std::shared_ptr<const void> keepalive) {
  EncodedBlock enc;
  enc.bit_count = encode_into(block, table, out);
  enc.bits = ByteBuf(out.data(), (enc.bit_count + 7) / 8, std::move(keepalive));
  return enc;
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

namespace detail {

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

}  // namespace detail
}  // namespace huff
