// On-disk container for a complete Huffman-compressed stream.
//
// Layout (little-endian):
//   magic   "TVSH" (4 bytes)
//   version u16    — 3
//   n_bytes u64    — original (decoded) byte count
//   n_blocks u32   — block count
//   block_size u32 — nominal block size (last block may be short)
//   lengths  256×u8 — canonical code lengths (fully describe the table)
//   index    n_blocks×u64 — starting bit of each block, a multiple of 8
//   payload_bits u64 — end of the last block's bits
//   payload  ceil(payload_bits/8) bytes
//
// Every block starts on a byte boundary: zero bits pad each block to a
// whole byte (at most 7 per block), so no payload byte holds bits of two
// blocks. compute_offsets (offsets.h) applies that rule; the index holds
// exactly its output, the pipeline's Offset phase.
//
// The index makes the container *randomly accessible*: FastDecoder::decode
// from index entry i decodes block i without touching the rest of the
// payload — the natural companion feature for the paper's "streaming long
// files" use case. It is also what lets decompress_into decode blocks in
// parallel.
//
// The examples write/read this format so a compressed file is an actual
// artifact, not just an in-memory buffer; the decoder rebuilds the canonical
// table from the lengths alone.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "huffman/canonical.h"
#include "huffman/encoder.h"

namespace huff {

struct CompressedStream {
  std::uint64_t original_bytes = 0;
  std::uint32_t n_blocks = 0;
  std::uint32_t block_size = 0;
  CodeLengths lengths{};
  /// Starting bit per block, each a multiple of 8.
  std::vector<std::uint64_t> block_offsets;
  std::uint64_t payload_bits = 0;
  std::vector<std::uint8_t> payload;

  [[nodiscard]] CodeTable table() const {
    return CodeTable::from_lengths(lengths);
  }

  /// Decoded size of block `i` (the last block may be short).
  [[nodiscard]] std::size_t block_bytes(std::size_t i) const;

  /// Container size in bytes (header + index + payload).
  [[nodiscard]] std::size_t serialized_size() const;
};

/// Writes one container in place: the constructor allocates it whole,
/// zero-filled (first touched in 2 MiB pages where the kernel grants them,
/// see docs/data-plane.md), and writes the header; place() writes each
/// block's index entry and payload bytes. Blocks start on byte boundaries
/// and share no payload byte, so place() calls for distinct blocks may run
/// concurrently; the caller orders every place() before take().
class ContainerWriter {
 public:
  /// `coded_bits` is the table's coded size of the whole input, which the
  /// placed blocks' bit counts must sum to. The payload is sized for it
  /// plus at most 7 padding bits for each block before the last.
  ContainerWriter(std::uint64_t original_bytes, std::uint32_t n_blocks,
                  std::uint32_t block_size, const CodeLengths& lengths,
                  std::uint64_t coded_bits);

  /// Copies block `i`'s ceil(bit_count / 8) bytes to payload bit `offset`.
  /// Throws std::invalid_argument if offset is not a multiple of 8, and
  /// std::out_of_range if i >= n_blocks, the block ends past the bound, or
  /// block.bits holds fewer bytes than that.
  void place(std::size_t i, std::uint64_t offset, const EncodedBlock& block);

  /// Where the last block's bits end, once it is placed; 0 before.
  [[nodiscard]] std::uint64_t payload_bits() const { return payload_bits_; }

  /// Writes payload_bits, trims the payload to it and returns the
  /// container; the writer is left empty. Throws std::logic_error if the
  /// placed blocks' bit counts do not sum to coded_bits or a block does not
  /// start where the bytes of the blocks before it end.
  [[nodiscard]] std::vector<std::uint8_t> take();

 private:
  std::vector<std::uint8_t> out_;
  std::vector<std::uint64_t> bit_counts_;  ///< per block, as placed
  std::uint64_t coded_bits_;
  std::uint64_t bound_bits_;  ///< coded_bits + 7 per block before the last
  std::uint64_t payload_bits_ = 0;
  std::size_t payload_at_ = 0;  ///< byte offset of the payload
};

/// Serializes to bytes. Deterministic. Throws std::invalid_argument unless
/// the index holds one entry per block.
[[nodiscard]] std::vector<std::uint8_t> serialize(const CompressedStream& s);

/// Parses bytes; throws std::runtime_error on malformed input (bad magic, a
/// version other than 3, truncated payload, invalid code lengths) and on a
/// header whose fields disagree: a block count other than
/// ceil(original_bytes / block_size), a zero block size with blocks, a
/// block index entry that is not a multiple of 8, decreases or lies past
/// payload_bits, or more original bytes than payload bits.
[[nodiscard]] CompressedStream deserialize(std::span<const std::uint8_t> data);

/// deserialize without the payload copy: parses and checks the whole
/// container the same way, and returns its header and index with `payload`
/// left empty.
[[nodiscard]] CompressedStream read_header(
    std::span<const std::uint8_t> container);

/// Full-buffer convenience: compresses `data` (serial reference path, no
/// runtime involved) and returns the container bytes.
[[nodiscard]] std::vector<std::uint8_t> compress_buffer(
    std::span<const std::uint8_t> data, std::uint32_t block_size = 4096);

/// Inverse of compress_buffer / of the pipeline's output, into caller
/// storage: `out` must hold exactly the container's original byte count.
/// Parses the container in place (no payload copy) and decodes with
/// FastDecoder. A container of more than 64 blocks is decoded
/// block-parallel: one dependency-free SRE task per 64-block run on a
/// ThreadedExecutor with hardware_concurrency() workers (at most one per
/// task), each task writing only its blocks' ranges of `out`, four blocks
/// at a time through FastDecoder::decode4_into. Smaller containers decode
/// the same way inline on the caller's thread. Throws std::runtime_error on
/// any malformed container or corrupt payload, and std::invalid_argument,
/// before writing anything, if out.size() differs from the original byte
/// count.
/// After a throw from the decode itself, the contents of `out` are
/// unspecified.
void decompress_into(std::span<const std::uint8_t> container,
                     std::span<std::uint8_t> out);

/// decompress_into a fresh vector. The vector is zero-filled first, in
/// 2 MiB pages where the kernel grants them (docs/data-plane.md); a caller
/// with storage of its own calls decompress_into.
[[nodiscard]] std::vector<std::uint8_t> decompress_buffer(
    std::span<const std::uint8_t> container);

/// File helpers used by the examples.
void write_file(const std::string& path, std::span<const std::uint8_t> bytes);
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace huff
