// On-disk container for a complete Huffman-compressed stream.
//
// Layout (little-endian):
//   magic   "TVSH" (4 bytes)
//   version u16    — 2
//   n_bytes u64    — original (decoded) byte count
//   n_blocks u32   — block count
//   block_size u32 — nominal block size (last block may be short)
//   lengths  256×u8 — canonical code lengths (fully describe the table)
//   has_index u8   — 1 if a block index follows
//   [index]  n_blocks×u64 — absolute starting bit of each block
//   payload_bits u64
//   payload  ceil(payload_bits/8) bytes
//
// The optional block index makes the container *randomly accessible*: any
// block can be decoded without touching the rest of the payload
// (decode_block) — the natural companion feature for the paper's "streaming
// long files" use case, and it falls out for free from the pipeline's
// Offset phase, which computes exactly these positions.
//
// The index is also what lets decompress_into decode blocks in parallel.
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
  /// Absolute starting bit per block; empty = no random-access index.
  std::vector<std::uint64_t> block_offsets;
  std::uint64_t payload_bits = 0;
  std::vector<std::uint8_t> payload;

  [[nodiscard]] CodeTable table() const {
    return CodeTable::from_lengths(lengths);
  }
  [[nodiscard]] bool has_index() const { return !block_offsets.empty(); }

  /// Decoded size of block `i` (the last block may be short).
  [[nodiscard]] std::size_t block_bytes(std::size_t i) const;

  /// Container size in bytes (header + index + payload).
  [[nodiscard]] std::size_t serialized_size() const;
};

/// Writes one container in place: the constructor allocates it whole,
/// zero-filled (first touched in 2 MiB pages where the kernel grants them,
/// see docs/data-plane.md), and writes the header; place() writes each
/// block's index entry and payload bits. place() calls for distinct blocks
/// may run concurrently (splice_bits merges the shared edge bytes
/// atomically); the caller orders every place() before take().
class ContainerWriter {
 public:
  /// `with_index` embeds the block index; `payload_bits` is the exact
  /// payload length, which the placed blocks must tile.
  ContainerWriter(std::uint64_t original_bytes, std::uint32_t n_blocks,
                  std::uint32_t block_size, const CodeLengths& lengths,
                  std::uint64_t payload_bits, bool with_index = true);

  /// Writes block `i`, starting at payload bit `offset`. Throws
  /// std::out_of_range if i >= n_blocks or offset + bit_count >
  /// payload_bits.
  void place(std::size_t i, std::uint64_t offset, const EncodedBlock& block);

  [[nodiscard]] std::uint64_t payload_bits() const { return payload_bits_; }

  /// The container; the writer is left empty.
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
  std::uint32_t n_blocks_;
  std::uint64_t payload_bits_;
  bool with_index_;
  std::size_t index_at_ = 0;    ///< byte offset of index entry 0
  std::size_t payload_at_ = 0;  ///< byte offset of the payload
};

/// Serializes to bytes. Deterministic.
[[nodiscard]] std::vector<std::uint8_t> serialize(const CompressedStream& s);

/// Parses bytes; throws std::runtime_error on malformed input (bad magic,
/// truncated payload, invalid code lengths) and on a header whose fields
/// disagree: a block count other than ceil(original_bytes / block_size), a
/// zero block size with blocks, a block index entry that decreases or lies
/// past payload_bits, or more original bytes than payload bits.
[[nodiscard]] CompressedStream deserialize(std::span<const std::uint8_t> data);

/// deserialize without the payload copy: parses and checks the whole
/// container the same way, and returns its header and index with `payload`
/// left empty.
[[nodiscard]] CompressedStream read_header(
    std::span<const std::uint8_t> container);

/// Full-buffer convenience: compresses `data` (serial reference path, no
/// runtime involved) and returns the container bytes. `with_index` embeds
/// the random-access block index (8 bytes per block).
[[nodiscard]] std::vector<std::uint8_t> compress_buffer(
    std::span<const std::uint8_t> data, std::uint32_t block_size = 4096,
    bool with_index = true);

/// Random access: decodes only block `i` using the embedded index. Throws
/// std::logic_error if the container carries no index, std::out_of_range on
/// a bad block number.
[[nodiscard]] std::vector<std::uint8_t> decode_block(
    const CompressedStream& stream, std::size_t i);

/// Inverse of compress_buffer / of the pipeline's output, into caller
/// storage: `out` must hold exactly the container's original byte count.
/// Parses the container in place (no payload copy) and decodes with
/// FastDecoder. An indexed container of more than 64 blocks is decoded
/// block-parallel: one dependency-free SRE task per 64-block run on a
/// ThreadedExecutor with hardware_concurrency() workers (at most one per
/// task), each task writing only its blocks' ranges of `out`, four blocks
/// at a time through FastDecoder::decode4_into. Smaller indexed containers
/// decode the same way inline on the caller's thread, and a container
/// without an index decodes serially. Throws std::runtime_error on any
/// malformed container or corrupt payload, and std::invalid_argument, before
/// writing anything, if out.size() differs from the original byte count.
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
