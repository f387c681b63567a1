// Block encoder: the paper's Encode task.
//
// Each Encode task compresses one input block with a CodeTable. Because the
// code is variable-length, a block's absolute position in the output is the
// offset computed by the Offset phase (offsets.h), which starts every block
// on a byte boundary; encode_block produces a self-contained, zero-padded
// buffer which the commit sink copies to that offset.
//
// Bit emission has one fast kernel and a reference (docs/data-plane.md,
// "Kernel contract"). The fast kernel is a word-flush packer that shifts one
// or two codes into a 64-bit register per step and writes the pending bits
// with one unaligned big-endian 64-bit store, keeping the bits short of a
// whole byte. The reference, detail::encode_reference, is the BitWriter
// path; tables with codes longer than CodeTable::kPackedBits take it in
// production too. The two are bit-identical; kernel_diff_test compares them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "huffman/byte_buf.h"
#include "huffman/canonical.h"

namespace huff {

/// Result of encoding one block.
struct EncodedBlock {
  ByteBuf bits;                 ///< packed MSB-first, zero-padded tail
  std::uint64_t bit_count = 0;  ///< exact number of meaningful bits
};

/// Encodes `block` with `table` into heap-owned storage. Throws
/// std::invalid_argument if the block contains a symbol with no code
/// (speculative tables built without a histogram floor could do this; the
/// pipeline prevents it).
[[nodiscard]] EncodedBlock encode_block(std::span<const std::uint8_t> block,
                                        const CodeTable& table);

/// Encodes `block` into caller-provided storage (typically bump-allocated
/// from an epoch arena) and returns a view over it. `out` must hold at
/// least ceil(bits/8) bytes for the block under `table` — the pipeline
/// computes exactly that from the block's histogram via
/// CodeTable::encoded_bits, so no second pass over the data is needed. No
/// byte past `out` is written; 8 bytes of room beyond the encoding let the
/// packer's word loop run to the block's end. Throws std::invalid_argument
/// on a code-less symbol and std::logic_error if `out` is too small (a
/// histogram/block mismatch). `keepalive` is stored in the returned ByteBuf
/// to pin the storage's owner.
[[nodiscard]] EncodedBlock encode_block_into(
    std::span<const std::uint8_t> block, const CodeTable& table,
    std::span<std::uint8_t> out, std::shared_ptr<const void> keepalive);

/// Copies pre-encoded blocks into one contiguous payload, serially: the
/// reference for the pipeline's commit sink, which places each block into
/// the container as it commits (ContainerWriter, stream_format.h).
///
/// `offsets[i]` is the starting bit of block i; the payload is
/// zero-initialized and sized for the final block's end. Throws
/// std::invalid_argument on a size mismatch, an offset that is not a
/// multiple of 8, or a block with fewer bytes than its bit count.
[[nodiscard]] std::vector<std::uint8_t> assemble(
    std::span<const EncodedBlock> blocks,
    std::span<const std::uint64_t> offsets);

namespace detail {

/// The reference encoder: one BitWriter::put per symbol. Same bits and the
/// same std::invalid_argument on a code-less symbol as encode_block.
[[nodiscard]] EncodedBlock encode_reference(std::span<const std::uint8_t> block,
                                            const CodeTable& table);

}  // namespace detail
}  // namespace huff
