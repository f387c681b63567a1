// Block encoder: the paper's Encode task.
//
// Each Encode task compresses one input block with a CodeTable. Because the
// code is variable-length, a block's absolute position in the output is the
// bit offset computed by the Offset phase (offsets.h); encode_block produces
// a self-contained bit buffer which the commit sink splices at that offset.
//
// Bit emission has two kernels behind the tvs::simd dispatch contract
// (docs/data-plane.md): the Scalar level is the original BitWriter path,
// every other level a word-flush packer that shifts one or two codes into a
// 64-bit register per step and writes the pending bits with one unaligned
// big-endian 64-bit store, keeping the bits short of a whole byte. Tables
// with codes longer than CodeTable::kPackedBits take the BitWriter path.
// Outputs are bit-identical by contract; kernel_diff_test enforces it.
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

/// Exact encoded size of `block` in bits under `table`, without producing
/// output bits (= encoded_bits of the block's histogram; used by tests).
[[nodiscard]] std::uint64_t encoded_bit_count(
    std::span<const std::uint8_t> block, const CodeTable& table);

/// Splices pre-encoded blocks into one contiguous bit stream, serially: the
/// reference for the pipeline's commit sink, which places each block into
/// the container as it commits (ContainerWriter, stream_format.h).
///
/// `offsets[i]` is the absolute starting bit of block i; the destination is
/// zero-initialized and sized for the final block's end.
[[nodiscard]] std::vector<std::uint8_t> assemble(
    std::span<const EncodedBlock> blocks,
    std::span<const std::uint64_t> offsets);

}  // namespace huff
