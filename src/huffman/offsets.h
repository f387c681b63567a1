// The Offset phase of the parallel Huffman pipeline.
//
// "The encoding is variable-length. Hence, the position of an encoded block
//  can only be known once the previous one's encoding is decided. ... an
//  extra phase ... computes the offset of each data block ... based on the
//  block-specific histogram computed first, the Huffman tree, and the final
//  offset of the previous block. Offset computations feed many encoding
//  tasks." (paper §IV-A)
//
// An offset task covers a *group* of blocks (64 on x86-disk, 16 on Cell, 8 on
// socket): given the group's per-block histograms and the running bit offset,
// it emits each block's absolute starting bit and the offset at group end.
//
// Every block starts on a byte boundary (container v3, stream_format.h):
// each block's size is its coded bits rounded up to a whole byte. This is
// the one place that rounds; offsets stay in bits, each a multiple of 8.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "huffman/canonical.h"
#include "huffman/histogram.h"

namespace huff {

/// Offsets of one group of blocks.
struct OffsetGroup {
  std::vector<std::uint64_t> block_offsets;  ///< absolute start bit per block
  std::uint64_t end_offset = 0;  ///< where the next group's first block starts
};

/// Computes bit offsets for a group of blocks whose histograms are
/// `block_hists`, encoded with `table`, starting at `start_bit` (a multiple
/// of 8).
[[nodiscard]] OffsetGroup compute_offsets(
    std::span<const Histogram> block_hists, const CodeTable& table,
    std::uint64_t start_bit);

/// Convenience for tests / serial reference: offsets of all blocks at once.
[[nodiscard]] std::vector<std::uint64_t> all_offsets(
    std::span<const Histogram> block_hists, const CodeTable& table);

}  // namespace huff
