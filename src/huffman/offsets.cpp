#include "huffman/offsets.h"

namespace huff {

OffsetGroup compute_offsets(std::span<const Histogram> block_hists,
                            const CodeTable& table, std::uint64_t start_bit) {
  OffsetGroup group;
  group.block_offsets.reserve(block_hists.size());
  std::uint64_t bit = start_bit;
  for (const Histogram& h : block_hists) {
    group.block_offsets.push_back(bit);
    bit += (table.encoded_bits(h) + 7) / 8 * 8;
  }
  group.end_offset = bit;
  return group;
}

std::vector<std::uint64_t> all_offsets(std::span<const Histogram> block_hists,
                                       const CodeTable& table) {
  return compute_offsets(block_hists, table, 0).block_offsets;
}

}  // namespace huff
