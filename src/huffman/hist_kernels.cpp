#include "huffman/hist_kernels.h"

#include <cstddef>

namespace huff::detail {

void hist_scalar(std::span<const std::uint8_t> data, std::uint64_t* counts) {
  for (std::uint8_t b : data) ++counts[b];
}

void hist_swar(std::span<const std::uint8_t> data, std::uint64_t* counts) {
  // Runs of equal bytes serialize on the store-to-load forwarding of a
  // single count slot; four disjoint lane tables break that dependency
  // chain, then one pass folds the lanes back into `counts`.
  std::uint64_t lanes[4][256] = {};
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 4) {
    ++lanes[0][p[0]];
    ++lanes[1][p[1]];
    ++lanes[2][p[2]];
    ++lanes[3][p[3]];
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    ++lanes[0][*p++];
    --n;
  }
  for (std::size_t s = 0; s < 256; ++s) {
    counts[s] += lanes[0][s] + lanes[1][s] + lanes[2][s] + lanes[3][s];
  }
}

}  // namespace huff::detail
