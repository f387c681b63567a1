#include "huffman/histogram.h"

#include <numeric>

#include "huffman/hist_kernels.h"

namespace huff {

void Histogram::count(std::span<const std::uint8_t> data) {
  // The fast kernel; hist_scalar is its reference (docs/data-plane.md,
  // "Kernel contract").
  detail::hist_swar(data, counts_.data());
}

Histogram& Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < kSymbols; ++i) {
    counts_[i] += other.counts_[i];
  }
  return *this;
}

std::uint64_t Histogram::total() const {
  return std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
}

std::size_t Histogram::distinct_symbols() const {
  std::size_t n = 0;
  for (std::uint64_t c : counts_) {
    if (c != 0) ++n;
  }
  return n;
}

Histogram Histogram::merged(std::span<const Histogram> parts) {
  Histogram out;
  for (const Histogram& h : parts) out.merge(h);
  return out;
}

Histogram Histogram::of(std::span<const std::uint8_t> data) {
  Histogram h;
  h.count(data);
  return h;
}

Histogram Histogram::with_floor(std::uint64_t floor) const {
  Histogram out = *this;
  for (auto& c : out.counts_) {
    if (c < floor) c = floor;
  }
  return out;
}

}  // namespace huff
