// Histogram counting kernels (docs/data-plane.md, "Kernel contract"):
// Histogram::count runs hist_swar; hist_scalar is the reference it must
// match bit for bit. Both *add* into `counts[0..255]`; kernel_diff_test
// compares them on every corpus.
#pragma once

#include <cstdint>
#include <span>

namespace huff::detail {

/// Reference kernel: one byte, one increment.
void hist_scalar(std::span<const std::uint8_t> data, std::uint64_t* counts);

/// Four independent u64 lane tables; kills the store-forwarding stall chain
/// on runs of equal bytes. Portable (no intrinsics).
void hist_swar(std::span<const std::uint8_t> data, std::uint64_t* counts);

}  // namespace huff::detail
