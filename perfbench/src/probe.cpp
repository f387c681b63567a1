// Host-speed probe. The machines this benchmark runs on are shared, and
// their speed drifts: a single-threaded huff::compress_buffer of the same
// 32 MiB swings between ~85 and ~165 MB/s within minutes, with no other
// work in the process. A fixed byte-crunching kernel that belongs to the
// benchmark, run on every worker thread right before and after an
// operation, drifts with it; run.py divides an unpaced operation's speed by
// it (see README.md, "Host-speed normalization"). The kernel and its input
// never change with the program or the seed, so it measures the host only.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "emit.h"
#include "workloads.h"

namespace bench {
namespace {

constexpr std::size_t kBytesPerThread = 4u << 20;

/// Where every probe's result goes, so the kernel is never optimised away.
std::atomic<std::uint64_t> sink{0};

/// Skewed pseudo-random bytes (the AND of two uniform bytes), fixed forever.
std::vector<std::uint8_t> make_probe_input(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (std::uint8_t& b : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x & (x >> 8));
  }
  return v;
}

/// The Huffman work in miniature: a byte histogram, then every byte packed
/// at a length derived from its count.
std::uint64_t crunch(std::span<const std::uint8_t> in) {
  std::uint32_t hist[256] = {};
  for (const std::uint8_t b : in) ++hist[b];
  std::uint8_t len[256];
  for (int i = 0; i < 256; ++i) {
    len[i] = static_cast<std::uint8_t>(1 + ((hist[i] * 2654435761u) >> 29));
  }
  std::uint64_t acc = 0;
  std::uint64_t word = 0;
  unsigned bits = 0;
  for (const std::uint8_t b : in) {
    word = (word << len[b]) | (b & ((1u << len[b]) - 1));
    bits += len[b];
    if (bits >= 32) {
      acc = (acc ^ (word >> (bits - 32))) * 31 + 7;
      bits -= 32;
    }
  }
  return acc ^ word;
}

}  // namespace

double probe_mbps(unsigned threads) {
  static const std::vector<std::uint8_t> input =
      make_probe_input(kBytesPerThread * std::max(1u, threads));
  const unsigned n = std::clamp<unsigned>(
      threads, 1, static_cast<unsigned>(input.size() / kBytesPerThread));
  const auto work = [&](unsigned t) {
    sink += crunch(std::span(input).subspan(t * kBytesPerThread, kBytesPerThread));
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < n; ++t) pool.emplace_back(work, t);
  work(0);
  for (std::thread& th : pool) th.join();
  return static_cast<double>(kBytesPerThread) / seconds_since(t0) / 1e6;
}

}  // namespace bench
