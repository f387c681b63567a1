// The three benchmark workloads and the pieces they share.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pipeline/run_config.h"

namespace bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< inputs are written here (sessions read files)
  unsigned workers = 1; ///< nproc
};

/// How many measurement cycles a run makes. The amount of work is fixed by
/// --seconds and a nominal cycle cost, not by how fast the program runs, so
/// a faster program does the same work in less time and per-run totals
/// (peak memory, leaked state) stay comparable between versions. `cap_s`
/// stops a much slower build early enough to finish within its time limit.
struct Quota {
  /// Every median has at least this many samples.
  static constexpr std::size_t kMinCycles = 3;

  std::size_t cycles = 0;
  double cap_s = 0.0;

  static Quota of(const Options& opt, double nominal_cycle_s);
};

/// bulk-txt and stream-shift: the threaded engine (`tvsc c`) on one input.
int run_bulk_txt(const Options& opt);
int run_stream_shift(const Options& opt);

/// serve-open: open-loop sessions into one serve::SessionManager
/// (`tvsc serve`).
int run_serve_open(const Options& opt);

/// Times the Huffman kernels serially, one call at a time, on `input` with
/// the reduce/offset ratios of `cfg`, and emits the huffman.* layer samples.
/// `reference` is huff::compress_buffer(input); the kernel path must
/// reproduce it byte for byte. Returns false (after emitting a fail record)
/// if it does not.
bool time_kernels(std::span<const std::uint8_t> input,
                  const pipeline::RunConfig& cfg,
                  std::span<const std::uint8_t> reference);

/// Host speed right now: MB/s per thread of a fixed benchmark-owned kernel
/// run on `threads` threads at once (see probe.cpp).
double probe_mbps(unsigned threads);

/// Resident set size of this process right now, in KiB.
double current_rss_kib();

}  // namespace bench
