// RunReport: one machine-readable bundle per run.
//
// Merges (a) the run's headline numbers (latency, makespan, speculation
// outcome), (b) the final metrics snapshot, (c) the sampler's time series,
// and (d) optional trace artifacts into a JSON document plus a human
// Markdown summary. tvsc and every figure bench write one, so any run —
// benchmark or production compress — leaves the same auditable artifact
// behind.
//
// The RunInfo struct is deliberately plain data: application layers
// (pipeline::run_info, tvsc) fill it from whatever result type they have,
// keeping this library free of application dependencies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/registry.h"
#include "metrics/sampler.h"
#include "stats/trace.h"

namespace report {

/// Scheduler-path counters (engine-agnostic mirror of the threaded
/// executor's DispatchStats). The simulator has no dispatch instrumentation
/// and leaves it all-zero; both renderers omit the section entirely in that
/// case: an all-zero row would read as "measured, nothing happened", which
/// is the wrong claim.
struct DispatchInfo {
  std::uint64_t tasks_run = 0;
  std::uint64_t local_pops = 0;
  std::uint64_t steals = 0;
  std::uint64_t self_stages = 0;
  std::uint64_t revoked_at_pop = 0;
  std::uint64_t parks = 0;
  std::uint64_t completion_fallbacks = 0;
  std::uint64_t inline_finishes = 0;
  std::uint64_t worker_retires = 0;

  [[nodiscard]] bool empty() const {
    return tasks_run == 0 && local_pops == 0 && steals == 0 &&
           self_stages == 0 && revoked_at_pop == 0 && parks == 0 &&
           completion_fallbacks == 0 && inline_finishes == 0 &&
           worker_retires == 0;
  }
};

/// Headline facts about one run, independent of where they came from.
struct RunInfo {
  std::string scenario;       ///< human-readable configuration label
  std::string engine;         ///< "sim" or "threaded"
  std::uint64_t makespan_us = 0;
  std::size_t blocks = 0;
  double avg_latency_us = 0.0;
  std::uint64_t p95_latency_us = 0;
  std::uint64_t max_latency_us = 0;
  bool spec_committed = false;
  std::uint64_t rollbacks = 0;
  std::uint64_t wasted_encodes = 0;
  std::size_t wait_discarded = 0;
  std::size_t input_bytes = 0;
  std::uint64_t output_bits = 0;
  stats::RunCounters counters;
  DispatchInfo dispatch;  ///< omitted from output when empty()
};

struct RunReport {
  RunInfo info;
  metrics::Snapshot metrics;                    ///< final registry state
  std::vector<std::string> series_names;        ///< sampler series
  std::vector<metrics::Sampler::Sample> samples;
  std::uint64_t samples_dropped = 0;

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string to_markdown() const;
};

/// Assembles a report; any of the pointers may be null.
[[nodiscard]] RunReport make_report(RunInfo info,
                                    const metrics::Registry* registry,
                                    const metrics::Sampler* sampler);

/// Writes `<dir>/<stem>.json`, `<dir>/<stem>.md` and `<dir>/<stem>.prom`.
/// Creates `dir` if needed; returns the paths written. Throws
/// std::runtime_error on I/O failure.
std::vector<std::string> write_bundle(const RunReport& report,
                                      const std::string& dir,
                                      const std::string& stem = "report");

}  // namespace report
