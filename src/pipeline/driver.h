// Driver: runs one configured scenario end-to-end and collects results.
//
// Two engines:
//  * run_sim      — deterministic virtual-time simulation (figure benches);
//  * run_threaded — real worker threads (examples, correctness tests).
//
// Both accept a RunOptions bundle that wires the observability stack into
// the run: a metrics::Registry turns on the MetricsObserver, a
// metrics::Sampler gets the standard speculation-health series installed
// and ticked (on virtual time for the simulator, wall clock for threads),
// and a flight recorder or any extra sre::Observer is fanned in beside the
// metrics bridge.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "io/block_source.h"
#include "metrics/registry.h"
#include "metrics/report.h"
#include "metrics/sampler.h"
#include "pipeline/run_config.h"
#include "sre/observer.h"
#include "sre/threaded_executor.h"
#include "stats/summary.h"
#include "stats/trace.h"

namespace sre {
class Runtime;
}

namespace flight {
class Recorder;
}

namespace pipeline {

class HuffmanPipeline;

struct RunResult {
  stats::BlockTrace trace;
  stats::RunCounters counters;
  stats::Micros makespan_us = 0;  ///< completion time of the last task
  bool spec_committed = false;
  std::uint64_t rollbacks = 0;
  std::size_t wait_discarded = 0;
  std::uint64_t output_bits = 0;
  std::uint64_t natural_dispatches = 0;   ///< pool pops of natural tasks
  std::uint64_t spec_dispatches = 0;      ///< pool pops of speculative tasks
  std::uint64_t control_dispatches = 0;   ///< pool pops of control tasks

  /// Scheduler-path counters. Populated ONLY by run_threaded. run_sim
  /// leaves every field zero — the simulator has no per-worker dispatch
  /// machinery to count, so an all-zero struct means "not instrumented",
  /// not "nothing ran".
  /// Consumers must treat all-zero as absent; report::RunReport omits its
  /// Dispatch section in that case instead of printing zeros.
  sre::ThreadedExecutor::DispatchStats dispatch;

  std::vector<std::uint8_t> input;      ///< the generated workload bytes
  std::vector<std::uint8_t> container;  ///< assembled compressed stream

  /// Mean per-block latency (the paper's headline metric).
  [[nodiscard]] double avg_latency_us() const;

  /// Latency summary over all blocks.
  [[nodiscard]] stats::Summary latency_summary() const;
};

/// Observability wiring for a run. All pointers are borrowed and may be
/// null; the pointees must outlive the run_* call (the sampler's series
/// closures are cleared before it returns).
struct RunOptions {
  /// Extra observer (e.g. a test probe); fanned in after metrics.
  sre::Observer* observer = nullptr;

  /// Non-null: attach a flight::FlightObserver on this recorder for the run
  /// (always-on span tracing; see src/flight/). Fanned in beside metrics.
  flight::Recorder* flight = nullptr;

  /// Non-null: attach a MetricsObserver on this registry for the run.
  metrics::Registry* registry = nullptr;

  /// Non-null: install the standard speculation-health series (ready-pool
  /// depths, open epochs, wait-buffer occupancy, speculative CPU share) and
  /// tick them every sample_interval_us — virtual time under run_sim, a
  /// background thread under run_threaded.
  metrics::Sampler* sampler = nullptr;
  std::uint64_t sample_interval_us = 10'000;

  // Threaded engine only.
  unsigned workers = 4;
  double arrival_time_scale = 1.0;
};

/// Runs `config` on the virtual-time simulator. Deterministic given a fixed
/// config (sampling does not perturb the schedule: ticks are zero-cost
/// events on the same queue).
[[nodiscard]] RunResult run_sim(const RunConfig& config,
                                const RunOptions& options);

/// Back-compat convenience: observer-only wiring.
[[nodiscard]] RunResult run_sim(const RunConfig& config,
                                sre::Observer* observer = nullptr);

/// Runs `config` on real threads. Latency values are wall-clock and thus
/// noisy; use run_sim for figures.
[[nodiscard]] RunResult run_threaded(const RunConfig& config,
                                     const RunOptions& options);

/// Back-compat convenience: `workers` threads, no metrics.
[[nodiscard]] RunResult run_threaded(const RunConfig& config,
                                     unsigned workers = 4,
                                     double arrival_time_scale = 1.0);

/// One pipeline wired into a shared, already-running runtime — the
/// re-entrant driver entry the serving layer (src/serve) uses. Unlike
/// run_threaded, begin_shared_run constructs no engine: it builds the
/// pipeline against the caller's Runtime and schedules the block arrivals
/// on the caller's live executor (service mode), offset to the executor's
/// current engine time. Many SharedRuns may coexist on one runtime; each
/// keeps its own Speculator, WaitBuffer and epoch space (Runtime::open_epoch
/// is globally monotonic, so epoch spaces never collide).
struct SharedRun {
  std::shared_ptr<const sio::BlockSource> source;
  std::unique_ptr<HuffmanPipeline> pipeline;
  std::uint64_t base_us = 0;  ///< engine time the arrival schedule started at

  SharedRun();
  SharedRun(SharedRun&&) noexcept;
  SharedRun& operator=(SharedRun&&) noexcept;
  ~SharedRun();  // out of line: HuffmanPipeline is incomplete here
};

/// Starts `config` as a session on a shared engine. `on_complete` fires
/// exactly once, from an executor thread, when the last committed block is
/// placed in the container (see HuffmanPipeline::set_on_complete);
/// `on_last_arrival`
/// (optional) fires on the feeder thread right after the final block has
/// been injected — the serving layer's Running → Draining edge. Block
/// arrival times from the config's ArrivalModel are scaled by
/// `block_time_scale` (0 = inject as fast as the feeder can) and offset by
/// the executor's current time. The executor must be in service mode (or
/// otherwise still feeding) for the arrivals to fire.
[[nodiscard]] SharedRun begin_shared_run(
    const RunConfig& config, sre::Runtime& runtime, sre::ThreadedExecutor& ex,
    double block_time_scale, std::function<void(std::uint64_t)> on_complete,
    std::function<void(std::uint64_t)> on_last_arrival = nullptr);

/// Per-session results for a SharedRun whose on_complete fired at
/// `done_us`. Engine-global fields stay zero — runtime counters and pool
/// pop totals aggregate over every concurrent session, and DispatchStats
/// belong to the shared executor — so only per-session data (trace,
/// speculation outcome, output) is populated. makespan_us is the session's
/// own span: done_us - base_us.
[[nodiscard]] RunResult collect_shared_run(const SharedRun& run,
                                           std::uint64_t done_us);

/// Registers the standard speculation-health series on `sampler`: ready-pool
/// depths per class, blocked/running tasks, open epochs and their live task
/// count, wait-buffer occupancy, and — when `registry` is non-null —
/// speculative CPU share and rollback count derived from the registry's
/// counters. Series closures reference `runtime` and `pipeline`; call
/// sampler.clear_series() before those die. run_sim / run_threaded do all
/// of this automatically; this entry point is for callers that drive their
/// own executor (e.g. tvsc).
void install_standard_series(metrics::Sampler& sampler, sre::Runtime& runtime,
                             const HuffmanPipeline& pipeline,
                             metrics::Registry* registry);

/// Fills a report::RunInfo from a finished run — the glue between the
/// pipeline's result type and the application-agnostic report layer.
/// `engine` is "sim" or "threaded".
[[nodiscard]] report::RunInfo run_info(const RunConfig& config,
                                       const RunResult& result,
                                       const std::string& engine = "sim");

/// Verifies that `result.container` decodes back to `result.input`.
/// Throws std::logic_error on mismatch.
void verify_roundtrip(const RunResult& result);

/// Compressed-size overhead of `result` relative to the optimal
/// (non-speculative, exact-tree) encoding of the same input: fraction ≥ ~0.
[[nodiscard]] double size_overhead_vs_optimal(const RunResult& result);

}  // namespace pipeline
