// Torture scenarios: deterministic concurrency stress for the speculation
// layer (tvs::Speculator + tvs::WaitBuffer) on top of the real threaded
// executor, with every nondeterministic decision owned by a ChaosSchedule.
//
// Each scenario builds a miniature speculative pipeline, drives it with a
// seeded estimate stream shaped to provoke the dangerous windows (estimate
// bursts racing verdicts, rollback storms, commits racing late checks,
// adds racing flushes), and checks a set of oracles after the run:
//
//  * exactly-once terminal: at most one natural build and at most one
//    commit, never both; with no fault injection, exactly one of them;
//  * rollback sanity: every rolled-back epoch is distinct, the runtime's
//    rollback counter matches the callbacks observed;
//  * sink order: no payload of a dropped epoch ever reaches the sink, each
//    (epoch, key) at most once, and while a commit flush is in flight every
//    emission for that epoch comes from the committing thread (racing adds
//    must queue behind the flush, not interleave with it);
//  * quiescence: the executor drains fully (a hang is a failure by timeout
//    at the test harness level).
//
// A scenario returns a TortureReport rather than asserting, so the replayer
// (stress/replay.h) can re-run and shrink failing seeds.
#pragma once

#include <cstdint>
#include <string>

#include "stress/chaos_schedule.h"

namespace stress {

struct TortureOptions {
  std::uint64_t seed = 1;

  // Pipeline shape.
  unsigned workers = 4;
  std::uint32_t estimates = 48;   ///< estimates before the final
  std::uint32_t burst = 4;        ///< estimates injected back-to-back
  unsigned chain_tasks = 3;       ///< speculative tasks per epoch
  std::uint32_t step_size = 1;
  std::uint32_t verify_every = 1; ///< 1 = Full verification
  bool adaptive_restart = false;

  /// Probability (seeded, per estimate) that the value jumps outside
  /// tolerance — each jump makes the next check fail: a rollback storm.
  double storm_rate = 0.4;

  /// > 0: the final estimate waits up to this long (µs) for the storm's
  /// first rollback to re-speculate, so a run that must exercise
  /// re-speculation does not race the feeder's clock. The wait re-arms the
  /// final arrival on the feeder; it never blocks a thread.
  std::uint64_t final_hold_us = 0;

  ChaosOptions chaos = {};

  /// Derives a scenario variant from `seed` (verification policy, restart
  /// mode, storm rate wobble) so a seed sweep covers the config space.
  [[nodiscard]] static TortureOptions for_seed(std::uint64_t seed);
};

struct TortureReport {
  bool ok = true;
  std::string failure;  ///< first violated oracle ("" when ok)
  std::uint64_t seed = 0;

  // Observed effects (diagnostics; also consumed by test assertions).
  std::uint64_t naturals = 0;
  std::uint64_t commits = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t epochs_opened = 0;
  std::uint64_t sink_emits = 0;
  std::uint64_t chaos_decisions = 0;
  bool finished = false;  ///< speculator reached a terminal state

  std::string trace;  ///< chaos decision trace (options.chaos.record)

  void fail(std::string what) {
    if (ok) {
      ok = false;
      failure = std::move(what);
    }
  }
};

/// Speculator + WaitBuffer end-to-end scenario on the threaded executor.
[[nodiscard]] TortureReport run_speculator_torture(const TortureOptions& opt);

/// WaitBuffer-only scenario: N threads add/commit/drop against a hostile
/// sink (slow, and re-entrant — it adds back into the buffer mid-flush).
[[nodiscard]] TortureReport run_wait_buffer_torture(const TortureOptions& opt);

}  // namespace stress
