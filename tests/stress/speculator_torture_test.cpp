// Seeded speculator torture sweep: the full Speculator + WaitBuffer stack on
// the real threaded executor, under chaos yields/sleeps, estimate bursts,
// rollback storms and (every fifth seed) injected task failures and latency
// spikes. Every run checks the oracles in stress/torture.h; a failing seed
// is confirmed and shrunk by the Replayer so the assertion message carries a
// minimal reproducer.
//
// Env knobs (used by tools/ci.sh torture):
//   TVS_TORTURE_BASE_SEED  first seed of the sweep      (default 1)
//   TVS_TORTURE_SEEDS      number of seeds              (default 200)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "stress/replay.h"
#include "stress/torture.h"

namespace {

using stress::Replayer;
using stress::TortureOptions;
using stress::TortureReport;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

std::string describe(const TortureOptions& o) {
  return "seed=" + std::to_string(o.seed) +
         " workers=" + std::to_string(o.workers) +
         " estimates=" + std::to_string(o.estimates) +
         " burst=" + std::to_string(o.burst) +
         " chain=" + std::to_string(o.chain_tasks) +
         " step=" + std::to_string(o.step_size) +
         " verify=" + std::to_string(o.verify_every) +
         " adaptive=" + std::to_string(o.adaptive_restart) +
         " fail_prob=" + std::to_string(o.chaos.fail_prob);
}

TEST(SpeculatorTorture, SeededSweep) {
  const std::uint64_t base = env_u64("TVS_TORTURE_BASE_SEED", 1);
  const std::uint64_t seeds = env_u64("TVS_TORTURE_SEEDS", 200);
  for (std::uint64_t s = base; s < base + seeds; ++s) {
    const TortureOptions opt = TortureOptions::for_seed(s);
    const TortureReport rep = stress::run_speculator_torture(opt);
    if (rep.ok) continue;

    Replayer replayer(&stress::run_speculator_torture);
    const stress::ReplayResult shrunk = replayer.replay(opt);
    FAIL() << "speculator torture failed: " << rep.failure << "\n  at "
           << describe(opt) << "\n  minimal reproducer ("
           << (shrunk.reproduced ? shrunk.failure : "did not re-reproduce")
           << "):\n  " << describe(shrunk.minimal)
           << "\n  replay with TVS_TORTURE_BASE_SEED=" << s
           << " TVS_TORTURE_SEEDS=1\n  chaos trace of minimal run:\n"
           << shrunk.trace;
  }
}

// One pinned seed with a meaningful storm keeps the report fields honest
// (the sweep only checks oracles; this checks the torture actually tortures).
TEST(SpeculatorTorture, PinnedSeedExercisesRollbacks) {
  TortureOptions opt = TortureOptions::for_seed(9);
  opt.storm_rate = 0.6;
  opt.verify_every = 1;  // Full verification: every estimate checks
  opt.adaptive_restart = false;
  // The storm's first failing verdict must land, and re-speculate, before
  // the final estimate ends the run; under sanitizer load the feeder's
  // clock can outrun it. Bounded: a run that never rolls back still fails.
  opt.final_hold_us = 2'000'000;
  const TortureReport rep = stress::run_speculator_torture(opt);
  EXPECT_TRUE(rep.ok) << rep.failure;
  EXPECT_TRUE(rep.finished);
  EXPECT_GT(rep.epochs_opened, 1u) << "storm should force re-speculation";
  EXPECT_GT(rep.rollbacks, 0u);
  EXPECT_GT(rep.chaos_decisions, 0u);
}

}  // namespace
