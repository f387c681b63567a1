// Speculator<V> unit tests: estimates drive epochs, checks, rollbacks,
// re-speculation, commit and the natural fallback. The runtime is driven
// manually (pop → run → finish), so every check task's timing is explicit.
#include "core/speculator.h"

#include <gtest/gtest.h>

#include <optional>

namespace {

using sre::DispatchPolicy;
using sre::Runtime;
using tvs::SpecConfig;
using tvs::Speculator;
using tvs::VerificationPolicy;

/// Records everything the speculator does to the pipeline.
struct Probe {
  struct ChainBuild {
    double guess;
    sre::Epoch epoch;
    std::uint32_t index;
  };
  std::vector<ChainBuild> chains;
  std::vector<sre::Epoch> commits;
  std::vector<double> committed_guesses;
  std::vector<sre::Epoch> rollbacks;
  std::optional<double> natural_from;
  double tolerance = 0.1;  // |guess - current| <= tolerance
};

Speculator<double>::Callbacks callbacks(Probe& probe) {
  Speculator<double>::Callbacks cb;
  cb.build_chain = [&probe](const double& g, sre::Epoch e, std::uint32_t ix) {
    probe.chains.push_back({g, e, ix});
  };
  cb.within_tolerance = [&probe](const double& g, const double& cur) {
    return std::abs(g - cur) <= probe.tolerance;
  };
  cb.on_commit = [&probe](const double& g, sre::Epoch e, std::uint64_t) {
    probe.commits.push_back(e);
    probe.committed_guesses.push_back(g);
  };
  cb.on_rollback = [&probe](sre::Epoch e, std::uint64_t) {
    probe.rollbacks.push_back(e);
  };
  cb.build_natural = [&probe](const double& v, std::uint64_t) {
    probe.natural_from = v;
  };
  return cb;
}

/// Runs all queued (check) tasks to completion.
void drain(Runtime& rt) {
  std::uint64_t t = 1000;
  while (sre::TaskPtr task = rt.next_task()) {
    sre::TaskContext ctx{rt, *task, t};
    task->run(ctx);
    rt.on_task_finished(task, ++t);
  }
}

struct SpeculatorFixture : ::testing::Test {
  Runtime rt{DispatchPolicy::Balanced};
  Probe probe;

  Speculator<double> make(SpecConfig cfg) {
    return Speculator<double>(rt, cfg, callbacks(probe));
  }
};

TEST_F(SpeculatorFixture, RequiresAllCallbacks) {
  Speculator<double>::Callbacks cb = callbacks(probe);
  cb.on_commit = nullptr;
  EXPECT_THROW(Speculator<double>(rt, SpecConfig{}, std::move(cb)),
               std::invalid_argument);
}

TEST_F(SpeculatorFixture, SpeculatesAtFirstStepMultiple) {
  auto spec = make({.step_size = 4});
  for (std::uint32_t k = 1; k <= 3; ++k) {
    spec.on_estimate(0.1 * k, k, false, k);
    EXPECT_TRUE(probe.chains.empty());
  }
  spec.on_estimate(0.4, 4, false, 4);
  ASSERT_EQ(probe.chains.size(), 1u);
  EXPECT_DOUBLE_EQ(probe.chains[0].guess, 0.4);
  EXPECT_EQ(probe.chains[0].index, 4u);
  EXPECT_TRUE(spec.active_epoch().has_value());
}

TEST_F(SpeculatorFixture, WantsEstimateMatchesBehaviour) {
  auto spec = make({.step_size = 2, .verify = VerificationPolicy::every_kth(4)});
  EXPECT_FALSE(spec.wants_estimate(1, false));  // not a step multiple
  EXPECT_TRUE(spec.wants_estimate(2, false));   // would speculate
  spec.on_estimate(1.0, 2, false, 0);           // now active
  EXPECT_FALSE(spec.wants_estimate(3, false));  // no check at 3
  EXPECT_TRUE(spec.wants_estimate(4, false));   // check at 4
  EXPECT_TRUE(spec.wants_estimate(5, true));    // final always wanted
}

TEST_F(SpeculatorFixture, PassingChecksChangeNothing) {
  auto spec = make({.step_size = 1, .verify = VerificationPolicy::every_kth(2)});
  spec.on_estimate(1.0, 1, false, 0);
  spec.on_estimate(1.05, 2, false, 1);  // within 0.1 tolerance
  drain(rt);
  EXPECT_TRUE(probe.rollbacks.empty());
  EXPECT_TRUE(probe.commits.empty());
  EXPECT_EQ(probe.chains.size(), 1u);
  EXPECT_FALSE(spec.finished());
}

TEST_F(SpeculatorFixture, FinalPassingCheckCommits) {
  auto spec = make({.step_size = 1});
  spec.on_estimate(1.0, 1, false, 0);
  const auto epoch = spec.active_epoch();
  spec.on_estimate(1.02, 2, true, 1);
  drain(rt);
  ASSERT_EQ(probe.commits.size(), 1u);
  EXPECT_EQ(probe.commits[0], *epoch);
  EXPECT_TRUE(spec.committed());
  EXPECT_TRUE(spec.finished());
  EXPECT_FALSE(probe.natural_from.has_value());
  EXPECT_EQ(rt.counters().epochs_committed, 1u);
}

TEST_F(SpeculatorFixture, FailedCheckRollsBackAndRespeculates) {
  auto spec = make({.step_size = 1, .verify = VerificationPolicy::every_kth(2)});
  spec.on_estimate(1.0, 1, false, 0);
  const auto first_epoch = spec.active_epoch();
  spec.on_estimate(2.0, 2, false, 1);  // way outside tolerance
  drain(rt);
  ASSERT_EQ(probe.rollbacks.size(), 1u);
  EXPECT_EQ(probe.rollbacks[0], *first_epoch);
  // Re-speculated immediately from the newest estimate.
  ASSERT_EQ(probe.chains.size(), 2u);
  EXPECT_DOUBLE_EQ(probe.chains[1].guess, 2.0);
  EXPECT_NE(spec.active_epoch(), first_epoch);
  EXPECT_EQ(rt.counters().rollbacks, 1u);
}

TEST_F(SpeculatorFixture, CommitCarriesTheReopenedEpochsGuess) {
  auto spec = make({.step_size = 1, .verify = VerificationPolicy::every_kth(2)});
  spec.on_estimate(1.0, 1, false, 0);  // epoch 1 adopts 1.0
  spec.on_estimate(2.0, 2, false, 1);  // check fails: reopen from 2.0
  drain(rt);
  ASSERT_EQ(probe.rollbacks.size(), 1u);
  ASSERT_EQ(probe.chains.size(), 2u);
  spec.on_estimate(2.05, 3, true, 2);  // within tolerance of 2.0
  drain(rt);
  ASSERT_EQ(probe.commits.size(), 1u);
  EXPECT_EQ(probe.commits[0], probe.chains[1].epoch);
  ASSERT_EQ(probe.committed_guesses.size(), 1u);
  EXPECT_DOUBLE_EQ(probe.committed_guesses[0], 2.0)
      << "on_commit must carry the reopened epoch's guess, not the first";
}

TEST_F(SpeculatorFixture, LateOlderEstimateCannotHideTheFinal) {
  // Parallel tasks can materialize estimates out of order: here the final
  // (index 3) lands before estimate 2. The late estimate must be ignored,
  // so the failed final check still falls back to the natural path instead
  // of re-speculating with no estimate left to settle the run.
  auto spec = make({.step_size = 1, .verify = VerificationPolicy::every_kth(8)});
  spec.on_estimate(1.0, 1, false, 0);  // opens an epoch (guess 1.0)
  spec.on_estimate(9.9, 3, true, 1);   // final check spawned; it will fail
  spec.on_estimate(1.0, 2, false, 2);  // late, older estimate
  drain(rt);
  EXPECT_TRUE(spec.finished());
  ASSERT_TRUE(probe.natural_from.has_value());
  EXPECT_DOUBLE_EQ(*probe.natural_from, 9.9);
  EXPECT_EQ(probe.chains.size(), 1u);
}

TEST_F(SpeculatorFixture, FailedFinalCheckFallsBackToNatural) {
  auto spec = make({.step_size = 1});
  spec.on_estimate(1.0, 1, false, 0);
  spec.on_estimate(9.9, 2, true, 1);
  drain(rt);
  EXPECT_EQ(probe.rollbacks.size(), 1u);
  EXPECT_TRUE(spec.finished());
  EXPECT_FALSE(spec.committed());
  ASSERT_TRUE(probe.natural_from.has_value());
  EXPECT_DOUBLE_EQ(*probe.natural_from, 9.9);
  EXPECT_EQ(probe.chains.size(), 1u) << "no re-speculation after the final";
}

TEST_F(SpeculatorFixture, NoSpeculationMeansNaturalPathAtFinal) {
  auto spec = make({.step_size = 8});  // never reached
  spec.on_estimate(1.0, 1, false, 0);
  spec.on_estimate(1.1, 2, true, 1);
  drain(rt);
  EXPECT_TRUE(probe.chains.empty());
  ASSERT_TRUE(probe.natural_from.has_value());
  EXPECT_DOUBLE_EQ(*probe.natural_from, 1.1);
  EXPECT_TRUE(spec.finished());
}

TEST_F(SpeculatorFixture, OptimisticSkipsIntermediateChecks) {
  auto spec =
      make({.step_size = 1, .verify = VerificationPolicy::optimistic()});
  spec.on_estimate(1.0, 1, false, 0);
  for (std::uint32_t k = 2; k < 10; ++k) {
    spec.on_estimate(5.0, k, false, k);  // wildly off, but never checked
  }
  drain(rt);
  EXPECT_TRUE(probe.rollbacks.empty());
  EXPECT_EQ(rt.counters().checks_executed, 0u);
  spec.on_estimate(1.01, 10, true, 10);
  drain(rt);
  EXPECT_EQ(rt.counters().checks_executed, 1u);
  EXPECT_TRUE(spec.committed());
}

TEST_F(SpeculatorFixture, FullChecksEveryEstimate) {
  auto spec = make({.step_size = 1, .verify = VerificationPolicy::full()});
  spec.on_estimate(1.0, 1, false, 0);
  spec.on_estimate(1.01, 2, false, 1);
  drain(rt);
  spec.on_estimate(1.02, 3, false, 2);
  drain(rt);
  EXPECT_EQ(rt.counters().checks_executed, 2u);
  EXPECT_TRUE(probe.rollbacks.empty());
}

TEST_F(SpeculatorFixture, EstimatesAfterFinishAreIgnored) {
  auto spec = make({.step_size = 1});
  spec.on_estimate(1.0, 1, false, 0);
  spec.on_estimate(1.0, 2, true, 1);
  drain(rt);
  ASSERT_TRUE(spec.finished());
  spec.on_estimate(7.0, 3, false, 2);
  drain(rt);
  EXPECT_EQ(probe.chains.size(), 1u);
  EXPECT_TRUE(probe.rollbacks.empty());
  EXPECT_FALSE(spec.wants_estimate(4, true));
}

TEST_F(SpeculatorFixture, StaleVerdictsForDeadEpochsIgnored) {
  // Two checks in flight for the same epoch (Full policy); the first one
  // fails and rolls back, the second one's verdict must not touch the new
  // epoch.
  auto spec = make({.step_size = 1, .verify = VerificationPolicy::full()});
  spec.on_estimate(1.0, 1, false, 0);
  const auto e1 = spec.active_epoch();
  spec.on_estimate(2.0, 2, false, 1);  // fails → rollback + respec
  spec.on_estimate(2.01, 3, false, 2); // queued check for e1 (still active
                                       // when spawned? — spawn order matters)
  drain(rt);
  // However the verdicts interleave, exactly one epoch is active at the end
  // and it is not e1.
  EXPECT_NE(spec.active_epoch(), e1);
  EXPECT_GE(probe.rollbacks.size(), 1u);
  EXPECT_FALSE(spec.finished());
}

TEST_F(SpeculatorFixture, AdaptiveRestartDefersAfterRollback) {
  auto spec = make({.step_size = 1,
                    .verify = VerificationPolicy::full(),
                    .adaptive_restart = true});
  spec.on_estimate(1.0, 1, false, 0);   // guess at estimate 1
  spec.on_estimate(9.0, 4, false, 1);   // check fails → rollback
  drain(rt);
  ASSERT_EQ(probe.rollbacks.size(), 1u);
  EXPECT_EQ(probe.chains.size(), 1u) << "no immediate re-speculation";
  EXPECT_FALSE(spec.active_epoch().has_value());

  // Backoff: the failed guess saw 4 estimates, so nothing below 8 opens.
  EXPECT_FALSE(spec.wants_estimate(5, false));
  spec.on_estimate(9.1, 5, false, 2);
  spec.on_estimate(9.1, 7, false, 3);
  drain(rt);
  EXPECT_EQ(probe.chains.size(), 1u);

  EXPECT_TRUE(spec.wants_estimate(8, false));
  spec.on_estimate(9.2, 8, false, 4);
  drain(rt);
  ASSERT_EQ(probe.chains.size(), 2u);
  EXPECT_DOUBLE_EQ(probe.chains[1].guess, 9.2);

  // The doubled-prefix guess holds and commits.
  spec.on_estimate(9.25, 9, true, 5);
  drain(rt);
  EXPECT_TRUE(spec.committed());
}

TEST_F(SpeculatorFixture, AdaptiveRestartFallsBackToNaturalWhenDeferred) {
  auto spec = make({.step_size = 1,
                    .verify = VerificationPolicy::full(),
                    .adaptive_restart = true});
  spec.on_estimate(1.0, 2, false, 0);
  spec.on_estimate(9.0, 3, false, 1);  // rollback; defer until 6
  drain(rt);
  ASSERT_EQ(probe.rollbacks.size(), 1u);
  // The final estimate arrives before the backoff elapses: natural path.
  spec.on_estimate(9.5, 4, true, 2);
  drain(rt);
  EXPECT_TRUE(spec.finished());
  EXPECT_FALSE(spec.committed());
  ASSERT_TRUE(probe.natural_from.has_value());
  EXPECT_DOUBLE_EQ(*probe.natural_from, 9.5);
}

TEST_F(SpeculatorFixture, AdaptiveRestartBacksOffAfterBackToBackRollbacks) {
  // Satellite regression: wants_estimate must honour the doubled deferral
  // after each consecutive rollback, not just the first one.
  auto spec = make({.step_size = 1,
                    .verify = VerificationPolicy::full(),
                    .adaptive_restart = true});
  spec.on_estimate(1.0, 1, false, 0);
  spec.on_estimate(9.0, 4, false, 1);  // check fails → rollback #1, defer 8
  drain(rt);
  ASSERT_EQ(probe.rollbacks.size(), 1u);
  EXPECT_FALSE(spec.wants_estimate(7, false));
  EXPECT_TRUE(spec.wants_estimate(8, false));

  spec.on_estimate(9.0, 8, false, 2);   // re-opens at the deferral boundary
  drain(rt);
  ASSERT_EQ(probe.chains.size(), 2u);
  spec.on_estimate(25.0, 9, false, 3);  // fails again → rollback #2, defer 18
  drain(rt);
  ASSERT_EQ(probe.rollbacks.size(), 2u);
  for (std::uint32_t k = 10; k < 18; ++k) {
    EXPECT_FALSE(spec.wants_estimate(k, false)) << "k=" << k;
    spec.on_estimate(25.0, k, false, k);
  }
  drain(rt);
  EXPECT_EQ(probe.chains.size(), 2u) << "nothing may open inside the backoff";
  EXPECT_TRUE(spec.wants_estimate(18, false))
      << "the doubled deferral boundary re-admits speculation";
  EXPECT_TRUE(spec.wants_estimate(12, true))
      << "a final estimate is always wanted, even mid-backoff";
}

TEST_F(SpeculatorFixture, EarlyRollbackStormBacksOffGeometrically) {
  // Satellite regression (torture-style): every guess is wrong, verdicts
  // land immediately. The doubled deferral must keep the number of epoch
  // opens logarithmic in the estimate count — the degenerate pre-fix
  // backoff (deferrals that failed to grow past tiny indices) re-admitted
  // speculation almost every estimate and produced a rollback storm.
  auto spec = make({.step_size = 1,
                    .verify = VerificationPolicy::full(),
                    .adaptive_restart = true});
  for (std::uint32_t k = 1; k <= 4096; ++k) {
    spec.on_estimate(1000.0 + k, k, false, k);
    drain(rt);
  }
  // Opens at 1, 4, 10, 22, 46, ... — geometric, ~11 for 4096 estimates.
  EXPECT_LE(probe.chains.size(), 14u)
      << "backoff must be geometric, not a rollback storm";
  EXPECT_GE(probe.chains.size(), 5u) << "backoff must still re-admit";
  EXPECT_EQ(probe.rollbacks.size(), probe.chains.size());
  // Deferrals never shrink: each open's index strictly exceeds the last.
  for (std::size_t i = 1; i < probe.chains.size(); ++i) {
    EXPECT_GT(probe.chains[i].index, probe.chains[i - 1].index);
  }
}

TEST_F(SpeculatorFixture, RestartMinDeferFloorsAdaptiveBackoff) {
  auto spec = make({.step_size = 1,
                    .verify = VerificationPolicy::full(),
                    .adaptive_restart = true,
                    .restart_min_defer = 16});
  spec.on_estimate(1.0, 1, false, 0);
  spec.on_estimate(9.0, 2, false, 1);  // bare doubling would defer to just 4
  drain(rt);
  ASSERT_EQ(probe.rollbacks.size(), 1u);
  for (std::uint32_t k = 3; k < 16; ++k) {
    EXPECT_FALSE(spec.wants_estimate(k, false)) << "k=" << k;
  }
  EXPECT_TRUE(spec.wants_estimate(16, false));
}

TEST_F(SpeculatorFixture, RestartMinDeferWithoutAdaptiveDefersReopen) {
  auto spec = make({.step_size = 1,
                    .verify = VerificationPolicy::full(),
                    .restart_min_defer = 8});
  spec.on_estimate(1.0, 1, false, 0);
  spec.on_estimate(9.0, 2, false, 1);  // rollback; paper behaviour would
  drain(rt);                           // re-speculate on the spot
  ASSERT_EQ(probe.rollbacks.size(), 1u);
  EXPECT_EQ(probe.chains.size(), 1u) << "the floor blocks instant re-spec";
  EXPECT_FALSE(spec.wants_estimate(7, false));
  EXPECT_TRUE(spec.wants_estimate(8, false));
  spec.on_estimate(9.1, 8, false, 2);
  drain(rt);
  EXPECT_EQ(probe.chains.size(), 2u);
}

TEST_F(SpeculatorFixture, AdaptiveBackoffSaturatesAtUint32Max) {
  auto spec = make({.step_size = 1,
                    .verify = VerificationPolicy::full(),
                    .adaptive_restart = true});
  spec.on_estimate(1.0, 3'000'000'000u, false, 0);
  spec.on_estimate(9.0, 3'000'000'001u, false, 1);  // 2·latest overflows u32
  drain(rt);
  ASSERT_EQ(probe.rollbacks.size(), 1u);
  EXPECT_FALSE(spec.wants_estimate(4'000'000'000u, false));
  EXPECT_TRUE(spec.wants_estimate(UINT32_MAX, false))
      << "the deferral saturates instead of wrapping to a tiny index";
}

TEST_F(SpeculatorFixture, RetuneAppliesKnobsAndPinsStructure) {
  auto spec = make({.step_size = 2, .tolerance = 0.25});
  EXPECT_TRUE(spec.wants_estimate(2, false));
  EXPECT_EQ(spec.retunes(), 0u);

  tvs::SpecConfig next;
  next.step_size = 8;
  next.tolerance = 0.9;  // structural — must NOT take
  spec.retune(next);
  EXPECT_EQ(spec.retunes(), 1u);
  EXPECT_EQ(spec.config().step_size, 8u);
  EXPECT_DOUBLE_EQ(spec.config().tolerance, 0.25)
      << "tolerance is captured by the pipeline at build time; retune pins it";
  EXPECT_FALSE(spec.wants_estimate(2, false));
  EXPECT_TRUE(spec.wants_estimate(8, false));

  spec.on_estimate(1.0, 8, false, 0);
  ASSERT_EQ(probe.chains.size(), 1u) << "callbacks survive the retune";
  EXPECT_EQ(probe.chains[0].index, 8u);
}

TEST_F(SpeculatorFixture, FailedCheckWithFinalKnownGoesNaturalNotReSpec) {
  // Satellite regression: a failing non-final check whose verdict lands
  // after the final estimate arrived must fall back to the natural path —
  // re-speculating would guess at a value that can no longer be checked.
  auto spec = make({.step_size = 1, .verify = VerificationPolicy::every_kth(2)});
  spec.on_estimate(1.0, 1, false, 0);
  const auto first_epoch = spec.active_epoch();
  spec.on_estimate(5.0, 2, false, 1);  // spawns a check that will fail
  spec.on_estimate(5.1, 3, true, 2);   // final arrives before the verdict
  drain(rt);
  ASSERT_EQ(probe.rollbacks.size(), 1u);
  EXPECT_EQ(probe.rollbacks[0], *first_epoch);
  EXPECT_EQ(probe.chains.size(), 1u) << "no re-speculation after the final";
  ASSERT_TRUE(probe.natural_from.has_value());
  EXPECT_DOUBLE_EQ(*probe.natural_from, 5.1);
  EXPECT_TRUE(spec.finished());
  EXPECT_FALSE(spec.committed());

  // And nothing revives it afterwards.
  spec.on_estimate(7.0, 4, false, 3);
  drain(rt);
  EXPECT_EQ(probe.chains.size(), 1u);
  EXPECT_FALSE(spec.wants_estimate(5, false));
}

TEST_F(SpeculatorFixture, ChecksRunAtControlPriority) {
  auto spec = make({.step_size = 1});
  spec.on_estimate(1.0, 1, false, 0);
  spec.on_estimate(1.0, 8, false, 1);  // spawns a check
  auto natural = rt.make_task("n", sre::TaskClass::Natural, 0, 999, 10,
                              [](sre::TaskContext&) {});
  rt.submit(natural);
  auto first = rt.next_task();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->task_class(), sre::TaskClass::Control)
      << "check tasks dispatch before even the deepest natural task";
}

}  // namespace
