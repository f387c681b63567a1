// Control-plane retune vs. speculation concurrency (runs under the tsan CI
// slice via the sre_core label).
//
// The control plane calls Speculator::retune while estimates and check
// verdicts are in flight. The speculator's contract is that a retune is
// just another mu_-serialized writer: the unlock windows (chaos points
// speculator.open_window, spawn_check_window, commit_window,
// rollback_window, natural_window) re-validate generation state when the
// lock is re-taken, so a config swap landing *inside* such a window must
// never corrupt epoch accounting — and tsan must see no unsynchronized
// access. Two attacks:
//
//  * a chaos hook that *synchronously* injects a retune at every unlock
//    window crossing — the worst possible placement, deterministically;
//  * a free-running retune hammer thread against a chaos-yielding
//    multi-worker run — the probabilistic, genuinely-parallel version.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "core/speculator.h"
#include "sre/chaos_point.h"
#include "sre/threaded_executor.h"
#include "stress/chaos_schedule.h"

namespace {

using sre::DispatchPolicy;
using sre::Runtime;
using stress::ChaosOptions;
using stress::ChaosSchedule;
using tvs::SpecConfig;
using tvs::Speculator;
using tvs::VerificationPolicy;

/// Thread-safe probe: check verdicts run on executor workers.
struct Probe {
  std::atomic<std::uint64_t> chains{0};
  std::atomic<std::uint64_t> commits{0};
  std::atomic<std::uint64_t> rollbacks{0};
  std::atomic<std::uint64_t> naturals{0};

  Speculator<double>::Callbacks callbacks() {
    Speculator<double>::Callbacks cb;
    cb.build_chain = [this](const double&, sre::Epoch, std::uint32_t) {
      chains.fetch_add(1, std::memory_order_relaxed);
    };
    cb.within_tolerance = [](const double& g, const double& cur) {
      return std::abs(g - cur) <= 0.1;
    };
    cb.on_commit = [this](const double&, sre::Epoch, std::uint64_t) {
      commits.fetch_add(1, std::memory_order_relaxed);
    };
    cb.on_rollback = [this](sre::Epoch, std::uint64_t) {
      rollbacks.fetch_add(1, std::memory_order_relaxed);
    };
    cb.build_natural = [this](const double&, std::uint64_t) {
      naturals.fetch_add(1, std::memory_order_relaxed);
    };
    return cb;
  }
};

/// Estimate stream with periodic jumps: enough rollbacks to cross every
/// verdict-side unlock window, enough stability to also commit sometimes.
double estimate_value(std::uint32_t k) {
  return (k % 7 == 0) ? 100.0 * k : 100.0 * (k - k % 7);
}

SpecConfig tight_config() {
  SpecConfig c;
  c.step_size = 4;
  c.verify = VerificationPolicy::full();
  c.adaptive_restart = true;
  c.restart_min_defer = 8;
  return c;
}

SpecConfig loose_config() {
  SpecConfig c;
  c.step_size = 1;
  c.verify = VerificationPolicy::full();
  return c;
}

/// Injects a retune synchronously at every speculator unlock window.
struct RetuneAtWindows final : sre::chaos::Hook {
  std::atomic<Speculator<double>*> spec{nullptr};
  std::atomic<std::uint64_t> injected{0};

  void on_point(const char* site) noexcept override {
    Speculator<double>* s = spec.load(std::memory_order_acquire);
    if (s == nullptr) return;
    if (std::strncmp(site, "speculator.", 11) != 0) return;
    const std::uint64_t n = injected.fetch_add(1, std::memory_order_relaxed);
    s->retune(n % 2 == 0 ? tight_config() : loose_config());
  }
};

TEST(RetuneRace, RetuneInsideEveryUnlockWindowIsHarmless) {
  RetuneAtWindows hook;
  sre::chaos::ScopedHook guard(&hook);

  Runtime rt(DispatchPolicy::Balanced);
  Probe probe;
  Speculator<double> spec(rt, loose_config(), probe.callbacks());
  hook.spec.store(&spec, std::memory_order_release);

  constexpr std::uint32_t kEstimates = 512;
  std::uint64_t t = 0;
  for (std::uint32_t k = 1; k <= kEstimates; ++k) {
    spec.on_estimate(estimate_value(k), k, k == kEstimates, ++t);
    // Drain verdicts as they spawn, so every verdict-side window crosses
    // with the freshest injected config.
    while (sre::TaskPtr task = rt.next_task()) {
      sre::TaskContext ctx{rt, *task, ++t};
      task->run(ctx);
      rt.on_task_finished(task, ++t);
    }
  }
  hook.spec.store(nullptr, std::memory_order_release);

  EXPECT_GT(hook.injected.load(), 0u) << "windows must actually be crossed";
  EXPECT_EQ(spec.retunes(), hook.injected.load());
  EXPECT_GT(probe.chains.load(), 0u);
  // Epoch accounting stays coherent through every mid-window config swap:
  // each opened chain resolves exactly once, and the stream terminates.
  EXPECT_EQ(probe.commits.load() + probe.rollbacks.load(),
            probe.chains.load());
  EXPECT_TRUE(spec.finished() || spec.committed());
  EXPECT_EQ(probe.commits.load(), spec.committed() ? 1u : 0u);
}

TEST(RetuneRace, HammerThreadAgainstChaoticWorkers) {
  ChaosOptions opts;
  opts.yield_prob = 0.7;
  opts.sleep_prob = 0.1;
  opts.max_sleep_us = 20;
  ChaosSchedule plan(11, opts);
  sre::chaos::ScopedHook guard(&plan);

  Runtime rt(DispatchPolicy::Balanced);
  sre::ThreadedExecutor ex(rt, {.workers = 3});
  Probe probe;
  Speculator<double> spec(rt, loose_config(), probe.callbacks());

  // The estimate stream runs as one natural task (estimates are ordered by
  // contract); its check tasks fan out to the other workers, crossing the
  // verdict-side windows in parallel with the hammer below.
  constexpr std::uint32_t kEstimates = 800;
  rt.submit(rt.make_task(
      "feeder", sre::TaskClass::Natural, sre::kNaturalEpoch, 1, 1,
      [&spec](sre::TaskContext& ctx) {
        for (std::uint32_t k = 1; k <= kEstimates; ++k) {
          spec.on_estimate(estimate_value(k), k, k == kEstimates,
                           ctx.now_us + k);
        }
      }));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hammered{0};
  std::thread hammer([&] {
    std::uint64_t n = 0;
    while (!stop.load(std::memory_order_acquire)) {
      spec.retune(n % 2 == 0 ? tight_config() : loose_config());
      ++n;
      // Mixed readers on the same mutex, racing the verdict path.
      (void)spec.config();
      (void)spec.wants_estimate(static_cast<std::uint32_t>(n % 64), false);
      std::this_thread::yield();
    }
    hammered.store(n, std::memory_order_release);
  });

  ex.run();
  stop.store(true, std::memory_order_release);
  hammer.join();

  EXPECT_GT(hammered.load(), 0u);
  EXPECT_EQ(spec.retunes(), hammered.load());
  EXPECT_EQ(probe.commits.load() + probe.rollbacks.load(),
            probe.chains.load());
  EXPECT_TRUE(spec.finished() || spec.committed());
}

}  // namespace
