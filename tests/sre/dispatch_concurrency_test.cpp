// Concurrency tests for the threaded dispatch path: rollback revocation of
// tasks staged in worker-local queues, run *results* that match a
// single-threaded drive of the same DAG, and accounting invariants of the
// acquire/retire counters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "sre/threaded_executor.h"

namespace {

using sre::DispatchPolicy;
using sre::Runtime;
using sre::TaskClass;
using sre::TaskContext;
using sre::TaskState;
using sre::ThreadedExecutor;

/// Spin-waits (yielding) until `pred` holds or ~2 s pass; returns pred().
template <typename Pred>
bool wait_until(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Sets `flag` when it goes out of scope, so a blocked task body is
/// released on every exit path of the test code that holds it (a failed
/// ASSERT returns early) instead of hanging the run.
struct ReleaseOnExit {
  std::atomic<bool>& flag;
  ~ReleaseOnExit() { flag.store(true); }
};

// A rollback must revoke speculative tasks that are already staged in a
// worker's local queue: the worker pops them, sees the stale revocation
// stamp plus the abort flag, and retires them without running their bodies.
TEST(DispatchConcurrency, RollbackRevokesStagedTasks) {
  // Conservative orders the natural blocker ahead of the speculative tasks.
  Runtime rt(DispatchPolicy::Conservative);
  // One worker: a seed task's body submits the blocker and the speculative
  // tasks, so the worker self-stages all of them in one batch once the seed
  // retires. It then runs the blocker while the speculative tasks wait in
  // its own deque, so the rollback below is guaranteed to hit tasks parked
  // in a worker-local queue.
  ThreadedExecutor ex(rt, {.workers = 1});

  constexpr int kSpec = 4;
  std::atomic<bool> release{false};
  std::atomic<int> spec_bodies_run{0};

  ex.schedule_arrival(0, [&](std::uint64_t) {
    const ReleaseOnExit guard{release};
    auto blocker = rt.make_task("blocker", TaskClass::Natural,
                                sre::kNaturalEpoch, 1, 1,
                                [&release](TaskContext&) {
                                  while (!release.load()) {
                                    std::this_thread::yield();
                                  }
                                });
    const sre::Epoch e = rt.open_epoch();
    std::vector<sre::TaskPtr> specs;
    for (int i = 0; i < kSpec; ++i) {
      specs.push_back(rt.make_task("spec" + std::to_string(i),
                                   TaskClass::Speculative, e, 1, 1,
                                   [&spec_bodies_run](TaskContext&) {
                                     ++spec_bodies_run;
                                   }));
    }
    rt.submit(rt.make_task("seed", TaskClass::Natural, sre::kNaturalEpoch, 1,
                           1, [&rt, blocker, specs](TaskContext&) {
                             rt.submit(blocker);
                             for (const auto& t : specs) rt.submit(t);
                           }));
    ASSERT_TRUE(wait_until(
        [&] { return blocker->state() == TaskState::Running; }));
    // Staged in the same batch as the blocker, behind it in its deque.
    ASSERT_TRUE(wait_until([&] {
      for (const auto& t : specs) {
        if (t->state() != TaskState::Staged) return false;
      }
      return true;
    }));

    rt.abort_epoch(e);
    for (const auto& t : specs) {
      EXPECT_TRUE(t->abort_requested());
    }
  });

  ex.run();
  EXPECT_EQ(spec_bodies_run, 0) << "revoked tasks must not run their bodies";
  EXPECT_EQ(rt.counters().tasks_aborted, static_cast<std::uint64_t>(kSpec));
  EXPECT_EQ(ex.dispatch_stats().revoked_at_pop,
            static_cast<std::uint64_t>(kSpec));
  EXPECT_TRUE(rt.quiescent());
}

// A worker stuck in a long body must not hold on to work that became ready
// after it started: an idle sibling has to be able to take it. The blocker
// waits, up to a deadline, for tasks submitted while it runs; with 2
// workers the other one must run all of them well before that deadline.
TEST(DispatchConcurrency, BlockedBodyDoesNotStrandLaterWork) {
  Runtime rt(DispatchPolicy::Balanced);
  ThreadedExecutor ex(rt, {.workers = 2});

  constexpr int kLater = 8;
  std::atomic<int> later_run{0};
  std::atomic<bool> deadline_hit{false};

  ex.schedule_arrival(0, [&](std::uint64_t) {
    auto blocker = rt.make_task(
        "blocker", TaskClass::Natural, sre::kNaturalEpoch, 1, 1,
        [&later_run, &deadline_hit](TaskContext&) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(1);
          while (later_run.load() < kLater) {
            if (std::chrono::steady_clock::now() > deadline) {
              deadline_hit.store(true);
              return;
            }
            std::this_thread::yield();
          }
        });
    rt.submit(blocker);
    ASSERT_TRUE(wait_until(
        [&] { return blocker->state() == TaskState::Running; }));
    for (int i = 0; i < kLater; ++i) {
      rt.submit(rt.make_task("later" + std::to_string(i), TaskClass::Natural,
                             sre::kNaturalEpoch, 1, 1,
                             [&later_run](TaskContext&) { ++later_run; }));
    }
  });

  ex.run();
  EXPECT_FALSE(deadline_hit.load())
      << "work submitted after the blocker waited for the blocker's body";
  EXPECT_EQ(later_run, kLater);
}

struct RunTotals {
  std::uint64_t executed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t spec_executed = 0;
  std::uint64_t epochs_opened = 0;
  std::uint64_t epochs_committed = 0;

  bool operator==(const RunTotals&) const = default;
};

// One seeded workload: a natural chain plus speculative epochs that commit
// or abort based on the seed — the abort/commit decision is wired into the
// DAG (a completion hook), not the schedule, so the totals are
// schedule-independent. `verdicts` must outlive the run.
void build_workload(Runtime& rt, unsigned seed,
                    std::deque<std::atomic<bool>>& verdicts) {
  std::mt19937 rng(seed);
  const int chain_len = 3 + static_cast<int>(rng() % 8);
  const int n_epochs = 1 + static_cast<int>(rng() % 4);

  sre::TaskPtr prev;
  for (int i = 0; i < chain_len; ++i) {
    auto t = rt.make_task("n" + std::to_string(i), TaskClass::Natural,
                          sre::kNaturalEpoch, 1, 1, [](TaskContext&) {});
    if (prev) rt.add_dependency(prev, t);
    rt.submit(t);
    prev = t;
  }

  for (int k = 0; k < n_epochs; ++k) {
    const bool doomed = (rng() & 1) != 0;
    const sre::Epoch e = rt.open_epoch();
    std::atomic<bool>& verdict_out = verdicts.emplace_back(false);
    // Downstream bodies wait for the verdict before finishing, so a doomed
    // epoch's abort always lands while b/c are blocked, staged or running —
    // never after they committed. Without the gate the totals would race:
    // b can reach Done in the window between a's locked retirement (which
    // releases b) and a's hook (which aborts the epoch).
    const auto gated_body = [&verdict_out](TaskContext&) {
      while (!verdict_out.load()) std::this_thread::yield();
    };
    auto a = rt.make_task("a" + std::to_string(k), TaskClass::Speculative, e,
                          2, 1, [](TaskContext&) {});
    auto b = rt.make_task("b" + std::to_string(k), TaskClass::Speculative, e,
                          2, 1, gated_body);
    auto c = rt.make_task("c" + std::to_string(k), TaskClass::Speculative, e,
                          2, 1, gated_body);
    rt.add_dependency(a, b);
    rt.add_dependency(b, c);
    // The check verdict rides on a's completion: reject rolls the epoch
    // back (b and c always die — whether still blocked, staged in a local
    // queue, or already running), accept commits it.
    a->add_completion_hook(
        [&rt, &verdict_out, e, doomed](sre::Task&, std::uint64_t) {
          if (doomed) {
            rt.abort_epoch(e);
            rt.note_rollback();
          } else {
            rt.mark_epoch_committed(e);
          }
          verdict_out.store(true);
        });
    rt.submit(a);
    rt.submit(b);
    rt.submit(c);
  }
}

RunTotals totals(const Runtime& rt) {
  const stats::RunCounters c = rt.counters();
  return RunTotals{c.tasks_executed, c.tasks_aborted, c.spec_tasks_executed,
                   c.epochs_opened, c.epochs_committed};
}

RunTotals run_threaded(unsigned seed) {
  Runtime rt(DispatchPolicy::Aggressive);
  ThreadedExecutor ex(rt, {.workers = 4});
  std::deque<std::atomic<bool>> verdicts;  // stable addresses
  build_workload(rt, seed, verdicts);
  ex.run();
  return totals(rt);
}

/// The reference: one thread pops, runs and retires each task in turn
/// through Runtime::next_task / on_task_finished, the executor contract
/// with no concurrency at all.
RunTotals run_serial(unsigned seed) {
  Runtime rt(DispatchPolicy::Aggressive);
  std::deque<std::atomic<bool>> verdicts;
  build_workload(rt, seed, verdicts);
  std::uint64_t t = 0;
  while (sre::TaskPtr task = rt.next_task(t)) {
    TaskContext ctx{rt, *task, t};
    task->run(ctx);
    rt.on_task_finished(task, ++t);
  }
  EXPECT_TRUE(rt.quiescent()) << "seed " << seed;
  return totals(rt);
}

// The threaded executor interleaves tasks across workers, but the *results*
// — commit/abort totals — must equal a single-threaded drive of the same
// DAG, because abort/commit decisions are data-flow, not timing.
TEST(DispatchConcurrency, ThreadedTotalsMatchSerialDrive) {
  for (unsigned seed = 0; seed < 100; ++seed) {
    const RunTotals serial = run_serial(seed);
    const RunTotals threaded = run_threaded(seed);
    ASSERT_EQ(serial.executed, threaded.executed) << "seed " << seed;
    ASSERT_EQ(serial.aborted, threaded.aborted) << "seed " << seed;
    ASSERT_EQ(serial.spec_executed, threaded.spec_executed)
        << "seed " << seed;
    ASSERT_EQ(serial.epochs_opened, threaded.epochs_opened)
        << "seed " << seed;
    ASSERT_EQ(serial.epochs_committed, threaded.epochs_committed)
        << "seed " << seed;
  }
}

// Accounting invariant: every executed task was acquired through exactly one
// of the three sources, and the director staged none of them.
TEST(DispatchConcurrency, AcquireSourcesSumToTasksRun) {
  Runtime rt(DispatchPolicy::Balanced);
  ThreadedExecutor ex(rt, {.workers = 4});
  std::atomic<int> count{0};
  constexpr int kTasks = 400;
  for (int i = 0; i < kTasks; ++i) {
    rt.submit(rt.make_task("t" + std::to_string(i), TaskClass::Natural,
                           sre::kNaturalEpoch, 1, 1,
                           [&count](TaskContext&) { ++count; }));
  }
  ex.run();
  EXPECT_EQ(count, kTasks);
  const ThreadedExecutor::DispatchStats s = ex.dispatch_stats();
  EXPECT_EQ(s.tasks_run, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(s.revoked_at_pop, 0u);
  EXPECT_EQ(s.pop_count(), static_cast<std::uint64_t>(kTasks))
      << "local+steal+self_stage pops must cover every task exactly once";
  EXPECT_EQ(s.director_stages, 0u);
}

}  // namespace
