#include "sre/threaded_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "sre/slot.h"

namespace {

using sre::DispatchPolicy;
using sre::Runtime;
using sre::TaskClass;
using sre::TaskContext;
using sre::ThreadedExecutor;

TEST(ThreadedExecutor, RunsSingleTask) {
  Runtime rt(DispatchPolicy::Balanced);
  ThreadedExecutor ex(rt, {.workers = 2});
  std::atomic<bool> ran{false};
  auto t = rt.make_task("t", TaskClass::Natural, 0, 1, 1,
                        [&ran](TaskContext&) { ran = true; });
  rt.submit(t);
  ex.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(rt.quiescent());
}

TEST(ThreadedExecutor, RespectsDependencyOrder) {
  Runtime rt(DispatchPolicy::Balanced);
  ThreadedExecutor ex(rt, {.workers = 4});
  auto slot = sre::make_slot<int>();
  std::atomic<int> result{0};
  auto p = rt.make_task("p", TaskClass::Natural, 0, 1, 1,
                        [slot](TaskContext&) { slot->set(7); });
  auto c = rt.make_task("c", TaskClass::Natural, 0, 2, 1,
                        [slot, &result](TaskContext&) { result = slot->get(); });
  rt.add_dependency(p, c);
  rt.submit(p);
  rt.submit(c);
  ex.run();
  EXPECT_EQ(result, 7);
}

TEST(ThreadedExecutor, ManyParallelTasksAllComplete) {
  Runtime rt(DispatchPolicy::Balanced);
  ThreadedExecutor ex(rt, {.workers = 8});
  std::atomic<int> count{0};
  for (int i = 0; i < 500; ++i) {
    rt.submit(rt.make_task("t" + std::to_string(i), TaskClass::Natural, 0, 1,
                           1, [&count](TaskContext&) { ++count; }));
  }
  ex.run();
  EXPECT_EQ(count, 500);
  EXPECT_EQ(rt.counters().tasks_executed, 500u);
}

TEST(ThreadedExecutor, ArrivalsInjectWorkOverTime) {
  Runtime rt(DispatchPolicy::Balanced);
  ThreadedExecutor ex(rt, {.workers = 2});
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    ex.schedule_arrival(static_cast<std::uint64_t>(i) * 500,
                        [&rt, &count](std::uint64_t) {
                          rt.submit(rt.make_task(
                              "arr", TaskClass::Natural, 0, 1, 1,
                              [&count](TaskContext&) { ++count; }));
                        });
  }
  ex.run();
  EXPECT_EQ(count, 10);
}

TEST(ThreadedExecutor, ArrivalTimeScaleCompressesSchedule) {
  Runtime rt(DispatchPolicy::Balanced);
  // 2 s of schedule scaled down to 2 ms; the test passing quickly IS the
  // assertion.
  ThreadedExecutor ex(rt, {.workers = 1, .arrival_time_scale = 0.001});
  std::atomic<bool> ran{false};
  ex.schedule_arrival(2'000'000, [&rt, &ran](std::uint64_t) {
    rt.submit(rt.make_task("late", TaskClass::Natural, 0, 1, 1,
                           [&ran](TaskContext&) { ran = true; }));
  });
  const auto start = std::chrono::steady_clock::now();
  ex.run();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(ran);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(ThreadedExecutor, HooksSpawnFollowOnWork) {
  Runtime rt(DispatchPolicy::Balanced);
  ThreadedExecutor ex(rt, {.workers = 2});
  std::atomic<int> phase{0};
  auto first = rt.make_task("first", TaskClass::Natural, 0, 1, 1,
                            [&phase](TaskContext&) { phase = 1; });
  first->add_completion_hook([&rt, &phase](sre::Task&, std::uint64_t) {
    rt.submit(rt.make_task("second", TaskClass::Natural, 0, 1, 1,
                           [&phase](TaskContext&) { phase = 2; }));
  });
  rt.submit(first);
  ex.run();
  EXPECT_EQ(phase, 2);
}

TEST(ThreadedExecutor, TaskExceptionSurfacesFromRun) {
  Runtime rt(DispatchPolicy::Balanced);
  ThreadedExecutor ex(rt, {.workers = 2});
  rt.submit(rt.make_task("boom", TaskClass::Natural, 0, 1, 1,
                         [](TaskContext&) {
                           throw std::runtime_error("kaboom");
                         }));
  EXPECT_THROW(ex.run(), std::runtime_error);
}

TEST(ThreadedExecutor, AbandonedRunFreesStagedTasks) {
  // Ownership of staged tasks stays with the runtime: a body that throws
  // leaves the rest of its worker's batch staged, and destroying the
  // executor and the runtime frees every task.
  std::vector<std::weak_ptr<sre::Task>> weak;
  {
    Runtime rt(DispatchPolicy::Balanced);
    {
      ThreadedExecutor ex(rt, {.workers = 1});
      for (int i = 0; i < 12; ++i) {
        auto t = rt.make_task("t" + std::to_string(i), TaskClass::Natural, 0,
                              1, 1, [i](TaskContext&) {
                                if (i == 0) throw std::runtime_error("boom");
                              });
        weak.push_back(t);
        rt.submit(t);
      }
      EXPECT_THROW(ex.run(), std::runtime_error);
      EXPECT_GT(rt.running_count(), 1u) << "no task was left staged";
    }
  }
  for (const auto& w : weak) EXPECT_TRUE(w.expired());
}

TEST(ThreadedExecutor, SameInstantArrivalsPublishTogetherInSubmissionOrder) {
  // Arrivals due at one instant fire as one runtime batch: nothing they
  // submit is published before the batch's first flush (at kFlushSubmits
  // submits), and one worker runs the tasks in submission order.
  constexpr int kArrivals = 200;
  constexpr int kFirstFlush =
      static_cast<int>(Runtime::Batch::kFlushSubmits) - 1;
  Runtime rt(DispatchPolicy::Balanced);
  ThreadedExecutor ex(rt, {.workers = 1});
  std::vector<int> order;  // written by the one worker only
  std::vector<std::size_t> published(kArrivals, 0);  // feeder only
  for (int i = 0; i < kArrivals; ++i) {
    ex.schedule_arrival(1000, [&rt, &order, &published, i](std::uint64_t) {
      rt.submit(rt.make_task("t" + std::to_string(i), TaskClass::Natural, 0,
                             1, 1,
                             [&order, i](TaskContext&) { order.push_back(i); }));
      published[i] = rt.ready_count() + rt.running_count() +
                     rt.counters().tasks_executed;
    });
  }
  ex.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kArrivals));
  for (int i = 0; i < kArrivals; ++i) EXPECT_EQ(order[i], i);
  for (int i = 0; i < kFirstFlush; ++i) {
    EXPECT_EQ(published[i], 0u) << "arrival " << i << " published early";
  }
  EXPECT_GT(published[kFirstFlush], 0u);
}

TEST(ThreadedExecutor, LoneArrivalPublishesEachSubmitAtOnce) {
  Runtime rt(DispatchPolicy::Balanced);
  ThreadedExecutor ex(rt, {.workers = 1});
  std::atomic<bool> published{false};
  std::atomic<bool> ran{false};
  ex.schedule_arrival(1000, [&](std::uint64_t) {
    auto t = rt.make_task("t", TaskClass::Natural, 0, 1, 1,
                          [&ran](TaskContext&) { ran = true; });
    rt.submit(t);
    published = t->state() != sre::TaskState::Created;
  });
  ex.schedule_arrival(2000, [](std::uint64_t) {});
  ex.run();
  EXPECT_TRUE(published);
  EXPECT_TRUE(ran);
}

TEST(ThreadedExecutor, EmptyRunTerminates) {
  Runtime rt(DispatchPolicy::Balanced);
  ThreadedExecutor ex(rt, {.workers = 2});
  ex.run();  // no tasks, no arrivals: must return promptly
  EXPECT_TRUE(rt.quiescent());
}

TEST(ThreadedExecutor, ZeroWorkersRejected) {
  Runtime rt(DispatchPolicy::Balanced);
  EXPECT_THROW(ThreadedExecutor(rt, {.workers = 0}), std::invalid_argument);
}

TEST(ThreadedExecutor, DeepSerialChainCompletes) {
  Runtime rt(DispatchPolicy::Balanced);
  ThreadedExecutor ex(rt, {.workers = 4});
  std::atomic<int> counter{0};
  sre::TaskPtr prev;
  for (int i = 0; i < 200; ++i) {
    auto t = rt.make_task("link" + std::to_string(i), TaskClass::Natural, 0, 1,
                          1, [&counter, i](TaskContext&) {
                            // Serial chain: each link must observe its index.
                            EXPECT_EQ(counter.fetch_add(1), i);
                          });
    if (prev) rt.add_dependency(prev, t);
    prev = t;
    rt.submit(t);
  }
  ex.run();
  EXPECT_EQ(counter, 200);
}

}  // namespace
