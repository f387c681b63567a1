#include "sre/ready_pool.h"

#include <gtest/gtest.h>

#include "sre/runtime.h"

namespace {

using sre::DispatchPolicy;
using sre::ReadyPool;
using sre::TaskClass;
using sre::TaskPtr;

TaskPtr make(sre::Runtime& rt, TaskClass cls, int depth,
             const std::string& name = "t") {
  return rt.make_task(name, cls, cls == TaskClass::Speculative ? 1 : 0, depth,
                      10, [](sre::TaskContext&) {});
}

// Pushes via a runtime so ready_seq is assigned in submission order.
struct PoolFixture : ::testing::Test {
  sre::Runtime rt{DispatchPolicy::Balanced};
};

TEST_F(PoolFixture, ControlAlwaysWins) {
  ReadyPool pool(DispatchPolicy::Aggressive);
  auto spec = make(rt, TaskClass::Speculative, 100);
  auto control = make(rt, TaskClass::Control, 0);
  // Assign ready order via runtime-internal sequence: emulate by pushing in
  // any order — control must pop first regardless.
  pool.push(spec);
  pool.push(control);
  EXPECT_EQ(pool.pop(), control);
  EXPECT_EQ(pool.pop(), spec);
}

TEST_F(PoolFixture, DepthFavoredThenFcfs) {
  ReadyPool pool(DispatchPolicy::NonSpeculative);
  auto shallow1 = make(rt, TaskClass::Natural, 1, "s1");
  auto deep = make(rt, TaskClass::Natural, 5, "d");
  auto shallow2 = make(rt, TaskClass::Natural, 1, "s2");
  // FCFS within equal depth follows push order here because ready_seq
  // defaults to 0 for all: use id tie-break (creation order).
  pool.push(shallow1);
  pool.push(deep);
  pool.push(shallow2);
  EXPECT_EQ(pool.pop(), deep);
  EXPECT_EQ(pool.pop(), shallow1);
  EXPECT_EQ(pool.pop(), shallow2);
}

TEST_F(PoolFixture, ConservativePrefersNatural) {
  ReadyPool pool(DispatchPolicy::Conservative);
  auto spec = make(rt, TaskClass::Speculative, 100);
  auto natural = make(rt, TaskClass::Natural, 1);
  pool.push(spec);
  pool.push(natural);
  EXPECT_EQ(pool.pop(), natural);
  EXPECT_EQ(pool.pop(), spec);
  EXPECT_EQ(pool.natural_pops(), 1u);
  EXPECT_EQ(pool.speculative_pops(), 1u);
}

TEST_F(PoolFixture, AggressivePrefersSpeculative) {
  ReadyPool pool(DispatchPolicy::Aggressive);
  auto spec = make(rt, TaskClass::Speculative, 1);
  auto natural = make(rt, TaskClass::Natural, 100);
  pool.push(spec);
  pool.push(natural);
  EXPECT_EQ(pool.pop(), spec);
  EXPECT_EQ(pool.pop(), natural);
}

TEST_F(PoolFixture, BalancedAlternatesStrictly) {
  ReadyPool pool(DispatchPolicy::Balanced);
  std::vector<TaskPtr> specs;
  std::vector<TaskPtr> naturals;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(make(rt, TaskClass::Speculative, 1));
    naturals.push_back(make(rt, TaskClass::Natural, 1));
    pool.push(specs.back());
    pool.push(naturals.back());
  }
  int spec_count = 0;
  int natural_count = 0;
  for (int i = 0; i < 8; ++i) {
    auto t = pool.pop();
    ASSERT_NE(t, nullptr);
    (t->task_class() == TaskClass::Speculative ? spec_count : natural_count)++;
    if (i == 3) {
      EXPECT_EQ(spec_count, 2);
      EXPECT_EQ(natural_count, 2);
    }
  }
  EXPECT_EQ(spec_count, 4);
  EXPECT_EQ(natural_count, 4);
}

TEST_F(PoolFixture, BalancedFallsThroughWhenOneSideEmpty) {
  ReadyPool pool(DispatchPolicy::Balanced);
  auto n1 = make(rt, TaskClass::Natural, 1);
  auto n2 = make(rt, TaskClass::Natural, 1);
  pool.push(n1);
  pool.push(n2);
  EXPECT_NE(pool.pop(), nullptr);
  EXPECT_NE(pool.pop(), nullptr);
  EXPECT_EQ(pool.pop(), nullptr);
}

TEST_F(PoolFixture, SpecVetoForcesNaturalOnly) {
  ReadyPool pool(DispatchPolicy::Aggressive);
  auto spec = make(rt, TaskClass::Speculative, 100);
  auto natural = make(rt, TaskClass::Natural, 1);
  pool.push(spec);
  pool.push(natural);
  EXPECT_EQ(pool.pop(/*spec_allowed=*/false), natural);
  EXPECT_EQ(pool.pop(/*spec_allowed=*/false), nullptr);  // only spec remains
  EXPECT_EQ(pool.pop(/*spec_allowed=*/true), spec);
}

TEST_F(PoolFixture, EraseRemovesSpecificTask) {
  ReadyPool pool(DispatchPolicy::Balanced);
  auto a = make(rt, TaskClass::Natural, 1);
  auto b = make(rt, TaskClass::Natural, 1);
  pool.push(a);
  pool.push(b);
  EXPECT_TRUE(pool.erase(a));
  EXPECT_FALSE(pool.erase(a));
  EXPECT_EQ(pool.pop(), b);
}

TEST_F(PoolFixture, ErasedTaskIsSkippedAtPopAndFreed) {
  ReadyPool pool(DispatchPolicy::Balanced);
  auto a = make(rt, TaskClass::Natural, 1, "a");
  auto b = make(rt, TaskClass::Natural, 1, "b");
  const std::weak_ptr<sre::Task> weak_a = a;
  pool.push(a);
  pool.push(b);
  EXPECT_TRUE(pool.erase(a));
  a.reset();
  EXPECT_TRUE(weak_a.expired()) << "the pool kept an erased task alive";
  // c may reuse a's slot; a's tombstone must not surface it twice.
  auto c = make(rt, TaskClass::Natural, 1, "c");
  pool.push(c);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.pop(), b);
  EXPECT_EQ(pool.pop(), c);
  EXPECT_EQ(pool.pop(), nullptr);
  EXPECT_TRUE(pool.empty());
}

TEST_F(PoolFixture, NonSpeculativePolicyRejectsSpecPush) {
  ReadyPool pool(DispatchPolicy::NonSpeculative);
  auto spec = make(rt, TaskClass::Speculative, 1);
  EXPECT_THROW(pool.push(spec), std::logic_error);
}

TEST_F(PoolFixture, SizesTrackQueues) {
  ReadyPool pool(DispatchPolicy::Balanced);
  EXPECT_TRUE(pool.empty());
  pool.push(make(rt, TaskClass::Natural, 1));
  pool.push(make(rt, TaskClass::Speculative, 1));
  pool.push(make(rt, TaskClass::Control, 1));
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.natural_size(), 1u);
  EXPECT_EQ(pool.speculative_size(), 1u);
  EXPECT_EQ(pool.control_size(), 1u);
}

}  // namespace
