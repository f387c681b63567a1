// Runtime::Batch: logged add_dependency/submit calls replay in call order
// under one lock hold, with the semantics of the immediate calls made at
// flush time. Tasks are driven manually (next_task + run +
// on_task_finished), as in runtime_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sre/runtime.h"

namespace {

using sre::DispatchPolicy;
using sre::Runtime;
using sre::TaskClass;
using sre::TaskContext;
using sre::TaskPtr;
using sre::TaskState;

TaskPtr noop(Runtime& rt, const std::string& name,
             TaskClass cls = TaskClass::Natural, sre::Epoch epoch = 0) {
  return rt.make_task(name, cls, epoch, 1, 10, [](TaskContext&) {});
}

/// Pops and finishes one task; returns its name ("" if none was ready).
std::string run_one(Runtime& rt, std::uint64_t t = 1) {
  TaskPtr task = rt.next_task();
  if (!task) return "";
  TaskContext ctx{rt, *task, t};
  task->run(ctx);
  rt.on_task_finished(task, t);
  return task->name();
}

TEST(RuntimeBatch, EdgeToProducerDoneBeforeFlushIsSatisfied) {
  Runtime rt(DispatchPolicy::Balanced);
  auto p = noop(rt, "p");
  auto c = noop(rt, "c");
  rt.submit(p);
  {
    Runtime::Batch batch(rt);
    rt.add_dependency(p, c);
    rt.submit(c);
    EXPECT_EQ(c->state(), TaskState::Created);
    EXPECT_EQ(run_one(rt), "p");  // Done before the flush
  }
  EXPECT_EQ(c->state(), TaskState::Ready);
  EXPECT_EQ(run_one(rt), "c");
  EXPECT_TRUE(rt.quiescent());
}

TEST(RuntimeBatch, EdgeToAbortedProducerAbortsConsumer) {
  Runtime rt(DispatchPolicy::Balanced);
  const sre::Epoch e = rt.open_epoch();
  auto p = noop(rt, "p", TaskClass::Speculative, e);
  auto c = noop(rt, "c", TaskClass::Speculative, e);
  auto d = noop(rt, "d");
  rt.submit(p);
  {
    Runtime::Batch batch(rt);
    rt.add_dependency(p, c);
    rt.add_dependency(c, d);
    rt.submit(c);
    rt.submit(d);
    rt.abort_epoch(e);  // p is Aborted before the flush
  }
  EXPECT_EQ(c->state(), TaskState::Aborted);
  // The destroy signal reaches d through the replayed edge c -> d; the
  // submit of an aborted task is a no-op, as it is when called directly.
  EXPECT_EQ(d->state(), TaskState::Aborted);
  EXPECT_EQ(rt.ready_count(), 0u);
  EXPECT_EQ(rt.blocked_count(), 0u);
  EXPECT_TRUE(rt.quiescent());
  EXPECT_EQ(rt.counters().tasks_aborted, 3u);
}

TEST(RuntimeBatch, ReplaysInCallOrder) {
  Runtime rt(DispatchPolicy::Balanced);
  auto a = noop(rt, "a");
  auto b = noop(rt, "b");
  auto c = noop(rt, "c");
  auto d = noop(rt, "d");
  {
    Runtime::Batch batch(rt);
    rt.submit(c);
    rt.submit(a);
    rt.add_dependency(a, d);  // after a's submit: a is Ready at replay
    rt.submit(d);
    rt.submit(b);
  }
  EXPECT_EQ(d->state(), TaskState::Blocked);
  EXPECT_LT(c->ready_seq(), a->ready_seq());
  EXPECT_LT(a->ready_seq(), b->ready_seq());
  EXPECT_EQ(run_one(rt), "c");
  EXPECT_EQ(run_one(rt), "a");
  EXPECT_EQ(run_one(rt), "b");
  EXPECT_EQ(run_one(rt), "d");
}

TEST(RuntimeBatch, NestedScopesFlushOnceWithOneSignal) {
  Runtime rt(DispatchPolicy::Balanced);
  int signals = 0;
  rt.set_ready_signal([&signals] { ++signals; });
  {
    Runtime::Batch outer(rt);
    rt.submit(noop(rt, "a"));
    {
      Runtime::Batch inner(rt);
      rt.submit(noop(rt, "b"));
    }
    EXPECT_EQ(rt.ready_count(), 0u);
    EXPECT_EQ(signals, 0);
    rt.submit(noop(rt, "c"));
    EXPECT_EQ(rt.ready_count(), 0u);
  }
  EXPECT_EQ(rt.ready_count(), 3u);
  EXPECT_EQ(signals, 1);
}

TEST(RuntimeBatch, LongRunFlushesEveryKFlushSubmits) {
  Runtime rt(DispatchPolicy::Balanced);
  int signals = 0;
  rt.set_ready_signal([&signals] { ++signals; });
  constexpr std::size_t K = Runtime::Batch::kFlushSubmits;
  {
    Runtime::Batch batch(rt);
    for (std::size_t i = 0; i + 1 < K; ++i) rt.submit(noop(rt, "t"));
    EXPECT_EQ(rt.ready_count(), 0u);
    rt.submit(noop(rt, "t"));  // the K-th submit publishes the run so far
    EXPECT_EQ(rt.ready_count(), K);
    EXPECT_EQ(signals, 1);
    rt.submit(noop(rt, "t"));
    EXPECT_EQ(rt.ready_count(), K);
  }
  EXPECT_EQ(rt.ready_count(), K + 1);
  EXPECT_EQ(signals, 2);
}

TEST(RuntimeBatch, OtherRuntimesAreNotDeferred) {
  Runtime rt(DispatchPolicy::Balanced);
  Runtime other(DispatchPolicy::Balanced);
  {
    Runtime::Batch batch(rt);
    other.submit(noop(other, "x"));
    EXPECT_EQ(other.ready_count(), 1u);
    {
      Runtime::Batch other_batch(other);  // a batch of its own
      other.submit(noop(other, "y"));
      EXPECT_EQ(other.ready_count(), 1u);
    }
    EXPECT_EQ(other.ready_count(), 2u);
    rt.submit(noop(rt, "a"));  // the outer batch logs again
    EXPECT_EQ(rt.ready_count(), 0u);
  }
  EXPECT_EQ(rt.ready_count(), 1u);
}

TEST(RuntimeBatch, MisuseThrowsAtTheLoggedCall) {
  Runtime rt(DispatchPolicy::Balanced);
  auto t = noop(rt, "t");
  auto p = noop(rt, "p");
  rt.submit(t);
  Runtime::Batch batch(rt);
  EXPECT_THROW(rt.submit(t), std::logic_error);
  EXPECT_THROW(rt.add_dependency(p, t), std::logic_error);
}

TEST(RuntimeBatch, EdgesIntoADestroyedConsumerAreIgnored) {
  // The immediate path: once an edge to an aborted producer has destroyed
  // the consumer, later edges into it are no-ops rather than errors.
  Runtime rt(DispatchPolicy::Balanced);
  const sre::Epoch e = rt.open_epoch();
  auto dead = noop(rt, "dead", TaskClass::Speculative, e);
  auto live = noop(rt, "live");
  auto c = noop(rt, "c");
  rt.submit(dead);
  rt.submit(live);
  rt.abort_epoch(e);
  rt.add_dependency(dead, c);
  EXPECT_EQ(c->state(), TaskState::Aborted);
  EXPECT_NO_THROW(rt.add_dependency(live, c));
  rt.submit(c);
  EXPECT_EQ(c->state(), TaskState::Aborted);
  EXPECT_EQ(run_one(rt), "live");
  EXPECT_TRUE(rt.quiescent());
}

}  // namespace
