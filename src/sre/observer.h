// Runtime observability: a passive event stream of everything the SRE does.
//
// An Observer sees task lifecycle events (creation, dependence edges,
// dispatch, completion/abort) and speculation epoch events. The flight
// recorder (src/flight) builds Chrome-trace timelines, Graphviz DFG dumps
// and utilization charts from it; tests use it to assert scheduling
// behaviour.
//
// Contract: callbacks may be invoked while the runtime lock is held — an
// observer must record and return, never call back into the Runtime.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sre/ids.h"

namespace sre {

struct TaskInfo {
  TaskId id = 0;
  std::string name;
  TaskClass cls = TaskClass::Natural;
  Epoch epoch = kNaturalEpoch;
  int depth = 0;
  std::uint64_t cost_us = 0;
  /// Serving-layer stream (session) id the task belongs to; 0 = none.
  std::uint64_t stream = 0;
};

class Observer {
 public:
  virtual ~Observer() = default;

  /// A task object was created (not yet submitted).
  virtual void on_task_created(const TaskInfo& /*task*/) {}

  /// A dependence edge producer → consumer was declared.
  virtual void on_edge(TaskId /*producer*/, TaskId /*consumer*/) {}

  /// The task started executing on `cpu` at engine time `now_us`. For the
  /// threaded engine, `cpu` is the worker index.
  virtual void on_dispatched(TaskId /*task*/, std::uint64_t /*now_us*/,
                             unsigned /*cpu*/) {}

  /// The task's completion was processed. `aborted` means a rollback caught
  /// it and its effects were discarded.
  virtual void on_finished(TaskId /*task*/, std::uint64_t /*now_us*/,
                           bool /*aborted*/) {}

  virtual void on_epoch_opened(Epoch /*epoch*/) {}
  virtual void on_epoch_committed(Epoch /*epoch*/) {}
  virtual void on_epoch_aborted(Epoch /*epoch*/) {}

  /// Fired alongside on_epoch_aborted with the rollback's blast radius:
  /// how many live tasks of the epoch were destroyed or flagged for
  /// disposal by this abort.
  virtual void on_rollback_cascade(Epoch /*epoch*/,
                                   std::size_t /*tasks_destroyed*/) {}

  /// A speculation check task's verdict was processed. `margin` is the
  /// tolerance headroom ratio (observed error / allowed error; < 1 passes),
  /// or a negative value when the speculation layer cannot compute one.
  virtual void on_check_verdict(Epoch /*epoch*/, bool /*within*/,
                                bool /*is_final*/, double /*margin*/) {}

  // --- Fault injection (src/sre/fault.h) ----------------------------------

  /// A FaultPlan acted on a task: `failed` means the body was suppressed and
  /// the task retired as aborted; otherwise it was delayed by `delay_us`.
  /// Unlike the other events this one fires on the worker thread *without*
  /// the runtime lock held; the record-and-return contract still applies.
  virtual void on_fault_injected(TaskId /*task*/, bool /*failed*/,
                                 std::uint64_t /*delay_us*/) {}
};

/// Forwards every event to a set of observers, so a run can attach e.g. a
/// flight::FlightObserver and a metrics::MetricsObserver at once. The children
/// inherit the record-and-return contract; null entries are skipped.
class FanoutObserver final : public Observer {
 public:
  void add(Observer* observer) {
    if (observer != nullptr) children_.push_back(observer);
  }
  [[nodiscard]] std::size_t size() const { return children_.size(); }

  void on_task_created(const TaskInfo& task) override {
    for (Observer* o : children_) o->on_task_created(task);
  }
  void on_edge(TaskId producer, TaskId consumer) override {
    for (Observer* o : children_) o->on_edge(producer, consumer);
  }
  void on_dispatched(TaskId task, std::uint64_t now_us, unsigned cpu) override {
    for (Observer* o : children_) o->on_dispatched(task, now_us, cpu);
  }
  void on_finished(TaskId task, std::uint64_t now_us, bool aborted) override {
    for (Observer* o : children_) o->on_finished(task, now_us, aborted);
  }
  void on_epoch_opened(Epoch epoch) override {
    for (Observer* o : children_) o->on_epoch_opened(epoch);
  }
  void on_epoch_committed(Epoch epoch) override {
    for (Observer* o : children_) o->on_epoch_committed(epoch);
  }
  void on_epoch_aborted(Epoch epoch) override {
    for (Observer* o : children_) o->on_epoch_aborted(epoch);
  }
  void on_rollback_cascade(Epoch epoch, std::size_t tasks) override {
    for (Observer* o : children_) o->on_rollback_cascade(epoch, tasks);
  }
  void on_check_verdict(Epoch epoch, bool within, bool is_final,
                        double margin) override {
    for (Observer* o : children_) {
      o->on_check_verdict(epoch, within, is_final, margin);
    }
  }
  void on_fault_injected(TaskId task, bool failed,
                         std::uint64_t delay_us) override {
    for (Observer* o : children_) o->on_fault_injected(task, failed, delay_us);
  }

 private:
  std::vector<Observer*> children_;
};

}  // namespace sre
