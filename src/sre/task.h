// Task: the coarse-grain, side-effect-free unit of computation of the SRE.
//
// A task carries its dependence bookkeeping (unmet-producer count, successor
// list), its scheduling attributes (class, epoch, pipeline depth, FCFS
// sequence number), an abort flag used for rollback of in-flight work, and a
// simulated cost used by the virtual-time executor.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sre/ids.h"

namespace sre {

class Task;
class Runtime;
using TaskPtr = std::shared_ptr<Task>;

/// Execution context handed to a task body.
struct TaskContext {
  Runtime& runtime;
  Task& self;
  /// Engine time (µs) at which the task was dispatched. Virtual time under
  /// the simulator, steady-clock time under the threaded executor.
  std::uint64_t now_us = 0;
  /// Index of the worker (simulator CPU, or threaded-executor worker)
  /// running this body — the lane selector for per-worker epoch arenas
  /// (sre/arena.h). Only this worker may touch lane(worker).
  unsigned worker = 0;
};

class Task {
 public:
  using Body = std::function<void(TaskContext&)>;
  /// Completion hook: fired by the runtime when the task *successfully*
  /// finishes (not when aborted), with the engine time of completion.
  using CompletionHook = std::function<void(Task&, std::uint64_t done_us)>;

  Task(TaskId id, std::string name, TaskClass cls, Epoch epoch, int depth,
       std::uint64_t cost_us, Body body)
      : id_(id),
        name_(std::move(name)),
        cls_(cls),
        epoch_(epoch),
        depth_(depth),
        cost_us_(cost_us),
        body_(std::move(body)) {}

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  [[nodiscard]] TaskId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] TaskClass task_class() const { return cls_; }
  [[nodiscard]] Epoch epoch() const { return epoch_; }
  [[nodiscard]] bool speculative() const { return epoch_ != kNaturalEpoch; }
  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] std::uint64_t cost_us() const { return cost_us_; }
  [[nodiscard]] TaskState state() const { return state_.load(std::memory_order_acquire); }

  /// FCFS tie-break sequence, assigned when the task becomes ready.
  [[nodiscard]] std::uint64_t ready_seq() const { return ready_seq_; }

  /// Serving-layer stream (session) id this task computes for; 0 = none.
  /// Set at construction time (pipeline build), read by the runtime's
  /// per-stream usage accounting and the flight recorder.
  void set_stream(std::uint64_t stream) { stream_ = stream; }
  [[nodiscard]] std::uint64_t stream() const { return stream_; }

  /// Engine time at which the task was dispatched to a worker, or
  /// kNeverDispatched if it was aborted before running. Written by the
  /// executors under their staging discipline; read at retirement.
  static constexpr std::uint64_t kNeverDispatched = ~std::uint64_t{0};
  [[nodiscard]] std::uint64_t dispatch_us() const { return dispatch_us_; }

  /// Rollback support: mark an in-flight task for disposal at completion.
  void request_abort() { abort_requested_.store(true, std::memory_order_release); }
  [[nodiscard]] bool abort_requested() const {
    return abort_requested_.load(std::memory_order_acquire);
  }

  /// Runtime revocation epoch observed when the task was staged to a
  /// worker-local queue (written under the runtime lock before the task is
  /// published through a staging ring). A worker popping the task compares
  /// it against the runtime's current revocation epoch: equal means no
  /// rollback ran since staging, so the abort flag cannot be set and the
  /// task can start without even loading it.
  [[nodiscard]] std::uint64_t staged_revocation_epoch() const {
    return staged_revocation_epoch_;
  }

  /// User-defined rollback routine (the extension of paper §II-A: "our
  /// framework can be extended to support user-defined rollback routines,
  /// to enable more tasks to execute speculatively").
  ///
  /// A speculative task that *does* perform a reversible side effect may
  /// register the compensating action here. If the task completed and its
  /// epoch is later rolled back, the runtime invokes the routines of the
  /// epoch's completed tasks in reverse completion order. Committing the
  /// epoch discards them.
  using RollbackRoutine = std::function<void()>;
  void set_rollback_routine(RollbackRoutine undo) {
    rollback_routine_ = std::move(undo);
  }
  [[nodiscard]] bool has_rollback_routine() const {
    return static_cast<bool>(rollback_routine_);
  }

  /// Approximate working-set size; platforms with software-managed local
  /// stores (Cell) budget-check this (paper §III-A: 32 KiB per task).
  void set_mem_bytes(std::size_t n) { mem_bytes_ = n; }
  [[nodiscard]] std::size_t mem_bytes() const { return mem_bytes_; }

  void add_completion_hook(CompletionHook hook) {
    hooks_.push_back(std::move(hook));
  }

  /// Executes the task body (executors only). A task whose body was already
  /// reclaimed (rollback) is a no-op.
  void run(TaskContext& ctx) {
    if (body_) body_(ctx);
  }

 private:
  friend class Runtime;
  friend class TaskTable;
  friend class ThreadedExecutor;  ///< lock-free Staged→Running transition

  const TaskId id_;
  const std::string name_;
  const TaskClass cls_;
  const Epoch epoch_;
  const int depth_;
  const std::uint64_t cost_us_;
  Body body_;

  std::atomic<TaskState> state_{TaskState::Created};
  std::atomic<bool> abort_requested_{false};
  std::uint64_t ready_seq_ = 0;
  std::uint64_t stream_ = 0;
  std::uint64_t dispatch_us_ = kNeverDispatched;
  std::uint64_t staged_revocation_epoch_ = 0;
  std::size_t mem_bytes_ = 0;
  /// Index of the task's entry in the TaskTable that holds it, if any (see
  /// TaskTable). Guarded by the runtime lock.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  std::uint32_t slot_ = kNoSlot;

  // Dependence bookkeeping — owned by the Runtime, guarded by its lock.
  int unmet_deps_ = 0;
  std::vector<TaskPtr> successors_;
  std::vector<CompletionHook> hooks_;
  RollbackRoutine rollback_routine_;
};

/// Owns tasks by index: a vector of TaskPtr with a free list, the slot index
/// stored in the task itself. Handing a task in or out moves a TaskPtr and
/// allocates nothing once the vector has grown to the peak population, so
/// the ReadyPool (Ready tasks) and the Runtime (Staged tasks) use it to own
/// tasks under the runtime lock. A task sits in at most one table at a
/// time. Externally synchronized.
class TaskTable {
 public:
  /// Takes ownership of `task`, which must not be in a table; returns its
  /// slot.
  std::uint32_t insert(TaskPtr task) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(nullptr);
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    task->slot_ = slot;
    slots_[slot] = std::move(task);
    return slot;
  }

  /// True if `task` is held here.
  [[nodiscard]] bool contains(const Task& task) const {
    return task.slot_ < slots_.size() && slots_[task.slot_].get() == &task;
  }

  /// The task in `slot` if it is `id`, else null (the slot was released,
  /// and maybe reused by another task).
  [[nodiscard]] Task* find(std::uint32_t slot, TaskId id) const {
    Task* t = slots_[slot].get();
    return t != nullptr && t->id() == id ? t : nullptr;
  }

  /// Releases `task` (which must be held here) and returns its ownership.
  TaskPtr take(Task& task) {
    const std::uint32_t slot = task.slot_;
    task.slot_ = Task::kNoSlot;
    free_.push_back(slot);
    return std::move(slots_[slot]);
  }

 private:
  std::vector<TaskPtr> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace sre
