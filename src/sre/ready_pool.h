// ReadyPool: the SRE's scheduler data structure.
//
// Three queues — Control, Natural, Speculative. Control tasks are always
// dispatched first (paper: prediction/verification tasks get highest
// priority). Between Natural and Speculative, the DispatchPolicy decides.
// Within each queue, ordering is deepest-pipeline-stage-first with FCFS
// tie-break (paper §III-A: "a priority-based scheduling policy where depth
// is favored, but uses FCFS for tasks of equal priority").
//
// Representation: each queue is a binary heap over small POD entries
// {depth, slot, ready_seq, id} with TaskPtr ownership held once in a
// TaskTable (task.h) shared by the three queues, so heap sifts move 24-byte
// PODs instead of churning shared_ptr refcounts, and a push or pop moves a
// TaskPtr in or out of a slot without allocating (the std::set<TaskPtr>
// representation this replaced paid an allocation, a rebalance and refcount
// traffic per push/pop).
// erase() — rollback of a Ready task — is lazy: the task's slot is released
// and its heap entry becomes a tombstone skipped at pop time (an entry is
// live iff its slot still holds its id); heaps compact when tombstones
// outnumber live entries. The comparator is a total order (TaskId
// tie-break), so heap pops reproduce the exact pop sequence of the ordered
// set — the virtual-time SimExecutor's schedules are bit-identical.
//
// Thread safety: externally synchronized (the Runtime lock), like the
// container it replaced. The per-queue size counters are atomics so that
// lock-free probes (Runtime::ready_count, worker idle checks) can read
// them without taking the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "sre/ids.h"
#include "sre/task.h"

namespace sre {

class ReadyPool {
 public:
  explicit ReadyPool(DispatchPolicy policy,
                     PriorityMode mode = PriorityMode::DepthFirst)
      : policy_(policy), mode_(mode) {}

  [[nodiscard]] DispatchPolicy policy() const { return policy_; }

  /// Inserts a ready task (its ready_seq must already be assigned).
  void push(const TaskPtr& task);

  /// Removes a specific task (rollback of a Ready task). Returns true if the
  /// task was present. O(1): drops ownership and leaves a heap tombstone.
  bool erase(const TaskPtr& task);

  /// Pops the next task to dispatch per the policy, or nullptr if empty.
  ///
  /// `spec_allowed` lets the executor veto speculative dispatch for this pop
  /// even when the policy would permit it. Platforms with multiple buffering
  /// use this for the conservative policy: "no non-speculative task
  /// available" must account for naturals already committed to staging
  /// queues (paper §V-B's Cell observation), which only the executor can see.
  TaskPtr pop(bool spec_allowed = true);

  [[nodiscard]] bool empty() const { return size() == 0; }
  /// O(1), safe to read without the runtime lock.
  [[nodiscard]] std::size_t size() const {
    return control_.live.load(std::memory_order_relaxed) +
           natural_.live.load(std::memory_order_relaxed) +
           spec_.live.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t natural_size() const {
    return natural_.live.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t speculative_size() const {
    return spec_.live.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t control_size() const {
    return control_.live.load(std::memory_order_relaxed);
  }

  /// Dispatch counters (used by tests to verify policy behaviour).
  [[nodiscard]] std::uint64_t natural_pops() const { return natural_pops_; }
  [[nodiscard]] std::uint64_t speculative_pops() const { return spec_pops_; }
  [[nodiscard]] std::uint64_t control_pops() const { return control_pops_; }
  /// Ready-task revocations processed (rollback erase of a Ready task).
  [[nodiscard]] std::uint64_t tombstones_created() const {
    return tombstones_created_;
  }

 private:
  /// Heap entry: everything the comparator needs, no Task pointer chase,
  /// plus where the task is held.
  struct Entry {
    int depth = 0;
    std::uint32_t slot = 0;
    std::uint64_t ready_seq = 0;
    TaskId id = 0;
  };

  struct Queue {
    std::vector<Entry> heap;
    std::atomic<std::size_t> live{0};
  };

  /// True when `a` dispatches before `b`: depth-favored (DepthFirst mode),
  /// then FCFS (ready_seq), then TaskId — a total order.
  [[nodiscard]] bool dispatches_before(const Entry& a, const Entry& b) const {
    if (mode_ == PriorityMode::DepthFirst && a.depth != b.depth) {
      return a.depth > b.depth;
    }
    if (a.ready_seq != b.ready_seq) return a.ready_seq < b.ready_seq;
    return a.id < b.id;
  }

  void heap_push(Queue& q, const Entry& e);
  /// Pops live entries (skipping tombstones) and returns the owned TaskPtr,
  /// or nullptr when the queue has no live entries.
  TaskPtr heap_pop(Queue& q);
  void maybe_compact(Queue& q);

  TaskPtr pop_from(Queue& q, bool is_spec);
  Queue& queue_for(const Task& task);

  DispatchPolicy policy_;
  PriorityMode mode_;
  Queue control_;
  Queue natural_;
  Queue spec_;
  /// Ownership of every Ready task, for all three queues.
  TaskTable tasks_;
  bool balanced_prefer_spec_ = true;  ///< Balanced policy alternation state
  std::uint64_t natural_pops_ = 0;
  std::uint64_t spec_pops_ = 0;
  std::uint64_t control_pops_ = 0;
  std::uint64_t tombstones_created_ = 0;
};

}  // namespace sre
