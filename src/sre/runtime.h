// Runtime: the SRE's dependence tracker and speculation-aware task registry.
//
// The Runtime owns the dynamic Data Flow Graph: tasks are created while the
// program runs (as data arrives), dependencies added, and tasks submitted.
// When a producer finishes, its consumers' unmet-dependence counters drop and
// newly-ready tasks enter the ReadyPool. Rollback (abort_epoch) removes every
// task of a speculation epoch: ready tasks are deleted from the pool, blocked
// ones are marked dead, and running ones are flagged to be discarded on
// completion — "launched tasks cannot be deleted; the system marks them with
// an abort flag, and deletes them with their content when they complete"
// (paper §III-B).
//
// Thread safety: all mutating operations except make_task take the runtime
// lock; the threaded executor calls them from worker and feeder threads,
// the simulator from its single event loop. A Runtime::Batch lets one
// thread publish a run of add_dependency/submit calls under a single lock
// hold. The *probes* executors poll on their hot paths — quiescent(),
// ready_count(), revocation_epoch() — are single atomic loads and never
// take the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sre/arena.h"
#include "sre/fault.h"
#include "sre/ids.h"
#include "sre/observer.h"
#include "sre/ready_pool.h"
#include "sre/task.h"
#include "stats/trace.h"

namespace sre {

class Runtime {
 public:
  explicit Runtime(DispatchPolicy policy,
                   PriorityMode mode = PriorityMode::DepthFirst)
      : pool_(policy, mode) {}

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Creates a task (not yet submitted). `depth` is the pipeline-depth
  /// priority; `cost_us` is the virtual-time execution cost (ignored by the
  /// threaded executor, which measures real time). `stream` tags the task
  /// with its serving-layer session id (0 = none) — it must be set here, not
  /// after creation, so observers see it in on_task_created.
  ///
  /// Takes no lock: the id comes from an atomic counter and nothing else in
  /// the runtime is touched. With an observer installed, on_task_created
  /// still runs under the runtime lock (observers are not required to
  /// tolerate concurrent calls), before make_task returns — so before any
  /// other event can name the task.
  TaskPtr make_task(std::string name, TaskClass cls, Epoch epoch, int depth,
                    std::uint64_t cost_us, Task::Body body,
                    std::uint64_t stream = 0);

  /// Declares that `consumer` needs `producer`'s output. Must be called
  /// before submit(consumer). If the producer already finished, the
  /// dependence is immediately satisfied; if it was aborted, the consumer is
  /// aborted too (the destroy signal propagates through the DFG), and
  /// further edges into the dead consumer are ignored.
  void add_dependency(const TaskPtr& producer, const TaskPtr& consumer);

  /// Hands the task to the scheduler: Ready if all dependencies are met,
  /// Blocked otherwise.
  void submit(const TaskPtr& task);

  /// Publishes a run of add_dependency()/submit() calls under one lock hold.
  ///
  /// While a Batch is open on a thread, that thread's add_dependency() and
  /// submit() calls on this runtime are logged instead of applied. They are
  /// replayed in call order, under one hold of the runtime lock, when the
  /// outermost Batch closes, and also after every kFlushSubmits logged
  /// submits, so workers are fed while a long run is built. Each flush that
  /// makes work ready sends one ready signal. Replay has the semantics of
  /// the immediate calls made at flush time: an edge to a producer that
  /// finished in the meantime is satisfied, an edge to an aborted producer
  /// aborts the consumer. Misuse the immediate calls reject (a task
  /// submitted before the batch opened) throws at the logged call.
  ///
  /// Scopes nest: an inner Batch on the same runtime joins the outer one.
  /// Only the innermost open Batch logs, so calls on another runtime, or on
  /// this one under an inner Batch of another runtime, apply at once. Code
  /// inside a batch must not wait for a task it submitted in that same
  /// batch — the task is not published until the flush. make_task() is
  /// never deferred.
  class Batch {
   public:
    explicit Batch(Runtime& runtime);
    ~Batch();
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    static constexpr std::size_t kFlushSubmits = 64;

   private:
    friend class Runtime;
    /// One logged call: add_dependency(producer, task), or submit(task)
    /// when `producer` is null.
    struct Op {
      TaskPtr producer;
      TaskPtr task;
    };
    Runtime& rt_;
    Batch* enclosing_;  ///< the batch open on this thread before this one
    Batch* log_;  ///< the outermost of the nested batches on rt_ (or this)
    std::vector<Op> ops_;
    std::size_t submits_ = 0;
  };

  /// Executor interface: called when a dispatched task's execution completes
  /// at engine time `now_us`. Fires completion hooks and releases consumers,
  /// or — if the task was flagged during a rollback — discards its effects.
  void on_task_finished(const TaskPtr& task, std::uint64_t now_us);

  // --- Speculation support -------------------------------------------------

  /// Allocates a fresh speculation epoch id.
  Epoch open_epoch();

  /// Rolls back a speculation epoch: destroys every task tagged with it.
  /// Also advances the revocation epoch (see revocation_epoch()).
  void abort_epoch(Epoch epoch);

  void mark_epoch_committed(Epoch epoch);

  /// Bumps the rollback counter (called by the speculation layer when a
  /// check verdict rejects an epoch).
  void note_rollback();

  /// Monotonic count of abort_epoch() calls, readable without the lock.
  /// Tasks staged to worker-local queues are stamped with the value current
  /// at staging time; a worker popping a task whose stamp still matches
  /// knows no rollback ran in between and skips the abort-flag check.
  [[nodiscard]] std::uint64_t revocation_epoch() const {
    return revocation_epoch_.load(std::memory_order_acquire);
  }

  // --- Scheduling ----------------------------------------------------------

  /// Pops the next task to run under the configured policy. `now_us`/`cpu`
  /// are bookkeeping for the observer (executors pass their engine time and
  /// CPU/worker index). One task per lock acquisition — the simulator's
  /// path, and the single-threaded drive the tests use as a reference.
  TaskPtr next_task(std::uint64_t now_us = 0, unsigned cpu = 0);

  /// Sharded-dispatch batch pop: under ONE lock acquisition, pops up to
  /// `max` ready tasks, marks each Staged, stamps its revocation epoch,
  /// moves its ownership into the runtime's staged TaskTable, and fires the
  /// observer dispatch event with `worker` as the worker index. Raw
  /// pointers are written to `out`; returns the number staged. Each staged
  /// task MUST later be retired through finish_staged().
  std::size_t stage_ready_batch(std::uint64_t now_us, unsigned worker,
                                std::size_t max, Task** out);

  /// Completion partner of stage_ready_batch(): identical semantics to
  /// on_task_finished(), plus it releases the task's staged slot.
  void finish_staged(Task* task, std::uint64_t now_us);

  /// Batch form of finish_staged(): retires `n` completions under ONE lock
  /// acquisition, then runs all their completion hooks outside the lock in
  /// the same order. A worker drains the completion queue through this,
  /// so the per-task cost of the retire path is a heap/hash update, not a
  /// mutex round-trip. Note the hooks of completion i run after the locked
  /// bookkeeping of completions i+1..n-1 — a legal interleaving of the
  /// equivalent sequential finish_staged calls, since tasks sharing a batch
  /// were concurrent in flight.
  void finish_staged_batch(Task* const* tasks, const std::uint64_t* done_us,
                           std::size_t n);

  /// Installs a passive event observer (see observer.h; may be null).
  /// Not thread-safe against a running executor: install before run().
  void set_observer(Observer* observer) { observer_ = observer; }

  /// The installed observer (null if none). The speculation layer uses it
  /// to report check verdicts; the record-and-return contract applies.
  [[nodiscard]] Observer* observer() const { return observer_; }

  /// Installs a fault-injection plan (see fault.h; nullptr uninstalls).
  /// Consulted by the threaded executor before each task body; the
  /// deterministic simulator ignores it. Install before run(); reads are
  /// lock-free.
  void set_fault_plan(FaultPlan* plan) {
    fault_plan_.store(plan, std::memory_order_release);
  }
  [[nodiscard]] FaultPlan* fault_plan() const {
    return fault_plan_.load(std::memory_order_acquire);
  }

  // --- Per-stream usage accounting (serving-layer latency attribution) -----

  /// Aggregate engine time a stream's tasks consumed, split into useful
  /// compute and rollback waste. Durations are dispatch→finish, so they
  /// include worker-queue residency after staging.
  struct StreamUsage {
    std::uint64_t compute_us = 0;  ///< dispatch→finish of retired tasks
    std::uint64_t waste_us = 0;    ///< dispatch→finish of aborted tasks
    std::uint64_t tasks_finished = 0;
    std::uint64_t tasks_aborted = 0;
    /// Earliest dispatch stamp seen for the stream (kNever if none ran).
    static constexpr std::uint64_t kNever = ~std::uint64_t{0};
    std::uint64_t first_dispatch_us = kNever;
  };

  /// Enables per-stream accounting (off by default: single-run pipelines
  /// carry stream 0 and would only pay the map lookup for nothing).
  void set_stream_accounting(bool enabled) { stream_accounting_ = enabled; }

  /// Consumes and returns the accumulated usage for `stream` (zeroes if the
  /// stream never ran a task). The serving layer calls this once per
  /// session at finalization.
  [[nodiscard]] StreamUsage take_stream_usage(std::uint64_t stream);

  // --- Epoch arenas (data-plane allocation) --------------------------------

  /// The runtime-owned chunk pool backing per-epoch bump arenas. Shared so
  /// arenas (and the ByteBuf views pinning them) can outlive the runtime's
  /// users during teardown.
  [[nodiscard]] const std::shared_ptr<ChunkPool>& arena_pool() const {
    return arena_pool_;
  }

  /// A fresh arena set for `epoch`, one bump lane per worker. The caller
  /// (the pipeline's speculation chain, or its natural path) holds the
  /// shared handle; dropping the last reference returns every chunk to the
  /// runtime pool — the arena-drop form of the paper's destroy signal.
  [[nodiscard]] std::shared_ptr<EpochArenas> make_epoch_arenas(Epoch epoch) {
    return std::make_shared<EpochArenas>(arena_pool_, epoch);
  }

  /// Snapshot of the tvs_alloc_* counters (drivers mirror these into the
  /// metrics Registry after a run).
  [[nodiscard]] ArenaStats arena_stats() const { return arena_pool_->stats(); }

  [[nodiscard]] ReadyPool& pool() { return pool_; }

  /// Signal installed by an executor; invoked (outside the lock) whenever new
  /// work may be available for dispatch.
  void set_ready_signal(std::function<void()> signal) {
    ready_signal_ = std::move(signal);
  }

  // --- Introspection -------------------------------------------------------

  [[nodiscard]] stats::RunCounters counters() const;
  [[nodiscard]] std::size_t blocked_count() const;
  /// Ready tasks across all three queues. Lock-free (pool sizes are O(1)
  /// atomics); safe to poll from worker idle loops.
  [[nodiscard]] std::size_t ready_count() const { return pool_.size(); }
  [[nodiscard]] std::size_t running_count() const;

  /// One consistent view of every queue the scheduler maintains, for
  /// metrics probes (a single lock acquisition instead of five).
  struct QueueDepths {
    std::size_t ready_control = 0;
    std::size_t ready_natural = 0;
    std::size_t ready_speculative = 0;
    std::size_t blocked = 0;
    std::size_t running = 0;       ///< includes Staged
    std::size_t open_epochs = 0;   ///< epochs with live speculative tasks
    std::size_t epoch_tasks = 0;   ///< live speculative tasks across epochs
  };
  [[nodiscard]] QueueDepths queue_depths() const;

  /// True when no task is ready, staged or running. (Blocked tasks may still
  /// exist if the program is waiting for external arrivals.) A single atomic
  /// load — executors poll this every dispatch round without serializing on
  /// the lock.
  [[nodiscard]] bool quiescent() const {
    return outstanding_.load(std::memory_order_acquire) == 0;
  }

  /// Runs `fn` under the runtime lock (executors use this to make
  /// dispatch-and-mark-running atomic).
  template <typename Fn>
  auto locked(Fn&& fn) {
    std::scoped_lock lk(mu_);
    return fn();
  }

  /// Executor interface: transition a popped task to Running / Staged.
  /// (The simulator's staging path — it keeps ownership of staged tasks in
  /// its per-CPU queues, unlike stage_ready_batch which moves ownership
  /// into the runtime.)
  void mark_running(const TaskPtr& task, std::uint64_t now_us = 0,
                    unsigned cpu = 0);
  void mark_staged(const TaskPtr& task);

 private:
  void make_ready_locked(const TaskPtr& task);
  void abort_task_locked(const TaskPtr& task);
  void add_dependency_locked(const TaskPtr& producer, const TaskPtr& consumer);
  /// Returns true when the task became ready.
  bool submit_locked(const TaskPtr& task);
  /// The batch logging this thread's calls on this runtime, or null.
  Batch* open_batch() const;
  /// Replays `batch`'s log under one lock hold and clears it.
  void flush(Batch& batch);
  void signal_ready();
  /// Shared completion body. Exactly one of `raw` (staged task) or
  /// `provided` is used.
  void finish_common(Task* raw, const TaskPtr* provided, std::uint64_t now_us);
  /// Locked part of completing one task: bookkeeping, successor release,
  /// abort handling. Appends the task's completion hooks (empty if aborted)
  /// to `hooks` for the caller to run outside the lock; sets `notify` when
  /// new tasks became ready.
  void finish_one_locked(const TaskPtr& task, std::uint64_t now_us,
                         bool& notify,
                         std::vector<Task::CompletionHook>& hooks);

  mutable std::mutex mu_;
  ReadyPool pool_;
  std::atomic<TaskId> next_id_{1};
  Epoch next_epoch_ = 1;
  std::uint64_t next_ready_seq_ = 0;

  /// Live (not finished, not aborted) tasks per epoch — the index used to
  /// propagate destroy signals on rollback.
  std::unordered_map<Epoch, std::unordered_map<TaskId, TaskPtr>> epoch_tasks_;

  /// Undo log per epoch: rollback routines of *completed* speculative tasks
  /// in completion order. abort_epoch replays it in reverse; committing an
  /// epoch discards it.
  std::unordered_map<Epoch, std::vector<Task::RollbackRoutine>> epoch_undo_log_;

  /// Ownership of tasks staged via stage_ready_batch (worker-local queues
  /// hold raw pointers); released by finish_staged.
  TaskTable staged_;

  /// Tasks in Ready ∪ Staged ∪ Running — the lock-free quiescence probe.
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<std::uint64_t> revocation_epoch_{0};

  stats::RunCounters counters_;
  bool stream_accounting_ = false;
  std::unordered_map<std::uint64_t, StreamUsage> stream_usage_;
  std::size_t blocked_ = 0;
  std::size_t running_ = 0;  // includes Staged
  std::function<void()> ready_signal_;
  std::shared_ptr<ChunkPool> arena_pool_ = std::make_shared<ChunkPool>();
  Observer* observer_ = nullptr;
  std::atomic<FaultPlan*> fault_plan_{nullptr};
};

}  // namespace sre
