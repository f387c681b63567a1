// ThreadedExecutor: real-thread engine for the SRE.
//
// Mirrors the paper's x86 runtime structure (§III-A): one *feeder* thread
// receives data from the parent application and injects it into the system,
// one *director* thread manages scheduling bookkeeping and directs data
// (dependence propagation, completion hooks), and N worker threads execute
// computational tasks.
//
// Dispatch: there is one way onto a worker. A worker pops its own Chase–Lev
// deque without any lock, steals from a sibling's deque when dry, and only
// then batch-pops ready tasks from the central pool itself (one lock
// acquisition per batch), running the first and parking the rest in its
// deque where idle siblings can steal them. Completions retire through a
// lock-free MPSC queue; the director holds the retire role between worker
// visits, and after each retire pass it wakes one parked worker when ready
// work has no awake worker searching for it. Wakeups are targeted (one
// condvar per worker, one for the director); there is no broadcast on the
// hot path. Rollback correctness: tasks staged into worker-local queues
// carry a revocation-epoch stamp; a worker popping a task whose stamp is
// stale checks the abort flag and, if set, retires the task unrun (the
// completion path then discards it exactly like an in-flight abort).
//
// Used by the examples and tests; the figure benchmarks use the
// deterministic virtual-time sim::SimExecutor instead (see DESIGN.md §3 and
// docs/scheduling.md).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sre/mpsc_queue.h"
#include "sre/runtime.h"
#include "sre/steal_deque.h"

namespace sre {

class ThreadedExecutor {
 public:
  struct Options {
    unsigned workers = 4;
    /// Multiplier applied to scheduled arrival times; tests use < 1.0 to
    /// compress slow-I/O scenarios into fast wall-clock runs.
    double arrival_time_scale = 1.0;
    /// Invoked once on each worker thread before it enters its dispatch
    /// loop, with the worker index. Lets callers pin thread-local state to
    /// the thread (e.g. metrics::bind_shard) without this layer depending
    /// on them. May be null.
    std::function<void(unsigned worker_ix)> worker_start_hook = nullptr;
    /// Record per-pop dispatch latency (acquire-start → task in hand) into
    /// DispatchStats::pop_latency. Off by default: it adds two clock reads
    /// per task.
    bool collect_pop_latency = false;
  };

  /// Arrival callback: receives the engine time (µs) at which it fired.
  using Arrival = std::function<void(std::uint64_t now_us)>;

  /// Aggregated dispatch counters.
  /// Collected per worker on cache-line-padded private slots and summed on
  /// demand — workers never contend on these.
  struct DispatchStats {
    /// The three pop sources partition the tasks a worker acquired: each
    /// task is counted in exactly one of local_pops / steals / self_stages,
    /// so their sum (pop_count()) equals tasks acquired.
    std::uint64_t tasks_run = 0;        ///< bodies executed
    std::uint64_t local_pops = 0;       ///< from the worker's own deque
    std::uint64_t steals = 0;           ///< taken from a sibling's deque
    /// Acquires satisfied by a worker batch-popping the pool itself; the
    /// rest of such a batch parks in its deque and surfaces as local_pops.
    std::uint64_t self_stages = 0;
    /// Always 0: the director stages nothing, workers stage for themselves.
    /// Kept because perfbench's engine reads it.
    std::uint64_t director_stages = 0;
    std::uint64_t revoked_at_pop = 0;   ///< rollback victims retired unrun
    std::uint64_t parks = 0;            ///< worker sleeps
    std::uint64_t completion_fallbacks = 0;  ///< MPSC full, retired via lock
    /// Latency path: worker retired its own completion inline because it had
    /// nothing else to do — the successor becomes ready in the same thread
    /// (chain handoff without a director round-trip).
    std::uint64_t inline_finishes = 0;
    /// Completions a starved worker drained from the MPSC queue itself by
    /// claiming the retire role (work-conserving: no waiting on the
    /// director to produce successors).
    std::uint64_t worker_retires = 0;
    /// Log-bucketed (powers of two, µs) pop-latency histogram; bucket b
    /// counts pops with bit_width(latency_us) == b. Only populated when
    /// Options::collect_pop_latency is set.
    std::array<std::uint64_t, 64> pop_latency = {};

    [[nodiscard]] std::uint64_t pop_count() const;
    /// Approximate percentile (bucket upper bound), q in [0,1].
    [[nodiscard]] std::uint64_t pop_latency_quantile_us(double q) const;
  };

  ThreadedExecutor(Runtime& runtime, Options options);
  ~ThreadedExecutor();

  ThreadedExecutor(const ThreadedExecutor&) = delete;
  ThreadedExecutor& operator=(const ThreadedExecutor&) = delete;

  /// Engine time: microseconds since construction (steady clock).
  [[nodiscard]] std::uint64_t now_us() const;

  /// Schedules `fn` to run on the feeder thread at engine time `at_us`
  /// (scaled by arrival_time_scale). May be called before run() or — when
  /// the executor is live — from any thread, including arrival callbacks
  /// themselves; an arrival earlier than the one the feeder is currently
  /// sleeping towards preempts that sleep. Arrivals with equal times fire
  /// in submission order. An arrival whose time is already in the past
  /// fires as soon as the feeder reaches it.
  void schedule_arrival(std::uint64_t at_us, Arrival fn);

  /// Service mode: keeps the feeder alive when its schedule drains, so new
  /// work (sessions) can be injected while run() is in flight. Call
  /// begin_service() before run(); run() then blocks — typically on a
  /// background thread — until end_service() is called *and* everything
  /// scheduled has fired and completed. Without begin_service() the
  /// behaviour is unchanged: the feeder exits once the pre-scheduled
  /// arrivals have fired.
  void begin_service();
  /// Closes service mode: the feeder fires whatever is still scheduled,
  /// then exits, letting run() return once the runtime is quiescent.
  /// Idempotent; safe from any thread.
  void end_service();
  [[nodiscard]] bool service_open() const;

  /// Runs to completion: returns when all scheduled arrivals have fired, all
  /// dispatched tasks have completed and been processed, and the runtime is
  /// quiescent. Throws std::runtime_error if a task body throws.
  void run();

  /// Aggregated dispatch counters; meaningful after run() returns.
  [[nodiscard]] DispatchStats dispatch_stats() const;

 private:
  /// Dispatch sizing. A worker stages only into its own empty deque, so
  /// the deque must hold one staged batch and worker-side pushes can never
  /// fail.
  static constexpr unsigned kDequeCapacity = 64;  ///< per-worker steal deque
  static constexpr unsigned kStageBatch = 16;  ///< max tasks staged per lock grab
  static_assert(kDequeCapacity >= kStageBatch);

  /// Per-worker state. Heap-allocated so WorkerState addresses are stable
  /// and cache-line aligned; workers only dirty their own lines.
  struct alignas(64) WorkerState {
    WorkerState() : deque(kDequeCapacity) {}
    StealDeque deque;
    std::mutex park_mu;
    std::condition_variable park_cv;
    std::atomic<bool> parked{false};
    DispatchStats stats;  ///< owner thread writes, run() reads after join
  };

  void worker_loop(unsigned worker_ix);
  void director_loop();
  Task* acquire_task(WorkerState& me, unsigned worker_ix);
  bool execute_and_retire(Task* task, WorkerState& me, unsigned worker_ix);
  /// Claims the retire role (try-lock) and drains up to one batch of
  /// completions through Runtime::finish_staged_batch. Returns the number
  /// retired (0: queue empty or another thread holds the role).
  std::size_t try_retire_batch();
  /// True when a task waits in the pool or in any worker's deque.
  bool work_waiting() const;
  /// Director: wakes one parked worker when work_waiting() and no awake
  /// worker is searching for it.
  void wake_idle_worker();
  void wake_director();
  void wake_all_workers();

  void feeder_loop();
  void fail(const std::string& what);

  Runtime& runtime_;
  Options options_;
  std::chrono::steady_clock::time_point start_;

  std::mutex mu_;
  std::condition_variable done_cv_;  ///< wakes run()

  /// Feeder schedule: a binary min-heap on (at_us, seq) — seq preserves
  /// submission order between equal-time arrivals, matching the stable sort
  /// the pre-service feeder used. Guarded by feeder_mu_; feeder_cv_ wakes
  /// the feeder for earlier insertions, end_service() and shutdown.
  struct TimedArrival {
    std::uint64_t at_us;
    std::uint64_t seq;
    Arrival fn;
  };
  struct ArrivalAfter {
    bool operator()(const TimedArrival& a, const TimedArrival& b) const {
      return a.at_us > b.at_us || (a.at_us == b.at_us && a.seq > b.seq);
    }
  };
  std::vector<TimedArrival> arrival_heap_;
  mutable std::mutex feeder_mu_;
  std::condition_variable feeder_cv_;
  std::uint64_t arrival_seq_ = 0;   ///< guarded by feeder_mu_
  bool service_open_ = false;       ///< guarded by feeder_mu_

  std::atomic<bool> feeder_done_{false};
  std::atomic<bool> stopping_{false};
  std::string error_;  ///< guarded by mu_

  // Dispatch machinery.
  std::vector<std::unique_ptr<WorkerState>> wstate_;
  std::unique_ptr<CompletionQueue> completions_;
  /// Serializes the single-consumer side of completions_ (the "retire
  /// role"): held by the director's drain loop, try-locked by starved
  /// workers. Guards only the pops — the batch finish runs outside it.
  std::mutex retire_mu_;
  std::mutex dir_mu_;
  std::condition_variable dir_cv_;
  std::atomic<bool> dir_parked_{false};
  /// Set by wake_director(), consumed by the director's park.
  std::atomic<bool> dir_signal_{false};
  /// Completions being propagated right now (guards the window between a
  /// task retiring and its completion hooks submitting follow-on work, so
  /// run() cannot observe a transient quiescent state).
  std::atomic<std::size_t> directing_{0};
  /// Workers awake and outside a task body: between acquires, retiring or
  /// about to park. The director wakes a parked worker only when it is 0.
  alignas(64) std::atomic<unsigned> searching_{0};

  std::vector<std::thread> workers_;
  std::thread director_;
  std::thread feeder_;
};

}  // namespace sre
