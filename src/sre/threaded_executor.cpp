#include "sre/threaded_executor.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sre/chaos_point.h"

namespace sre {

namespace {

/// Consults the runtime's FaultPlan for `task`. Applies a Delay in place;
/// returns true when the plan failed the task (caller must skip the body and
/// retire the task as aborted).
bool apply_fault_plan(Runtime& runtime, Task& task) {
  FaultPlan* plan = runtime.fault_plan();
  if (plan == nullptr) return false;
  const FaultDecision d = plan->before_task(task);
  switch (d.kind) {
    case FaultDecision::Kind::None:
      return false;
    case FaultDecision::Kind::Delay:
      if (Observer* obs = runtime.observer()) {
        obs->on_fault_injected(task.id(), /*failed=*/false, d.delay_us);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(d.delay_us));
      return false;
    case FaultDecision::Kind::Fail:
      if (Observer* obs = runtime.observer()) {
        obs->on_fault_injected(task.id(), /*failed=*/true, 0);
      }
      // The completion path treats the flagged task exactly like one caught
      // in flight by a rollback: results discarded, destroy signal to
      // consumers ("spurious failure" == the task died mid-run).
      task.request_abort();
      return true;
  }
  return false;
}

/// True on worker threads. A worker that makes new work ready (via
/// an inline finish or a hook) picks it up itself on its next acquire loop,
/// so its ready_signal must not bounce to the director — only non-worker
/// threads (feeder arrivals, director-run hooks) need that wake. Extra
/// workers engage through the director's wake after its next retire pass,
/// or their own timed park.
thread_local bool tls_worker = false;

/// Log-bucket index for a latency sample: bit_width(us), so bucket b covers
/// [2^(b-1), 2^b) µs and bucket 0 is exactly 0 µs.
unsigned latency_bucket(std::uint64_t us) {
  return static_cast<unsigned>(std::bit_width(us));
}

}  // namespace

std::uint64_t ThreadedExecutor::DispatchStats::pop_count() const {
  return local_pops + steals + self_stages;
}

std::uint64_t ThreadedExecutor::DispatchStats::pop_latency_quantile_us(
    double q) const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : pop_latency) total += c;
  if (total == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(total - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < pop_latency.size(); ++b) {
    seen += pop_latency[b];
    if (seen > rank) {
      return b == 0 ? 0 : (std::uint64_t{1} << b) - 1;  // bucket upper bound
    }
  }
  return 0;
}

ThreadedExecutor::ThreadedExecutor(Runtime& runtime, Options options)
    : runtime_(runtime),
      options_(options),
      start_(std::chrono::steady_clock::now()) {
  if (options_.workers == 0) {
    throw std::invalid_argument("ThreadedExecutor: need at least one worker");
  }
  wstate_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    wstate_.push_back(std::make_unique<WorkerState>());
  }
  // Sized generously: completions pile up whenever the director is starved
  // for CPU (e.g. more workers than cores), and a full queue forces workers
  // onto the per-task locked fallback — exactly the cost the batched drain
  // exists to amortize away. ~24 B/cell, so 16 Ki cells is ~400 KiB.
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(
      16384, options_.workers * (kDequeCapacity + 2)));
  completions_ = std::make_unique<CompletionQueue>(cap);
  // New ready work from a non-worker thread: the director wakes a worker for
  // it. run() polls with a timeout, so it needs no eager wakeup here.
  runtime_.set_ready_signal([this] {
    if (!tls_worker) wake_director();
  });
}

ThreadedExecutor::~ThreadedExecutor() {
  {
    std::scoped_lock lk(mu_);
    stopping_.store(true, std::memory_order_release);
    done_cv_.notify_all();
  }
  {
    std::scoped_lock lk(feeder_mu_);
    feeder_cv_.notify_all();
  }
  wake_all_workers();
  {
    std::scoped_lock lk(dir_mu_);
    dir_cv_.notify_all();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (director_.joinable()) director_.join();
  if (feeder_.joinable()) feeder_.join();
  runtime_.set_ready_signal(nullptr);
}

std::uint64_t ThreadedExecutor::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void ThreadedExecutor::schedule_arrival(std::uint64_t at_us, Arrival fn) {
  const auto scaled = static_cast<std::uint64_t>(
      static_cast<double>(at_us) * options_.arrival_time_scale);
  {
    std::scoped_lock lk(feeder_mu_);
    arrival_heap_.push_back({scaled, arrival_seq_++, std::move(fn)});
    std::push_heap(arrival_heap_.begin(), arrival_heap_.end(), ArrivalAfter{});
  }
  feeder_cv_.notify_one();
}

void ThreadedExecutor::begin_service() {
  std::scoped_lock lk(feeder_mu_);
  service_open_ = true;
}

void ThreadedExecutor::end_service() {
  {
    std::scoped_lock lk(feeder_mu_);
    service_open_ = false;
  }
  feeder_cv_.notify_all();
}

bool ThreadedExecutor::service_open() const {
  std::scoped_lock lk(feeder_mu_);
  return service_open_;
}

void ThreadedExecutor::feeder_loop() {
  std::unique_lock lk(feeder_mu_);
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) break;
    if (arrival_heap_.empty()) {
      if (!service_open_) break;  // schedule drained, service closed: done
      feeder_cv_.wait(lk, [this] {
        return stopping_.load(std::memory_order_acquire) ||
               !arrival_heap_.empty() || !service_open_;
      });
      continue;
    }
    const std::uint64_t due = arrival_heap_.front().at_us;
    const auto deadline = start_ + std::chrono::microseconds(due);
    if (std::chrono::steady_clock::now() < deadline) {
      // A newly-scheduled earlier arrival (or shutdown) preempts the sleep;
      // a timeout just re-evaluates the heap top.
      feeder_cv_.wait_until(lk, deadline, [this, due] {
        return stopping_.load(std::memory_order_acquire) ||
               (!arrival_heap_.empty() && arrival_heap_.front().at_us < due);
      });
      continue;
    }
    std::pop_heap(arrival_heap_.begin(), arrival_heap_.end(), ArrivalAfter{});
    Arrival fn = std::move(arrival_heap_.back().fn);
    arrival_heap_.pop_back();
    lk.unlock();
    fn(now_us());
    lk.lock();
  }
  lk.unlock();
  {
    std::scoped_lock lk2(mu_);
    feeder_done_.store(true, std::memory_order_release);
    done_cv_.notify_all();
  }
  wake_director();
}

void ThreadedExecutor::fail(const std::string& what) {
  {
    std::scoped_lock lk(mu_);
    if (error_.empty()) error_ = what;
    stopping_.store(true, std::memory_order_release);
    done_cv_.notify_all();
  }
  {
    std::scoped_lock lk(feeder_mu_);
    feeder_cv_.notify_all();
  }
  wake_all_workers();
  std::scoped_lock lk(dir_mu_);
  dir_cv_.notify_all();
}

void ThreadedExecutor::wake_all_workers() {
  for (auto& w : wstate_) {
    std::scoped_lock lk(w->park_mu);
    w->park_cv.notify_all();
  }
}

void ThreadedExecutor::wake_director() {
  // seq_cst pairs with the director's park: either it sees the flag before
  // it sleeps, or this load sees it parked and the notify reaches it.
  dir_signal_.store(true);
  if (!dir_parked_.load()) return;
  std::scoped_lock lk(dir_mu_);
  dir_cv_.notify_one();
}

bool ThreadedExecutor::work_waiting() const {
  if (runtime_.ready_count() > 0) return true;
  // The rest of a self-staged batch sits in its worker's deque, where only a
  // thief can reach it before that worker's current body ends.
  for (const auto& w : wstate_) {
    if (w->deque.size_estimate() > 0) return true;
  }
  return false;
}

void ThreadedExecutor::wake_idle_worker() {
  if (searching_.load(std::memory_order_acquire) != 0) return;
  if (!work_waiting()) return;
  for (auto& w : wstate_) {
    if (!w->parked.load(std::memory_order_acquire)) continue;
    std::scoped_lock lk(w->park_mu);
    w->park_cv.notify_one();
    return;
  }
}

std::size_t ThreadedExecutor::try_retire_batch() {
  // Retire completions in batches: one runtime-lock acquisition per
  // kRetireBatch tasks instead of per task. The MPSC pop side is
  // single-consumer, so the "retire role" is arbitrated by retire_mu_ —
  // try_lock only, since a loser knows someone else is already retiring and
  // should go do something more useful. The popped tasks still count as
  // outstanding until finish_staged_batch runs, so quiescent() stays false
  // across the window; directing_ additionally guards the hook-submit window
  // (see run()).
  constexpr std::size_t kRetireBatch = 128;
  Task* done_tasks[kRetireBatch];
  std::uint64_t done_times[kRetireBatch];
  std::size_t n = 0;
  {
    std::unique_lock lk(retire_mu_, std::try_to_lock);
    if (!lk.owns_lock()) return 0;
    while (n < kRetireBatch && completions_->pop(done_tasks[n], done_times[n])) {
      ++n;
    }
  }
  if (n == 0) return 0;
  directing_.fetch_add(1, std::memory_order_acq_rel);
  runtime_.finish_staged_batch(done_tasks, done_times, n);
  directing_.fetch_sub(1, std::memory_order_acq_rel);
  return n;
}

void ThreadedExecutor::director_loop() {
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) return;
    bool progress = false;

    while (try_retire_batch() > 0) progress = true;

    // Ready work is staged by the workers themselves; the director only
    // makes sure one is awake to look for it. Waking from here rather than
    // from a worker keeps the futex call off the workers' critical path.
    wake_idle_worker();

    if (feeder_done_.load(std::memory_order_acquire) && runtime_.quiescent() &&
        directing_.load(std::memory_order_acquire) == 0) {
      std::scoped_lock lk(mu_);
      done_cv_.notify_all();
    }

    if (!progress) {
      // Short timed park: it bounds the drain latency when producers skip
      // the wakeup (queue already non-empty) and doubles as the safety net
      // for any lost-wakeup race. Ready work alone is no reason to stay up:
      // with every worker busy there is nobody to wake, and spinning on it
      // would burn a core. A wake_director() signal is consumed instead, so
      // each one costs at most one more pass.
      std::unique_lock lk(dir_mu_);
      dir_parked_.store(true);
      dir_cv_.wait_for(lk, std::chrono::microseconds(200), [this] {
        return stopping_.load(std::memory_order_acquire) ||
               !completions_->empty() || dir_signal_.exchange(false);
      });
      dir_parked_.store(false, std::memory_order_release);
    }
  }
}

Task* ThreadedExecutor::acquire_task(WorkerState& me, unsigned worker_ix) {
  if (Task* t = me.deque.pop()) {
    ++me.stats.local_pops;
    return t;
  }
  const unsigned nworkers = options_.workers;
  for (unsigned k = 1; k < nworkers; ++k) {
    WorkerState& victim = *wstate_[(worker_ix + k) % nworkers];
    if (Task* t = victim.deque.steal()) {
      ++me.stats.steals;
      return t;
    }
  }
  // Dry everywhere: grab a batch from the pool directly. The deque is empty
  // here, so the tail pushes cannot fail.
  if (runtime_.ready_count() == 0) return nullptr;
  Task* out[kStageBatch];
  const std::size_t max =
      std::min<std::size_t>(kStageBatch, me.deque.free_estimate() + 1);
  const std::size_t n = runtime_.stage_ready_batch(now_us(), worker_ix, max, out);
  if (n == 0) return nullptr;
  // The batch comes out in dispatch-priority order. Push the tail in reverse
  // so the deque's bottom (next local pop) is the next-highest priority and
  // thieves take from the low-priority end.
  for (std::size_t i = n; i-- > 1;) {
    const bool ok = me.deque.push(out[i]);
    (void)ok;
  }
  // Counts the acquire this batch satisfied directly; the parked remainder
  // surfaces as local_pops, so the three pop sources partition the tasks
  // exactly.
  ++me.stats.self_stages;
  return out[0];
}

bool ThreadedExecutor::execute_and_retire(Task* task, WorkerState& me,
                                          unsigned worker_ix) {
  // Revocation-at-pop: if no rollback ran since this task was staged, its
  // abort flag cannot be set and the body runs without further checks. If the
  // epoch moved, honour the flag — the task was rolled back while parked in a
  // local queue and must be retired unrun. A flag set *during* the body is
  // handled the same as the baseline: finish_staged discards the results.
  bool revoked = false;
  if (task->staged_revocation_epoch() != runtime_.revocation_epoch() &&
      task->abort_requested()) {
    revoked = true;
    ++me.stats.revoked_at_pop;
  }
  if (!revoked && apply_fault_plan(runtime_, *task)) {
    revoked = true;  // injected failure: retire unrun through the abort path
  }
  if (!revoked) {
    task->state_.store(TaskState::Running, std::memory_order_release);
    SRE_CHAOS_POINT("executor.before_body");
    try {
      TaskContext ctx{runtime_, *task, now_us(), worker_ix};
      task->run(ctx);
    } catch (const std::exception& e) {
      fail("task '" + task->name() + "' threw: " + e.what());
      return false;
    }
    SRE_CHAOS_POINT("executor.after_body");
    ++me.stats.tasks_run;
  }
  const std::uint64_t done_us = now_us();
  // Latency path: nothing else is ready and no completions are pending, so
  // this retirement is on the critical path of whatever depends on `task`
  // (dependency-chain handoff). Retire inline — the successor becomes ready
  // in this thread and the next acquire_task() self-stages it, with no
  // futex wake or director round-trip. A check (Control) always retires
  // inline: its hooks carry the verdict that commits or rolls back an epoch,
  // and queued behind a busy system it would wait out the director's timed
  // park. Otherwise, under load (ready work or queued completions exist) we
  // take the queued path so the director can amortize the runtime lock over
  // whole batches.
  if ((runtime_.ready_count() == 0 && completions_->empty()) ||
      task->task_class() == TaskClass::Control) {
    ++me.stats.inline_finishes;
    directing_.fetch_add(1, std::memory_order_acq_rel);
    runtime_.finish_staged(task, done_us);
    directing_.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  }
  // No director wakeup on push: a worker that later runs out of work drains
  // the queue itself (try_retire_batch in its idle loop), so completions are
  // never stranded behind a sleeping director. The director's 200µs timed
  // park bounds the drain latency in the remaining case — every worker busy
  // running long bodies — where the successors could not run yet anyway.
  if (!completions_->push(task, done_us)) {
    // Queue full (director stalled): retire inline under the runtime lock so
    // the system cannot deadlock on a bounded queue.
    ++me.stats.completion_fallbacks;
    directing_.fetch_add(1, std::memory_order_acq_rel);
    runtime_.finish_staged(task, done_us);
    directing_.fetch_sub(1, std::memory_order_acq_rel);
  }
  return true;
}

void ThreadedExecutor::worker_loop(unsigned worker_ix) {
  if (options_.worker_start_hook) options_.worker_start_hook(worker_ix);
  tls_worker = true;
  WorkerState& me = *wstate_[worker_ix];
  const bool time_pops = options_.collect_pop_latency;
  searching_.fetch_add(1, std::memory_order_acq_rel);
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) break;
    const std::uint64_t t0 = time_pops ? now_us() : 0;
    if (Task* t = acquire_task(me, worker_ix)) {
      if (time_pops) ++me.stats.pop_latency[latency_bucket(now_us() - t0)];
      searching_.fetch_sub(1, std::memory_order_acq_rel);
      if (!execute_and_retire(t, me, worker_ix)) return;
      searching_.fetch_add(1, std::memory_order_acq_rel);
      continue;
    }
    // Nothing runnable, but completions may be pending — retiring them is
    // what produces the next ready tasks. Claim the retire role instead of
    // parking (work-conserving: at low worker counts this keeps the whole
    // ready→run→retire cycle on worker threads with no director handoffs).
    if (const std::size_t n = try_retire_batch(); n > 0) {
      me.stats.worker_retires += n;
      continue;
    }
    ++me.stats.parks;
    // Out of work with nothing left anywhere: the run may be over. The
    // director is the one that tells run(); wake it rather than leave the
    // end of the run to its timed park.
    if (runtime_.quiescent()) wake_director();
    searching_.fetch_sub(1, std::memory_order_acq_rel);
    {
      std::unique_lock lk(me.park_mu);
      me.parked.store(true, std::memory_order_release);
      // Timed wait: wakeups are targeted, and the timeout is the safety net.
      me.park_cv.wait_for(lk, std::chrono::milliseconds(2), [this] {
        return stopping_.load(std::memory_order_acquire) ||
               !completions_->empty() || work_waiting();
      });
      me.parked.store(false, std::memory_order_release);
    }
    searching_.fetch_add(1, std::memory_order_acq_rel);
  }
  searching_.fetch_sub(1, std::memory_order_acq_rel);
}

void ThreadedExecutor::run() {
  {
    std::scoped_lock lk(mu_);
    feeder_done_.store(false, std::memory_order_release);
    stopping_.store(false, std::memory_order_release);
  }
  feeder_ = std::thread([this] { feeder_loop(); });
  director_ = std::thread([this] { director_loop(); });
  workers_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }

  {
    std::unique_lock lk(mu_);
    // Periodic recheck guards against rare wakeup races between the mutexes
    // involved (runtime's, ours, and the per-worker park locks).
    const auto finished = [this] {
      // Order matters: quiescent() before directing_ == 0, then quiescent()
      // again. A completion hook may submit follow-on work after
      // outstanding_ transiently hits zero; during that whole window
      // directing_ >= 1, and the re-check synchronizes with its release-
      // decrement so the follow-on submit is visible.
      return feeder_done_.load(std::memory_order_acquire) &&
             runtime_.quiescent() &&
             directing_.load(std::memory_order_acquire) == 0 &&
             runtime_.quiescent();
    };
    while (!finished() && error_.empty()) {
      done_cv_.wait_for(lk, std::chrono::milliseconds(10));
    }
    stopping_.store(true, std::memory_order_release);
  }
  wake_all_workers();
  {
    std::scoped_lock lk(dir_mu_);
    dir_cv_.notify_all();
  }

  for (auto& w : workers_) w.join();
  workers_.clear();
  director_.join();
  feeder_.join();

  std::scoped_lock lk(mu_);
  if (!error_.empty()) {
    throw std::runtime_error("ThreadedExecutor: " + error_);
  }
}

ThreadedExecutor::DispatchStats ThreadedExecutor::dispatch_stats() const {
  DispatchStats total;
  for (const auto& w : wstate_) {
    const DispatchStats& s = w->stats;
    total.tasks_run += s.tasks_run;
    total.local_pops += s.local_pops;
    total.steals += s.steals;
    total.self_stages += s.self_stages;
    total.revoked_at_pop += s.revoked_at_pop;
    total.parks += s.parks;
    total.completion_fallbacks += s.completion_fallbacks;
    total.inline_finishes += s.inline_finishes;
    total.worker_retires += s.worker_retires;
    for (std::size_t b = 0; b < s.pop_latency.size(); ++b) {
      total.pop_latency[b] += s.pop_latency[b];
    }
  }
  return total;
}

}  // namespace sre
