#include "sre/runtime.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace sre {

std::string to_string(TaskClass c) {
  switch (c) {
    case TaskClass::Natural: return "natural";
    case TaskClass::Speculative: return "speculative";
    case TaskClass::Control: return "control";
  }
  return "?";
}

std::string to_string(TaskState s) {
  switch (s) {
    case TaskState::Created: return "created";
    case TaskState::Blocked: return "blocked";
    case TaskState::Ready: return "ready";
    case TaskState::Staged: return "staged";
    case TaskState::Running: return "running";
    case TaskState::Done: return "done";
    case TaskState::Aborted: return "aborted";
  }
  return "?";
}

std::string to_string(DispatchPolicy p) {
  switch (p) {
    case DispatchPolicy::NonSpeculative: return "non-spec";
    case DispatchPolicy::Conservative: return "conservative";
    case DispatchPolicy::Aggressive: return "aggressive";
    case DispatchPolicy::Balanced: return "balanced";
  }
  return "?";
}

TaskPtr Runtime::make_task(std::string name, TaskClass cls, Epoch epoch,
                           int depth, std::uint64_t cost_us, Task::Body body,
                           std::uint64_t stream) {
  std::scoped_lock lk(mu_);
  auto task = std::make_shared<Task>(next_id_++, std::move(name), cls, epoch,
                                     depth, cost_us, std::move(body));
  task->set_stream(stream);
  if (observer_) {
    observer_->on_task_created(
        {task->id(), task->name(), cls, epoch, depth, cost_us, stream});
  }
  return task;
}

void Runtime::add_dependency(const TaskPtr& producer, const TaskPtr& consumer) {
  std::scoped_lock lk(mu_);
  if (consumer->state_.load() != TaskState::Created) {
    throw std::logic_error(
        "add_dependency: consumer already submitted (" + consumer->name() + ")");
  }
  const TaskState ps = producer->state_.load();
  if (ps == TaskState::Done) {
    return;  // already satisfied
  }
  if (ps == TaskState::Aborted) {
    // Destroy signal: depending on rolled-back data kills the consumer.
    abort_task_locked(consumer);
    return;
  }
  producer->successors_.push_back(consumer);
  ++consumer->unmet_deps_;
  if (observer_) observer_->on_edge(producer->id(), consumer->id());
}

void Runtime::submit(const TaskPtr& task) {
  bool notify = false;
  {
    std::scoped_lock lk(mu_);
    if (task->state_.load() == TaskState::Aborted) {
      return;  // killed by a dependency on rolled-back data before submission
    }
    if (task->state_.load() != TaskState::Created) {
      throw std::logic_error("submit: task submitted twice (" + task->name() + ")");
    }
    if (task->epoch() != kNaturalEpoch) {
      epoch_tasks_[task->epoch()][task->id()] = task;
    }
    if (task->unmet_deps_ == 0) {
      make_ready_locked(task);
      notify = true;
    } else {
      task->state_.store(TaskState::Blocked);
      ++blocked_;
    }
  }
  if (notify) signal_ready();
}

void Runtime::make_ready_locked(const TaskPtr& task) {
  task->ready_seq_ = next_ready_seq_++;
  task->state_.store(TaskState::Ready);
  pool_.push(task);
  outstanding_.fetch_add(1, std::memory_order_release);
}

void Runtime::on_task_finished(const TaskPtr& task, std::uint64_t now_us) {
  finish_common(nullptr, &task, now_us);
}

void Runtime::finish_staged(Task* task, std::uint64_t now_us) {
  finish_common(task, nullptr, now_us);
}

void Runtime::finish_one_locked(const TaskPtr& task, std::uint64_t now_us,
                                bool& notify,
                                std::vector<Task::CompletionHook>& hooks) {
  assert(task->state_.load() == TaskState::Running ||
         task->state_.load() == TaskState::Staged);
  --running_;
  outstanding_.fetch_sub(1, std::memory_order_release);

  if (task->epoch() != kNaturalEpoch) {
    auto it = epoch_tasks_.find(task->epoch());
    if (it != epoch_tasks_.end()) {
      it->second.erase(task->id());
      // Retire the registry entry with its last live task: a long streaming
      // run commits thousands of epochs, and keeping an empty map per
      // retired epoch would grow the registry without bound.
      if (it->second.empty()) epoch_tasks_.erase(it);
    }
  }

  if (stream_accounting_ && task->stream() != 0 &&
      task->dispatch_us_ != Task::kNeverDispatched) {
    StreamUsage& u = stream_usage_[task->stream()];
    const std::uint64_t dur =
        now_us > task->dispatch_us_ ? now_us - task->dispatch_us_ : 0;
    if (task->abort_requested()) {
      u.waste_us += dur;
      ++u.tasks_aborted;
    } else {
      u.compute_us += dur;
      ++u.tasks_finished;
    }
    u.first_dispatch_us = std::min(u.first_dispatch_us, task->dispatch_us_);
  }

  if (observer_) {
    observer_->on_finished(task->id(), now_us, task->abort_requested());
  }
  if (task->abort_requested()) {
    // Rollback caught this task in flight: discard its results, propagate
    // the destroy signal to anything that was wired to consume them.
    task->state_.store(TaskState::Aborted);
    ++counters_.tasks_aborted;
    for (const TaskPtr& succ : task->successors_) {
      abort_task_locked(succ);
    }
    task->successors_.clear();
    task->hooks_.clear();
    task->body_ = nullptr;
    return;  // no hooks: aborted completions are discarded with their content
  }

  task->state_.store(TaskState::Done);
  if (task->epoch() != kNaturalEpoch && task->rollback_routine_) {
    // The task performed a reversible side effect; log the compensation
    // so a later rollback of this epoch can undo it.
    epoch_undo_log_[task->epoch()].push_back(
        std::move(task->rollback_routine_));
    task->rollback_routine_ = nullptr;
  }
  ++counters_.tasks_executed;
  if (task->speculative()) ++counters_.spec_tasks_executed;
  if (task->task_class() == TaskClass::Control) ++counters_.checks_executed;
  counters_.total_runtime_us = std::max(counters_.total_runtime_us, now_us);

  for (const TaskPtr& succ : task->successors_) {
    if (succ->state_.load() == TaskState::Aborted) continue;
    assert(succ->unmet_deps_ > 0);
    if (--succ->unmet_deps_ == 0 && succ->state_.load() == TaskState::Blocked) {
      --blocked_;
      make_ready_locked(succ);
      notify = true;
    }
  }
  task->successors_.clear();
  hooks = std::move(task->hooks_);
  task->hooks_.clear();
  task->body_ = nullptr;
}

void Runtime::finish_common(Task* raw, const TaskPtr* provided,
                            std::uint64_t now_us) {
  std::vector<Task::CompletionHook> hooks;
  bool notify = false;
  TaskPtr owned;
  {
    std::scoped_lock lk(mu_);
    const TaskPtr* taskp = provided;
    if (raw != nullptr) {
      auto own = staged_owned_.find(raw);
      assert(own != staged_owned_.end() &&
             "finish_staged: task was not staged via stage_ready_batch");
      owned = std::move(own->second);
      staged_owned_.erase(own);
      taskp = &owned;
    }
    finish_one_locked(*taskp, now_us, notify, hooks);
  }
  // Hooks run outside the lock: they are allowed to create and submit new
  // tasks (dynamic DFG growth) and to trigger commits/rollbacks. The
  // completion's Task object stays alive through `owned`/`provided` here.
  Task& task = raw != nullptr ? *raw : **provided;
  for (auto& hook : hooks) {
    hook(task, now_us);
  }
  if (notify) signal_ready();
}

void Runtime::finish_staged_batch(Task* const* tasks,
                                  const std::uint64_t* done_us,
                                  std::size_t n) {
  struct Retired {
    TaskPtr task;
    std::uint64_t now_us = 0;
    std::vector<Task::CompletionHook> hooks;
  };
  std::vector<Retired> retired;
  retired.reserve(n);
  bool notify = false;
  {
    std::scoped_lock lk(mu_);
    for (std::size_t i = 0; i < n; ++i) {
      auto own = staged_owned_.find(tasks[i]);
      assert(own != staged_owned_.end() &&
             "finish_staged_batch: task was not staged via stage_ready_batch");
      Retired r;
      r.task = std::move(own->second);
      r.now_us = done_us[i];
      staged_owned_.erase(own);
      finish_one_locked(r.task, r.now_us, notify, r.hooks);
      retired.push_back(std::move(r));
    }
  }
  for (auto& r : retired) {
    for (auto& hook : r.hooks) {
      hook(*r.task, r.now_us);
    }
  }
  if (notify) signal_ready();
}

Epoch Runtime::open_epoch() {
  std::scoped_lock lk(mu_);
  ++counters_.epochs_opened;
  const Epoch epoch = next_epoch_++;
  if (observer_) observer_->on_epoch_opened(epoch);
  return epoch;
}

void Runtime::abort_task_locked(const TaskPtr& task) {
  switch (task->state_.load()) {
    case TaskState::Created:
      task->state_.store(TaskState::Aborted);
      ++counters_.tasks_aborted;
      if (observer_) observer_->on_finished(task->id(), 0, /*aborted=*/true);
      break;
    case TaskState::Blocked:
      --blocked_;
      task->state_.store(TaskState::Aborted);
      ++counters_.tasks_aborted;
      if (observer_) observer_->on_finished(task->id(), 0, /*aborted=*/true);
      break;
    case TaskState::Ready:
      pool_.erase(task);
      outstanding_.fetch_sub(1, std::memory_order_release);
      task->state_.store(TaskState::Aborted);
      ++counters_.tasks_aborted;
      if (observer_) observer_->on_finished(task->id(), 0, /*aborted=*/true);
      break;
    case TaskState::Staged:
    case TaskState::Running:
      // Cannot delete a launched task; flag it for disposal at completion
      // (paper §III-B). Workers also honour the flag at pop time for tasks
      // still sitting in their local queues (revocation-at-pop).
      task->request_abort();
      return;  // keep hooks/successors until it completes
    case TaskState::Done:
    case TaskState::Aborted:
      return;
  }
  // Drop the registry entry of a task destroyed before launch. Victims in
  // the epoch being aborted were already removed wholesale by abort_epoch;
  // this catches cross-epoch destroy propagation (a consumer in epoch B
  // killed by a producer in epoch A), which would otherwise pin a dead
  // entry in epoch_tasks_ forever.
  if (task->epoch() != kNaturalEpoch) {
    auto it = epoch_tasks_.find(task->epoch());
    if (it != epoch_tasks_.end()) {
      it->second.erase(task->id());
      if (it->second.empty()) epoch_tasks_.erase(it);
    }
  }
  // Propagate the destroy signal down the dependence chain and reclaim the
  // task's payload ("deletes them with their content").
  for (const TaskPtr& succ : task->successors_) {
    abort_task_locked(succ);
  }
  task->successors_.clear();
  task->hooks_.clear();
  task->body_ = nullptr;
}

void Runtime::abort_epoch(Epoch epoch) {
  std::vector<Task::RollbackRoutine> undo;
  {
    std::scoped_lock lk(mu_);
    // Advance the revocation epoch BEFORE any abort flag is set, so a worker
    // that still observes the old epoch for a staged task may (only) conclude
    // the flag was not set when the task was staged; the flag check at pop
    // and the discard-at-completion path remain the correctness backstop.
    revocation_epoch_.fetch_add(1, std::memory_order_release);
    if (observer_) observer_->on_epoch_aborted(epoch);
    auto it = epoch_tasks_.find(epoch);
    if (it != epoch_tasks_.end()) {
      // Copy out: abort_task_locked mutates the registry's tasks' successor
      // lists, and recursion may revisit tasks in this same epoch.
      std::vector<TaskPtr> tasks;
      tasks.reserve(it->second.size());
      for (auto& [id, t] : it->second) tasks.push_back(t);
      epoch_tasks_.erase(it);
      for (const TaskPtr& t : tasks) {
        abort_task_locked(t);
      }
      if (observer_) observer_->on_rollback_cascade(epoch, tasks.size());
    } else if (observer_) {
      observer_->on_rollback_cascade(epoch, 0);
    }
    auto log = epoch_undo_log_.find(epoch);
    if (log != epoch_undo_log_.end()) {
      undo = std::move(log->second);
      epoch_undo_log_.erase(log);
    }
  }
  // Compensate completed side effects in reverse completion order, outside
  // the lock (routines are user code and may touch the runtime).
  for (auto rit = undo.rbegin(); rit != undo.rend(); ++rit) {
    (*rit)();
  }
}

Runtime::StreamUsage Runtime::take_stream_usage(std::uint64_t stream) {
  std::scoped_lock lk(mu_);
  auto it = stream_usage_.find(stream);
  if (it == stream_usage_.end()) return {};
  StreamUsage u = it->second;
  stream_usage_.erase(it);
  return u;
}

void Runtime::note_rollback() {
  std::scoped_lock lk(mu_);
  ++counters_.rollbacks;
}

void Runtime::mark_epoch_committed(Epoch epoch) {
  std::scoped_lock lk(mu_);
  epoch_undo_log_.erase(epoch);  // committed side effects are permanent
  ++counters_.epochs_committed;
  if (observer_) observer_->on_epoch_committed(epoch);
}

TaskPtr Runtime::next_task(std::uint64_t now_us, unsigned cpu) {
  std::scoped_lock lk(mu_);
  TaskPtr task = pool_.pop();
  if (task) {
    task->state_.store(TaskState::Running);
    task->dispatch_us_ = now_us;
    ++running_;
    if (observer_) observer_->on_dispatched(task->id(), now_us, cpu);
  }
  return task;
}

std::size_t Runtime::stage_ready_batch(std::uint64_t now_us,
                                       unsigned worker, std::size_t max,
                                       Task** out) {
  std::scoped_lock lk(mu_);
  const std::uint64_t rev = revocation_epoch_.load(std::memory_order_relaxed);
  std::size_t n = 0;
  while (n < max) {
    TaskPtr task = pool_.pop();
    if (!task) break;
    Task* raw = task.get();
    raw->staged_revocation_epoch_ = rev;
    raw->state_.store(TaskState::Staged);
    raw->dispatch_us_ = now_us;
    ++running_;
    if (observer_) observer_->on_dispatched(raw->id(), now_us, worker);
    staged_owned_.emplace(raw, std::move(task));
    out[n++] = raw;
  }
  return n;
}

void Runtime::mark_running(const TaskPtr& task, std::uint64_t now_us,
                           unsigned cpu) {
  std::scoped_lock lk(mu_);
  if (observer_) observer_->on_dispatched(task->id(), now_us, cpu);
  task->dispatch_us_ = now_us;
  const TaskState s = task->state_.load();
  if (s == TaskState::Staged) {
    task->state_.store(TaskState::Running);
    return;  // already counted as in-flight when staged
  }
  task->state_.store(TaskState::Running);
  ++running_;
}

void Runtime::mark_staged(const TaskPtr& task) {
  std::scoped_lock lk(mu_);
  task->state_.store(TaskState::Staged);
  ++running_;
}

stats::RunCounters Runtime::counters() const {
  std::scoped_lock lk(mu_);
  return counters_;
}

std::size_t Runtime::blocked_count() const {
  std::scoped_lock lk(mu_);
  return blocked_;
}

std::size_t Runtime::running_count() const {
  std::scoped_lock lk(mu_);
  return running_;
}

Runtime::QueueDepths Runtime::queue_depths() const {
  std::scoped_lock lk(mu_);
  QueueDepths d;
  d.ready_control = pool_.control_size();
  d.ready_natural = pool_.natural_size();
  d.ready_speculative = pool_.speculative_size();
  d.blocked = blocked_;
  d.running = running_;
  d.open_epochs = epoch_tasks_.size();
  for (const auto& [epoch, tasks] : epoch_tasks_) {
    d.epoch_tasks += tasks.size();
  }
  return d;
}

void Runtime::signal_ready() {
  if (ready_signal_) ready_signal_();
}

}  // namespace sre
