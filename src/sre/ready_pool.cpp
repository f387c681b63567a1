#include "sre/ready_pool.h"

#include <algorithm>
#include <stdexcept>

namespace sre {

ReadyPool::Queue& ReadyPool::queue_for(const Task& task) {
  switch (task.task_class()) {
    case TaskClass::Control:
      return control_;
    case TaskClass::Speculative:
      return spec_;
    case TaskClass::Natural:
      return natural_;
  }
  throw std::logic_error("ReadyPool: unknown task class");
}

void ReadyPool::heap_push(Queue& q, const Entry& e) {
  // Sift-up on PODs. comp(a, b) == "a ranks below b" so the front is the
  // next task to dispatch.
  q.heap.push_back(e);
  std::push_heap(q.heap.begin(), q.heap.end(),
                 [this](const Entry& a, const Entry& b) {
                   return dispatches_before(b, a);
                 });
}

TaskPtr ReadyPool::heap_pop(Queue& q) {
  const auto comp = [this](const Entry& a, const Entry& b) {
    return dispatches_before(b, a);
  };
  while (!q.heap.empty()) {
    const Entry e = q.heap.front();
    std::pop_heap(q.heap.begin(), q.heap.end(), comp);
    q.heap.pop_back();
    Task* task = tasks_.find(e.slot, e.id);
    if (task == nullptr) continue;  // tombstone from a lazy erase
    q.live.fetch_sub(1, std::memory_order_relaxed);
    return tasks_.take(*task);
  }
  return nullptr;
}

void ReadyPool::maybe_compact(Queue& q) {
  // Rebuild once tombstones dominate, so rollback-heavy runs cannot grow a
  // heap of dead entries unboundedly. Amortized O(1) per erase.
  const std::size_t live = q.live.load(std::memory_order_relaxed);
  if (q.heap.size() < 64 || q.heap.size() < 2 * live) return;
  std::erase_if(q.heap, [this](const Entry& e) {
    return tasks_.find(e.slot, e.id) == nullptr;
  });
  std::make_heap(q.heap.begin(), q.heap.end(),
                 [this](const Entry& a, const Entry& b) {
                   return dispatches_before(b, a);
                 });
}

void ReadyPool::push(const TaskPtr& task) {
  if (task->task_class() == TaskClass::Speculative &&
      policy_ == DispatchPolicy::NonSpeculative) {
    throw std::logic_error(
        "ReadyPool: speculative task submitted under NonSpeculative policy");
  }
  if (tasks_.contains(*task)) return;  // double push: match the old set's no-op
  Queue& q = queue_for(*task);
  const std::uint32_t slot = tasks_.insert(task);
  heap_push(q, Entry{task->depth(), slot, task->ready_seq(), task->id()});
  q.live.fetch_add(1, std::memory_order_relaxed);
}

bool ReadyPool::erase(const TaskPtr& task) {
  if (!tasks_.contains(*task)) return false;
  tasks_.take(*task);
  Queue& q = queue_for(*task);
  q.live.fetch_sub(1, std::memory_order_relaxed);
  ++tombstones_created_;
  maybe_compact(q);
  return true;
}

TaskPtr ReadyPool::pop_from(Queue& q, bool is_spec) {
  TaskPtr task = heap_pop(q);
  if (!task) return nullptr;
  if (is_spec) {
    ++spec_pops_;
  } else {
    ++natural_pops_;
  }
  return task;
}

TaskPtr ReadyPool::pop(bool spec_allowed) {
  // Control tasks always win; they are counted on neither side of the
  // natural/speculative balance.
  if (TaskPtr task = heap_pop(control_)) {
    ++control_pops_;
    return task;
  }
  if (!spec_allowed) {
    return pop_from(natural_, false);
  }

  switch (policy_) {
    case DispatchPolicy::NonSpeculative:
      return pop_from(natural_, false);

    case DispatchPolicy::Conservative: {
      if (TaskPtr t = pop_from(natural_, false)) return t;
      return pop_from(spec_, true);
    }

    case DispatchPolicy::Aggressive: {
      if (TaskPtr t = pop_from(spec_, true)) return t;
      return pop_from(natural_, false);
    }

    case DispatchPolicy::Balanced: {
      // Strict alternation; fall through to the other queue when the
      // preferred one is empty (without flipping the preference, so the
      // long-run dispatch counts stay equal while both have work).
      if (balanced_prefer_spec_) {
        if (TaskPtr t = pop_from(spec_, true)) {
          balanced_prefer_spec_ = false;
          return t;
        }
        return pop_from(natural_, false);
      }
      if (TaskPtr t = pop_from(natural_, false)) {
        balanced_prefer_spec_ = true;
        return t;
      }
      return pop_from(spec_, true);
    }
  }
  return nullptr;
}

}  // namespace sre
