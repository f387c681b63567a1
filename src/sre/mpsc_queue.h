// CompletionQueue: bounded multi-producer queue of task completions.
//
// Workers (producers) retire finished tasks here without ever touching the
// runtime lock; a worker whose own deque runs dry (the consumer, one at a
// time) drains it and performs dependence propagation. The cells carry the
// completion timestamp alongside the task so the hot path is one CAS on the
// producer cursor plus one release store.
//
// This is Vyukov's bounded MPMC queue specialised to our use: per-cell
// sequence numbers arbitrate producers, and the single consumer makes the
// pop side a plain load/store pair. No standalone fences, so it is exact
// under TSan. push() returning false (full) is a degraded-but-correct path:
// the worker retires the task directly through the runtime lock instead.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sre {

class Task;

class CompletionQueue {
 public:
  /// `capacity` is rounded up to a power of two, minimum 4.
  explicit CompletionQueue(std::size_t capacity) {
    std::size_t cap = 4;
    while (cap < capacity) cap <<= 1;
    cells_ = std::vector<Cell>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
    mask_ = cap - 1;
  }

  /// Producer (any worker). Returns false when full.
  bool push(Task* task, std::uint64_t done_us) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.task = task;
          cell.done_us = done_us;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer (one thread at a time: the holder of the executor's retire
  /// role). Returns false when empty.
  bool pop(Task*& task, std::uint64_t& done_us) {
    const std::size_t pos = head_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) -
            static_cast<std::intptr_t>(pos + 1) < 0) {
      return false;
    }
    task = cell.task;
    done_us = cell.done_us;
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Approximate occupancy (racy snapshot of the cursors). Producers use it
  /// to decide whether the consumer might be idle (≈ empty → worth waking).
  [[nodiscard]] std::size_t size_estimate() const {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    const std::size_t h = head_.load(std::memory_order_relaxed);
    return t > h ? t - h : 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    Task* task = nullptr;
    std::uint64_t done_us = 0;
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< producers
  alignas(64) std::atomic<std::size_t> head_{0};  ///< consumer
};

}  // namespace sre
