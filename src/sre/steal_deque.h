// StealDeque: bounded Chase–Lev work-stealing deque of Task*.
//
// The owning worker pushes and pops at the *bottom* (LIFO — the most
// recently staged, highest-priority work); idle workers steal from the *top*
// (FIFO — the oldest, lowest-priority leftovers). This is the classic
// Chase–Lev structure [Chase & Lev, SPAA'05] in the weak-memory formulation
// of Le et al. [PPoPP'13], with two deliberate deviations:
//
//  * bounded: push() fails when full instead of growing. The executor sizes
//    the deque to hold a whole self-staged batch and a worker stages only
//    into its own empty deque, leaving excess work in the central
//    ReadyPool, so a full deque is back-pressure, not loss.
//  * no standalone fences: the original uses atomic_thread_fence(seq_cst),
//    which ThreadSanitizer does not model precisely. Every ordering here is
//    carried by a seq_cst operation on top/bottom instead — strictly
//    stronger, and exact under TSan.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sre {

class Task;

class StealDeque {
 public:
  /// `capacity` is rounded up to a power of two, minimum 2.
  explicit StealDeque(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::vector<std::atomic<Task*>>(cap);
    mask_ = static_cast<std::int64_t>(cap) - 1;
  }

  [[nodiscard]] std::size_t capacity() const {
    return static_cast<std::size_t>(mask_ + 1);
  }

  /// Owner only. Returns false when full.
  bool push(Task* task) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t > mask_) return false;
    cells_[b & mask_].store(task, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_seq_cst);  // publish to thieves
    return true;
  }

  /// Owner only: take the most recently pushed task, or nullptr.
  Task* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    Task* task = nullptr;
    if (t <= b) {
      task = cells_[b & mask_].load(std::memory_order_relaxed);
      if (t == b) {
        // Last element: race the thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          task = nullptr;  // a thief won
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);  // was empty
    }
    return task;
  }

  /// Any thread: take the oldest task, or nullptr when empty or when the
  /// CAS loses a race (callers treat both as "try elsewhere").
  Task* steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    Task* task = cells_[t & mask_].load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;
    }
    return task;
  }

  /// Size estimate. Thieves only shrink it, so the owner can use it as a
  /// lower bound on free space; other threads read it as a hint only.
  [[nodiscard]] std::size_t size_estimate() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  [[nodiscard]] std::size_t free_estimate() const {
    return capacity() - size_estimate();
  }

 private:
  std::vector<std::atomic<Task*>> cells_;
  std::int64_t mask_ = 0;
  alignas(64) std::atomic<std::int64_t> top_{0};     ///< steal end
  alignas(64) std::atomic<std::int64_t> bottom_{0};  ///< owner end
};

}  // namespace sre
