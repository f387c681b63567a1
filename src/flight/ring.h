// Ring: bounded single-producer / single-consumer ring of flight Records.
//
// Each emitting thread owns one (registered lazily by the Recorder); the
// drainer thread is the sole consumer of every ring. The producer side is
// the hot path: one 64-byte struct copy plus two atomic cursor ops, no lock,
// no allocation. A full ring drops the record (the Recorder counts drops) —
// always-on tracing must never apply backpressure to the engine.
//
// Synchronization: the producer publishes the cell with a release store of
// tail; the consumer acquires tail, copies the cells, then releases head. Cells are plain Records — safe because exactly
// one thread writes a cell between the cursor handoffs.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "flight/record.h"

namespace flight {

class Ring {
 public:
  /// `capacity` is rounded up to a power of two, minimum 2.
  explicit Ring(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_.resize(cap);
    mask_ = cap - 1;
  }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Producer side. Returns false (and writes nothing) when full.
  bool push(const Record& r) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    const std::size_t h = head_.load(std::memory_order_acquire);
    if (t - h > mask_) return false;
    cells_[t & mask_] = r;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: appends up to `max` pending records to `out`. Returns
  /// the number drained.
  std::size_t pop_into(std::vector<Record>& out, std::size_t max) {
    std::size_t h = head_.load(std::memory_order_relaxed);
    const std::size_t t = tail_.load(std::memory_order_acquire);
    std::size_t n = 0;
    while (h != t && n < max) {
      out.push_back(cells_[h & mask_]);
      ++h;
      ++n;
    }
    head_.store(h, std::memory_order_release);
    return n;
  }

  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  std::vector<Record> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  ///< consumer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< producer cursor
};

}  // namespace flight
