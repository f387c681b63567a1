// AdmissionController: the bounded front door of the serving layer.
//
// Holds one FIFO queue per Priority class and applies the ShedPolicy at
// both ends: `offer` consults it before enqueueing (capacity / soft-cap
// shedding — the backpressure signal the client sees), and `next` /
// `purge_expired` drop deadline-overrun sessions (strict priority order:
// Interactive > Batch > Bulk, FIFO within a class). Once `close`d the
// controller refuses new work but still drains what it already accepted —
// graceful shutdown sheds nothing that was admitted.
//
// Thread-safe; every entry point takes the internal lock. The controller
// never *mutates* a Session — it only reads the immutable cfg/submit
// timestamp. Sessions handed back via `next` or a shed list leave the
// controller entirely, and marking them Shed is the caller's job (under the
// caller's session lock, so stats snapshots stay race-free).
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "serve/session.h"
#include "serve/shed_policy.h"

namespace serve {

class AdmissionController {
 public:
  explicit AdmissionController(ShedPolicy policy);

  /// Outcome of an offer: admitted to a queue, or shed with a reason.
  struct Offer {
    bool queued = false;
    const char* shed_reason = "";  ///< non-empty iff !queued
  };

  /// Try to enqueue. On shed the session is left untouched.
  Offer offer(const SessionPtr& s);

  /// Pop the next session in strict priority order, skipping (and returning
  /// via `shed_out`) sessions whose queue deadline expired. Returns nullptr
  /// when every queue is empty.
  SessionPtr next(std::uint64_t now_us, std::vector<SessionPtr>& shed_out);

  /// Remove every queued session whose deadline has expired, appending them
  /// to `shed_out`. Returns the number removed. Called periodically so
  /// deadline sheds are not delayed until a slot frees.
  std::size_t purge_expired(std::uint64_t now_us,
                            std::vector<SessionPtr>& shed_out);

  /// Stop accepting new sessions; queued ones still drain via `next`.
  void close();
  [[nodiscard]] bool closed() const;

  /// Total sessions currently queued across all priorities.
  [[nodiscard]] std::size_t queued() const;
  /// Per-priority queue depths.
  [[nodiscard]] std::array<std::size_t, kPriorities> depths() const;

  /// Snapshot of the shed policy's limits.
  [[nodiscard]] ShedPolicy::Config shed_config() const;

 private:
  [[nodiscard]] bool expired_locked(const Session& s,
                                    std::uint64_t now_us) const;

  const ShedPolicy policy_;
  mutable std::mutex mu_;
  std::array<std::deque<SessionPtr>, kPriorities> queues_;
  bool closed_ = false;
};

}  // namespace serve
