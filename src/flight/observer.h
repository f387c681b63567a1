// FlightObserver: the sre::Observer → flight::Record adapter.
//
// Honors the observer contract (record and return, often under the runtime
// lock): every callback builds one 64-byte Record and pushes it into the
// calling thread's SPSC ring via Recorder::emit. The only shared state it
// touches is the name interner (shared-lock fast path, leaf lock) and a
// relaxed atomic engine clock.
//
// Several runtime events carry no timestamp (task creation, dependence
// edges, epoch edges, speculation decisions). Those are stamped with
// `approx_now`: the newest engine time seen on any timed event
// (dispatch/finish/session edges) — good enough for window eviction and
// trace ordering, and exact for the events the latency math actually uses.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#include "flight/record.h"
#include "flight/recorder.h"
#include "sre/observer.h"

namespace flight {

class FlightObserver final : public sre::Observer {
 public:
  explicit FlightObserver(Recorder& recorder) : rec_(recorder) {}

  // --- Serving-layer entry points (not Observer callbacks) ----------------

  /// Session lifecycle edge ("Queued", "Admitted", ... "Failed").
  void session_state(std::uint64_t session, std::string_view state,
                     std::uint64_t t_us);

  /// One latency-attribution component for a finished session.
  void attribution(std::uint64_t session, std::string_view component,
                   std::uint64_t us, std::uint64_t t_us);

  [[nodiscard]] std::uint64_t approx_now_us() const {
    return approx_now_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] Recorder& recorder() { return rec_; }

  // --- sre::Observer ------------------------------------------------------

  void on_task_created(const sre::TaskInfo& task) override;
  void on_edge(sre::TaskId producer, sre::TaskId consumer) override;
  void on_dispatched(sre::TaskId task, std::uint64_t now_us,
                     unsigned cpu) override;
  void on_finished(sre::TaskId task, std::uint64_t now_us,
                   bool aborted) override;
  void on_epoch_opened(sre::Epoch epoch) override;
  void on_epoch_committed(sre::Epoch epoch) override;
  void on_epoch_aborted(sre::Epoch epoch) override;
  void on_rollback_cascade(sre::Epoch epoch,
                           std::size_t tasks_destroyed) override;
  void on_check_verdict(sre::Epoch epoch, bool within, bool is_final,
                        double margin) override;
  void on_prediction_scored(const std::string& predictor, bool hit,
                            double rel_error) override;
  void on_predictor_charged(const std::string& predictor) override;
  void on_speculation_gated(std::uint32_t estimate_index,
                            double confidence) override;
  void on_fault_injected(sre::TaskId task, bool failed,
                         std::uint64_t delay_us) override;

 private:
  /// Timed events advance the approximate clock; clock-less ones read it.
  std::uint64_t advance_clock(std::uint64_t now_us);

  Recorder& rec_;
  std::atomic<std::uint64_t> approx_now_{0};
};

}  // namespace flight
