// MetricsObserver: the bridge from the SRE's passive event stream into the
// metrics registry.
//
// Attach one (directly or through a FanoutObserver) and every task, epoch
// and check event lands in always-on counters and histograms:
//
//   tvs_tasks_created_total{class=}      tvs_tasks_finished_total{class=}
//   tvs_tasks_aborted_total{class=}      tvs_edges_total
//   tvs_task_run_us{class=}  (histogram of dispatch→finish per class)
//   tvs_cpu_time_us_total{class=}        (speculative vs natural CPU share)
//   tvs_check_latency_us                 (Control-class run latency)
//   tvs_epochs_opened_total / _committed_total / _aborted_total
//   tvs_open_epochs                      (gauge)
//   tvs_rollback_cascade_tasks           (histogram: tasks killed per abort)
//   tvs_check_verdicts_total{verdict=}   tvs_check_margin_ppm (histogram)
//
// Counter/histogram writes are sharded and lock-free; the only lock here
// guards the live-task map (class + dispatch time, erased on completion,
// so it stays O(in-flight tasks)).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "metrics/registry.h"
#include "sre/observer.h"

namespace metrics {

class MetricsObserver final : public sre::Observer {
 public:
  /// `registry` must outlive the observer.
  explicit MetricsObserver(Registry& registry);

  void on_task_created(const sre::TaskInfo& task) override;
  void on_edge(sre::TaskId producer, sre::TaskId consumer) override;
  void on_dispatched(sre::TaskId task, std::uint64_t now_us,
                     unsigned cpu) override;
  void on_finished(sre::TaskId task, std::uint64_t now_us,
                   bool aborted) override;
  void on_epoch_opened(sre::Epoch epoch) override;
  void on_epoch_committed(sre::Epoch epoch) override;
  void on_epoch_aborted(sre::Epoch epoch) override;
  void on_rollback_cascade(sre::Epoch epoch, std::size_t tasks) override;
  void on_check_verdict(sre::Epoch epoch, bool within, bool is_final,
                        double margin) override;

  [[nodiscard]] Registry& registry() { return reg_; }

 private:
  static constexpr std::size_t kClasses = 3;  // Natural/Speculative/Control
  [[nodiscard]] static std::size_t class_ix(sre::TaskClass cls) {
    return static_cast<std::size_t>(cls) < kClasses
               ? static_cast<std::size_t>(cls)
               : 0;
  }

  Registry& reg_;

  // Pre-resolved handles: the hot path must not touch the registry map.
  Counter* created_[kClasses];
  Counter* finished_[kClasses];
  Counter* aborted_[kClasses];
  Counter* cpu_time_us_[kClasses];
  Histogram* run_us_[kClasses];
  Counter& edges_;
  Histogram& check_latency_us_;
  Counter& epochs_opened_;
  Counter& epochs_committed_;
  Counter& epochs_aborted_;
  Gauge& open_epochs_;
  Histogram& rollback_cascade_;
  Counter& checks_passed_;
  Counter& checks_failed_;
  Histogram& check_margin_ppm_;

  struct Live {
    sre::TaskClass cls = sre::TaskClass::Natural;
    std::uint64_t dispatch_us = 0;
    bool dispatched = false;
  };
  std::mutex mu_;                                 ///< guards live_ only
  std::unordered_map<sre::TaskId, Live> live_;    ///< in-flight tasks
};

}  // namespace metrics
