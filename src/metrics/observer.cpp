#include "metrics/observer.h"

#include <cmath>

namespace metrics {
namespace {

std::string class_labels(std::size_t ix) {
  switch (ix) {
    case 0: return "class=\"natural\"";
    case 1: return "class=\"speculative\"";
    case 2: return "class=\"control\"";
  }
  return "class=\"?\"";
}

/// Ratios land in histograms as parts-per-million (log buckets stay
/// meaningful for values well below 1).
std::uint64_t to_ppm(double ratio) {
  if (!(ratio >= 0.0)) return 0;  // negative or NaN: clamp
  const double ppm = ratio * 1e6;
  return ppm >= 9e18 ? std::uint64_t{9'000'000'000'000'000'000ull}
                     : static_cast<std::uint64_t>(ppm);
}

}  // namespace

MetricsObserver::MetricsObserver(Registry& registry)
    : reg_(registry),
      edges_(registry.counter("tvs_edges_total")),
      check_latency_us_(registry.histogram("tvs_check_latency_us")),
      epochs_opened_(registry.counter("tvs_epochs_opened_total")),
      epochs_committed_(registry.counter("tvs_epochs_committed_total")),
      epochs_aborted_(registry.counter("tvs_epochs_aborted_total")),
      open_epochs_(registry.gauge("tvs_open_epochs")),
      rollback_cascade_(registry.histogram("tvs_rollback_cascade_tasks")),
      checks_passed_(
          registry.counter("tvs_check_verdicts_total", "verdict=\"pass\"")),
      checks_failed_(
          registry.counter("tvs_check_verdicts_total", "verdict=\"fail\"")),
      check_margin_ppm_(registry.histogram("tvs_check_margin_ppm")) {
  for (std::size_t c = 0; c < kClasses; ++c) {
    const std::string labels = class_labels(c);
    created_[c] = &registry.counter("tvs_tasks_created_total", labels);
    finished_[c] = &registry.counter("tvs_tasks_finished_total", labels);
    aborted_[c] = &registry.counter("tvs_tasks_aborted_total", labels);
    cpu_time_us_[c] = &registry.counter("tvs_cpu_time_us_total", labels);
    run_us_[c] = &registry.histogram("tvs_task_run_us", labels);
  }
}

void MetricsObserver::on_task_created(const sre::TaskInfo& task) {
  const std::size_t c = class_ix(task.cls);
  created_[c]->add();
  std::scoped_lock lk(mu_);
  live_[task.id] = Live{task.cls, 0, false};
}

void MetricsObserver::on_edge(sre::TaskId, sre::TaskId) { edges_.add(); }

void MetricsObserver::on_dispatched(sre::TaskId task, std::uint64_t now_us,
                                    unsigned /*cpu*/) {
  std::scoped_lock lk(mu_);
  auto it = live_.find(task);
  if (it == live_.end()) return;
  it->second.dispatch_us = now_us;
  it->second.dispatched = true;
}

void MetricsObserver::on_finished(sre::TaskId task, std::uint64_t now_us,
                                  bool aborted) {
  Live live;
  {
    std::scoped_lock lk(mu_);
    auto it = live_.find(task);
    if (it == live_.end()) return;
    live = it->second;
    live_.erase(it);
  }
  const std::size_t c = class_ix(live.cls);
  if (aborted) {
    aborted_[c]->add();
    // Work already spent on an aborted in-flight task is still CPU share.
    if (live.dispatched && now_us > live.dispatch_us) {
      cpu_time_us_[c]->add(now_us - live.dispatch_us);
    }
    return;
  }
  finished_[c]->add();
  if (live.dispatched) {
    const std::uint64_t dur =
        now_us > live.dispatch_us ? now_us - live.dispatch_us : 0;
    run_us_[c]->observe(dur);
    cpu_time_us_[c]->add(dur);
    if (live.cls == sre::TaskClass::Control) check_latency_us_.observe(dur);
  }
}

void MetricsObserver::on_epoch_opened(sre::Epoch) {
  epochs_opened_.add();
  open_epochs_.add(1.0);
}

void MetricsObserver::on_epoch_committed(sre::Epoch) {
  epochs_committed_.add();
  open_epochs_.add(-1.0);
}

void MetricsObserver::on_epoch_aborted(sre::Epoch) {
  epochs_aborted_.add();
  open_epochs_.add(-1.0);
}

void MetricsObserver::on_rollback_cascade(sre::Epoch, std::size_t tasks) {
  rollback_cascade_.observe(tasks);
}

void MetricsObserver::on_check_verdict(sre::Epoch, bool within,
                                       bool /*is_final*/, double margin) {
  (within ? checks_passed_ : checks_failed_).add();
  if (margin >= 0.0) check_margin_ppm_.observe(to_ppm(margin));
}

}  // namespace metrics
