#include "control/controller.h"

#include <algorithm>
#include <cmath>

namespace control {

int classify(double signal, double low, double high) {
  if (signal > high) return 1;
  if (signal < low) return -1;
  return 0;
}

Knob::Knob(double initial, double lo, double hi, double step)
    : value_(std::clamp(initial, lo, hi)), lo_(lo), hi_(hi), step_(step) {}

bool Knob::step_by(double delta, std::uint64_t now_us,
                   std::uint64_t dwell_us) {
  if (ever_moved_ && now_us < last_move_us_ + dwell_us) return false;
  const double next = std::clamp(value_ + delta, lo_, hi_);
  if (next == value_) return false;
  value_ = next;
  last_move_us_ = now_us;
  ever_moved_ = true;
  ++moves_;
  return true;
}

bool Knob::raise(std::uint64_t now_us, std::uint64_t dwell_us) {
  return step_by(step_, now_us, dwell_us);
}

bool Knob::lower(std::uint64_t now_us, std::uint64_t dwell_us) {
  return step_by(-step_, now_us, dwell_us);
}

SpecTuner::SpecTuner(const ControlConfig& cfg, std::uint32_t base_step)
    : cfg_(cfg),
      defer_(0.0, 0.0, static_cast<double>(cfg.defer_max),
             static_cast<double>(std::max<std::uint32_t>(1, cfg.defer_step))),
      step_(static_cast<double>(base_step), static_cast<double>(base_step),
            static_cast<double>(base_step) *
                static_cast<double>(std::max<std::uint32_t>(1, cfg.step_max_mult)),
            static_cast<double>(std::max<std::uint32_t>(1, base_step))) {}

std::vector<Action> SpecTuner::sample(double rollback_rate,
                                      std::uint64_t now_us) {
  std::vector<Action> out;
  const int c =
      classify(rollback_rate, cfg_.rollback_rate_low, cfg_.rollback_rate_high);
  if (c == 0) return out;
  const char* reason =
      c > 0 ? "rollback_rate_high" : "rollback_rate_low";
  const auto move = [&](Knob& k, const char* name) {
    const bool changed = c > 0 ? k.raise(now_us, cfg_.min_dwell_us)
                               : k.lower(now_us, cfg_.min_dwell_us);
    if (changed) out.push_back({name, k.value(), c, reason});
  };
  move(defer_, "restart_min_defer");
  move(step_, "step_size");
  if (!out.empty()) ++retunes_;
  return out;
}

std::uint32_t SpecTuner::restart_min_defer() const {
  return static_cast<std::uint32_t>(std::lround(defer_.value()));
}

std::uint32_t SpecTuner::step_size() const {
  return static_cast<std::uint32_t>(std::lround(step_.value()));
}

bool SpecTuner::tightened() const {
  return defer_.value() > defer_.lo() || step_.value() > step_.lo();
}

AdmissionTuner::AdmissionTuner(const ControlConfig& cfg, AdmissionLimits base)
    : cfg_(cfg),
      concurrent_(static_cast<double>(base.max_concurrent),
                  static_cast<double>(base.max_concurrent),
                  static_cast<double>(std::max(cfg.concurrent_max,
                                               base.max_concurrent)),
                  1.0),
      bulk_cap_(static_cast<double>(base.bulk_queue_cap),
                static_cast<double>(
                    std::min(cfg.bulk_queue_min, base.bulk_queue_cap)),
                static_cast<double>(base.bulk_queue_cap),
                static_cast<double>(std::max<std::size_t>(
                    1, base.bulk_queue_cap / 4))) {}

std::vector<Action> AdmissionTuner::sample(double interactive_wait_us,
                                           double deadline_shed_rate,
                                           std::uint64_t now_us) {
  std::vector<Action> out;
  const int w = classify(interactive_wait_us, cfg_.wait_low_us,
                         cfg_.wait_high_us);
  if (w > 0 && concurrent_.raise(now_us, cfg_.min_dwell_us)) {
    out.push_back({"max_concurrent", concurrent_.value(), 1, "wait_high"});
  } else if (w < 0 && concurrent_.lower(now_us, cfg_.min_dwell_us)) {
    out.push_back({"max_concurrent", concurrent_.value(), -1, "wait_low"});
  }
  const int s = classify(deadline_shed_rate, cfg_.shed_rate_low,
                         cfg_.shed_rate_high);
  // Shrinking under shed pressure converts late deadline sheds (a session
  // queued, aged out, and discarded — pure wasted wait) into immediate
  // submit-time queue_full sheds: the client learns "no" in microseconds
  // instead of after its deadline.
  if (s > 0 && bulk_cap_.lower(now_us, cfg_.min_dwell_us)) {
    out.push_back({"bulk_queue_cap", bulk_cap_.value(), 1, "shed_rate_high"});
  } else if (s < 0 && bulk_cap_.raise(now_us, cfg_.min_dwell_us)) {
    out.push_back({"bulk_queue_cap", bulk_cap_.value(), -1, "shed_rate_low"});
  }
  if (!out.empty()) ++retunes_;
  return out;
}

AdmissionLimits AdmissionTuner::limits() const {
  AdmissionLimits l;
  l.max_concurrent =
      static_cast<std::size_t>(std::lround(concurrent_.value()));
  l.bulk_queue_cap = static_cast<std::size_t>(std::lround(bulk_cap_.value()));
  return l;
}

Controller::Controller(ControlConfig cfg, AdmissionLimits base_admission)
    : cfg_(cfg), admission_(cfg, base_admission) {}

SpecTuner& Controller::stream(std::uint64_t id, std::uint32_t base_step) {
  auto it = streams_.find(id);
  if (it == streams_.end()) {
    it = streams_.emplace(id, SpecTuner(cfg_, base_step)).first;
  }
  return it->second;
}

void Controller::drop_stream(std::uint64_t id) { streams_.erase(id); }

}  // namespace control
