// The adaptive control plane: a feedback controller that turns live
// metrics into knob movements (docs/control-plane.md).
//
// Everything in this header is *pure decision logic* — no threads, no
// locks, no clocks, no metrics dependencies. The host owns the sampling
// cadence and the application of decisions:
//
//  * serve::SessionManager runs a wall-clock control thread that derives
//    rates from the metrics Registry (metrics::DeltaView) and applies
//    decisions to live Speculators (tvs::Speculator::retune) and the
//    AdmissionController;
//  * pipeline::run_sim drives the same controller from virtual-time tick
//    events, so sim experiments (bench/ablation_control) are deterministic.
//
// The no-flap contract, enforced per knob:
//
//  * hysteresis band — a knob moves up only while its signal is above the
//    band's high edge and down only below the low edge; anywhere inside
//    the band it holds. A signal that settles between the edges therefore
//    produces zero movement, whichever side it approached from.
//  * min-dwell — after a move, the knob is frozen for min_dwell_us of the
//    host's time axis, whatever the signal does. An input oscillating
//    across the whole band moves the knob at most once per dwell period,
//    never once per sample.
//  * bounds — every knob is clamped to [lo, hi]; a saturated knob under a
//    persistent signal simply stays put (no wind-up to unwind later).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace control {

/// Tuning parameters of the controller itself. The defaults are the ones
/// bench/ablation_control validates; hosts expose interval/dwell as flags.
struct ControlConfig {
  bool enabled = false;

  /// Sampling interval on the host's time axis (wall µs in service mode,
  /// virtual µs in sim).
  std::uint64_t interval_us = 50'000;
  /// Per-knob freeze after a movement. Must be >= interval_us to mean
  /// anything; several intervals is typical.
  std::uint64_t min_dwell_us = 200'000;

  // --- Speculation knobs (per stream; signal: rollbacks per second) ------
  /// Hysteresis band on the rollback rate. Above high: tighten (raise the
  /// restart defer floor, stretch the step). Below low: relax one step back
  /// toward the configured baseline.
  double rollback_rate_high = 4.0;
  double rollback_rate_low = 0.5;
  /// Restart-defer-floor increment (estimate indices) and ceiling.
  std::uint32_t defer_step = 4;
  std::uint32_t defer_max = 64;
  /// Step-size ceiling as a multiple of the configured base step.
  std::uint32_t step_max_mult = 4;

  // --- Admission knobs (service-wide) ------------------------------------
  /// Hysteresis band on Interactive queue wait (µs): p95 of waits admitted
  /// this interval, or the oldest still-queued wait, whichever is larger.
  /// Above high: widen the concurrency window. Below low: reclaim it.
  double wait_high_us = 50'000;
  double wait_low_us = 5'000;
  /// Ceiling on the concurrency window (max_concurrent); the floor is the
  /// configured baseline.
  std::size_t concurrent_max = 16;
  /// Hysteresis band on the deadline-shed rate (sheds per second). Above
  /// high: shrink Bulk's queue so hopeless sessions fail fast at submit
  /// instead of dying of old age in the queue. Below low: regrow it.
  double shed_rate_high = 2.0;
  double shed_rate_low = 0.25;
  /// Floor for Bulk's queue capacity; the ceiling is the configured value.
  std::size_t bulk_queue_min = 4;
};

/// One applied knob movement — the attribution record the host logs
/// through the flight recorder / metrics path. All strings are literals.
struct Action {
  const char* knob = "";    ///< "step_size", "max_concurrent", ...
  double value = 0.0;       ///< the knob's value after the move
  int direction = 0;        ///< +1 tightened/widened, -1 relaxed/reclaimed
  const char* reason = "";  ///< the signal edge that triggered it
};

/// Classifies `signal` against a hysteresis band: +1 above `high`, -1
/// below `low`, 0 inside (hold).
[[nodiscard]] int classify(double signal, double low, double high);

/// A bounded value with a movement step and a min-dwell freeze. The unit
/// the generic no-flap tests (tests/control) exercise directly.
class Knob {
 public:
  Knob(double initial, double lo, double hi, double step);

  /// Move one step up/down. Returns true iff the value actually changed
  /// (respects bounds and the dwell freeze; a blocked move does not reset
  /// the dwell clock).
  bool raise(std::uint64_t now_us, std::uint64_t dwell_us);
  bool lower(std::uint64_t now_us, std::uint64_t dwell_us);

  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::uint64_t moves() const { return moves_; }

 private:
  bool step_by(double delta, std::uint64_t now_us, std::uint64_t dwell_us);

  double value_;
  double lo_;
  double hi_;
  double step_;
  std::uint64_t last_move_us_ = 0;
  bool ever_moved_ = false;
  std::uint64_t moves_ = 0;
};

/// Per-stream speculation tuner. Signal: that stream's rollback rate
/// (rollbacks per second over the last interval). Tightening raises the
/// restart defer floor and stretches the step size; relaxing walks each
/// knob one step back toward its baseline.
class SpecTuner {
 public:
  SpecTuner(const ControlConfig& cfg, std::uint32_t base_step);

  /// One control sample. Returns the movements applied (empty = hold).
  std::vector<Action> sample(double rollback_rate, std::uint64_t now_us);

  [[nodiscard]] std::uint32_t restart_min_defer() const;
  [[nodiscard]] std::uint32_t step_size() const;
  /// True iff any knob differs from its baseline (the host can skip the
  /// retune call entirely when nothing has ever moved).
  [[nodiscard]] bool tightened() const;
  [[nodiscard]] std::uint64_t retunes() const { return retunes_; }

 private:
  ControlConfig cfg_;
  Knob defer_;
  Knob step_;
  std::uint64_t retunes_ = 0;
};

/// The admission limits the tuner manages, in host-neutral form; the
/// serving layer maps them onto ShedPolicy::Config + its slot count.
struct AdmissionLimits {
  std::size_t max_concurrent = 4;
  std::size_t bulk_queue_cap = 64;
};

/// Service-wide admission tuner. Two independent loops: Interactive queue
/// wait drives the concurrency window; the deadline-shed rate drives
/// Bulk's queue capacity.
class AdmissionTuner {
 public:
  AdmissionTuner(const ControlConfig& cfg, AdmissionLimits base);

  std::vector<Action> sample(double interactive_wait_us,
                             double deadline_shed_rate, std::uint64_t now_us);

  [[nodiscard]] AdmissionLimits limits() const;
  [[nodiscard]] std::uint64_t retunes() const { return retunes_; }

 private:
  ControlConfig cfg_;
  Knob concurrent_;
  Knob bulk_cap_;
  std::uint64_t retunes_ = 0;
};

/// The feedback controller: one admission tuner plus a speculation tuner
/// per live stream, sharing one ControlConfig. Still pure logic — the
/// host serializes access (the SessionManager calls under its own lock;
/// run_sim is single-threaded by construction).
class Controller {
 public:
  Controller(ControlConfig cfg, AdmissionLimits base_admission);

  /// The tuner for stream `id`, created on first use with the given
  /// baseline step (subsequent calls ignore it).
  SpecTuner& stream(std::uint64_t id, std::uint32_t base_step);
  /// Forgets a finished stream's tuner (bounds memory in a long service).
  void drop_stream(std::uint64_t id);
  [[nodiscard]] std::size_t streams() const { return streams_.size(); }

  [[nodiscard]] AdmissionTuner& admission() { return admission_; }
  [[nodiscard]] const AdmissionTuner& admission() const { return admission_; }
  [[nodiscard]] const ControlConfig& config() const { return cfg_; }

 private:
  ControlConfig cfg_;
  AdmissionTuner admission_;
  std::map<std::uint64_t, SpecTuner> streams_;
};

}  // namespace control
