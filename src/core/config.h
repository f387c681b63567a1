// Speculation configuration: the degrees of freedom the paper studies.
//
//  * speculation frequency — the *step size*: a new speculative value is
//    adopted at every step_size-th estimate while no speculation is active
//    (Fig. 5 sweeps 1..32);
//  * verification frequency — when an active speculation is re-checked
//    against the newest estimate (Fig. 6: baseline every-8th, optimistic
//    final-only, full every-estimate);
//  * tolerance — the programmer-defined relative error margin (Fig. 9 sweeps
//    1 %, 2 %, 5 %);
//  * dispatch policy — resource allocation between natural and speculative
//    tasks (Fig. 3/4: conservative, aggressive, balanced), carried by the
//    runtime's ReadyPool rather than here.
#pragma once

#include <cstdint>
#include <string>

namespace tvs {

enum class VerifyMode : std::uint8_t {
  EveryKth,   ///< check when the estimate index is a multiple of `every`
  Optimistic, ///< single check against the final value only
  Full,       ///< check at every estimate; re-speculate immediately on failure
};

struct VerificationPolicy {
  VerifyMode mode = VerifyMode::EveryKth;
  std::uint32_t every = 8;  ///< used by EveryKth

  [[nodiscard]] static VerificationPolicy every_kth(std::uint32_t k) {
    return {VerifyMode::EveryKth, k};
  }
  [[nodiscard]] static VerificationPolicy optimistic() {
    return {VerifyMode::Optimistic, 0};
  }
  [[nodiscard]] static VerificationPolicy full() {
    return {VerifyMode::Full, 0};
  }

  /// Should an active speculation be checked at estimate `index`
  /// (1-based)? The final estimate is always checked — it decides commit.
  [[nodiscard]] bool should_check(std::uint32_t index, bool is_final) const {
    if (is_final) return true;
    switch (mode) {
      case VerifyMode::EveryKth:
        return every != 0 && index % every == 0;
      case VerifyMode::Optimistic:
        return false;
      case VerifyMode::Full:
        return true;
    }
    return false;
  }
};

struct SpecConfig {
  /// Open a new speculation at estimates step_size, 2·step_size, … (while
  /// none is active). step_size == 0 disables speculation.
  std::uint32_t step_size = 1;

  VerificationPolicy verify = VerificationPolicy::every_kth(8);

  /// Relative tolerance margin (fraction): the paper's baseline is 1 % of
  /// the compressed size.
  double tolerance = 0.01;

  /// Adaptive speculation restart (an extension; the paper leaves the step
  /// size as a manually tuned knob, §V-B / Fig. 5). When enabled, a failed
  /// speculation does not restart immediately: the next guess must be
  /// backed by *twice* the prefix that produced the failure (geometric
  /// backoff on the estimate index). On inputs with a convergence
  /// threshold, the controller homes in on it — within a factor of two —
  /// without knowing it, paying at most a logarithmic number of rollbacks.
  bool adaptive_restart = false;

  /// Floor (estimate index) applied to the restart deferral after any failed
  /// speculation, with or without adaptive_restart. 0 = no floor (a
  /// non-adaptive rollback re-speculates immediately, the paper's behaviour).
  /// The control plane (src/control) raises this when the rollback rate
  /// spikes and relaxes it back to 0 when accuracy recovers.
  std::uint32_t restart_min_defer = 0;

  [[nodiscard]] bool speculation_enabled() const { return step_size != 0; }

  /// True when estimate `index` should open a fresh speculation (given none
  /// is active). Estimates are 1-based; index 0 never speculates — a guess
  /// there would be backed by zero estimates, contradicting the step_size
  /// contract ("at estimates step_size, 2·step_size, …").
  [[nodiscard]] bool should_speculate(std::uint32_t index) const {
    return speculation_enabled() && index != 0 && index % step_size == 0;
  }

  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] std::string to_string(VerifyMode m);

}  // namespace tvs
