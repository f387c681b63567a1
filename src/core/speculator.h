// Speculator<V>: the tolerant-value-speculation engine.
//
// Implements the paper's four-part programmer interface (§II-A):
//   (1) what to speculate  — the value V flowing along a DFG edge;
//   (2) how to speculate   — a stream of refining estimates of V fed through
//                            on_estimate() (prefix results, early iterates);
//   (3) where to speculate — the caller parks side-effect-bound results in a
//                            WaitBuffer and releases them from on_commit /
//                            on_rollback;
//   (4) how to validate    — a tolerance predicate comparing the adopted
//                            guess with the newest estimate.
//
// Lifecycle per run: estimates arrive with 1-based indices; while no
// speculation is active, estimate k opens an epoch if k is a step-size
// multiple (the guess is adopted and the caller's build_chain spawns the
// speculative sub-graph). While one is active, the verification policy
// schedules Check tasks: a passing non-final check changes nothing; a failing
// check triggers rollback (runtime abort + caller cleanup) and immediate
// re-speculation from the newest estimate; the final estimate's check decides
// commit or fallback to the natural path.
//
// Concurrency model (docs/speculation.md): one mutex guards all state, but
// every user callback and every call into the runtime that may re-enter user
// code runs with the mutex *released* — the unlock windows. Each mutation of
// the state machine bumps a generation counter; a continuation that re-locks
// after an unlock window compares the generation it stamped before unlocking
// and becomes a no-op if anything interleaved. This is what makes late
// verdicts, racing finals and re-entrant estimates provably harmless: the
// interleaving operation wins, the stale continuation observes the bump and
// retires. Chaos points (sre/chaos_point.h) mark each window so the torture
// harness (src/stress) can force the dangerous interleavings on demand.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "core/config.h"
#include "sre/chaos_point.h"
#include "sre/runtime.h"

namespace tvs {

template <typename V>
class Speculator {
 public:
  /// The state machine. Legal transitions (each bumps the generation):
  ///   Idle   → Active     estimate at a step multiple opens an epoch
  ///   Active → Idle       failing check verdict rolls the epoch back
  ///   Active → Committed  final check passes (terminal)
  ///   Idle   → Natural    final estimate with nothing speculated (terminal)
  /// The rollback path that discovers the final is already known chains
  /// Active → Idle → Natural (two transitions, one verdict).
  enum class State : std::uint8_t { Idle, Active, Committed, Natural };

  struct Callbacks {
    /// Spawns the speculative sub-graph computing from `guess` under `epoch`.
    /// `estimate_index` tells the builder how much input backs the guess.
    std::function<void(const V& guess, sre::Epoch epoch,
                       std::uint32_t estimate_index)>
        build_chain;

    /// Tolerance predicate: is `guess` still acceptable given `current`?
    std::function<bool(const V& guess, const V& current)> within_tolerance;

    /// Optional observability hook: the tolerance headroom of a check as a
    /// ratio (observed error / allowed error; < 1 passes, 0 = perfect
    /// guess). Evaluated inside the check task next to within_tolerance and
    /// reported through sre::Observer::on_check_verdict, so live metrics
    /// can see how close speculation is running to its tolerance budget.
    /// Null = margins reported as -1 (unknown).
    std::function<double(const V& guess, const V& current)> tolerance_margin;

    /// Final check passed: release the epoch's buffered results. `guess` is
    /// the committed epoch's guess — the value the output was built from.
    std::function<void(const V& guess, sre::Epoch epoch,
                       std::uint64_t now_us)>
        on_commit;

    /// Epoch rejected: buffered results were already aborted in the runtime;
    /// drop them from wait buffers and clean up chain state.
    std::function<void(sre::Epoch epoch, std::uint64_t now_us)> on_rollback;

    /// No committed speculation covers the output: build the natural
    /// (non-speculative) path from the final value. Called exactly once per
    /// run (the generation rule de-duplicates racing paths).
    std::function<void(const V& final_value, std::uint64_t now_us)>
        build_natural;
  };

  Speculator(sre::Runtime& runtime, SpecConfig config, Callbacks callbacks,
             std::uint64_t check_cost_us = 12)
      : runtime_(runtime),
        config_(config),
        cb_(std::move(callbacks)),
        check_cost_us_(check_cost_us) {
    if (!cb_.build_chain || !cb_.within_tolerance || !cb_.on_commit ||
        !cb_.on_rollback || !cb_.build_natural) {
      throw std::invalid_argument("Speculator: all callbacks are required");
    }
  }

  /// Pins `owner` — typically the pipeline state that owns this Speculator —
  /// for the lifetime of every internally-spawned check task: a strong
  /// reference is captured into each check's body and completion hook, so a
  /// stale check still in flight when the rest of the run finishes cannot
  /// outlive the object its verdict calls back into. Needed by the serving
  /// layer, which destroys session handles eagerly while stragglers drain.
  /// Held weak here because the owner owns the Speculator — a strong member
  /// reference would cycle and leak both.
  void set_task_keepalive(std::weak_ptr<const void> owner) {
    std::scoped_lock lk(mu_);
    task_keepalive_ = std::move(owner);
  }

  /// Serving-layer stream id stamped onto internally-spawned check tasks
  /// (0 = none), so per-session attribution charges check time correctly.
  void set_stream(std::uint64_t stream) {
    std::scoped_lock lk(mu_);
    stream_ = stream;
  }

  /// Does the pipeline need to materialize the estimate at `index` at all?
  /// (Estimate materialization — e.g. building a prefix Huffman tree — can
  /// itself be costly; skip it when the speculator would ignore it.)
  [[nodiscard]] bool wants_estimate(std::uint32_t index, bool is_final) const {
    std::scoped_lock lk(mu_);
    if (terminal_locked()) return false;
    if (is_final) return true;
    if (state_ == State::Idle) {
      return index >= defer_until_ && config_.should_speculate(index);
    }
    return config_.verify.should_check(index, false);
  }

  /// Feeds estimate number `index` (1-based). `is_final` marks the true,
  /// complete value. `now_us` is engine time. Estimates materialized by
  /// parallel tasks can arrive out of order: one older than the newest
  /// already fed, or arriving after the final, is ignored — it must neither
  /// replace newer data nor hide that the final value is known (a failed
  /// final check would then re-speculate, and no estimate would ever come
  /// to settle the run).
  void on_estimate(V value, std::uint32_t index, bool is_final,
                   std::uint64_t now_us) {
    std::unique_lock lk(mu_);
    if (terminal_locked()) return;
    if (latest_ && (index < latest_index_ || latest_is_final_)) return;
    latest_ = std::move(value);
    latest_index_ = index;
    latest_is_final_ = is_final;

    if (state_ == State::Idle) {
      if (is_final) {
        // Nothing speculated (or everything rolled back): natural path.
        state_ = State::Natural;
        ++generation_;
        V final_copy = *latest_;
        lk.unlock();
        SRE_CHAOS_POINT("speculator.natural_window");
        cb_.build_natural(final_copy, now_us);
        return;
      }
      if (index >= defer_until_ && config_.should_speculate(index)) {
        open_epoch_locked(lk, now_us);
      }
      return;
    }

    if (config_.verify.should_check(index, is_final)) {
      spawn_check_locked(lk, is_final);
    }
  }

  // --- Introspection ---------------------------------------------------

  [[nodiscard]] State state() const {
    std::scoped_lock lk(mu_);
    return state_;
  }
  [[nodiscard]] bool finished() const {
    std::scoped_lock lk(mu_);
    return terminal_locked();
  }
  [[nodiscard]] bool committed() const {
    std::scoped_lock lk(mu_);
    return state_ == State::Committed;
  }
  [[nodiscard]] std::optional<sre::Epoch> active_epoch() const {
    std::scoped_lock lk(mu_);
    if (state_ != State::Active) return std::nullopt;
    return active_->epoch;
  }
  [[nodiscard]] SpecConfig config() const {
    std::scoped_lock lk(mu_);
    return config_;
  }

  /// Runtime retune entry point for the control plane (src/control).
  /// Atomically swaps the tuning knobs — step_size, verification policy,
  /// adaptive_restart, restart_min_defer — under the same mutex that
  /// guards every state transition, so a retune is totally ordered against
  /// estimates, verdicts and unlock-window continuations: it either
  /// happens-before an estimate (which then sees the new knobs) or after
  /// (the estimate ran under the old ones); it can never tear.
  /// The one structural field, `tolerance`, is pinned to its construction
  /// value: pipelines capture it into their check predicate by value, so
  /// swapping it here would silently diverge from the installed callback.
  void retune(SpecConfig next) {
    std::scoped_lock lk(mu_);
    next.tolerance = config_.tolerance;
    config_ = next;
    ++retunes_;
  }

  /// Number of retune() calls applied (introspection for stats/tests).
  [[nodiscard]] std::uint64_t retunes() const {
    std::scoped_lock lk(mu_);
    return retunes_;
  }

  /// State-machine transition count. Torture oracles read it to prove a
  /// quiesced run saw exactly the expected transitions; unlock-window
  /// continuations use it internally to detect interleavings.
  [[nodiscard]] std::uint64_t generation() const {
    std::scoped_lock lk(mu_);
    return generation_;
  }

 private:
  struct Active {
    sre::Epoch epoch;
    V guess;
    std::uint32_t guess_index;
  };

  [[nodiscard]] bool terminal_locked() const {
    return state_ == State::Committed || state_ == State::Natural;
  }

  /// Opens a fresh epoch from the newest estimate. Caller holds the lock;
  /// the lock is released around the user callback and re-acquired. The
  /// caller must not touch state after this returns without re-validating
  /// the generation (build_chain may have raced anything).
  void open_epoch_locked(std::unique_lock<std::mutex>& lk,
                         std::uint64_t /*now_us*/) {
    const sre::Epoch epoch = runtime_.open_epoch();
    active_ = Active{epoch, *latest_, latest_index_};
    state_ = State::Active;
    ++generation_;
    const V guess = active_->guess;
    const std::uint32_t gix = active_->guess_index;
    lk.unlock();
    SRE_CHAOS_POINT("speculator.open_window");
    cb_.build_chain(guess, epoch, gix);
    lk.lock();
  }

  /// Spawns a Control-class check task comparing the active guess against
  /// the newest estimate. Caller holds the lock.
  void spawn_check_locked(std::unique_lock<std::mutex>& lk, bool is_final) {
    const sre::Epoch epoch = active_->epoch;
    // Copies for the task body: verdicts must be computed against the
    // values as of scheduling, not whatever is newest when the task runs.
    auto guess = std::make_shared<const V>(active_->guess);
    auto current = std::make_shared<const V>(*latest_);

    auto verdict = std::make_shared<bool>(false);
    auto margin = std::make_shared<double>(-1.0);
    // The keepalive (if set) rides in both lambdas: the task owns them until
    // it is destroyed, so an in-flight check pins the speculator's owner.
    auto keep = task_keepalive_.lock();
    auto task = runtime_.make_task(
        "check[e" + std::to_string(epoch) + (is_final ? ",final]" : "]"),
        sre::TaskClass::Control, sre::kNaturalEpoch, /*depth=*/1000,
        check_cost_us_,
        [this, keep, guess, current, verdict, margin](sre::TaskContext&) {
          *verdict = cb_.within_tolerance(*guess, *current);
          if (cb_.tolerance_margin) {
            *margin = cb_.tolerance_margin(*guess, *current);
          }
        },
        stream_);
    task->add_completion_hook([this, keep, epoch, verdict, margin, is_final](
                                  sre::Task&, std::uint64_t done_us) {
      on_verdict(epoch, *verdict, *margin, is_final, done_us);
    });
    lk.unlock();
    SRE_CHAOS_POINT("speculator.spawn_check_window");
    runtime_.submit(task);
    lk.lock();
  }

  void on_verdict(sre::Epoch epoch, bool within, double margin, bool is_final,
                  std::uint64_t now_us) {
    std::unique_lock lk(mu_);
    if (terminal_locked()) return;
    if (state_ != State::Active || active_->epoch != epoch) {
      return;  // stale verdict: the epoch already rolled back
    }
    if (sre::Observer* obs = runtime_.observer()) {
      // Only acted-on verdicts are reported; stale ones (the epoch already
      // rolled back) carry no health signal.
      obs->on_check_verdict(epoch, within, is_final, margin);
    }

    if (within) {
      if (!is_final) return;  // confidence builds; nothing changes
      // Commit: the speculative outputs stand in for the natural path.
      state_ = State::Committed;
      ++generation_;
      const V guess = std::move(active_->guess);
      active_.reset();
      runtime_.mark_epoch_committed(epoch);
      lk.unlock();
      SRE_CHAOS_POINT("speculator.commit_window");
      cb_.on_commit(guess, epoch, now_us);
      return;
    }

    // Tolerance exceeded: roll back the epoch. The state flips to Idle and
    // the generation is stamped BEFORE the unlock window — any estimate that
    // lands while abort_epoch/on_rollback run sees a coherent Idle machine
    // and may legally finish the run (late final → natural path) or open a
    // fresh epoch. The re-validation below detects that and retires this
    // continuation instead of acting twice.
    runtime_.note_rollback();
    active_.reset();
    state_ = State::Idle;
    const std::uint64_t gen = ++generation_;
    lk.unlock();
    SRE_CHAOS_POINT("speculator.rollback_window");
    runtime_.abort_epoch(epoch);
    cb_.on_rollback(epoch, now_us);
    SRE_CHAOS_POINT("speculator.rollback_window_late");
    lk.lock();
    if (generation_ != gen) {
      // A racing estimate already took the next step (built the natural
      // path or opened a new epoch). Without this check the code below
      // would run build_natural a second time — duplicate output — or
      // stack a second open on top of the racer's epoch, orphaning it.
      return;
    }

    if (latest_is_final_) {
      // The final value is known and speculation failed against it:
      // recompute along the natural path.
      state_ = State::Natural;
      ++generation_;
      V final_copy = *latest_;
      lk.unlock();
      SRE_CHAOS_POINT("speculator.natural_window");
      cb_.build_natural(final_copy, now_us);
      return;
    }
    if (config_.adaptive_restart) {
      // Geometric backoff: the failed guess was backed by latest_index_
      // estimates' worth of data; demand double before guessing again.
      // Clamped from below so the sequence is genuinely geometric: a
      // failure at index 0 (or a stale, small latest_index_) must not
      // collapse the deferral back to "retry immediately" — the next
      // boundary is at least one step, at least double the previous
      // deferral, and at least the control plane's floor.
      const std::uint64_t next = std::max(
          {static_cast<std::uint64_t>(latest_index_) * 2,
           static_cast<std::uint64_t>(defer_until_) * 2,
           static_cast<std::uint64_t>(config_.step_size),
           static_cast<std::uint64_t>(config_.restart_min_defer)});
      defer_until_ = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(next, UINT32_MAX));
      return;
    }
    if (config_.restart_min_defer > latest_index_) {
      // Non-adaptive path with a control-plane floor: hold off until the
      // estimate stream reaches the floor instead of retrying immediately.
      defer_until_ = config_.restart_min_defer;
      return;
    }
    // Re-speculate immediately from the newest estimate ("a negative
    // comparison generates a new filtering task that uses the new
    // coefficients", §II-A).
    open_epoch_locked(lk, now_us);
  }

  sre::Runtime& runtime_;
  SpecConfig config_;
  Callbacks cb_;
  std::weak_ptr<const void> task_keepalive_;  ///< see set_task_keepalive
  std::uint64_t check_cost_us_;
  std::uint64_t stream_ = 0;  ///< see set_stream

  mutable std::mutex mu_;
  std::optional<V> latest_;
  std::uint32_t latest_index_ = 0;
  bool latest_is_final_ = false;
  /// Engaged exactly when state_ == Active.
  std::optional<Active> active_;
  State state_ = State::Idle;
  /// Bumped on every state transition; stamped before each unlock window
  /// and re-validated after relock (see file comment).
  std::uint64_t generation_ = 0;
  std::uint32_t defer_until_ = 0;  ///< adaptive restart: no guesses below this
  std::uint64_t retunes_ = 0;      ///< retune() calls applied
};

}  // namespace tvs
