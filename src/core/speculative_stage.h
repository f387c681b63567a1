// SpeculativeStage<V, R>: the one speculation skeleton under every pipeline.
//
// A pipeline that speculates on a value V (a code tree, filter
// coefficients, centroids, a tour) to produce one result R per data block
// wires the same parts every time (paper §II-A): a Speculator fed by the
// estimate stream, a WaitBuffer parking speculative results until a
// verdict, per-block result slots, the block trace, and the bookkeeping
// around commit, rollback and the natural fallback. The stage owns all of
// them. The pipeline supplies only what is its own — how to spawn the
// speculative and natural sub-graphs, the tolerance predicate, and
// optionally where a committed result goes (Hooks::on_committed) — and
// hands every block result back through deliver().
//
// Lifetime: the stage lives inside the pipeline's shared state, its
// "owner". Closures the stage owns (the hooks, the buffer sink, the
// Speculator callbacks) must not hold a strong reference to the owner: the
// owner would then own a path back to itself and leak. Instead every task
// that can call into the stage pins the owner — check tasks through the
// Speculator's keepalive, block tasks (map_blocks) and estimate hooks
// (estimate_on_done) through pin() — so the stage outlives every call.
//
// Stale builders: the Speculator calls a chain builder with its lock
// released, so the builder of epoch e may still be running after a check
// rolled e back and a newer epoch was built, or even committed. The stage
// skips a builder that is already stale() when it starts, and a builder
// that installs shared chain state must re-check stale() under its own lock
// (HuffmanPipeline does). The committed value comes only from the
// Speculator — the guess it commits, or the final value of the natural
// path — never from a builder, so a late builder cannot publish its guess.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/speculator.h"
#include "core/wait_buffer.h"
#include "sre/runtime.h"
#include "stats/trace.h"

namespace tvs {

/// Settled epochs a stage's wait buffer remembers (see
/// WaitBuffer::retire_window). The Speculator runs one epoch at a time, so
/// any small window is safe.
inline constexpr sre::Epoch kStageRetireWindow = 8;

template <typename V, typename R>
class SpeculativeStage {
 public:
  /// One task per block computing the block's result from a value: the
  /// whole sub-graph of a pipeline whose blocks are independent. Tasks are
  /// named `name[b]` on the natural path and `spec-name[b,eE]` under epoch
  /// E, at depth 3.
  struct BlockMap {
    std::string name;
    std::uint64_t cost_us = 0;
    std::function<R(const V& value, std::size_t block)> fn;
  };

  struct Hooks {
    /// Spawns the speculative sub-graph for `guess` under `epoch`; results
    /// come back through deliver(epoch, ...). Null = map_blocks.
    std::function<void(const V& guess, sre::Epoch epoch,
                       std::uint32_t estimate_index)>
        build_chain;
    /// Spawns the natural sub-graph from the final value; results come back
    /// through deliver(sre::kNaturalEpoch, ...). Null = map_blocks.
    std::function<void(const V& final_value)> build_natural;
    /// Used by the null builders above.
    BlockMap map;

    /// The tolerance predicate (required when speculating).
    std::function<bool(const V& guess, const V& current)> within_tolerance;
    /// Optional check headroom (Speculator::Callbacks::tolerance_margin).
    std::function<double(const V& guess, const V& current)> tolerance_margin;
    /// Optional: `epoch` rolled back; its buffered results are dropped.
    std::function<void(sre::Epoch epoch)> on_rollback;
    /// Optional: block `block`'s committed result, called exactly once per
    /// block, after its slot is filled and outside the stage lock, on the
    /// thread whose path commits it: the natural fill, the commit flush or
    /// pass-through. `now_us` is that commit's engine time.
    std::function<void(std::size_t block, const R& result,
                       std::uint64_t now_us)>
        on_committed;
  };

  /// `spec` = nullopt runs without speculation: the final estimate builds
  /// the natural path directly. `owner` is the state that owns this stage.
  /// `stream` is stamped on the stage's own tasks (checks, block maps).
  SpeculativeStage(sre::Runtime& runtime, std::size_t blocks,
                   const std::optional<SpecConfig>& spec,
                   std::uint64_t check_cost_us,
                   std::weak_ptr<const void> owner, Hooks hooks,
                   std::uint64_t stream = 0)
      : rt_(runtime),
        owner_(std::move(owner)),
        hooks_(std::move(hooks)),
        stream_(stream),
        slots_(blocks),
        trace_(blocks),
        buffer_(
            [this](const std::size_t& block, R&& result, std::uint64_t now) {
              fill(block, std::move(result), now, /*natural_path=*/false);
            },
            kStageRetireWindow) {
    if (!hooks_.build_chain) {
      hooks_.build_chain = [this](const V& guess, sre::Epoch epoch,
                                  std::uint32_t) { map_blocks(guess, epoch); };
    }
    if (!hooks_.build_natural) {
      hooks_.build_natural = [this](const V& final_value) {
        map_blocks(final_value, sre::kNaturalEpoch);
      };
    }
    if (!spec) return;

    typename Speculator<V>::Callbacks cb;
    cb.build_chain = [this](const V& guess, sre::Epoch epoch,
                            std::uint32_t index) {
      {
        std::scoped_lock lk(mu_);
        if (stale_locked(epoch)) return;
        newest_epoch_ = epoch;
      }
      hooks_.build_chain(guess, epoch, index);
    };
    cb.within_tolerance = hooks_.within_tolerance;
    cb.tolerance_margin = hooks_.tolerance_margin;
    cb.on_commit = [this](const V& guess, sre::Epoch epoch,
                          std::uint64_t now_us) {
      {
        std::scoped_lock lk(mu_);
        spec_committed_ = true;
        committed_ = guess;
      }
      buffer_.commit(epoch, now_us);
    };
    cb.on_rollback = [this](sre::Epoch epoch, std::uint64_t) {
      {
        std::scoped_lock lk(mu_);
        ++rollbacks_;
        rolled_back_ = std::max(rolled_back_, epoch);
      }
      buffer_.drop(epoch);
      if (hooks_.on_rollback) hooks_.on_rollback(epoch);
    };
    cb.build_natural = [this](const V& final_value, std::uint64_t) {
      natural(final_value);
    };
    spec_ = std::make_unique<Speculator<V>>(runtime, *spec, std::move(cb),
                                            check_cost_us);
    // In-flight checks pin the owner: a stale check can retire after the
    // run commits and the pipeline handle is long gone.
    spec_->set_task_keepalive(owner_);
    spec_->set_stream(stream);
  }

  SpeculativeStage(const SpeculativeStage&) = delete;
  SpeculativeStage& operator=(const SpeculativeStage&) = delete;

  /// A strong reference to the owner, for tasks that call back into the
  /// stage. Empty once the owner is gone.
  [[nodiscard]] std::shared_ptr<const void> pin() const {
    return owner_.lock();
  }

  // --- Estimates -------------------------------------------------------

  /// Asks whether the speculator wants estimate `index` materialized
  /// (false without speculation). A caller that materializes an accepted
  /// estimate in a task hands it over with estimate_on_done(..., offered =
  /// true).
  [[nodiscard]] bool offer(std::uint32_t index, bool is_final) const {
    return spec_ && spec_->wants_estimate(index, is_final);
  }

  /// Feeds estimate `index` (1-based). Without speculation the final
  /// estimate builds the natural path and the others are ignored.
  void estimate(std::uint32_t index, bool is_final, V value,
                std::uint64_t now_us) {
    if (!spec_) {
      if (is_final) natural(value);
      return;
    }
    if (offer(index, is_final)) {
      spec_->on_estimate(std::move(value), index, is_final, now_us);
    }
  }

  /// Feeds estimate `index` when `task` completes, with the owner pinned:
  /// `read` produces the value at completion time. `offered` marks an
  /// estimate offer() already accepted; it goes straight to the
  /// speculator, which sees every estimate that was materialized.
  void estimate_on_done(sre::Task& task, std::uint32_t index, bool is_final,
                        std::function<V()> read, bool offered = false) {
    task.add_completion_hook(
        [this, keep = pin(), index, is_final, read = std::move(read),
         offered](sre::Task&, std::uint64_t done_us) {
          if (offered) {
            spec_->on_estimate(read(), index, is_final, done_us);
          } else {
            estimate(index, is_final, read(), done_us);
          }
        });
  }

  // --- Sub-graphs and results ---------------------------------------------

  /// True once a chain built for `epoch` could only produce discarded work:
  /// the stage has built a newer epoch or seen `epoch` roll back.
  [[nodiscard]] bool stale(sre::Epoch epoch) const {
    std::scoped_lock lk(mu_);
    return stale_locked(epoch);
  }

  /// Spawns hooks.map over every block: speculative under `epoch`, or the
  /// natural path under sre::kNaturalEpoch.
  void map_blocks(const V& value, sre::Epoch epoch) {
    const bool speculative = epoch != sre::kNaturalEpoch;
    auto v = std::make_shared<const V>(value);
    auto keep = pin();
    for (std::size_t b = 0; b < slots_.size(); ++b) {
      auto out = std::make_shared<R>();
      const std::string ix = std::to_string(b);
      auto task = rt_.make_task(
          speculative ? "spec-" + hooks_.map.name + "[" + ix + ",e" +
                            std::to_string(epoch) + "]"
                      : hooks_.map.name + "[" + ix + "]",
          speculative ? sre::TaskClass::Speculative : sre::TaskClass::Natural,
          epoch, /*depth=*/3, hooks_.map.cost_us,
          [this, keep, v, b, out](sre::TaskContext&) {
            *out = hooks_.map.fn(*v, b);
          },
          stream_);
      task->add_completion_hook(
          [this, keep, b, out, epoch](sre::Task&, std::uint64_t done_us) {
            deliver(epoch, b, std::move(*out), done_us);
          });
      rt_.submit(task);
    }
  }

  /// Hands block `block`'s result to the stage: a speculative result waits
  /// in the buffer for its epoch's verdict; a natural one fills the slot.
  /// Either way the trace records the completion.
  void deliver(sre::Epoch epoch, std::size_t block, R result,
               std::uint64_t done_us) {
    if (epoch == sre::kNaturalEpoch) {
      fill(block, std::move(result), done_us, /*natural_path=*/true);
      return;
    }
    {
      std::scoped_lock lk(mu_);
      trace_.record_done(block, done_us, /*speculative=*/true);
    }
    buffer_.add(epoch, block, std::move(result), done_us);
  }

  void record_arrival(std::size_t block, std::uint64_t now_us) {
    std::scoped_lock lk(mu_);
    trace_.record_arrival(block, now_us);
  }

  // --- Results (read after the run) ---------------------------------------

  [[nodiscard]] const stats::BlockTrace& trace() const { return trace_; }

  /// Calls `f(slots)` with the per-block results under the stage lock.
  template <typename F>
  decltype(auto) with_results(F&& f) const {
    std::scoped_lock lk(mu_);
    return std::forward<F>(f)(slots_);
  }

  /// The block results concatenated in block order (R a sequence); throws
  /// std::logic_error naming `who` if a block is missing.
  [[nodiscard]] R concat(const std::string& who) const {
    std::scoped_lock lk(mu_);
    R out;
    for (std::size_t b = 0; b < slots_.size(); ++b) {
      if (!slots_[b]) {
        throw std::logic_error(who + ": block " + std::to_string(b) +
                               " missing");
      }
      out.insert(out.end(), slots_[b]->begin(), slots_[b]->end());
    }
    return out;
  }

  /// Every block slot filled.
  [[nodiscard]] bool complete() const {
    std::scoped_lock lk(mu_);
    return filled_ == slots_.size();
  }

  /// The value the output was built from — the committed guess or the
  /// natural path's final value — or null before either exists. Set once,
  /// so the pointer stays valid for the stage's lifetime.
  [[nodiscard]] const V* committed() const {
    std::scoped_lock lk(mu_);
    return committed_ ? &*committed_ : nullptr;
  }

  [[nodiscard]] bool speculation_committed() const {
    std::scoped_lock lk(mu_);
    return spec_committed_;
  }
  [[nodiscard]] std::uint64_t rollbacks() const {
    std::scoped_lock lk(mu_);
    return rollbacks_;
  }
  [[nodiscard]] std::size_t wait_discarded() const {
    return buffer_.discarded();
  }
  [[nodiscard]] std::size_t wait_pending() const {
    return buffer_.total_pending();
  }

 private:
  [[nodiscard]] bool stale_locked(sre::Epoch epoch) const {
    return epoch < newest_epoch_ || epoch <= rolled_back_;
  }

  /// The natural path: called at most once per run (the Speculator's
  /// terminal states guarantee it; a second call is a bug).
  void natural(const V& final_value) {
    {
      std::scoped_lock lk(mu_);
      if (natural_built_) {
        throw std::logic_error("SpeculativeStage: natural path built twice");
      }
      natural_built_ = true;
      committed_ = final_value;
    }
    hooks_.build_natural(final_value);
  }

  /// Commits block `block`'s result. A slot is written once, so the hook
  /// may read it unlocked; a second commit of one block is a bug.
  void fill(std::size_t block, R&& result, std::uint64_t now_us,
            bool natural_path) {
    const R* committed = nullptr;
    {
      std::scoped_lock lk(mu_);
      if (slots_[block]) {
        throw std::logic_error("SpeculativeStage: block " +
                               std::to_string(block) + " committed twice");
      }
      if (natural_path) trace_.record_done(block, now_us, /*speculative=*/false);
      committed = &slots_[block].emplace(std::move(result));
      ++filled_;
    }
    if (hooks_.on_committed) hooks_.on_committed(block, *committed, now_us);
  }

  sre::Runtime& rt_;
  const std::weak_ptr<const void> owner_;
  Hooks hooks_;
  const std::uint64_t stream_;

  mutable std::mutex mu_;
  std::vector<std::optional<R>> slots_;
  std::size_t filled_ = 0;
  stats::BlockTrace trace_;
  std::optional<V> committed_;
  bool spec_committed_ = false;
  bool natural_built_ = false;
  std::uint64_t rollbacks_ = 0;
  sre::Epoch newest_epoch_ = 0;  ///< newest epoch whose chain was built
  sre::Epoch rolled_back_ = 0;   ///< newest epoch rolled back

  WaitBuffer<std::size_t, R> buffer_;
  std::unique_ptr<Speculator<V>> spec_;
};

}  // namespace tvs
