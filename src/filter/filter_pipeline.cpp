#include "filter/filter_pipeline.h"

#include <optional>
#include <stdexcept>

#include "core/speculative_stage.h"
#include "filter/fir.h"
#include "filter/iterative_design.h"

namespace filt {

using Coeffs = std::vector<double>;
using Stage = tvs::SpeculativeStage<Coeffs, std::vector<double>>;

/// Filters one block with full-signal context: the FIR history reaches back
/// taps-1 samples before the block, so per-block outputs concatenate to
/// exactly the whole-signal convolution (blocks are independent tasks, not
/// independent signals).
std::vector<double> filter_block(const std::vector<double>& input,
                                 std::size_t begin, std::size_t end,
                                 const Coeffs& coeffs) {
  const std::size_t history = coeffs.size() > 0 ? coeffs.size() - 1 : 0;
  const std::size_t ctx_begin = begin >= history ? begin - history : 0;
  const auto with_context = apply_fir(
      std::span<const double>(input).subspan(ctx_begin, end - ctx_begin),
      coeffs);
  return std::vector<double>(with_context.begin() +
                                 static_cast<std::ptrdiff_t>(begin - ctx_begin),
                             with_context.end());
}

struct FilterPipeline::State {
  State(sre::Runtime& runtime, const std::vector<double>& in,
        const std::vector<double>& tgt, FilterPipelineConfig config)
      : rt(runtime), input(in), target(tgt), cfg(std::move(config)) {}

  sre::Runtime& rt;
  const std::vector<double>& input;
  const std::vector<double>& target;
  FilterPipelineConfig cfg;
  std::size_t n_blocks = 0;

  std::shared_ptr<IterativeSolver> solver;  ///< driven by the serial chain
  std::vector<std::shared_ptr<const Coeffs>> iterate_snapshots;

  std::unique_ptr<Stage> stage;
};

FilterPipeline::FilterPipeline(sre::Runtime& runtime,
                               const std::vector<double>& input,
                               const std::vector<double>& target,
                               FilterPipelineConfig config, bool speculation)
    : st_(std::make_shared<State>(runtime, input, target, std::move(config))) {
  State& st = *st_;
  if (st.input.size() != st.target.size() || st.input.empty()) {
    throw std::invalid_argument("FilterPipeline: bad signal sizes");
  }
  if (st.cfg.iterations == 0 || st.cfg.block_samples == 0) {
    throw std::invalid_argument("FilterPipeline: bad config");
  }
  st.n_blocks =
      (st.input.size() + st.cfg.block_samples - 1) / st.cfg.block_samples;
  st.iterate_snapshots.resize(st.cfg.iterations);

  // State-owned closures hold a raw State*: the stage's tasks pin State.
  Stage::Hooks hooks;
  hooks.map = {"filter", st.cfg.filter_cost_us,
               [s = &st](const Coeffs& coeffs, std::size_t b) {
                 const std::size_t begin = b * s->cfg.block_samples;
                 const std::size_t end =
                     std::min(begin + s->cfg.block_samples, s->input.size());
                 return filter_block(s->input, begin, end, coeffs);
               }};
  hooks.within_tolerance = [tol = st.cfg.spec.tolerance](const Coeffs& guess,
                                                         const Coeffs& cur) {
    return rel_l2_diff(guess, cur) <= tol;
  };
  st.stage = std::make_unique<Stage>(
      runtime, st.n_blocks,
      speculation ? std::optional(st.cfg.spec) : std::nullopt,
      st.cfg.check_cost_us, st_, std::move(hooks));
}

void FilterPipeline::start() {
  auto st = st_;
  // Problem-estimation task ("Filter Information" box of Fig. 1).
  auto problem_task = st->rt.make_task(
      "estimate-problem", sre::TaskClass::Natural, sre::kNaturalEpoch,
      /*depth=*/1, st->cfg.problem_cost_us, [st](sre::TaskContext&) {
        st->solver = std::make_shared<IterativeSolver>(
            estimate_problem(st->input, st->target, st->cfg.taps));
      });

  // Serial iteration chain ("Iteration step k"); each iterate is an
  // estimate of the final coefficients.
  sre::TaskPtr prev = problem_task;
  for (std::size_t k = 0; k < st->cfg.iterations; ++k) {
    auto iter_task = st->rt.make_task(
        "iterate[" + std::to_string(k + 1) + "]", sre::TaskClass::Natural,
        sre::kNaturalEpoch, /*depth=*/2, st->cfg.iter_cost_us,
        [st, k](sre::TaskContext&) {
          st->solver->step();
          st->iterate_snapshots[k] =
              std::make_shared<const Coeffs>(st->solver->current());
        });
    st->stage->estimate_on_done(*iter_task, static_cast<std::uint32_t>(k + 1),
                                k + 1 == st->cfg.iterations,
                                [st, k] { return *st->iterate_snapshots[k]; });
    st->rt.add_dependency(prev, iter_task);
    prev = iter_task;
    st->rt.submit(iter_task);
  }
  st->rt.submit(problem_task);

  // Every block is available from t=0: record arrivals now.
  for (std::size_t b = 0; b < st->n_blocks; ++b) {
    st->stage->record_arrival(b, 0);
  }
}

std::vector<double> FilterPipeline::output() const {
  return st_->stage->concat("FilterPipeline");
}

const stats::BlockTrace& FilterPipeline::trace() const {
  return st_->stage->trace();
}

bool FilterPipeline::speculation_committed() const {
  return st_->stage->speculation_committed();
}

std::uint64_t FilterPipeline::rollbacks() const {
  return st_->stage->rollbacks();
}

const std::vector<double>& FilterPipeline::final_coefficients() const {
  const Coeffs* coeffs = st_->stage->committed();
  if (!coeffs) {
    throw std::logic_error("FilterPipeline: no committed coefficients");
  }
  return *coeffs;
}

void FilterPipeline::validate_complete() const {
  if (!st_->stage->complete()) {
    throw std::logic_error("FilterPipeline: incomplete output");
  }
}

}  // namespace filt
