#include "kmeans/kmeans_pipeline.h"

#include <optional>
#include <stdexcept>

#include "core/speculative_stage.h"
#include "predict/bank.h"
#include "predict/ewma.h"
#include "predict/last_value.h"
#include "predict/stride.h"

namespace km {

using Labels = std::vector<std::uint32_t>;
using Stage = tvs::SpeculativeStage<Centroids, Labels>;

struct KmeansPipeline::State {
  State(sre::Runtime& runtime, const Dataset& d, KmeansPipelineConfig config)
      : rt(runtime), data(d), cfg(std::move(config)) {}

  sre::Runtime& rt;
  const Dataset& data;
  KmeansPipelineConfig cfg;

  std::size_t n_blocks = 0;
  Dataset sample;  ///< training prefix (copy; small)

  Centroids iterate;  ///< mutated by the serial iteration chain only
  std::vector<std::shared_ptr<const Centroids>> snapshots;

  std::unique_ptr<predict::PredictorBank<Centroids>> bank;
  std::unique_ptr<Stage> stage;
};

KmeansPipeline::KmeansPipeline(sre::Runtime& runtime, const Dataset& data,
                               KmeansPipelineConfig config, bool speculation)
    : st_(std::make_shared<State>(runtime, data, std::move(config))) {
  State& st = *st_;
  if (st.data.size() == 0) {
    throw std::invalid_argument("KmeansPipeline: empty dataset");
  }
  if (st.cfg.iterations == 0 || st.cfg.block_points == 0 || st.cfg.k == 0) {
    throw std::invalid_argument("KmeansPipeline: bad config");
  }
  const std::size_t sample_n =
      std::min(st.cfg.sample_points, st.data.size());
  if (sample_n < st.cfg.k) {
    throw std::invalid_argument("KmeansPipeline: sample smaller than k");
  }
  st.sample.dims = st.data.dims;
  st.sample.values.assign(st.data.values.begin(),
                          st.data.values.begin() +
                              static_cast<std::ptrdiff_t>(sample_n * st.data.dims));

  st.n_blocks = (st.data.size() + st.cfg.block_points - 1) / st.cfg.block_points;
  st.snapshots.resize(st.cfg.iterations);

  // State-owned closures hold a raw State*: the stage's tasks pin State.
  if (speculation && st.cfg.spec.predictor == tvs::PredictorMode::Bank) {
    // Score with the pipeline's own tolerance predicate: the fraction of
    // sample points a predicted iterate would assign differently.
    st.bank = std::make_unique<predict::PredictorBank<Centroids>>(
        st.cfg.spec.tolerance,
        [s = &st](const Centroids& pred, const Centroids& actual) {
          return assignment_disagreement(pred, actual, s->sample);
        });
    st.bank->add(std::make_unique<predict::LastValue<Centroids>>());
    st.bank->add(std::make_unique<predict::Stride<Centroids>>());
    st.bank->add(std::make_unique<predict::Ewma<Centroids>>());
    st.bank->set_score_hook(
        [rt = &st.rt](const std::string& name, bool hit, double err) {
          if (sre::Observer* obs = rt->observer()) {
            obs->on_prediction_scored(name, hit, err);
          }
        });
  }

  Stage::Hooks hooks;
  hooks.map = {"label", st.cfg.label_cost_us,
               [s = &st](const Centroids& centroids, std::size_t b) {
                 const std::size_t begin = b * s->cfg.block_points;
                 const std::size_t end =
                     std::min(begin + s->cfg.block_points, s->data.size());
                 return label(centroids, s->data, begin, end);
               }};
  hooks.within_tolerance = [s = &st](const Centroids& guess,
                                     const Centroids& current) {
    return assignment_disagreement(guess, current, s->sample) <=
           s->cfg.spec.tolerance;
  };
  if (st.bank) {
    // The bank sees every iterate (scoring needs the full stream), even the
    // ones the speculator will not consume.
    hooks.observe = [bank = st.bank.get()](std::uint32_t index,
                                           const Centroids& c) {
      bank->observe(index, c);
    };
    hooks.charge_rollback = [bank = st.bank.get()] {
      return bank->charge_rollback();
    };
  }
  st.stage = std::make_unique<Stage>(
      runtime, st.n_blocks,
      speculation ? std::optional(st.cfg.spec) : std::nullopt,
      st.cfg.check_cost_us, st_, std::move(hooks));

  if (st.bank) {
    Stage::PredictorHook hook;
    const auto target = static_cast<std::uint32_t>(st.cfg.iterations);
    hook.confidence = [bank = st.bank.get(), target](std::uint32_t) {
      return bank->confidence(target);
    };
    // Adopt the bank's extrapolation toward the converged centroids
    // instead of the raw early iterate (Stride reaches further down the
    // Lloyd trajectory; the checks still judge it against real iterates).
    hook.refine_guess =
        [bank = st.bank.get(), target](std::uint32_t) -> std::optional<Centroids> {
      return bank->predict(target).guess;
    };
    st.stage->speculator()->set_predictor_hook(std::move(hook));
  }
}

void KmeansPipeline::start() {
  auto st = st_;
  sre::TaskPtr prev;
  for (std::size_t it = 0; it < st->cfg.iterations; ++it) {
    auto iter_task = st->rt.make_task(
        "lloyd[" + std::to_string(it + 1) + "]", sre::TaskClass::Natural,
        sre::kNaturalEpoch, /*depth=*/2, st->cfg.iter_cost_us,
        [st, it](sre::TaskContext&) {
          st->iterate = it == 0 ? lloyd_step(init_centroids(st->sample,
                                                            st->cfg.k),
                                             st->sample)
                                : lloyd_step(st->iterate, st->sample);
          st->snapshots[it] = std::make_shared<const Centroids>(st->iterate);
        });
    st->stage->estimate_on_done(*iter_task, static_cast<std::uint32_t>(it + 1),
                                it + 1 == st->cfg.iterations,
                                [st, it] { return *st->snapshots[it]; });
    if (prev) st->rt.add_dependency(prev, iter_task);
    prev = iter_task;
    st->rt.submit(iter_task);
  }
  for (std::size_t b = 0; b < st->n_blocks; ++b) {
    st->stage->record_arrival(b, 0);
  }
}

std::vector<std::uint32_t> KmeansPipeline::labels() const {
  return st_->stage->concat("KmeansPipeline");
}

const Centroids& KmeansPipeline::committed_centroids() const {
  const Centroids* c = st_->stage->committed();
  if (!c) throw std::logic_error("KmeansPipeline: no committed centroids");
  return *c;
}

const stats::BlockTrace& KmeansPipeline::trace() const {
  return st_->stage->trace();
}

bool KmeansPipeline::speculation_committed() const {
  return st_->stage->speculation_committed();
}

std::uint64_t KmeansPipeline::rollbacks() const {
  return st_->stage->rollbacks();
}

stats::PredictorScoreboard KmeansPipeline::predictor_scoreboard() const {
  return st_->bank ? st_->bank->scoreboard() : stats::PredictorScoreboard{};
}

std::uint64_t KmeansPipeline::gate_denials() const {
  const auto* spec = st_->stage->speculator();
  return spec ? spec->gate_denials() : 0;
}

std::string KmeansPipeline::best_predictor() const {
  return st_->bank ? st_->bank->best_name() : std::string{};
}

void KmeansPipeline::validate_complete() const {
  if (!st_->stage->complete()) {
    throw std::logic_error("KmeansPipeline: incomplete output");
  }
}

}  // namespace km
