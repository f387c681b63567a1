#include "anneal/anneal_pipeline.h"

#include <optional>
#include <stdexcept>

#include "core/speculative_stage.h"

namespace ann {
namespace {

/// The speculated value: a tour snapshot plus its cost (the tolerance
/// quantity, precomputed by the sweep task).
struct TourEstimate {
  std::shared_ptr<const Tour> tour;
  double cost = 0.0;
};

}  // namespace

using Matches = std::vector<std::uint32_t>;
using Stage = tvs::SpeculativeStage<TourEstimate, Matches>;

struct AnnealPipeline::State {
  State(sre::Runtime& runtime, const Cities& c,
        const std::vector<double>& queries, AnnealPipelineConfig config)
      : rt(runtime), cities(c), query_xy(queries), cfg(std::move(config)) {}

  sre::Runtime& rt;
  const Cities& cities;
  const std::vector<double>& query_xy;
  AnnealPipelineConfig cfg;

  std::size_t n_points = 0;
  std::size_t n_blocks = 0;

  std::unique_ptr<Annealer> solver;  ///< driven by the serial sweep chain
  std::vector<TourEstimate> snapshots;

  std::unique_ptr<Stage> stage;
};

AnnealPipeline::AnnealPipeline(sre::Runtime& runtime, const Cities& cities,
                               const std::vector<double>& query_xy,
                               AnnealPipelineConfig config, bool speculation)
    : st_(std::make_shared<State>(runtime, cities, query_xy,
                                  std::move(config))) {
  State& st = *st_;
  if (st.query_xy.empty() || st.query_xy.size() % 2 != 0) {
    throw std::invalid_argument("AnnealPipeline: bad query points");
  }
  if (st.cfg.sweeps == 0 || st.cfg.block_points == 0) {
    throw std::invalid_argument("AnnealPipeline: bad config");
  }
  st.n_points = st.query_xy.size() / 2;
  st.n_blocks = (st.n_points + st.cfg.block_points - 1) / st.cfg.block_points;
  st.snapshots.resize(st.cfg.sweeps);
  st.solver = std::make_unique<Annealer>(st.cities, st.cfg.solver_seed);

  // State-owned closures hold a raw State*: the stage's tasks pin State.
  Stage::Hooks hooks;
  hooks.map = {"match", st.cfg.match_cost_us,
               [s = &st](const TourEstimate& tour, std::size_t b) {
                 const std::size_t begin = b * s->cfg.block_points;
                 const std::size_t end =
                     std::min(begin + s->cfg.block_points, s->n_points);
                 return match_points(s->cities, *tour.tour, s->query_xy, begin,
                                     end);
               }};
  hooks.within_tolerance = [s = &st](const TourEstimate& guess,
                                     const TourEstimate& cur) {
    // Semantic check: re-match a sample of query points under both tours
    // and compare the matched edges as unordered city pairs. This bounds
    // the consumer-visible error directly (see the header comment for why
    // a tour-cost tolerance would not).
    const std::size_t sample = std::min(s->cfg.check_sample, s->n_points);
    if (sample == 0) return true;
    const auto a = match_points(s->cities, *guess.tour, s->query_xy, 0, sample);
    const auto b = match_points(s->cities, *cur.tour, s->query_xy, 0, sample);
    const auto edge_cities = [](const Tour& t, std::uint32_t e) {
      const std::size_t n = t.order.size();
      std::uint32_t u = t.order[e];
      std::uint32_t v = t.order[(e + 1) % n];
      if (u > v) std::swap(u, v);
      return std::pair{u, v};
    };
    std::size_t differ = 0;
    for (std::size_t i = 0; i < sample; ++i) {
      if (edge_cities(*guess.tour, a[i]) != edge_cities(*cur.tour, b[i])) {
        ++differ;
      }
    }
    return static_cast<double>(differ) <=
           s->cfg.spec.tolerance * static_cast<double>(sample);
  };
  st.stage = std::make_unique<Stage>(
      runtime, st.n_blocks,
      speculation ? std::optional(st.cfg.spec) : std::nullopt,
      st.cfg.check_cost_us, st_, std::move(hooks));
}

void AnnealPipeline::start() {
  auto st = st_;
  sre::TaskPtr prev;
  for (std::size_t s = 0; s < st->cfg.sweeps; ++s) {
    auto sweep_task = st->rt.make_task(
        "sweep[" + std::to_string(s + 1) + "]", sre::TaskClass::Natural,
        sre::kNaturalEpoch, /*depth=*/2, st->cfg.sweep_cost_us,
        [st, s](sre::TaskContext&) {
          const double cost = st->solver->sweep();
          st->snapshots[s] = TourEstimate{
              std::make_shared<const Tour>(st->solver->current()), cost};
        });
    st->stage->estimate_on_done(*sweep_task, static_cast<std::uint32_t>(s + 1),
                                s + 1 == st->cfg.sweeps,
                                [st, s] { return st->snapshots[s]; });
    if (prev) st->rt.add_dependency(prev, sweep_task);
    prev = sweep_task;
    st->rt.submit(sweep_task);
  }
  for (std::size_t b = 0; b < st->n_blocks; ++b) {
    st->stage->record_arrival(b, 0);
  }
}

std::vector<std::uint32_t> AnnealPipeline::matches() const {
  return st_->stage->concat("AnnealPipeline");
}

const Tour& AnnealPipeline::committed_tour() const {
  const TourEstimate* t = st_->stage->committed();
  if (!t) throw std::logic_error("AnnealPipeline: no committed tour");
  return *t->tour;
}

const stats::BlockTrace& AnnealPipeline::trace() const {
  return st_->stage->trace();
}

bool AnnealPipeline::speculation_committed() const {
  return st_->stage->speculation_committed();
}

std::uint64_t AnnealPipeline::rollbacks() const {
  return st_->stage->rollbacks();
}

void AnnealPipeline::validate_complete() const {
  if (!st_->stage->complete()) {
    throw std::logic_error("AnnealPipeline: incomplete output");
  }
}

}  // namespace ann
