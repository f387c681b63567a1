// AnnealPipeline: speculative route matching on an annealing solver — the
// fourth pipeline on the tvs:: layer, chosen to stress the rollback path.
//
// Natural path: a serial chain of annealing sweeps refines a TSP tour; the
// final tour configures a parallel pass that map-matches a large set of
// query points onto tour edges. Speculative path: an early sweep's tour is
// adopted and matching starts immediately.
//
// The check is *semantic*, in the consumer's units: re-match a small sample
// of query points under both tours and compare the matched edges (as
// unordered city pairs) — the tolerance bounds the fraction of deliveries
// that would land on a different route segment. (A tour-cost tolerance is
// tempting but wrong: two tours within 15 % cost can route almost every
// point differently — exactly the trap the paper's "programmer defines
// comparison criteria" guidance exists to avoid.) Because annealing keeps
// rearranging the tour long after the first sweeps, tight tolerances
// trigger *repeated* rollback → re-speculate cycles, unlike the monotone
// CG/Lloyd scenarios.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "anneal/tsp.h"
#include "core/config.h"
#include "sre/runtime.h"
#include "stats/trace.h"

namespace ann {

struct AnnealPipelineConfig {
  std::size_t sweeps = 24;
  std::size_t block_points = 512;  ///< matching granularity
  std::uint64_t solver_seed = 1;
  /// spec.tolerance = max fraction of the check sample whose matched edge
  /// may differ between the guessed and the current tour.
  tvs::SpecConfig spec;
  std::size_t check_sample = 256;  ///< query points re-matched per check
  std::uint64_t sweep_cost_us = 700;
  std::uint64_t match_cost_us = 400;
  std::uint64_t check_cost_us = 60;  ///< checks re-match a sample: pricier
};

class AnnealPipeline {
 public:
  /// `cities` and `query_xy` must outlive the run.
  AnnealPipeline(sre::Runtime& runtime, const Cities& cities,
                 const std::vector<double>& query_xy,
                 AnnealPipelineConfig config, bool speculation);

  void start();

  // --- Results --------------------------------------------------------

  [[nodiscard]] std::vector<std::uint32_t> matches() const;
  [[nodiscard]] const Tour& committed_tour() const;
  [[nodiscard]] const stats::BlockTrace& trace() const;
  [[nodiscard]] bool speculation_committed() const;
  [[nodiscard]] std::uint64_t rollbacks() const;
  void validate_complete() const;

 private:
  struct State;

  std::shared_ptr<State> st_;
};

}  // namespace ann
