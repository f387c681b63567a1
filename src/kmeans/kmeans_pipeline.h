// KmeansPipeline: speculative clustering — the third pipeline built on the
// tvs:: speculation layer.
//
// Natural path: a serial chain of Lloyd iterations over a training sample
// refines the centroids; the final centroids configure a parallel labelling
// pass over every data block. Speculative path: an early iterate's
// centroids are adopted as the guess; labelling starts immediately under an
// epoch; checks compare the guess against newer iterates with the
// *assignment disagreement* tolerance (fraction of sample points that would
// switch clusters) — a semantic check in the paper's sense.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "kmeans/kmeans.h"
#include "predict/predictor.h"
#include "sre/runtime.h"
#include "stats/predictor_stats.h"
#include "stats/trace.h"

namespace predict {

/// Flat view of centroids so the generic predictors (LastValue, Stride,
/// Ewma) can extrapolate Lloyd iterates per coordinate.
template <>
struct ValueTraits<km::Centroids> {
  static void flatten(const km::Centroids& c, std::vector<double>& out) {
    out = c.values;
  }
  [[nodiscard]] static km::Centroids unflatten(const km::Centroids& like,
                                               std::span<const double> flat) {
    km::Centroids c;
    c.dims = like.dims;
    c.values.assign(flat.begin(), flat.end());
    return c;
  }
};

}  // namespace predict

namespace km {

struct KmeansPipelineConfig {
  std::size_t k = 8;
  std::size_t iterations = 15;
  std::size_t sample_points = 2048;  ///< training sample = first N points
  std::size_t block_points = 4096;   ///< labelling granularity
  tvs::SpecConfig spec;  ///< tolerance = max assignment disagreement
  std::uint64_t iter_cost_us = 600;
  std::uint64_t label_cost_us = 350;
  std::uint64_t check_cost_us = 40;
};

class KmeansPipeline {
 public:
  /// `data` must outlive the run.
  KmeansPipeline(sre::Runtime& runtime, const Dataset& data,
                 KmeansPipelineConfig config, bool speculation);

  /// Submits the iteration chain; all data blocks are available from t=0.
  void start();

  // --- Results (valid after the executor run) ------------------------------

  /// Per-point cluster labels, assembled from committed blocks.
  [[nodiscard]] std::vector<std::uint32_t> labels() const;

  /// The centroids the committed labelling used.
  [[nodiscard]] const Centroids& committed_centroids() const;

  [[nodiscard]] const stats::BlockTrace& trace() const;
  [[nodiscard]] bool speculation_committed() const;
  [[nodiscard]] std::uint64_t rollbacks() const;
  void validate_complete() const;

  /// Per-predictor accuracy counters (empty under PredictorMode::Baseline).
  [[nodiscard]] stats::PredictorScoreboard predictor_scoreboard() const;

  /// Epoch-opens withheld by the confidence gate (0 without a gate).
  [[nodiscard]] std::uint64_t gate_denials() const;

  /// Name of the bank's current best predictor ("" under Baseline).
  [[nodiscard]] std::string best_predictor() const;

 private:
  struct State;

  std::shared_ptr<State> st_;
};

}  // namespace km
