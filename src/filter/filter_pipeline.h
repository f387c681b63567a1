// FilterPipeline: the paper's Fig. 1 DFG — an iterative coefficient solver
// feeding a parallel filtering phase — with tolerant value speculation on
// the coefficients.
//
// Natural path: iteration steps run serially; the final iterate configures
// the filtering of every data block. Speculative path: an early iterate is
// adopted as the coefficient guess, filtering starts immediately under an
// epoch, filtered blocks wait at the buffer, and checks compare the guess
// with newer iterates (relative L2 on the coefficient vector). This is the
// second pipeline built on the tvs:: core and demonstrates that the
// speculation layer is not Huffman-specific.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "sre/runtime.h"
#include "stats/trace.h"

namespace filt {

struct FilterPipelineConfig {
  std::size_t taps = 16;
  std::size_t iterations = 12;
  std::size_t block_samples = 4096;
  tvs::SpecConfig spec;      ///< tolerance interpreted as relative L2
  std::uint64_t problem_cost_us = 400;
  std::uint64_t iter_cost_us = 500;
  std::uint64_t filter_cost_us = 300;
  std::uint64_t check_cost_us = 10;
};

class FilterPipeline {
 public:
  /// `input` and `target` must outlive the run and have equal length.
  /// Speculation is active iff the runtime's policy allows speculative tasks.
  FilterPipeline(sre::Runtime& runtime, const std::vector<double>& input,
                 const std::vector<double>& target,
                 FilterPipelineConfig config, bool speculation);

  /// Submits the problem-estimation task and the iteration chain. Block data
  /// is considered available from the start (the serial solver is the
  /// bottleneck, not I/O).
  void start();

  // --- Results (valid after the executor run) ------------------------------

  /// The filtered signal, assembled from committed blocks.
  [[nodiscard]] std::vector<double> output() const;

  [[nodiscard]] const stats::BlockTrace& trace() const;
  [[nodiscard]] bool speculation_committed() const;
  [[nodiscard]] std::uint64_t rollbacks() const;
  [[nodiscard]] const std::vector<double>& final_coefficients() const;

  void validate_complete() const;

 private:
  struct State;

  std::shared_ptr<State> st_;
};

}  // namespace filt
