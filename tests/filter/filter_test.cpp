// FIR primitives and the iterative Wiener designer (Fig. 1 substrate).
#include <gtest/gtest.h>

#include <cmath>

#include "filter/fir.h"
#include "filter/iterative_design.h"

namespace {

TEST(Fir, IdentityFilterPassesSignalThrough) {
  const std::vector<double> x = {1.0, -2.0, 3.0, 0.5};
  const std::vector<double> c = {1.0};
  EXPECT_EQ(filt::apply_fir(x, c), x);
}

TEST(Fir, DelayFilterShifts) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> c = {0.0, 1.0};  // one-sample delay
  const auto y = filt::apply_fir(x, c);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(Fir, KnownConvolution) {
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const std::vector<double> c = {0.5, 0.5};
  const auto y = filt::apply_fir(x, c);
  EXPECT_DOUBLE_EQ(y[0], 0.5);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 1.0);
}

TEST(Fir, EmptyTapsRejected) {
  const std::vector<double> x = {1.0};
  const std::vector<double> empty;
  EXPECT_THROW(filt::apply_fir(x, empty), std::invalid_argument);
}

TEST(Fir, EnergyAndDiffs) {
  const std::vector<double> a = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(filt::energy(a), 25.0);
  const std::vector<double> b = {3.0, 5.0};
  EXPECT_DOUBLE_EQ(filt::max_abs_diff(a, b), 1.0);
  EXPECT_NEAR(filt::rel_l2_diff(a, b), 1.0 / std::sqrt(34.0), 1e-12);
  const std::vector<double> shorter = {1.0};
  EXPECT_THROW((void)filt::max_abs_diff(a, shorter), std::invalid_argument);
}

TEST(Fir, SignalIsDeterministic) {
  EXPECT_EQ(filt::make_signal(100, 5), filt::make_signal(100, 5));
  EXPECT_NE(filt::make_signal(100, 5), filt::make_signal(100, 6));
}

TEST(IterativeDesign, ProblemEstimationValidates) {
  const auto x = filt::make_signal(1000, 1);
  EXPECT_THROW(filt::estimate_problem(x, x, 0), std::invalid_argument);
  std::vector<double> short_target(10);
  EXPECT_THROW(filt::estimate_problem(x, short_target, 8),
               std::invalid_argument);
}

TEST(IterativeDesign, IteratesConverge) {
  const auto noisy = filt::make_signal(8000, 2, 0.8);
  const auto clean = filt::make_signal(8000, 2, 0.0);
  const auto prob = filt::estimate_problem(noisy, clean, 12);
  const auto profile = filt::convergence_profile(prob, 20);
  ASSERT_EQ(profile.size(), 20u);
  // Distance to the final iterate shrinks (CG may wobble slightly in the
  // L2 norm, so allow a small factor) and reaches machine-level precision
  // once the Krylov space is exhausted (taps = 12 steps).
  for (std::size_t i = 1; i < profile.size(); ++i) {
    EXPECT_LE(profile[i], profile[i - 1] * 1.25 + 1e-9) << i;
  }
  EXPECT_LT(profile[15], 1e-8);
  EXPECT_GT(profile[0], profile[15]);
}

TEST(IterativeDesign, ConvergedSolverIsStationary) {
  const auto noisy = filt::make_signal(4000, 3, 0.5);
  const auto clean = filt::make_signal(4000, 3, 0.0);
  const auto prob = filt::estimate_problem(noisy, clean, 8);
  filt::IterativeSolver solver(prob);
  for (int i = 0; i < 50; ++i) solver.step();
  EXPECT_LT(solver.residual_norm(), 1e-8);
  const auto c = solver.current();
  solver.step();
  EXPECT_LT(filt::rel_l2_diff(solver.current(), c), 1e-10);
  EXPECT_EQ(solver.steps_taken(), 51u);
}

TEST(IterativeDesign, SolutionSolvesNormalEquations) {
  const auto noisy = filt::make_signal(4000, 5, 0.5);
  const auto clean = filt::make_signal(4000, 5, 0.0);
  const auto prob = filt::estimate_problem(noisy, clean, 10);
  const auto c = filt::solve(prob, 40);
  const auto rc = prob.apply(c);
  for (std::size_t i = 0; i < prob.taps; ++i) {
    EXPECT_NEAR(rc[i], prob.crosscorr[i], 1e-8) << i;
  }
}

TEST(IterativeDesign, FilteringWithSolvedTapsReducesNoise) {
  // Wiener-ish sanity: filtering the noisy signal with the designed taps
  // should land closer to the clean target than the raw noisy signal is.
  const auto clean = filt::make_signal(16000, 4, 0.0);
  const auto noisy = filt::make_signal(16000, 4, 0.9);
  const auto prob = filt::estimate_problem(noisy, clean, 24);
  const auto taps = filt::solve(prob, 40);
  const auto filtered = filt::apply_fir(noisy, taps);

  double err_raw = 0.0;
  double err_filtered = 0.0;
  for (std::size_t i = 100; i < clean.size(); ++i) {
    err_raw += (noisy[i] - clean[i]) * (noisy[i] - clean[i]);
    err_filtered += (filtered[i] - clean[i]) * (filtered[i] - clean[i]);
  }
  EXPECT_LT(err_filtered, err_raw * 0.7);
}

}  // namespace
