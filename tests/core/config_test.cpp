#include "core/config.h"

#include <gtest/gtest.h>

namespace {

using tvs::SpecConfig;
using tvs::VerificationPolicy;
using tvs::VerifyMode;

TEST(VerificationPolicy, EveryKthChecksMultiples) {
  const auto p = VerificationPolicy::every_kth(8);
  EXPECT_FALSE(p.should_check(1, false));
  EXPECT_FALSE(p.should_check(7, false));
  EXPECT_TRUE(p.should_check(8, false));
  EXPECT_FALSE(p.should_check(9, false));
  EXPECT_TRUE(p.should_check(16, false));
  EXPECT_TRUE(p.should_check(3, true)) << "the final estimate always checks";
}

TEST(VerificationPolicy, OptimisticOnlyChecksFinal) {
  const auto p = VerificationPolicy::optimistic();
  for (std::uint32_t k = 1; k < 100; ++k) {
    EXPECT_FALSE(p.should_check(k, false));
  }
  EXPECT_TRUE(p.should_check(100, true));
}

TEST(VerificationPolicy, FullChecksEverything) {
  const auto p = VerificationPolicy::full();
  EXPECT_TRUE(p.should_check(1, false));
  EXPECT_TRUE(p.should_check(2, false));
  EXPECT_TRUE(p.should_check(3, true));
}

TEST(SpecConfig, StepSizeGatesSpeculation) {
  SpecConfig c;
  c.step_size = 4;
  EXPECT_FALSE(c.should_speculate(1));
  EXPECT_FALSE(c.should_speculate(3));
  EXPECT_TRUE(c.should_speculate(4));
  EXPECT_FALSE(c.should_speculate(6));
  EXPECT_TRUE(c.should_speculate(8));
}

// Regression: index 0 satisfies `0 % step == 0` for every step size, so the
// old predicate speculated on an estimate stream position that does not
// exist (estimate indices are 1-based; see Speculator). Index 0 must be
// refused at every step size, while real step boundaries stay accepted.
TEST(SpecConfig, IndexZeroNeverSpeculates) {
  for (std::uint32_t step : {1u, 2u, 4u, 8u, 1000u}) {
    SpecConfig c;
    c.step_size = step;
    EXPECT_FALSE(c.should_speculate(0)) << "step=" << step;
    EXPECT_TRUE(c.should_speculate(step)) << "step=" << step;
  }
}

TEST(SpecConfig, StepBoundariesAreExact) {
  SpecConfig c;
  c.step_size = 8;
  EXPECT_FALSE(c.should_speculate(0));
  EXPECT_FALSE(c.should_speculate(7));
  EXPECT_TRUE(c.should_speculate(8));
  EXPECT_FALSE(c.should_speculate(9));
  EXPECT_FALSE(c.should_speculate(15));
  EXPECT_TRUE(c.should_speculate(16));
  // Large indices: the predicate is pure modular arithmetic, no overflow.
  EXPECT_TRUE(c.should_speculate(4'000'000'000u - (4'000'000'000u % 8)));
}

TEST(SpecConfig, StepOneAcceptsEveryPositiveIndex) {
  SpecConfig c;  // step_size == 1
  EXPECT_FALSE(c.should_speculate(0));
  EXPECT_TRUE(c.should_speculate(1));
  EXPECT_TRUE(c.should_speculate(2));
}

TEST(SpecConfig, ZeroStepDisablesSpeculation) {
  SpecConfig c;
  c.step_size = 0;
  EXPECT_FALSE(c.speculation_enabled());
  EXPECT_FALSE(c.should_speculate(1));
  EXPECT_FALSE(c.should_speculate(100));
}

TEST(SpecConfig, DefaultsMatchThePaperBaseline) {
  const SpecConfig c;
  EXPECT_EQ(c.step_size, 1u);
  EXPECT_EQ(c.verify.mode, VerifyMode::EveryKth);
  EXPECT_EQ(c.verify.every, 8u);  // "every eighth result of a reduce task"
  EXPECT_DOUBLE_EQ(c.tolerance, 0.01);  // "a tolerance margin of 1%"
}

TEST(SpecConfig, ToStringIsInformative) {
  SpecConfig c;
  c.step_size = 4;
  c.tolerance = 0.02;
  const auto s = c.to_string();
  EXPECT_NE(s.find("step=4"), std::string::npos);
  EXPECT_NE(s.find("2%"), std::string::npos);
  EXPECT_NE(s.find("every-kth(8)"), std::string::npos);
}

TEST(SpecConfig, ToStringShowsRestartTuning) {
  SpecConfig c;
  c.adaptive_restart = true;
  EXPECT_NE(c.to_string().find("adaptive"), std::string::npos);
  EXPECT_EQ(SpecConfig{}.to_string().find("adaptive"), std::string::npos);
}

}  // namespace
