// Control-plane decision logic: the no-flap contract (hysteresis band,
// min-dwell, bounds) on the generic Knob, and the two tuners' feedback
// polarity. Pure logic — no threads, no clocks beyond the now_us argument.
#include "control/controller.h"

#include <gtest/gtest.h>

namespace {

using control::Action;
using control::AdmissionLimits;
using control::AdmissionTuner;
using control::classify;
using control::ControlConfig;
using control::Controller;
using control::Knob;
using control::SpecTuner;

ControlConfig fast_cfg() {
  ControlConfig cfg;
  cfg.enabled = true;
  cfg.interval_us = 1'000;
  cfg.min_dwell_us = 10'000;
  return cfg;
}

// --- classify / hysteresis -------------------------------------------------

TEST(Classify, BandEdgesHold) {
  EXPECT_EQ(classify(5.0, 1.0, 4.0), 1);
  EXPECT_EQ(classify(0.5, 1.0, 4.0), -1);
  EXPECT_EQ(classify(2.0, 1.0, 4.0), 0);
  // The edges themselves are inside the band: approaching from either side
  // and settling exactly on an edge produces zero movement.
  EXPECT_EQ(classify(4.0, 1.0, 4.0), 0);
  EXPECT_EQ(classify(1.0, 1.0, 4.0), 0);
}

// --- Knob ------------------------------------------------------------------

TEST(KnobTest, RaiseAndLowerRespectBounds) {
  Knob k(2.0, 1.0, 3.0, 1.0);
  EXPECT_TRUE(k.raise(0, 0));
  EXPECT_DOUBLE_EQ(k.value(), 3.0);
  EXPECT_FALSE(k.raise(100, 0)) << "saturated at hi: no wind-up";
  EXPECT_DOUBLE_EQ(k.value(), 3.0);
  EXPECT_TRUE(k.lower(200, 0));
  EXPECT_TRUE(k.lower(300, 0));
  EXPECT_DOUBLE_EQ(k.value(), 1.0);
  EXPECT_FALSE(k.lower(400, 0)) << "saturated at lo";
  EXPECT_EQ(k.moves(), 3u);
}

TEST(KnobTest, InitialValueIsClamped) {
  EXPECT_DOUBLE_EQ(Knob(9.0, 1.0, 3.0, 1.0).value(), 3.0);
  EXPECT_DOUBLE_EQ(Knob(0.0, 1.0, 3.0, 1.0).value(), 1.0);
}

TEST(KnobTest, MinDwellFreezesAfterAMove) {
  Knob k(0.0, 0.0, 10.0, 1.0);
  EXPECT_TRUE(k.raise(1'000, 5'000));
  EXPECT_FALSE(k.raise(2'000, 5'000)) << "frozen inside the dwell";
  EXPECT_FALSE(k.lower(5'999, 5'000)) << "freeze applies in both directions";
  EXPECT_TRUE(k.raise(6'000, 5'000)) << "dwell elapsed";
  EXPECT_EQ(k.moves(), 2u);
}

TEST(KnobTest, BlockedMoveDoesNotResetTheDwellClock) {
  Knob k(0.0, 0.0, 10.0, 1.0);
  EXPECT_TRUE(k.raise(0, 5'000));
  // Hammer it throughout the freeze; the clock must still expire at 5000.
  for (std::uint64_t t = 1; t < 5'000; t += 500) EXPECT_FALSE(k.raise(t, 5'000));
  EXPECT_TRUE(k.raise(5'000, 5'000));
}

TEST(KnobTest, FirstMoveNeedsNoDwell) {
  Knob k(0.0, 0.0, 10.0, 1.0);
  EXPECT_TRUE(k.raise(0, 1'000'000)) << "dwell only gates moves after a move";
}

TEST(KnobTest, OscillatingInputMovesAtMostOncePerDwell) {
  // The no-flap property, stated directly: a signal crossing the whole band
  // every sample moves the knob at most once per dwell period, never once
  // per sample.
  Knob k(5.0, 0.0, 10.0, 1.0);
  const std::uint64_t dwell = 10'000;
  std::uint64_t moves = 0;
  for (std::uint64_t t = 0; t < 100'000; t += 1'000) {
    const bool up = (t / 1'000) % 2 == 0;
    if (up ? k.raise(t, dwell) : k.lower(t, dwell)) ++moves;
  }
  EXPECT_LE(moves, 100'000 / dwell + 1);
  EXPECT_EQ(moves, k.moves());
}

// --- SpecTuner -------------------------------------------------------------

TEST(SpecTunerTest, HoldsInsideTheBand) {
  SpecTuner t(fast_cfg(), 4);
  EXPECT_TRUE(t.sample(2.0, 0).empty());
  EXPECT_TRUE(t.sample(2.0, 100'000).empty());
  EXPECT_FALSE(t.tightened());
  EXPECT_EQ(t.retunes(), 0u);
}

TEST(SpecTunerTest, HighRollbackRateTightensBothKnobs) {
  const auto cfg = fast_cfg();
  SpecTuner t(cfg, 4);
  const auto actions = t.sample(10.0, 0);
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_STREQ(actions[0].knob, "restart_min_defer");
  EXPECT_STREQ(actions[1].knob, "step_size");
  for (const Action& a : actions) {
    EXPECT_EQ(a.direction, 1);
    EXPECT_STREQ(a.reason, "rollback_rate_high");
  }
  EXPECT_EQ(t.restart_min_defer(), cfg.defer_step);
  EXPECT_EQ(t.step_size(), 8u) << "step stretches by one base step";
  EXPECT_TRUE(t.tightened());
  EXPECT_EQ(t.retunes(), 1u);
}

TEST(SpecTunerTest, LowRateRelaxesBackToBaselineAndStops) {
  const auto cfg = fast_cfg();
  SpecTuner t(cfg, 3);
  ASSERT_FALSE(t.sample(10.0, 0).empty());
  ASSERT_EQ(t.step_size(), 6u);
  // Relax one step per dwell until every knob is back at its baseline.
  std::uint64_t now = cfg.min_dwell_us;
  while (!t.sample(0.0, now).empty()) now += cfg.min_dwell_us;
  EXPECT_EQ(t.restart_min_defer(), 0u);
  EXPECT_EQ(t.step_size(), 3u) << "the configured base step, not the floor";
  EXPECT_FALSE(t.tightened());
  // A persistently quiet signal never pushes any knob below its baseline.
  EXPECT_TRUE(t.sample(0.0, now + 10 * cfg.min_dwell_us).empty());
}

TEST(SpecTunerTest, DwellFreezesBetweenSamples) {
  const auto cfg = fast_cfg();
  SpecTuner t(cfg, 4);
  EXPECT_EQ(t.sample(10.0, 0).size(), 2u);
  EXPECT_TRUE(t.sample(10.0, cfg.interval_us).empty()) << "inside the dwell";
  EXPECT_EQ(t.sample(10.0, cfg.min_dwell_us).size(), 2u);
  EXPECT_EQ(t.retunes(), 2u);
}

TEST(SpecTunerTest, KnobsSaturateAtTheirCeilings) {
  const auto cfg = fast_cfg();
  SpecTuner t(cfg, 2);
  std::uint64_t now = 0;
  for (int i = 0; i < 100; ++i, now += cfg.min_dwell_us) t.sample(100.0, now);
  EXPECT_EQ(t.restart_min_defer(), cfg.defer_max);
  EXPECT_EQ(t.step_size(), 2 * cfg.step_max_mult);
  EXPECT_TRUE(t.sample(100.0, now).empty()) << "saturated: no wind-up";
}

// --- AdmissionTuner --------------------------------------------------------

TEST(AdmissionTunerTest, WaitSignalDrivesTheConcurrencyWindow) {
  const auto cfg = fast_cfg();
  AdmissionTuner t(cfg, {.max_concurrent = 4, .bulk_queue_cap = 64});
  auto acts = t.sample(cfg.wait_high_us * 2, 0.0, 0);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_STREQ(acts[0].knob, "max_concurrent");
  EXPECT_EQ(acts[0].direction, 1);
  EXPECT_STREQ(acts[0].reason, "wait_high");
  EXPECT_EQ(t.limits().max_concurrent, 5u);

  acts = t.sample(0.0, 0.0, cfg.min_dwell_us);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].direction, -1);
  EXPECT_STREQ(acts[0].reason, "wait_low");
  EXPECT_EQ(t.limits().max_concurrent, 4u);
  // The configured baseline is the floor — quiet periods never shrink the
  // window below what the operator asked for.
  EXPECT_TRUE(t.sample(0.0, 0.0, 10 * cfg.min_dwell_us).empty());
}

TEST(AdmissionTunerTest, DeadlineShedsShrinkBulkQueueTowardTheFloor) {
  const auto cfg = fast_cfg();
  AdmissionTuner t(cfg, {.max_concurrent = 4, .bulk_queue_cap = 64});
  auto acts = t.sample(cfg.wait_low_us, 10.0, 0);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_STREQ(acts[0].knob, "bulk_queue_cap");
  EXPECT_EQ(acts[0].direction, 1) << "+1 = tightened (the cap shrank)";
  EXPECT_STREQ(acts[0].reason, "shed_rate_high");
  EXPECT_EQ(t.limits().bulk_queue_cap, 48u) << "one quarter per move";

  std::uint64_t now = cfg.min_dwell_us;
  for (int i = 0; i < 100; ++i, now += cfg.min_dwell_us)
    t.sample(cfg.wait_low_us, 10.0, now);
  EXPECT_EQ(t.limits().bulk_queue_cap, cfg.bulk_queue_min) << "floored";

  // Recovery regrows it to the configured cap, never beyond.
  for (int i = 0; i < 100; ++i, now += cfg.min_dwell_us)
    t.sample(cfg.wait_low_us, 0.0, now);
  EXPECT_EQ(t.limits().bulk_queue_cap, 64u);
}

TEST(AdmissionTunerTest, ConcurrencySaturatesAtConfiguredMax) {
  const auto cfg = fast_cfg();
  AdmissionTuner t(cfg, {.max_concurrent = 4, .bulk_queue_cap = 64});
  std::uint64_t now = 0;
  for (int i = 0; i < 100; ++i, now += cfg.min_dwell_us)
    t.sample(1e9, 0.0, now);
  EXPECT_EQ(t.limits().max_concurrent, cfg.concurrent_max);
}

TEST(AdmissionTunerTest, TwoLoopsAreIndependent) {
  const auto cfg = fast_cfg();
  AdmissionTuner t(cfg, {.max_concurrent = 4, .bulk_queue_cap = 64});
  const auto acts = t.sample(cfg.wait_high_us * 2, 10.0, 0);
  ASSERT_EQ(acts.size(), 2u) << "both loops may move on one sample";
  EXPECT_STREQ(acts[0].knob, "max_concurrent");
  EXPECT_STREQ(acts[1].knob, "bulk_queue_cap");
  EXPECT_EQ(t.retunes(), 1u) << "one retune event, two movements";
}

// --- Controller ------------------------------------------------------------

TEST(ControllerTest, StreamsAreCreatedOnFirstUseAndDroppable) {
  Controller c(fast_cfg(), {.max_concurrent = 4, .bulk_queue_cap = 64});
  SpecTuner& a = c.stream(1, 4);
  SpecTuner& b = c.stream(2, 8);
  EXPECT_EQ(c.streams(), 2u);
  EXPECT_EQ(&c.stream(1, 16), &a) << "baseline ignored on reuse";
  EXPECT_EQ(a.step_size(), 4u);
  EXPECT_EQ(b.step_size(), 8u);
  c.drop_stream(1);
  EXPECT_EQ(c.streams(), 1u);
  c.drop_stream(42);  // unknown ids are a no-op
  EXPECT_EQ(c.streams(), 1u);
}

TEST(ControllerTest, StreamsTuneIndependently) {
  Controller c(fast_cfg(), {.max_concurrent = 4, .bulk_queue_cap = 64});
  c.stream(1, 4).sample(100.0, 0);
  EXPECT_TRUE(c.stream(1, 4).tightened());
  EXPECT_FALSE(c.stream(2, 4).tightened())
      << "stream 2's knobs must not move on stream 1's signal";
}

}  // namespace
