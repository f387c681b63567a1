// The adaptive control plane wired into a live SessionManager: the control
// thread samples real serving metrics and its decisions land on the live
// AdmissionController and on running sessions' Speculators. The decision
// *logic* (bands, dwell, bounds) is pinned in tests/control; these tests
// pin the plumbing — signals in, retunes out, nothing moving when disabled.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "metrics/registry.h"
#include "pipeline/driver.h"
#include "pipeline/run_config.h"
#include "serve/session_manager.h"

namespace {

using serve::SessionConfig;
using serve::SessionManager;

SessionConfig spec_session(std::uint64_t seed) {
  SessionConfig sc;
  sc.run = pipeline::RunConfig::x86_disk(wl::FileKind::Txt,
                                         sre::DispatchPolicy::Balanced);
  sc.run.bytes = 256 * 1024;
  sc.run.seed = seed;
  return sc;
}

TEST(ControlIntegration, DisabledControllerReportsStaticBaselines) {
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_concurrent = 3;
  cfg.shed.queue_capacity = {8, 8, 5};
  SessionManager mgr(cfg);
  const auto id = mgr.submit(spec_session(1)).id;
  EXPECT_NE(mgr.wait(id), nullptr);
  mgr.drain();

  const auto cs = mgr.control_status();
  EXPECT_EQ(cs.max_concurrent, 3u);
  EXPECT_EQ(cs.max_concurrent_peak, 3u);
  EXPECT_EQ(cs.bulk_queue_cap, 5u);
  EXPECT_EQ(cs.admission_retunes, 0u);
  EXPECT_EQ(cs.spec_retunes, 0u);
  EXPECT_EQ(mgr.stats(id).control.spec_retunes, 0u);
}

TEST(ControlIntegration, SpecRetunesReachRunningSessions) {
  metrics::Registry reg;
  serve::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.max_concurrent = 2;
  cfg.registry = &reg;
  cfg.control.enabled = true;
  cfg.control.interval_us = 2'000;
  cfg.control.min_dwell_us = 4'000;
  // Force the tighten edge: any rollback rate (including a quiet 0) reads
  // as "high", so every dwell-expiry tick must retune whatever is running.
  cfg.control.rollback_rate_high = -1.0;
  cfg.control.rollback_rate_low = -2.0;
  SessionManager mgr(cfg);

  std::vector<serve::SessionId> ids;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto out = mgr.submit(spec_session(seed));
    ASSERT_TRUE(out.accepted);
    ids.push_back(out.id);
  }
  for (const auto id : ids) {
    const pipeline::RunResult* r = mgr.wait(id);
    ASSERT_NE(r, nullptr);
    pipeline::verify_roundtrip(*r);
  }
  mgr.drain();

  const auto cs = mgr.control_status();
  EXPECT_GT(cs.spec_retunes, 0u) << "ticks landed while sessions ran";
  std::uint64_t tuned_sessions = 0;
  for (const auto id : ids) {
    const auto st = mgr.stats(id);
    if (st.control.spec_retunes == 0) continue;
    ++tuned_sessions;
    // A tightened session's decisions are visible in its stats.
    EXPECT_GT(st.control.restart_min_defer, 0u) << "id=" << id;
    EXPECT_GE(st.control.step_size, spec_session(id).run.spec.step_size)
        << "id=" << id;
  }
  EXPECT_GT(tuned_sessions, 0u);
  // Decisions are attributed through the metrics path too.
  EXPECT_GT(reg.counter_sum("serve_control_retunes_total"), 0.0);
}

TEST(ControlIntegration, QueuePressureWidensTheConcurrencyWindow) {
  serve::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.max_concurrent = 1;  // a deliberately undersized window...
  cfg.control.enabled = true;
  cfg.control.interval_us = 2'000;
  cfg.control.min_dwell_us = 4'000;
  cfg.control.wait_high_us = 1'000;  // ...so queue waits cross the band fast
  cfg.control.wait_low_us = 100;
  cfg.control.concurrent_max = 4;
  SessionManager mgr(cfg);  // no registry: the owned-registry fallback path

  std::vector<serve::SessionId> ids;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SessionConfig sc = spec_session(seed);
    sc.priority = serve::Priority::Interactive;  // the wait signal's class
    const auto out = mgr.submit(std::move(sc));
    ASSERT_TRUE(out.accepted);
    ids.push_back(out.id);
  }
  for (const auto id : ids) EXPECT_NE(mgr.wait(id), nullptr);
  mgr.drain();

  const auto cs = mgr.control_status();
  EXPECT_GT(cs.admission_retunes, 0u) << "queue wait never tripped the band";
  // Once the queue empties the wait signal drops below the band and the
  // controller may reclaim the window before drain() stops it, so the
  // widening shows in the peak, not necessarily in the final value.
  EXPECT_GT(cs.max_concurrent_peak, 1u) << "the window should have widened";
  EXPECT_LE(cs.max_concurrent_peak, cfg.control.concurrent_max);
  EXPECT_GE(cs.max_concurrent, 1u);
  EXPECT_LE(cs.max_concurrent, cs.max_concurrent_peak);
}

TEST(ControlIntegration, ControlThreadSurvivesAnIdleService) {
  // No sessions at all: ticks fire on an empty service and must neither
  // crash, deadlock, nor invent retunes from all-zero signals.
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.control.enabled = true;
  cfg.control.interval_us = 1'000;
  SessionManager mgr(cfg);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mgr.drain();
  const auto cs = mgr.control_status();
  EXPECT_EQ(cs.spec_retunes, 0u);
  EXPECT_EQ(cs.admission_retunes, 0u);
}

}  // namespace
