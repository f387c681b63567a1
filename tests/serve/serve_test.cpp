// Serving layer: admission control, shed policy, lifecycle and the
// concurrent-vs-sequential identity guarantee.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "huffman/stream_format.h"
#include "metrics/registry.h"
#include "pipeline/driver.h"
#include "pipeline/run_config.h"
#include "serve/admission.h"
#include "serve/session.h"
#include "serve/session_manager.h"
#include "serve/shed_policy.h"
#include "sre/fault.h"

namespace {

using serve::AdmissionController;
using serve::Priority;
using serve::SessionConfig;
using serve::SessionManager;
using serve::SessionPtr;
using serve::SessionState;
using serve::ShedPolicy;

SessionConfig small_session(std::uint64_t seed, sre::DispatchPolicy policy) {
  SessionConfig sc;
  sc.run = pipeline::RunConfig::x86_disk(wl::FileKind::Txt, policy);
  sc.run.bytes = 64 * 1024;
  sc.run.seed = seed;
  return sc;
}

SessionPtr make_session(serve::SessionId id, Priority p,
                        std::uint64_t submitted_us,
                        std::uint64_t deadline_us = 0) {
  SessionConfig sc = small_session(id, sre::DispatchPolicy::NonSpeculative);
  sc.priority = p;
  sc.queue_deadline_us = deadline_us;
  return std::make_shared<serve::Session>(id, std::move(sc), submitted_us);
}

// --- ShedPolicy -------------------------------------------------------------

TEST(ShedPolicy, ShedsWhenPriorityQueueFull) {
  ShedPolicy::Config cfg;
  cfg.queue_capacity = {2, 2, 2};
  const ShedPolicy policy(cfg);
  EXPECT_FALSE(policy.at_submit(Priority::Batch, 1, 1).shed);
  const auto d = policy.at_submit(Priority::Batch, 2, 2);
  EXPECT_TRUE(d.shed);
  EXPECT_STREQ(d.reason, "queue_full");
}

TEST(ShedPolicy, SoftCapSparesInteractive) {
  ShedPolicy::Config cfg;
  cfg.global_soft_cap = 4;
  const ShedPolicy policy(cfg);
  // Non-interactive work is displaced past the global cap...
  const auto batch = policy.at_submit(Priority::Batch, 0, 4);
  EXPECT_TRUE(batch.shed);
  EXPECT_STREQ(batch.reason, "soft_cap");
  EXPECT_TRUE(policy.at_submit(Priority::Bulk, 0, 4).shed);
  // ...but interactive sessions still use the remaining headroom.
  EXPECT_FALSE(policy.at_submit(Priority::Interactive, 0, 4).shed);
}

TEST(ShedPolicy, DeadlineUsesOverrideThenPerPriorityDefault) {
  ShedPolicy::Config cfg;
  cfg.queue_deadline_us = {100, 200, 0};
  const ShedPolicy policy(cfg);

  const auto defaulted = make_session(1, Priority::Batch, 0);
  EXPECT_FALSE(policy.expired(*defaulted, 200));
  EXPECT_TRUE(policy.expired(*defaulted, 201));

  const auto overridden = make_session(2, Priority::Batch, 0, /*deadline=*/50);
  EXPECT_TRUE(policy.expired(*overridden, 51));

  // Priority with deadline 0 and no override never expires.
  const auto bulk = make_session(3, Priority::Bulk, 0);
  EXPECT_FALSE(policy.expired(*bulk, 1u << 30));
}

// --- AdmissionController ----------------------------------------------------

TEST(Admission, PopsInStrictPriorityOrderFifoWithin) {
  AdmissionController ac{ShedPolicy({})};
  ASSERT_TRUE(ac.offer(make_session(1, Priority::Bulk, 0)).queued);
  ASSERT_TRUE(ac.offer(make_session(2, Priority::Interactive, 0)).queued);
  ASSERT_TRUE(ac.offer(make_session(3, Priority::Batch, 0)).queued);
  ASSERT_TRUE(ac.offer(make_session(4, Priority::Interactive, 0)).queued);
  EXPECT_EQ(ac.queued(), 4u);

  std::vector<SessionPtr> shed;
  std::vector<serve::SessionId> order;
  while (auto s = ac.next(0, shed)) order.push_back(s->id);
  EXPECT_EQ(order, (std::vector<serve::SessionId>{2, 4, 3, 1}));
  EXPECT_TRUE(shed.empty());
  EXPECT_EQ(ac.queued(), 0u);
}

TEST(Admission, BoundedQueueShedsAtCapacity) {
  ShedPolicy::Config cfg;
  cfg.queue_capacity = {1, 1, 1};
  AdmissionController ac{ShedPolicy(cfg)};
  ASSERT_TRUE(ac.offer(make_session(1, Priority::Batch, 0)).queued);
  const auto rejected = ac.offer(make_session(2, Priority::Batch, 0));
  EXPECT_FALSE(rejected.queued);
  EXPECT_STREQ(rejected.shed_reason, "queue_full");
  // A different priority class has its own queue.
  EXPECT_TRUE(ac.offer(make_session(3, Priority::Bulk, 0)).queued);
}

TEST(Admission, CloseShedsNewOffersButDrainsQueued) {
  AdmissionController ac{ShedPolicy({})};
  ASSERT_TRUE(ac.offer(make_session(1, Priority::Batch, 0)).queued);
  ac.close();
  const auto rejected = ac.offer(make_session(2, Priority::Batch, 0));
  EXPECT_FALSE(rejected.queued);
  EXPECT_STREQ(rejected.shed_reason, "shutdown");
  std::vector<SessionPtr> shed;
  const auto s = ac.next(0, shed);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->id, 1u);
}

TEST(Admission, ExpiredSessionsAreShedNotServed) {
  ShedPolicy::Config cfg;
  cfg.queue_deadline_us = {0, 100, 0};
  AdmissionController ac{ShedPolicy(cfg)};
  ASSERT_TRUE(ac.offer(make_session(1, Priority::Batch, /*submitted=*/0)).queued);
  ASSERT_TRUE(
      ac.offer(make_session(2, Priority::Batch, /*submitted=*/500)).queued);

  // At t=550 session 1 has waited 550 µs (past its 100 µs deadline) while
  // session 2 has only waited 50 µs — the pop must skip 1 and serve 2.
  std::vector<SessionPtr> shed;
  const auto s = ac.next(550, shed);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->id, 2u);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0]->id, 1u);
}

TEST(Admission, PurgeExpiredSweepsAllQueues) {
  ShedPolicy::Config cfg;
  cfg.queue_deadline_us = {10, 10, 10};
  AdmissionController ac{ShedPolicy(cfg)};
  ASSERT_TRUE(ac.offer(make_session(1, Priority::Interactive, 0)).queued);
  ASSERT_TRUE(ac.offer(make_session(2, Priority::Batch, 0)).queued);
  ASSERT_TRUE(ac.offer(make_session(3, Priority::Bulk, 100)).queued);
  std::vector<SessionPtr> shed;
  EXPECT_EQ(ac.purge_expired(50, shed), 2u);
  EXPECT_EQ(shed.size(), 2u);
  EXPECT_EQ(ac.queued(), 1u);
}

// --- SessionManager ---------------------------------------------------------

TEST(SessionManager, SessionsCompleteAndRoundtrip) {
  serve::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.max_concurrent = 2;
  SessionManager mgr(cfg);

  std::vector<serve::SessionId> ids;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto out =
        mgr.submit(small_session(seed, sre::DispatchPolicy::Balanced));
    EXPECT_TRUE(out.accepted);
    ids.push_back(out.id);
  }
  for (const auto id : ids) {
    const pipeline::RunResult* r = mgr.wait(id);
    ASSERT_NE(r, nullptr);
    pipeline::verify_roundtrip(*r);
    const auto st = mgr.stats(id);
    EXPECT_EQ(st.state, SessionState::Done);
    EXPECT_GE(st.done_us, st.admitted_us);
    EXPECT_GE(st.admitted_us, st.submitted_us);
    EXPECT_GT(st.latency_us(), 0u);
  }
  mgr.drain();
  EXPECT_TRUE(mgr.runtime().quiescent());
  const auto sessions = mgr.all_sessions();
  EXPECT_EQ(sessions.size(), ids.size());
}

TEST(SessionManager, ZeroCapacityQueueShedsEverySubmit) {
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.shed.queue_capacity = {0, 0, 0};
  SessionManager mgr(cfg);
  const auto out =
      mgr.submit(small_session(1, sre::DispatchPolicy::NonSpeculative));
  EXPECT_FALSE(out.accepted);
  EXPECT_EQ(out.shed_reason, "queue_full");
  EXPECT_EQ(mgr.wait(out.id), nullptr);
  const auto st = mgr.stats(out.id);
  EXPECT_EQ(st.state, SessionState::Shed);
  EXPECT_EQ(st.shed_reason, "queue_full");
  mgr.drain();
}

TEST(SessionManager, DrainRefusesNewWorkButFinishesAccepted) {
  serve::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.max_concurrent = 1;
  SessionManager mgr(cfg);
  const auto a =
      mgr.submit(small_session(1, sre::DispatchPolicy::NonSpeculative));
  const auto b =
      mgr.submit(small_session(2, sre::DispatchPolicy::NonSpeculative));
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(b.accepted);
  mgr.drain();
  // Everything accepted before the drain still completed...
  EXPECT_NE(mgr.wait(a.id), nullptr);
  EXPECT_NE(mgr.wait(b.id), nullptr);
  // ...and post-drain submissions are refused, not queued forever.
  const auto late =
      mgr.submit(small_session(3, sre::DispatchPolicy::NonSpeculative));
  EXPECT_FALSE(late.accepted);
  EXPECT_EQ(late.shed_reason, "shutdown");
}

TEST(SessionManager, WaitOnUnknownIdReturnsNull) {
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  SessionManager mgr(cfg);
  EXPECT_EQ(mgr.wait(12345), nullptr);
  mgr.drain();
}

TEST(SessionManager, ConcurrentMatchesSequentialByteForByte) {
  // The acceptance-criteria anchor: identical NonSpeculative configs produce
  // identical containers whether they share the fleet or run one at a time.
  const std::size_t kSessions = 4;
  auto run_with_window = [&](std::size_t window) {
    serve::ServiceConfig cfg;
    cfg.workers = 8;
    cfg.max_concurrent = window;
    SessionManager mgr(cfg);
    std::vector<serve::SessionId> ids;
    for (std::size_t i = 0; i < kSessions; ++i) {
      ids.push_back(
          mgr.submit(small_session(100 + i, sre::DispatchPolicy::NonSpeculative))
              .id);
    }
    std::vector<std::vector<std::uint8_t>> out;
    for (const auto id : ids) {
      const pipeline::RunResult* r = mgr.wait(id);
      EXPECT_NE(r, nullptr);
      if (r != nullptr) out.push_back(r->container);
    }
    mgr.drain();
    return out;
  };
  const auto concurrent = run_with_window(kSessions);
  const auto sequential = run_with_window(1);
  ASSERT_EQ(concurrent.size(), kSessions);
  ASSERT_EQ(sequential.size(), kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_EQ(concurrent[i], sequential[i]) << "session " << i;
  }
}

TEST(SessionManager, FailedSessionReportsErrorAndFreesSlot) {
  // An unreadable input used to throw on the manager thread and
  // std::terminate the whole service; it must instead fail just that
  // session and keep serving.
  metrics::Registry reg;
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_concurrent = 1;
  cfg.registry = &reg;
  SessionManager mgr(cfg);

  SessionConfig bad = small_session(1, sre::DispatchPolicy::NonSpeculative);
  bad.run.input_path = testing::TempDir() + "/tvs-no-such-input.bin";
  const auto b = mgr.submit(std::move(bad));
  ASSERT_TRUE(b.accepted);
  const auto g =
      mgr.submit(small_session(2, sre::DispatchPolicy::NonSpeculative));
  ASSERT_TRUE(g.accepted);

  EXPECT_EQ(mgr.wait(b.id), nullptr);
  const auto st = mgr.stats(b.id);
  EXPECT_EQ(st.state, SessionState::Failed);
  EXPECT_FALSE(st.error.empty());
  EXPECT_TRUE(st.shed_reason.empty());

  // The single concurrency slot freed: the good session still completes.
  const pipeline::RunResult* r = mgr.wait(g.id);
  ASSERT_NE(r, nullptr);
  pipeline::verify_roundtrip(*r);

  mgr.drain();
  EXPECT_TRUE(mgr.runtime().quiescent());
  EXPECT_EQ(reg.snapshot().scalar("serve_sessions_failed_total"), 1.0);
}

TEST(SessionManager, EmptyInputCompletesWithValidEmptyContainer) {
  const std::string path = testing::TempDir() + "/tvs-empty-input.bin";
  huff::write_file(path, {});

  serve::ServiceConfig cfg;
  cfg.workers = 2;
  SessionManager mgr(cfg);
  SessionConfig sc = small_session(1, sre::DispatchPolicy::Balanced);
  sc.run.input_path = path;
  const auto out = mgr.submit(std::move(sc));
  ASSERT_TRUE(out.accepted);

  const pipeline::RunResult* r = mgr.wait(out.id);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->input.empty());
  EXPECT_EQ(r->output_bits, 0u);
  EXPECT_TRUE(huff::decompress_buffer(r->container).empty());
  EXPECT_EQ(mgr.stats(out.id).state, SessionState::Done);
  mgr.drain();
  EXPECT_TRUE(mgr.runtime().quiescent());
}

/// Holds every task body until open() is called, so a test can observe a
/// session that is certain not to have finished.
class GatePlan final : public sre::FaultPlan {
 public:
  sre::FaultDecision before_task(const sre::Task&) noexcept override {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [this] { return open_; });
    return sre::FaultDecision::none();
  }
  void open() {
    {
      std::scoped_lock lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(SessionManager, ReleaseDropsResultButKeepsStats) {
  GatePlan gate;
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.fault_plan = &gate;
  SessionManager mgr(cfg);
  const auto out =
      mgr.submit(small_session(3, sre::DispatchPolicy::NonSpeculative));
  ASSERT_TRUE(out.accepted);
  EXPECT_FALSE(mgr.release(out.id));  // not terminal yet: bodies are gated
  gate.open();
  ASSERT_NE(mgr.wait(out.id), nullptr);

  EXPECT_TRUE(mgr.release(out.id));
  EXPECT_EQ(mgr.wait(out.id), nullptr);  // result gone...
  const auto st = mgr.stats(out.id);     // ...stats retained
  EXPECT_EQ(st.state, SessionState::Done);
  EXPECT_GT(st.latency_us(), 0u);
  EXPECT_EQ(mgr.all_sessions().size(), 1u);

  EXPECT_FALSE(mgr.release(12345));  // unknown id
  mgr.drain();
}

TEST(SessionManager, WindowHoldsAtMaxConcurrent) {
  // Every task body is held, so no session can finish: the window must
  // stop admitting at max_concurrent and leave the rest queued.
  GatePlan gate;
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_concurrent = 2;
  cfg.shed.queue_capacity = {8, 8, 5};
  cfg.fault_plan = &gate;
  SessionManager mgr(cfg);
  std::vector<serve::SessionId> ids;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto out =
        mgr.submit(small_session(seed, sre::DispatchPolicy::Balanced));
    ASSERT_TRUE(out.accepted);
    ids.push_back(out.id);
  }
  // The manager admits asynchronously; wait for it to fill the window,
  // then give it time to (wrongly) admit more.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (mgr.load_snapshot().running < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const serve::LoadSnapshot load = mgr.load_snapshot();
  EXPECT_EQ(load.running, 2u);
  EXPECT_EQ(load.total_queued(), 3u);
  EXPECT_EQ(load.max_concurrent, 2u);
  EXPECT_EQ(load.queue_capacity, (std::array<std::size_t, 3>{8, 8, 5}));

  gate.open();
  for (const auto id : ids) {
    const auto* r = mgr.wait(id);
    ASSERT_NE(r, nullptr);
    pipeline::verify_roundtrip(*r);
  }
  mgr.drain();
  EXPECT_EQ(mgr.load_snapshot().done, 5u);
}

TEST(SessionManager, ServingMetricsLandInRegistry) {
  metrics::Registry reg;
  serve::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.registry = &reg;
  cfg.per_session_metrics = true;
  SessionManager mgr(cfg);
  SessionConfig sc = small_session(7, sre::DispatchPolicy::Balanced);
  sc.name = "alpha";
  const auto out = mgr.submit(std::move(sc));
  ASSERT_TRUE(out.accepted);
  ASSERT_NE(mgr.wait(out.id), nullptr);
  mgr.drain();

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.scalar("serve_sessions_submitted_total"), 1.0);
  EXPECT_EQ(snap.scalar("serve_sessions_done_total"), 1.0);
  EXPECT_GT(snap.scalar("serve_session_latency_us", "session=\"alpha\""), 0.0);
  bool have_latency_hist = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "serve_latency_us") {
      have_latency_hist = h.totals.count == 1;
    }
  }
  EXPECT_TRUE(have_latency_hist);
}

TEST(SessionManager, ToStringCoversAllStates) {
  EXPECT_EQ(serve::to_string(Priority::Interactive), "interactive");
  EXPECT_EQ(serve::to_string(Priority::Batch), "batch");
  EXPECT_EQ(serve::to_string(Priority::Bulk), "bulk");
  EXPECT_EQ(serve::to_string(SessionState::Queued), "queued");
  EXPECT_EQ(serve::to_string(SessionState::Admitted), "admitted");
  EXPECT_EQ(serve::to_string(SessionState::Running), "running");
  EXPECT_EQ(serve::to_string(SessionState::Draining), "draining");
  EXPECT_EQ(serve::to_string(SessionState::Done), "done");
  EXPECT_EQ(serve::to_string(SessionState::Shed), "shed");
  EXPECT_EQ(serve::to_string(SessionState::Failed), "failed");
}

}  // namespace
