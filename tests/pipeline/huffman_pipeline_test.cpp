// End-to-end pipeline correctness across the configuration grid.
//
// The invariants (DESIGN.md §6): every run round-trips; committed
// speculative output stays within the tolerance of optimal; rollbacks leave
// no stray tasks; traces are complete.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <string_view>

#include "huffman/stream_format.h"
#include "io/block_source.h"
#include "pipeline/driver.h"
#include "pipeline/huffman_pipeline.h"
#include "sim/sim_executor.h"
#include "sre/chaos_point.h"
#include "sre/observer.h"
#include "sre/threaded_executor.h"
#include "workload/corpus.h"

namespace {

using pipeline::RunConfig;
using pipeline::RunResult;

RunConfig small(wl::FileKind file, sre::DispatchPolicy policy,
                std::size_t kib = 512) {
  RunConfig cfg = RunConfig::x86_disk(file, policy);
  cfg.bytes = kib * 1024;
  return cfg;
}

struct GridCase {
  wl::FileKind file;
  sre::DispatchPolicy policy;
  std::uint32_t step;
  tvs::VerifyMode verify;
};

std::string case_name(const ::testing::TestParamInfo<GridCase>& info) {
  const auto& p = info.param;
  std::string name = wl::to_string(p.file) + "_" + sre::to_string(p.policy) +
                     "_s" + std::to_string(p.step) + "_" +
                     tvs::to_string(p.verify);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class PipelineGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(PipelineGrid, SimRunRoundTripsAndIsComplete) {
  const auto& p = GetParam();
  RunConfig cfg = small(p.file, p.policy);
  cfg.spec.step_size = p.step;
  cfg.spec.verify = tvs::VerificationPolicy{p.verify, 8};
  const RunResult res = pipeline::run_sim(cfg);

  pipeline::verify_roundtrip(res);
  EXPECT_TRUE(res.trace.complete());
  EXPECT_EQ(res.trace.size(), cfg.bytes / 4096);

  // Committed output can be suboptimal only within tolerance (plus the
  // tiny floored-histogram overhead).
  const double overhead = pipeline::size_overhead_vs_optimal(res);
  EXPECT_GE(overhead, -1e-9);
  EXPECT_LT(overhead, cfg.spec.tolerance + 0.005);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelineGrid,
    ::testing::Values(
        GridCase{wl::FileKind::Txt, sre::DispatchPolicy::NonSpeculative, 1,
                 tvs::VerifyMode::EveryKth},
        GridCase{wl::FileKind::Txt, sre::DispatchPolicy::Balanced, 1,
                 tvs::VerifyMode::EveryKth},
        GridCase{wl::FileKind::Txt, sre::DispatchPolicy::Aggressive, 1,
                 tvs::VerifyMode::Optimistic},
        GridCase{wl::FileKind::Txt, sre::DispatchPolicy::Conservative, 2,
                 tvs::VerifyMode::Full},
        GridCase{wl::FileKind::Bmp, sre::DispatchPolicy::Balanced, 1,
                 tvs::VerifyMode::EveryKth},
        GridCase{wl::FileKind::Bmp, sre::DispatchPolicy::Aggressive, 1,
                 tvs::VerifyMode::Full},
        GridCase{wl::FileKind::Bmp, sre::DispatchPolicy::Balanced, 4,
                 tvs::VerifyMode::Optimistic},
        GridCase{wl::FileKind::Pdf, sre::DispatchPolicy::Balanced, 1,
                 tvs::VerifyMode::EveryKth},
        GridCase{wl::FileKind::Pdf, sre::DispatchPolicy::Aggressive, 1,
                 tvs::VerifyMode::Full},
        GridCase{wl::FileKind::Pdf, sre::DispatchPolicy::Conservative, 1,
                 tvs::VerifyMode::Optimistic},
        GridCase{wl::FileKind::Pdf, sre::DispatchPolicy::Balanced, 8,
                 tvs::VerifyMode::EveryKth}),
    case_name);

TEST(Pipeline, NonSpecOutputIsExactlyOptimal) {
  const auto res =
      pipeline::run_sim(small(wl::FileKind::Txt, sre::DispatchPolicy::NonSpeculative));
  EXPECT_FALSE(res.spec_committed);
  EXPECT_EQ(res.rollbacks, 0u);
  EXPECT_NEAR(pipeline::size_overhead_vs_optimal(res), 0.0, 1e-12);
}

TEST(Pipeline, TxtCommitsSpeculationWithoutRollbacks) {
  const auto res =
      pipeline::run_sim(small(wl::FileKind::Txt, sre::DispatchPolicy::Balanced));
  EXPECT_TRUE(res.spec_committed);
  EXPECT_EQ(res.rollbacks, 0u);
  EXPECT_EQ(res.wait_discarded, 0u);
  EXPECT_GT(res.trace.speculative_commits(), 0u);
}

/// Records every task the runtime creates.
struct TaskLog final : sre::Observer {
  std::vector<sre::TaskInfo> tasks;
  void on_task_created(const sre::TaskInfo& task) override {
    tasks.push_back(task);
  }
  [[nodiscard]] std::vector<sre::TaskInfo> named(std::string_view prefix) const {
    std::vector<sre::TaskInfo> out;
    for (const auto& t : tasks) {
      if (t.name.starts_with(prefix)) out.push_back(t);
    }
    return out;
  }
};

TaskLog log_sim_tasks(sre::DispatchPolicy policy) {
  const auto cfg = small(wl::FileKind::Txt, policy);
  sio::BlockSource src(wl::make_corpus(cfg.file, cfg.bytes, cfg.seed), 4096,
                       std::make_shared<sio::DiskArrival>());
  TaskLog log;
  sre::Runtime rt(cfg.policy);
  rt.set_observer(&log);
  sim::SimExecutor ex(rt, cfg.platform);
  pipeline::HuffmanPipeline pl(rt, src, cfg);
  src.for_each_arrival([&](std::size_t i, sio::Micros at) {
    ex.schedule_arrival(at, [&pl, i](sim::Micros now) {
      pl.on_block_arrival(i, now);
    });
  });
  ex.run();
  pl.validate_complete();
  return log;
}

TEST(Pipeline, NaturalPassKeepsItsShape) {
  // 512 KiB / 4 KiB = 128 blocks; reduce ratio 16 → 8 reduces; offset group
  // 64 → 2 offset groups. Each reduce is one estimate, and only the final
  // one builds a tree: the exact natural table.
  const TaskLog log = log_sim_tasks(sre::DispatchPolicy::NonSpeculative);
  EXPECT_EQ(log.named("reduce[").size(), 8u);
  const auto trees = log.named("tree[");
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].name, "tree[natural]");
  EXPECT_TRUE(log.named("spec-").empty());
  const auto offsets = log.named("offset[");
  const auto encodes = log.named("encode[");
  EXPECT_EQ(offsets.size(), 2u);
  EXPECT_EQ(encodes.size(), 128u);
  for (const auto& t : offsets) {
    EXPECT_EQ(t.depth, 4) << t.name;
    EXPECT_EQ(t.cls, sre::TaskClass::Natural) << t.name;
    EXPECT_EQ(t.epoch, sre::kNaturalEpoch) << t.name;
  }
  for (const auto& t : encodes) {
    EXPECT_EQ(t.depth, 5) << t.name;
    EXPECT_EQ(t.cls, sre::TaskClass::Natural) << t.name;
    EXPECT_EQ(t.epoch, sre::kNaturalEpoch) << t.name;
  }
}

TEST(Pipeline, EachReduceFeedsAtMostOneTree) {
  // A speculative run builds a prefix tree only for estimates the
  // speculator takes, at most one per reduce.
  const TaskLog log = log_sim_tasks(sre::DispatchPolicy::Balanced);
  EXPECT_EQ(log.named("reduce[").size(), 8u);
  std::set<unsigned long> seen;
  for (const auto& t : log.named("tree[")) {
    if (t.name == "tree[natural]") continue;
    const unsigned long k = std::stoul(t.name.substr(5));
    EXPECT_GE(k, 1u) << t.name;
    EXPECT_LE(k, 8u) << t.name;
    EXPECT_TRUE(seen.insert(k).second) << t.name << " repeats";
  }
  EXPECT_FALSE(seen.empty());
}

TEST(Pipeline, CellPlatformRespectsMemoryBudget) {
  auto cfg = pipeline::RunConfig::cell_disk(wl::FileKind::Txt,
                                            sre::DispatchPolicy::Balanced);
  cfg.bytes = 512 * 1024;
  // Must not throw: every task the builder creates fits 32 KiB.
  const auto res = pipeline::run_sim(cfg);
  pipeline::verify_roundtrip(res);
}

TEST(Pipeline, OversizedRatioViolatesCellBudget) {
  auto cfg = pipeline::RunConfig::cell_disk(wl::FileKind::Txt,
                                            sre::DispatchPolicy::Balanced);
  cfg.bytes = 512 * 1024;
  cfg.ratios.reduce_ratio = 64;  // 64 histograms = 128 KiB > 32 KiB budget
  EXPECT_THROW(pipeline::run_sim(cfg), std::logic_error);
}

TEST(Pipeline, SocketModeRoundTrips) {
  auto cfg = pipeline::RunConfig::x86_socket(wl::FileKind::Txt,
                                             sre::DispatchPolicy::Balanced);
  cfg.bytes = 256 * 1024;
  const auto res = pipeline::run_sim(cfg);
  pipeline::verify_roundtrip(res);
  // Arrivals must be strictly increasing (TCP ordering).
  const auto arrivals = res.trace.arrivals();
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LT(arrivals[i - 1], arrivals[i]);
  }
}

TEST(Pipeline, RollbackRunStillProducesValidOutput) {
  // BMP at step 1 rolls back at least once; the final artifact must still
  // decode and the trace must show re-encodes.
  auto cfg = small(wl::FileKind::Bmp, sre::DispatchPolicy::Balanced, 2048);
  const auto res = pipeline::run_sim(cfg);
  EXPECT_GE(res.rollbacks, 1u);
  EXPECT_GT(res.trace.wasted_encodes() + res.wait_discarded, 0u);
  pipeline::verify_roundtrip(res);
}

TEST(Pipeline, AbortedTasksAreAccounted) {
  auto cfg = small(wl::FileKind::Bmp, sre::DispatchPolicy::Aggressive, 2048);
  const auto res = pipeline::run_sim(cfg);
  ASSERT_GE(res.rollbacks, 1u);
  EXPECT_GT(res.counters.tasks_aborted, 0u)
      << "a rollback must destroy outstanding speculative tasks";
}

TEST(Pipeline, TinyInputsWork) {
  for (std::size_t bytes : {1ul, 4095ul, 4096ul, 4097ul, 65536ul}) {
    RunConfig cfg = small(wl::FileKind::Txt, sre::DispatchPolicy::Balanced);
    cfg.bytes = bytes;
    const auto res = pipeline::run_sim(cfg);
    pipeline::verify_roundtrip(res);
    EXPECT_EQ(res.trace.size(), (bytes + 4095) / 4096) << bytes;
  }
}

TEST(Pipeline, ThreadedEngineMatchesOutputAcrossPolicies) {
  for (auto policy : {sre::DispatchPolicy::NonSpeculative,
                      sre::DispatchPolicy::Conservative,
                      sre::DispatchPolicy::Aggressive,
                      sre::DispatchPolicy::Balanced}) {
    auto cfg = small(wl::FileKind::Txt, policy, 256);
    const auto res = pipeline::run_threaded(cfg, 4, /*time_scale=*/0.02);
    pipeline::verify_roundtrip(res);
    EXPECT_TRUE(res.trace.complete()) << sre::to_string(policy);
  }
}

TEST(Pipeline, ThreadedRollbackScenarioRoundTrips) {
  auto cfg = small(wl::FileKind::Pdf, sre::DispatchPolicy::Balanced, 2048);
  const auto res = pipeline::run_threaded(cfg, 4, /*time_scale=*/0.005);
  pipeline::verify_roundtrip(res);
}

TEST(Pipeline, DeterministicSimTraces) {
  const auto cfg = small(wl::FileKind::Pdf, sre::DispatchPolicy::Balanced, 1024);
  const auto a = pipeline::run_sim(cfg);
  const auto b = pipeline::run_sim(cfg);
  EXPECT_EQ(a.trace.latencies(), b.trace.latencies());
  EXPECT_EQ(a.container, b.container);
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
}

TEST(Pipeline, StateIsFreedWithHandleAndRuntime) {
  // The shared_ptr constructor lets State co-own the source, so the source
  // outlives the pipeline exactly as long as State does. Once the handle
  // and the runtime (with every task) are gone, nothing may keep State
  // alive — in particular not the closures State itself owns (wait-buffer
  // sink, Speculator callbacks, the stage hooks).
  std::weak_ptr<const sio::BlockSource> weak_source;
  {
    auto cfg = small(wl::FileKind::Pdf, sre::DispatchPolicy::Balanced, 512);
    auto source = std::make_shared<const sio::BlockSource>(
        wl::make_corpus(cfg.file, cfg.bytes, cfg.seed), 4096,
        std::make_shared<sio::DiskArrival>());
    weak_source = source;
    sre::Runtime rt(cfg.policy);
    sim::SimExecutor ex(rt, cfg.platform);
    pipeline::HuffmanPipeline pl(rt, source, cfg);
    source->for_each_arrival([&](std::size_t i, sio::Micros at) {
      ex.schedule_arrival(at, [&pl, i](sim::Micros now) {
        pl.on_block_arrival(i, now);
      });
    });
    source.reset();
    ex.run();
    pl.validate_complete();
    EXPECT_GT(pl.rollbacks(), 0u) << "the run should exercise rollback";
  }
  EXPECT_TRUE(weak_source.expired());
}

// --- Commit sink ------------------------------------------------------------

/// Round trip, and the committed tree within tolerance of the exact one.
void expect_committed_output_ok(const RunConfig& cfg, const RunResult& res) {
  pipeline::verify_roundtrip(res);
  EXPECT_EQ(res.output_bits, huff::deserialize(res.container).payload_bits);
  const double overhead = pipeline::size_overhead_vs_optimal(res);
  EXPECT_GE(overhead, -1e-9);
  EXPECT_LT(overhead, cfg.spec.tolerance + 0.005);
}

TEST(CommitSink, NonSpecOutputEqualsSerialReference) {
  // perfbench compares NonSpeculative containers with compress_buffer's
  // bytes before it decodes them.
  for (const auto file :
       {wl::FileKind::Txt, wl::FileKind::Bmp, wl::FileKind::Pdf}) {
    const RunConfig cfg = small(file, sre::DispatchPolicy::NonSpeculative);
    const auto sim = pipeline::run_sim(cfg);
    EXPECT_EQ(sim.container, huff::compress_buffer(sim.input))
        << wl::to_string(file) << " sim";
    const auto threaded = pipeline::run_threaded(cfg, 4, /*time_scale=*/0.02);
    EXPECT_EQ(threaded.container, huff::compress_buffer(threaded.input))
        << wl::to_string(file) << " threaded";
  }
}

/// Counts crossings of the wait buffer's flush and pass-through windows.
struct CommitPathCounter final : sre::chaos::Hook {
  std::atomic<int> flushes{0};
  std::atomic<int> passthroughs{0};
  void on_point(const char* site) noexcept override {
    if (std::strcmp(site, "wait_buffer.flush_window") == 0) ++flushes;
    if (std::strcmp(site, "wait_buffer.passthrough_window") == 0) {
      ++passthroughs;
    }
  }
};

TEST(CommitSink, SpeculativeCommitPlacesParkedThenPassThroughBlocks) {
  // Blocks encoded before the final check park in the wait buffer and are
  // placed by the commit flush; the encodes of the last offset groups still
  // run at commit and are placed on pass-through.
  const RunConfig cfg = small(wl::FileKind::Txt, sre::DispatchPolicy::Balanced);
  CommitPathCounter counter;
  RunResult res;
  {
    sre::chaos::ScopedHook guard(&counter);
    res = pipeline::run_sim(cfg);
  }
  ASSERT_TRUE(res.spec_committed);
  EXPECT_GT(counter.flushes.load(), 0);
  EXPECT_GT(counter.passthroughs.load(), 0);
  expect_committed_output_ok(cfg, res);
}

/// Keeps the estimate stream in step with the speculator: the arrival that
/// closes reduce group 1 (the second estimate) waits until the first epoch
/// has opened, and the one closing group 16 (the 17th estimate) until the
/// second has. So the first guess is estimate 1 and the re-speculation
/// after the first rollback guesses from estimate 16, whatever the load.
/// Unheld, a slow check verdict under load lets later estimates in first,
/// and a guess from them can pass the final check.
class EstimateLockstep final : public sre::Observer {
 public:
  explicit EstimateLockstep(std::size_t reduce_ratio) : r_(reduce_ratio) {}

  void before_arrival(std::size_t block) {
    const int need = block == 2 * r_ - 1 ? 1 : block == 17 * r_ - 1 ? 2 : 0;
    if (need == 0) return;
    std::unique_lock lk(mu_);
    cv_.wait_for(lk, std::chrono::seconds(10),
                 [&] { return opened_ >= need; });
  }
  void on_epoch_opened(sre::Epoch) override {
    {
      std::scoped_lock lk(mu_);
      ++opened_;
    }
    cv_.notify_all();
  }

 private:
  const std::size_t r_;
  std::mutex mu_;
  std::condition_variable cv_;
  int opened_ = 0;
};

TEST(CommitSink, RollbackThenNaturalPathRoundTrips) {
  // A PDF/TXT splice on real threads: the text fills only the last two
  // reduce groups, so the final check fails against the tree guessed from
  // the PDF, and the run falls back to the natural path, whose blocks are
  // placed by the workers that encode them. The first guess (estimate 1)
  // fails its check at estimate 16; the lockstep gate makes the
  // re-speculation guess from estimate 16, which fails the final check.
  auto cfg = pipeline::RunConfig::x86_socket(wl::FileKind::Pdf,
                                             sre::DispatchPolicy::Balanced);
  auto bytes = wl::make_corpus(wl::FileKind::Pdf, 960 * 1024, 3);
  const auto txt = wl::make_corpus(wl::FileKind::Txt, 64 * 1024, 4);
  bytes.insert(bytes.end(), txt.begin(), txt.end());
  const sio::BlockSource src(
      std::move(bytes), cfg.ratios.block_size,
      std::make_shared<sio::SocketArrival>(cfg.socket_per_block_us,
                                           cfg.socket_jitter_us));
  EstimateLockstep gate(cfg.ratios.reduce_ratio);
  sre::Runtime rt(cfg.policy, cfg.priority_mode);
  rt.set_observer(&gate);
  sre::ThreadedExecutor ex(rt, {.workers = 4, .arrival_time_scale = 0.05});
  pipeline::HuffmanPipeline pl(rt, src, cfg);
  src.for_each_arrival([&](std::size_t i, sio::Micros at) {
    ex.schedule_arrival(at, [&pl, &gate, i](std::uint64_t now) {
      gate.before_arrival(i);
      pl.on_block_arrival(i, now);
    });
  });
  ex.run();
  pl.validate_complete();
  RunResult res;
  res.spec_committed = pl.speculation_committed();
  res.rollbacks = pl.rollbacks();
  res.output_bits = pl.output_bits();
  res.input.assign(src.bytes().begin(), src.bytes().end());
  res.container = pl.assemble_output();
  EXPECT_GE(res.rollbacks, 1u);
  EXPECT_FALSE(res.spec_committed);
  expect_committed_output_ok(cfg, res);
}

TEST(CommitSink, SecondAssembleOutputThrows) {
  const auto cfg = small(wl::FileKind::Txt, sre::DispatchPolicy::Balanced, 64);
  sio::BlockSource src(wl::make_corpus(cfg.file, cfg.bytes, cfg.seed), 4096,
                       std::make_shared<sio::DiskArrival>());
  sre::Runtime rt(cfg.policy);
  sim::SimExecutor ex(rt, cfg.platform);
  pipeline::HuffmanPipeline pl(rt, src, cfg);
  src.for_each_arrival([&](std::size_t i, sio::Micros at) {
    ex.schedule_arrival(at, [&pl, i](sim::Micros now) {
      pl.on_block_arrival(i, now);
    });
  });
  ex.run();
  pl.validate_complete();
  const auto container = pl.assemble_output();
  EXPECT_EQ(huff::decompress_buffer(container),
            std::vector<std::uint8_t>(src.bytes().begin(), src.bytes().end()));
  EXPECT_THROW((void)pl.assemble_output(), std::logic_error);
  EXPECT_EQ(pl.output_bits(), huff::deserialize(container).payload_bits);
}

TEST(RunResult, LatencyHelpers) {
  const auto res =
      pipeline::run_sim(small(wl::FileKind::Txt, sre::DispatchPolicy::Balanced, 128));
  const auto summary = res.latency_summary();
  EXPECT_EQ(summary.count, res.trace.size());
  EXPECT_NEAR(res.avg_latency_us(), summary.mean, 1.0);
  EXPECT_LE(summary.p50, summary.p95);
  EXPECT_LE(summary.p95, summary.max);
}

}  // namespace
