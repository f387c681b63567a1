// Deterministic regression tests for the rollback/commit race family.
//
// Each race is forced without threads: a chaos hook installed at the named
// unlock-window site *synchronously* injects the racing operation at the
// exact point where the lock is dropped. On the pre-fix code every one of
// these tests fails (double natural build / stacked re-open / interleaved
// flush / unbounded bookkeeping); the fixes make them pass — and keep them
// passing under any thread schedule, since the single-threaded injection is
// a legal interleaving of the concurrent one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/speculative_stage.h"
#include "core/speculator.h"
#include "core/wait_buffer.h"
#include "filter/filter_pipeline.h"
#include "filter/fir.h"
#include "filter/iterative_design.h"
#include "huffman/stream_format.h"
#include "io/block_source.h"
#include "pipeline/huffman_pipeline.h"
#include "sre/chaos_point.h"
#include "sre/runtime.h"
#include "sre/threaded_executor.h"
#include "workload/corpus.h"

namespace {

using sre::DispatchPolicy;
using sre::Runtime;
using tvs::SpecConfig;
using tvs::SpeculativeStage;
using tvs::Speculator;
using tvs::VerificationPolicy;
using tvs::WaitBuffer;

/// Chaos hook that fires a caller-supplied injection the first time the
/// target site is crossed (later crossings are ignored).
struct InjectOnce final : sre::chaos::Hook {
  std::string_view target;
  std::function<void()> inject;
  int fired = 0;

  void on_point(const char* site) noexcept override {
    if (fired == 0 && target == site) {
      ++fired;
      inject();
    }
  }
};

/// Runs every queued task to completion (checks included).
void drain(Runtime& rt) {
  std::uint64_t t = 1000;
  while (sre::TaskPtr task = rt.next_task()) {
    sre::TaskContext ctx{rt, *task, t};
    task->run(ctx);
    rt.on_task_finished(task, ++t);
  }
}

struct Probe {
  std::vector<sre::Epoch> chains;
  std::vector<sre::Epoch> commits;
  std::vector<sre::Epoch> rollbacks;
  int naturals = 0;
};

Speculator<double>::Callbacks callbacks(Probe& probe) {
  Speculator<double>::Callbacks cb;
  cb.build_chain = [&probe](const double&, sre::Epoch e, std::uint32_t) {
    probe.chains.push_back(e);
  };
  cb.within_tolerance = [](const double& g, const double& cur) {
    return std::abs(g - cur) <= 0.1;
  };
  cb.on_commit = [&probe](const double&, sre::Epoch e, std::uint64_t) {
    probe.commits.push_back(e);
  };
  cb.on_rollback = [&probe](sre::Epoch e, std::uint64_t) {
    probe.rollbacks.push_back(e);
  };
  cb.build_natural = [&probe](const double&, std::uint64_t) {
    ++probe.naturals;
  };
  return cb;
}

// --- Race 1: a final estimate lands inside the rollback unlock window -----
//
// on_verdict (failing check) drops the lock around abort_epoch/on_rollback.
// A final estimate arriving in that window finds a coherent Idle machine and
// builds the natural path. The verdict's continuation then relocks, sees
// latest_is_final_, and — without the generation re-validation — builds the
// natural path a SECOND time: duplicate output downstream.
TEST(ChaosRegression, FinalEstimateInRollbackWindowBuildsNaturalOnce) {
  Runtime rt(DispatchPolicy::Balanced);
  Probe probe;
  Speculator<double> spec(rt, {.step_size = 1, .verify = VerificationPolicy::full()},
                          callbacks(probe));

  InjectOnce hook;
  hook.target = "speculator.rollback_window";
  hook.inject = [&spec] { spec.on_estimate(5.0, 3, /*is_final=*/true, 30); };
  sre::chaos::ScopedHook guard(&hook);

  spec.on_estimate(1.0, 1, false, 10);  // opens an epoch (guess 1.0)
  ASSERT_EQ(probe.chains.size(), 1u);
  spec.on_estimate(5.0, 2, false, 20);  // out of tolerance: check will fail
  drain(rt);                            // verdict → rollback window → inject

  EXPECT_EQ(probe.naturals, 1) << "natural path must be built exactly once";
  EXPECT_EQ(probe.rollbacks.size(), 1u);
  EXPECT_TRUE(probe.commits.empty());
  EXPECT_EQ(spec.state(), Speculator<double>::State::Natural);
  EXPECT_TRUE(spec.finished());
}

// Variant: a non-final estimate in the same window re-opens speculation.
// The continuation must NOT stack its own immediate re-speculation on top —
// that would build a third chain and orphan the racer's epoch (its checks
// would compare against the wrong guess and its wait-buffer entries would
// never be settled by the speculator that abandoned it).
TEST(ChaosRegression, EstimateInRollbackWindowReopensWithoutStacking) {
  Runtime rt(DispatchPolicy::Balanced);
  Probe probe;
  Speculator<double> spec(rt, {.step_size = 1, .verify = VerificationPolicy::full()},
                          callbacks(probe));

  InjectOnce hook;
  hook.target = "speculator.rollback_window";
  hook.inject = [&spec] { spec.on_estimate(7.0, 3, /*is_final=*/false, 30); };
  sre::chaos::ScopedHook guard(&hook);

  spec.on_estimate(1.0, 1, false, 10);
  spec.on_estimate(5.0, 2, false, 20);
  drain(rt);

  ASSERT_EQ(probe.chains.size(), 2u)
      << "exactly one re-speculation: the injected estimate's";
  ASSERT_TRUE(spec.active_epoch().has_value());
  EXPECT_EQ(*spec.active_epoch(), probe.chains[1]);
  EXPECT_EQ(probe.rollbacks.size(), 1u);
  EXPECT_EQ(probe.naturals, 0);
}

// The late window (after on_rollback) must obey the same rule.
TEST(ChaosRegression, FinalEstimateInLateRollbackWindowBuildsNaturalOnce) {
  Runtime rt(DispatchPolicy::Balanced);
  Probe probe;
  Speculator<double> spec(rt, {.step_size = 1, .verify = VerificationPolicy::full()},
                          callbacks(probe));

  InjectOnce hook;
  hook.target = "speculator.rollback_window_late";
  hook.inject = [&spec] { spec.on_estimate(5.0, 3, /*is_final=*/true, 30); };
  sre::chaos::ScopedHook guard(&hook);

  spec.on_estimate(1.0, 1, false, 10);
  spec.on_estimate(5.0, 2, false, 20);
  drain(rt);

  EXPECT_EQ(probe.naturals, 1);
  EXPECT_TRUE(spec.finished());
}

// --- Race 1b: a stale chain builder returns after a newer epoch committed --
//
// The Speculator calls build_chain with its lock released. Inside e1's open
// window — before e1's builder has run — a failing check rolls e1 back, the
// speculator reopens and builds e2 from the newer estimate, and e2's final
// check passes. Only then does e1's builder run. Pre-fix, each pipeline's
// late e1 builder still spawned its chain and stored its guess as the
// "provisional" committed value, overwriting e2's; the stage now skips a
// builder whose epoch is stale, and takes the committed value from the
// Speculator's commit alone.
TEST(ChaosRegression, StaleBuilderAfterNewerCommitIsANoOp) {
  Runtime rt(DispatchPolicy::Balanced);
  using Stage = SpeculativeStage<double, double>;
  auto owner = std::make_shared<int>(0);
  std::vector<sre::Epoch> built;
  std::vector<std::size_t> committed_blocks;
  Stage* stage_ptr = nullptr;
  Stage::Hooks hooks;
  hooks.map = {"blk", 1, [](const double& v, std::size_t) { return v; }};
  hooks.on_committed = [&](std::size_t block, const double& v, std::uint64_t) {
    EXPECT_DOUBLE_EQ(v, 5.0);
    committed_blocks.push_back(block);
  };
  hooks.build_chain = [&](const double& guess, sre::Epoch e, std::uint32_t) {
    built.push_back(e);
    stage_ptr->map_blocks(guess, e);
  };
  hooks.within_tolerance = [](const double& g, const double& cur) {
    return std::abs(g - cur) <= 0.1;
  };
  Stage stage(rt, /*blocks=*/4,
              SpecConfig{.step_size = 1, .verify = VerificationPolicy::full()},
              /*check_cost_us=*/1, owner, std::move(hooks));
  stage_ptr = &stage;

  InjectOnce hook;
  hook.target = "speculator.open_window";
  hook.inject = [&] {
    stage.estimate(2, false, 5.0, 20);  // e1's check fails: reopen e2 at 5.0
    drain(rt);
    stage.estimate(3, true, 5.05, 30);  // e2's final check passes: commit
    drain(rt);
  };
  sre::chaos::ScopedHook guard(&hook);

  stage.estimate(1, false, 1.0, 10);  // opens e1 (guess 1.0) → window
  drain(rt);

  ASSERT_EQ(hook.fired, 1);
  EXPECT_EQ(stage.rollbacks(), 1u);
  ASSERT_EQ(built.size(), 1u) << "e1's late builder must not run";
  EXPECT_TRUE(stage.speculation_committed());
  ASSERT_NE(stage.committed(), nullptr);
  EXPECT_DOUBLE_EQ(*stage.committed(), 5.0) << "committed value is e2's guess";
  EXPECT_EQ(rt.counters().spec_tasks_executed, 4u) << "only e2's blocks ran";
  ASSERT_TRUE(stage.complete());
  stage.with_results([](const auto& slots) {
    for (const auto& slot : slots) EXPECT_DOUBLE_EQ(*slot, 5.0);
  });
  std::sort(committed_blocks.begin(), committed_blocks.end());
  EXPECT_EQ(committed_blocks, (std::vector<std::size_t>{0, 1, 2, 3}))
      << "the commit hook sees each block once";
}

// The same interleaving through FilterPipeline (three CG iterates, a check at
// iterate 2): e1 adopts iterate 1, the check against iterate 2 fails, e2
// adopts iterate 2 and commits at the final iterate 3, and e1's builder
// returns last. The pipeline must report e2's coefficients and output.
TEST(ChaosRegression, FilterPipelineStaleBuilderKeepsCommittedCoefficients) {
  const std::vector<double> input = filt::make_signal(8192, 11, 0.7);
  const std::vector<double> target = filt::make_signal(8192, 11, 0.0);
  filt::FilterPipelineConfig cfg;
  cfg.taps = 12;
  cfg.iterations = 3;
  cfg.block_samples = 2048;
  cfg.spec.step_size = 1;
  cfg.spec.verify = VerificationPolicy::every_kth(2);

  filt::IterativeSolver solver(filt::estimate_problem(input, target, cfg.taps));
  std::vector<std::vector<double>> iterates;
  for (std::size_t k = 0; k < cfg.iterations; ++k) {
    solver.step();
    iterates.push_back(solver.current());
  }
  const double d12 = filt::rel_l2_diff(iterates[0], iterates[1]);
  const double d23 = filt::rel_l2_diff(iterates[1], iterates[2]);
  ASSERT_LT(d23, d12) << "iterate 2 must sit closer to 3 than 1 does to 2";
  cfg.spec.tolerance = (d12 + d23) / 2;  // check 1-vs-2 fails, 2-vs-3 passes

  Runtime rt(DispatchPolicy::Balanced);
  filt::FilterPipeline pl(rt, input, target, cfg, /*speculation=*/true);
  InjectOnce hook;
  hook.target = "speculator.open_window";
  hook.inject = [&rt] { drain(rt); };  // iterates 2-3, checks, e2, commit
  sre::chaos::ScopedHook guard(&hook);

  pl.start();
  drain(rt);

  ASSERT_EQ(hook.fired, 1);
  pl.validate_complete();
  EXPECT_EQ(pl.rollbacks(), 1u);
  EXPECT_TRUE(pl.speculation_committed());
  EXPECT_EQ(pl.final_coefficients(), iterates[1])
      << "committed coefficients must be e2's guess (iterate 2)";
  EXPECT_EQ(pl.output(), filt::apply_fir(input, iterates[1]));
  EXPECT_EQ(rt.counters().spec_tasks_executed, 4u) << "only e2's blocks ran";
}

// --- Race 2: an add races the commit flush ---------------------------------
//
// Pre-fix, commit() marked the epoch Committed and THEN flushed with the
// lock released; an add arriving mid-flush saw Committed and passed straight
// through to the sink — interleaving with (here: jumping ahead of) the
// ordered flush. Post-fix the epoch stays in Flushing until the drain loop
// empties pending_, so the racing add queues behind the in-flight batch and
// is emitted by the committer afterwards.
TEST(ChaosRegression, AddDuringCommitFlushQueuesBehindFlush) {
  std::vector<int> order;
  WaitBuffer<int, int> buf(
      [&order](const int& key, int&&, std::uint64_t) { order.push_back(key); });

  InjectOnce hook;
  hook.target = "wait_buffer.flush_window";
  hook.inject = [&buf] { buf.add(1, 0, 0, 99); };  // key 0 sorts first
  sre::chaos::ScopedHook guard(&hook);

  buf.add(1, 1, 10, 1);
  buf.add(1, 2, 20, 2);
  buf.add(1, 3, 30, 3);
  buf.commit(1, 100);

  // The pre-commit entries flush in key order; the racing add drains in a
  // follow-up batch. Pre-fix this came out [0, 1, 2, 3].
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0}));

  buf.add(1, 9, 90, 200);  // epoch is pass-through only now
  EXPECT_EQ(order.back(), 9);
  EXPECT_EQ(buf.total_pending(), 0u);
}

// A sink that re-enters the buffer mid-flush must queue, not deadlock or
// interleave (the commit lock is released around every sink call).
TEST(ChaosRegression, ReentrantSinkAddQueuesBehindFlush) {
  std::vector<int> order;
  WaitBuffer<int, int>* handle = nullptr;
  WaitBuffer<int, int> buf([&](const int& key, int&&, std::uint64_t now) {
    order.push_back(key);
    if (key < 100) handle->add(1, key + 100, 0, now);
  });
  handle = &buf;

  buf.add(1, 1, 0, 1);
  buf.add(1, 2, 0, 2);
  buf.commit(1, 10);

  EXPECT_EQ(order, (std::vector<int>{1, 2, 101, 102}));
  EXPECT_EQ(buf.total_pending(), 0u);
}

// The same race on real threads, through HuffmanPipeline's commit sink: the
// commit flush places parked blocks into the output container while
// workers keep finishing encodes of the committing epoch. The last offset
// group's encodes are slowed, so they are still running at commit, and the
// first flush batch is held until one of their results has queued behind
// it; the committer must place that in a follow-up batch, so every block
// lands once, in place.
TEST(ChaosRegression, HuffmanDeliveryQueuedBehindCommitFlushIsPlaced) {
  /// Delays the speculative encodes of blocks >= `first`.
  struct SlowTail final : sre::FaultPlan {
    std::size_t first = 0;
    sre::FaultDecision before_task(const sre::Task& task) noexcept override {
      const std::string_view name = task.name();
      constexpr std::string_view kEncode = "spec-encode[";
      if (name.substr(0, kEncode.size()) != kEncode ||
          std::stoul(std::string(name.substr(kEncode.size()))) < first) {
        return sre::FaultDecision::none();
      }
      return sre::FaultDecision::delay(5000);
    }
  };
  /// Holds the first flush batch until a delivery has queued behind it.
  struct QueueBehindFlush final : sre::chaos::Hook {
    const pipeline::HuffmanPipeline* pl = nullptr;
    std::atomic<int> flushes{0};
    void on_point(const char* site) noexcept override {
      if (std::string_view(site) != "wait_buffer.flush_window" ||
          flushes.fetch_add(1) != 0) {
        return;
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (pl->wait_pending() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  };

  auto cfg = pipeline::RunConfig::x86_disk(wl::FileKind::Txt,
                                           DispatchPolicy::Balanced);
  const sio::BlockSource src(wl::make_corpus(cfg.file, 512 * 1024, cfg.seed),
                             cfg.ratios.block_size,
                             std::make_shared<sio::DiskArrival>());
  SlowTail slow;
  slow.first = src.n_blocks() - cfg.ratios.offset_group;
  Runtime rt(cfg.policy);
  rt.set_fault_plan(&slow);
  sre::ThreadedExecutor ex(rt, {.workers = 4, .arrival_time_scale = 0.005});
  pipeline::HuffmanPipeline pl(rt, src, cfg);
  src.for_each_arrival([&](std::size_t i, sio::Micros at) {
    ex.schedule_arrival(at, [&pl, i](std::uint64_t now) {
      pl.on_block_arrival(i, now);
    });
  });
  QueueBehindFlush hook;
  hook.pl = &pl;
  {
    sre::chaos::ScopedHook guard(&hook);
    ex.run();
  }
  pl.validate_complete();
  ASSERT_TRUE(pl.speculation_committed());
  EXPECT_GE(hook.flushes.load(), 2) << "no delivery queued behind the flush";
  const auto back = huff::decompress_buffer(pl.assemble_output());
  EXPECT_TRUE(std::equal(back.begin(), back.end(), src.bytes().begin(),
                         src.bytes().end()));
  // The committed tree passed the final check at the configured tolerance.
  const double optimal = static_cast<double>(
      huff::deserialize(huff::compress_buffer(back)).payload_bits);
  EXPECT_LT(static_cast<double>(pl.output_bits()),
            optimal * (1 + cfg.spec.tolerance + 0.005));
}

// --- Race 3: unbounded per-epoch bookkeeping --------------------------------
//
// A long streaming run settles thousands of epochs. Pre-fix the runtime kept
// an empty epoch_tasks_ map per epoch forever (exactly what
// queue_depths().open_epochs counts) and the WaitBuffer kept a status entry
// per settled epoch.
TEST(ChaosRegression, RuntimeEpochBookkeepingBoundedOver10kEpochs) {
  Runtime rt(DispatchPolicy::Balanced);
  for (int i = 0; i < 10'000; ++i) {
    const sre::Epoch e = rt.open_epoch();
    auto task = rt.make_task("spec", sre::TaskClass::Speculative, e,
                             /*depth=*/1, /*cost_us=*/1, [](sre::TaskContext&) {});
    rt.submit(task);
    drain(rt);
    rt.mark_epoch_committed(e);
  }
  const auto depths = rt.queue_depths();
  EXPECT_EQ(depths.open_epochs, 0u);
  EXPECT_EQ(depths.epoch_tasks, 0u);
}

// Cross-epoch destroy propagation must also release the victim's entry: a
// blocked consumer in epoch B killed by aborting its producer's epoch A
// never reaches the finish path that normally erases it.
TEST(ChaosRegression, CrossEpochAbortReleasesVictimBookkeeping) {
  Runtime rt(DispatchPolicy::Balanced);
  const sre::Epoch a = rt.open_epoch();
  const sre::Epoch b = rt.open_epoch();
  auto producer = rt.make_task("prod", sre::TaskClass::Speculative, a, 1, 1,
                               [](sre::TaskContext&) {});
  auto consumer = rt.make_task("cons", sre::TaskClass::Speculative, b, 1, 1,
                               [](sre::TaskContext&) {});
  rt.add_dependency(producer, consumer);
  rt.submit(producer);
  rt.submit(consumer);  // blocked behind producer

  rt.abort_epoch(a);  // destroy signal reaches the epoch-b consumer

  const auto depths = rt.queue_depths();
  EXPECT_EQ(depths.open_epochs, 0u);
  EXPECT_EQ(depths.epoch_tasks, 0u);
  EXPECT_EQ(rt.blocked_count(), 0u);
}

TEST(ChaosRegression, WaitBufferStatusBoundedOver10kEpochs) {
  std::size_t emitted = 0;
  WaitBuffer<int, int> buf(
      [&emitted](const int&, int&&, std::uint64_t) { ++emitted; },
      /*retire_window=*/8);
  for (sre::Epoch e = 1; e <= 10'000; ++e) {
    buf.add(e, 0, 1, e);
    if (e % 3 == 0) {
      buf.drop(e);
    } else {
      buf.commit(e, e);
    }
  }
  EXPECT_LE(buf.tracked_epochs(), 9u);  // retire_window + newest settled
  EXPECT_EQ(buf.total_pending(), 0u);
  EXPECT_GT(emitted, 0u);

  // A straggler for a long-retired epoch is discarded, not resurrected.
  buf.add(1, 5, 1, 0);
  EXPECT_EQ(buf.late_discards(), 1u);
  EXPECT_LE(buf.tracked_epochs(), 9u);
}

}  // namespace
