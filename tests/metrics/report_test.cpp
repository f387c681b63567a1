// End-to-end observability: a real pipeline run with the metrics stack
// attached must produce counters consistent with the runtime's own
// bookkeeping, live sampler rows, and a well-formed report bundle.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "metrics/exporters.h"
#include "metrics/registry.h"
#include "metrics/report.h"
#include "metrics/sampler.h"
#include "pipeline/driver.h"
#include "support/json_lite.h"
#include "support/temp_dir.h"

namespace {

namespace fs = std::filesystem;

pipeline::RunConfig small_config() {
  auto cfg = pipeline::RunConfig::x86_disk(wl::FileKind::Txt,
                                           sre::DispatchPolicy::Balanced);
  cfg.bytes = 256 * 1024;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Counts task completions, to check what RunOptions::observer receives.
struct FinishCounter final : sre::Observer {
  std::uint64_t executed = 0;
  std::uint64_t aborted = 0;
  void on_finished(sre::TaskId, std::uint64_t, bool was_aborted) override {
    ++(was_aborted ? aborted : executed);
  }
};

TEST(MetricsRun, UserObserverSeesEveryTaskBesideTheMetricsBridge) {
  metrics::Registry reg;
  FinishCounter counter;
  pipeline::RunOptions opt;
  opt.registry = &reg;
  opt.observer = &counter;  // fanned in beside the metrics bridge
  const auto res = pipeline::run_sim(small_config(), opt);

  EXPECT_EQ(counter.executed, res.counters.tasks_executed)
      << "FanoutObserver must forward every event to RunOptions::observer";
  EXPECT_EQ(counter.aborted, res.counters.tasks_aborted);
  EXPECT_EQ(static_cast<std::uint64_t>(
                reg.snapshot().scalar("tvs_tasks_finished_total")),
            res.counters.tasks_executed)
      << "the metrics bridge still sees the run";
}

TEST(MetricsRun, ObserverCountersMatchRuntimeCounters) {
  metrics::Registry reg;
  pipeline::RunOptions opt;
  opt.registry = &reg;
  const auto res = pipeline::run_sim(small_config(), opt);
  const auto snap = reg.snapshot();

  EXPECT_EQ(static_cast<std::uint64_t>(snap.scalar("tvs_tasks_finished_total")),
            res.counters.tasks_executed);
  EXPECT_EQ(static_cast<std::uint64_t>(snap.scalar("tvs_tasks_aborted_total")),
            res.counters.tasks_aborted);
  EXPECT_EQ(static_cast<std::uint64_t>(snap.scalar("tvs_epochs_opened_total")),
            res.counters.epochs_opened);
  EXPECT_EQ(
      static_cast<std::uint64_t>(snap.scalar("tvs_epochs_committed_total")),
      res.counters.epochs_committed);
  EXPECT_EQ(static_cast<std::uint64_t>(
                snap.scalar("tvs_tasks_finished_total", "class=\"control\"")),
            res.counters.checks_executed);
  EXPECT_EQ(static_cast<std::uint64_t>(snap.scalar("tvs_open_epochs")), 0u)
      << "every opened epoch must be committed or aborted by run end";
  // Check verdicts were recorded with margins (tolerance_margin callback).
  const double verdicts = snap.scalar("tvs_check_verdicts_total");
  EXPECT_GT(verdicts, 0.0);
  for (const auto& h : snap.histograms) {
    if (h.name == "tvs_check_margin_ppm") {
      EXPECT_EQ(h.totals.count, static_cast<std::uint64_t>(verdicts));
    }
  }
}

TEST(MetricsRun, DeterministicSimIsUnperturbedByMetricsAndSampler) {
  const auto base = pipeline::run_sim(small_config());
  metrics::Registry reg;
  metrics::Sampler sampler;
  pipeline::RunOptions opt;
  opt.registry = &reg;
  opt.sampler = &sampler;
  opt.sample_interval_us = 1'000;
  const auto instrumented = pipeline::run_sim(small_config(), opt);
  EXPECT_EQ(base.makespan_us, instrumented.makespan_us)
      << "sampling must not perturb the virtual-time schedule";
  EXPECT_EQ(base.counters.tasks_executed, instrumented.counters.tasks_executed);
  EXPECT_EQ(base.output_bits, instrumented.output_bits);
}

TEST(MetricsRun, SimSamplerTicksOnVirtualTime) {
  metrics::Registry reg;
  metrics::Sampler sampler;
  pipeline::RunOptions opt;
  opt.registry = &reg;
  opt.sampler = &sampler;
  opt.sample_interval_us = 1'000;
  const auto res = pipeline::run_sim(small_config(), opt);
  const auto rows = sampler.samples();
  ASSERT_GE(rows.size(), 2u);
  // Rows are timestamped in virtual time, within the run's makespan (the
  // final closing row lands exactly at the end).
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].t_us, rows[i - 1].t_us);
  }
  EXPECT_LE(rows.back().t_us, res.makespan_us + 1'000);
  const auto names = sampler.series_names();
  EXPECT_EQ(names.size(), rows[0].values.size());
  bool saw_live_work = false;
  for (const auto& row : rows) {
    for (double v : row.values) {
      if (v > 0) saw_live_work = true;
    }
  }
  EXPECT_TRUE(saw_live_work) << "mid-run probes should see non-zero depths";
}

TEST(MetricsRun, ThreadedEngineFillsRegistryAndSampler) {
  metrics::Registry reg;
  metrics::Sampler sampler;
  pipeline::RunOptions opt;
  opt.registry = &reg;
  opt.sampler = &sampler;
  opt.sample_interval_us = 500;
  opt.workers = 4;
  opt.arrival_time_scale = 0.0;
  const auto res = pipeline::run_threaded(small_config(), opt);
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.samples().size(), 1u);
  const auto snap = reg.snapshot();
  EXPECT_EQ(static_cast<std::uint64_t>(snap.scalar("tvs_tasks_finished_total")),
            res.counters.tasks_executed);
}

TEST(RunReport, BundleIsWellFormedAndComplete) {
  metrics::Registry reg;
  metrics::Sampler sampler;
  pipeline::RunOptions opt;
  opt.registry = &reg;
  opt.sampler = &sampler;
  opt.sample_interval_us = 1'000;
  const auto cfg = small_config();
  const auto res = pipeline::run_sim(cfg, opt);

  const report::RunInfo info = pipeline::run_info(cfg, res, "sim");
  EXPECT_EQ(info.scenario, cfg.label());
  EXPECT_EQ(info.makespan_us, res.makespan_us);
  EXPECT_EQ(info.blocks, res.trace.size());

  const report::RunReport rep = report::make_report(info, &reg, &sampler);
  const auto json = rep.to_json();
  EXPECT_TRUE(json_lite::valid(json))
      << "report JSON invalid; first bad byte at " << json_lite::error_at(json);
  const auto md = rep.to_markdown();
  EXPECT_NE(md.find(cfg.label()), std::string::npos);

  const test_support::TempDir tmp("tvs_report_test");
  const auto dir = tmp.file("bundle");  // write_bundle makes it
  const auto paths = report::write_bundle(rep, dir);
  ASSERT_GE(paths.size(), 3u);
  for (const auto& p : paths) {
    EXPECT_TRUE(fs::exists(p)) << p;
    EXPECT_GT(fs::file_size(p), 0u) << p;
  }
  const auto written_json = slurp(dir + "/report.json");
  EXPECT_TRUE(json_lite::valid(written_json));
  EXPECT_NE(slurp(dir + "/report.md").find(cfg.label()), std::string::npos);
  EXPECT_NE(slurp(dir + "/report.prom").find("tvs_tasks_finished_total"),
            std::string::npos);
}

TEST(RunReport, OmitsDispatchSectionWhenNotInstrumented) {
  // run_sim leaves RunResult::dispatch all-zero ("not instrumented"); the
  // report must omit the section rather than print misleading zeros.
  const auto cfg = small_config();
  const auto res = pipeline::run_sim(cfg);
  const report::RunInfo info = pipeline::run_info(cfg, res, "sim");
  ASSERT_TRUE(info.dispatch.empty());

  const report::RunReport rep = report::make_report(info, nullptr, nullptr);
  const auto json = rep.to_json();
  EXPECT_TRUE(json_lite::valid(json));
  EXPECT_EQ(json.find("\"dispatch\""), std::string::npos);
  EXPECT_EQ(rep.to_markdown().find("## Dispatch"), std::string::npos);
}

TEST(RunReport, EmitsDispatchSectionForShardedThreadedRuns) {
  auto cfg = small_config();
  pipeline::RunOptions opt;
  opt.workers = 4;
  const auto res = pipeline::run_threaded(cfg, opt);
  const report::RunInfo info = pipeline::run_info(cfg, res, "threaded");
  ASSERT_FALSE(info.dispatch.empty());
  EXPECT_EQ(info.dispatch.tasks_run, res.dispatch.tasks_run);

  const report::RunReport rep = report::make_report(info, nullptr, nullptr);
  const auto json = rep.to_json();
  EXPECT_TRUE(json_lite::valid(json));
  EXPECT_NE(json.find("\"dispatch\""), std::string::npos);
  EXPECT_NE(json.find("\"tasks_run\""), std::string::npos);
  EXPECT_NE(rep.to_markdown().find("## Dispatch"), std::string::npos);
}

}  // namespace
