#include <gtest/gtest.h>

#include <fstream>

#include "stats/ascii_plot.h"
#include "stats/csv.h"
#include "stats/summary.h"
#include "stats/trace.h"
#include "support/temp_dir.h"

namespace {

using stats::BlockTrace;
using stats::Micros;

TEST(Summary, KnownValues) {
  const std::vector<Micros> v = {10, 20, 30, 40, 50};
  const auto s = stats::summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 30.0);
  EXPECT_EQ(s.min, 10u);
  EXPECT_EQ(s.max, 50u);
  EXPECT_EQ(s.p50, 30u);
  EXPECT_NEAR(s.stddev, 14.142, 0.01);
}

TEST(Summary, EmptySeries) {
  const auto s = stats::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Percentile, InterpolatesLinearly) {
  EXPECT_EQ(stats::percentile({0, 100}, 50.0), 50u);
  EXPECT_EQ(stats::percentile({0, 100}, 0.0), 0u);
  EXPECT_EQ(stats::percentile({0, 100}, 100.0), 100u);
  EXPECT_EQ(stats::percentile({10, 20, 30, 40}, 25.0), 18u);  // 10+0.75*10
}

TEST(Percentile, Validates) {
  EXPECT_THROW((void)stats::percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)stats::percentile({1}, -1.0), std::invalid_argument);
  EXPECT_THROW((void)stats::percentile({1}, 101.0), std::invalid_argument);
}

TEST(PercentChange, Signs) {
  EXPECT_DOUBLE_EQ(stats::percent_change(100.0, 50.0), -50.0);
  EXPECT_DOUBLE_EQ(stats::percent_change(100.0, 150.0), 50.0);
  EXPECT_DOUBLE_EQ(stats::percent_change(0.0, 5.0), 0.0);
}

TEST(Downsample, KeepsFinalPoint) {
  std::vector<Micros> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
  const auto d = stats::downsample(v, 10);
  EXPECT_LE(d.size(), 12u);
  EXPECT_EQ(d.front().first, 0u);
  EXPECT_EQ(d.back().first, 999u);
}

TEST(BlockTrace, LatencyAndCompleteness) {
  BlockTrace t(3);
  t.record_arrival(0, 100);
  t.record_arrival(1, 200);
  t.record_arrival(2, 300);
  EXPECT_FALSE(t.complete());
  t.record_done(0, 150, false);
  t.record_done(1, 260, true);
  t.record_done(2, 330, true);
  EXPECT_TRUE(t.complete());
  EXPECT_EQ(t.latencies(), (std::vector<Micros>{50, 60, 30}));
  EXPECT_EQ(t.arrivals(), (std::vector<Micros>{100, 200, 300}));
  EXPECT_EQ(t.last_done_us(), 330u);
  EXPECT_EQ(t.speculative_commits(), 2u);
  EXPECT_EQ(t.wasted_encodes(), 0u);
}

TEST(BlockTrace, RollbackOverwritesAndCountsWaste) {
  BlockTrace t(1);
  t.record_arrival(0, 0);
  t.record_done(0, 10, true);   // speculative encode
  t.record_done(0, 50, false);  // re-encode after rollback
  EXPECT_EQ(t.latencies()[0], 50u);
  EXPECT_FALSE(t.at(0).speculative);
  EXPECT_EQ(t.wasted_encodes(), 1u);
}

TEST(BlockTrace, LatenciesThrowOnIncompleteRun) {
  BlockTrace t(2);
  t.record_done(0, 5, false);
  EXPECT_THROW(t.latencies(), std::logic_error);
}

TEST(RunCounters, ToStringMentionsEverything) {
  stats::RunCounters c;
  c.tasks_executed = 5;
  c.rollbacks = 2;
  const auto s = stats::to_string(c);
  EXPECT_NE(s.find("tasks=5"), std::string::npos);
  EXPECT_NE(s.find("rollbacks=2"), std::string::npos);
}

TEST(Csv, EscapesSpecialCells) {
  EXPECT_EQ(stats::CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(stats::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(stats::CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(stats::CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRows) {
  const test_support::TempDir dir("tvs_csv_test");
  const auto path = dir.file("t.csv");
  {
    stats::CsvWriter w(path);
    w.header({"a", "b"});
    w.row({"1", "x,y"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");
}

TEST(Csv, BadPathThrows) {
  EXPECT_THROW(stats::CsvWriter("/nonexistent/dir/f.csv"), std::runtime_error);
}

TEST(AsciiPlot, RendersSeriesAndLegend) {
  const std::vector<Micros> a = {1, 2, 3, 4, 5};
  const std::vector<Micros> b = {5, 4, 3, 2, 1};
  const auto out =
      stats::plot_series({{"up", &a}, {"down", &b}}, 40, 8);
  EXPECT_NE(out.find("up"), std::string::npos);
  EXPECT_NE(out.find("down"), std::string::npos);
  EXPECT_NE(out.find("y-max"), std::string::npos);
}

TEST(AsciiPlot, SparklineLengthMatchesWidth) {
  const std::vector<Micros> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(stats::sparkline(v, 20).size(), 20u);
  EXPECT_TRUE(stats::sparkline({}, 20).empty());
}

TEST(AsciiPlot, BarChartShowsValues) {
  const auto out = stats::bar_chart({{"fast", 10.0}, {"slow", 20.0}}, "us");
  EXPECT_NE(out.find("fast"), std::string::npos);
  EXPECT_NE(out.find("20 us"), std::string::npos);
}

}  // namespace
