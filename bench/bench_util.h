// Shared helpers for the figure-reproduction benchmark binaries.
//
// Every fig*_ binary prints: a per-policy summary table (the quantitative
// shape), an ASCII latency-vs-element chart (the figure's visual shape), and
// — when run with `--csv <dir>` — one CSV per figure panel with the exact
// series, ready for external plotting.
//
// BENCH_*.json writers share the provenance header (write_provenance) and
// the rep-spread summary (spread) at the end of this file.
#pragma once

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/driver.h"
#include "stats/ascii_plot.h"
#include "stats/csv.h"
#include "stats/summary.h"

namespace benchutil {

/// Parses `--csv <dir>` from argv; creates the directory if needed.
inline std::optional<std::string> csv_dir(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--csv") {
      std::filesystem::create_directories(argv[i + 1]);
      return std::string(argv[i + 1]);
    }
  }
  return std::nullopt;
}

// --- Machine-readable run reports (`--report <dir>`) ------------------------

/// The process-wide report target; set once from main() via init_reports().
inline std::optional<std::string>& report_dir_ref() {
  static std::optional<std::string> dir;
  return dir;
}

/// Parses `--report <dir>` from argv. When present, every run_reported()
/// call attaches the metrics stack and writes a report bundle into <dir>.
inline void init_reports(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--report") {
      std::filesystem::create_directories(argv[i + 1]);
      report_dir_ref() = std::string(argv[i + 1]);
    }
  }
}

/// File-stem-safe scenario name: "fig3/txt/non-spec" → "fig3_txt_non-spec".
inline std::string report_stem(const std::string& scenario) {
  std::string out;
  out.reserve(scenario.size());
  for (char c : scenario) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '.';
    out += ok ? c : '_';
  }
  return out;
}

/// Runs one scenario on the simulator. Without `--report` this is exactly
/// pipeline::run_sim(cfg); with it, the run carries its own metrics
/// registry + sampler (runs stay isolated from each other) and leaves a
/// `<dir>/<scenario>.{json,md,prom}` bundle behind.
inline pipeline::RunResult run_reported(const std::string& scenario,
                                        const pipeline::RunConfig& cfg) {
  if (!report_dir_ref()) return pipeline::run_sim(cfg);
  metrics::Registry registry;
  metrics::Sampler sampler;
  pipeline::RunOptions opt;
  opt.registry = &registry;
  opt.sampler = &sampler;
  auto result = pipeline::run_sim(cfg, opt);
  // Scheduler dispatch counters: how many pool pops each task class got.
  // The MetricsObserver sees dispatches but not the class split the pool
  // tracks, so fold the pool's own counters into the bundle here.
  registry.counter("tvs_dispatch_pops_total", "class=\"natural\"")
      .add(result.natural_dispatches);
  registry.counter("tvs_dispatch_pops_total", "class=\"speculative\"")
      .add(result.spec_dispatches);
  registry.counter("tvs_dispatch_pops_total", "class=\"control\"")
      .add(result.control_dispatches);
  report::RunInfo info = pipeline::run_info(cfg, result, "sim");
  info.scenario = scenario + " [" + cfg.label() + "]";
  const auto bundle = report::make_report(info, &registry, &sampler);
  for (const auto& path :
       report::write_bundle(bundle, *report_dir_ref(), report_stem(scenario))) {
    std::printf("  report %s\n", path.c_str());
  }
  return result;
}

struct NamedRun {
  std::string name;
  pipeline::RunResult result;
};

/// Prints one summary row per run: the numbers behind the figure.
inline void print_summary_table(const std::string& title,
                                const std::vector<NamedRun>& runs) {
  std::printf("\n--- %s ---\n", title.c_str());
  std::printf("%-14s %12s %10s %10s %12s %6s %7s %9s\n", "series",
              "avg_lat_us", "p95_us", "max_us", "runtime_us", "rb",
              "commit", "waste_enc");
  for (const auto& r : runs) {
    const auto s = r.result.latency_summary();
    std::printf("%-14s %12.0f %10llu %10llu %12llu %6llu %7s %9llu\n",
                r.name.c_str(), r.result.avg_latency_us(),
                static_cast<unsigned long long>(s.p95),
                static_cast<unsigned long long>(s.max),
                static_cast<unsigned long long>(r.result.makespan_us),
                static_cast<unsigned long long>(r.result.rollbacks),
                r.result.spec_committed ? "yes" : "no",
                static_cast<unsigned long long>(
                    r.result.trace.wasted_encodes()));
  }
}

/// ASCII rendering of the latency-vs-element panel.
inline void print_latency_chart(const std::vector<NamedRun>& runs) {
  std::vector<std::vector<stats::Micros>> series;
  series.reserve(runs.size());
  for (const auto& r : runs) series.push_back(r.result.trace.latencies());
  std::vector<stats::SeriesView> views;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    views.push_back({runs[i].name, &series[i]});
  }
  std::printf("%s", stats::plot_series(views).c_str());
}

/// CSV: element,<series...> — one row per block.
inline void write_latency_csv(const std::string& dir, const std::string& file,
                              const std::vector<NamedRun>& runs) {
  stats::CsvWriter csv(dir + "/" + file);
  std::vector<std::string> header{"element"};
  std::vector<std::vector<stats::Micros>> series;
  for (const auto& r : runs) {
    header.push_back(r.name);
    series.push_back(r.result.trace.latencies());
  }
  csv.header(header);
  const std::size_t n = series.empty() ? 0 : series.front().size();
  for (std::size_t e = 0; e < n; ++e) {
    std::vector<std::string> row{std::to_string(e)};
    for (const auto& s : series) row.push_back(std::to_string(s[e]));
    csv.row(row);
  }
  std::printf("  wrote %s/%s\n", dir.c_str(), file.c_str());
}

/// Run-time bar panel (Fig. 3d / 4d / 6d).
inline void print_runtime_bars(
    const std::string& title,
    const std::vector<std::pair<std::string, double>>& bars) {
  std::printf("\n--- %s ---\n", title.c_str());
  std::vector<stats::Bar> b;
  b.reserve(bars.size());
  for (const auto& [label, value] : bars) b.push_back({label, value});
  std::printf("%s", stats::bar_chart(b, "us").c_str());
}

/// Sanity common to every figure run: output round-trips and latencies exist.
inline void verify_run(const NamedRun& run) {
  pipeline::verify_roundtrip(run.result);
}

// --- BENCH_*.json provenance and spread --------------------------------------

/// Median and quartiles of a set of per-rep measurements (linear
/// interpolation between order statistics).
struct Spread {
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
};

inline Spread spread(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  return {at(0.25), at(0.5), at(0.75)};
}

inline const char* compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// Short git sha of the source tree the binary was built from, with
/// "-dirty" when tracked files differ from it; "unknown" outside a checkout.
/// Call it before opening the output file: a writer that truncates a
/// tracked BENCH file in place would otherwise read itself as "-dirty".
inline std::string git_sha() {
#ifdef TVS_SOURCE_DIR
  const auto run = [](const std::string& cmd) {
    std::string out;
    if (std::FILE* p = popen(cmd.c_str(), "r")) {
      char buf[128];
      while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
      pclose(p);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
    return out;
  };
  const std::string git = "git -C \"" TVS_SOURCE_DIR "\" ";
  std::string sha = run(git + "rev-parse --short=12 HEAD 2>/dev/null");
  if (sha.empty()) return "unknown";
  if (!run(git + "status --porcelain --untracked-files=no 2>/dev/null")
           .empty()) {
    sha += "-dirty";
  }
  return sha;
#else
  return "unknown";
#endif
}

/// Writes the `"provenance"` member every BENCH_*.json carries: host core
/// count, compiler, build type, source sha (from git_sha(), taken before
/// `f` was opened) and repetitions per cell.
/// Emits a trailing comma; call it right after the opening brace.
inline void write_provenance(std::FILE* f, unsigned reps,
                             const std::string& sha) {
#ifdef TVS_BUILD_TYPE
  const char* build_type = TVS_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  std::fprintf(f,
               "  \"provenance\": {\"nproc\": %u, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\", \"git_sha\": \"%s\", "
               "\"reps\": %u},\n",
               std::thread::hardware_concurrency(), compiler_id(), build_type,
               sha.c_str(), reps);
}

}  // namespace benchutil
