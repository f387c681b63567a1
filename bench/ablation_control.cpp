// A/B ablation: the adaptive control plane vs static speculation tuning on
// a phase-changing workload.
//
// The input is a spliced TXT → BMP → PDF stream: the compression-ratio
// threshold (and therefore the step size a static tuner would pick) changes
// twice mid-run. Static arms pin one SpecConfig for the whole stream; the
// adaptive arm starts from the aggressive baseline and lets the controller
// (src/control) retune restart_min_defer / step_size from the live rollback
// rate, on *virtual* time, so every number below is deterministic — the
// A/B needs no repetition and resolves arbitrarily small gaps (wall-clock
// serving benches cannot; see docs/benchmarks.md on paired ratios).
//
// Acceptance gates (exit non-zero on failure):
//   1. adaptive strictly beats the worst static arm;
//   2. adaptive lands within TVS_ABLATION_TOL_PCT (default 15 %) of the
//      best static arm — oracle-tuned per input, which the adaptive arm
//      must approach with zero per-input tuning;
//   3. a *disabled* controller is bit-identical to an unwired run (same
//      container bytes, same virtual makespan);
//   4. controller sampling overhead — ticks firing, bands never tripped —
//      stays under TVS_OVERHEAD_MAX_PCT (default 2 %) of wall time, the
//      same gate overhead_metrics applies to the metrics stack.
//
// `--smoke` shrinks the corpus for CI; the full run sweeps more data.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "control/controller.h"
#include "workload/corpus.h"

namespace {

using Clock = std::chrono::steady_clock;

double timed_ms(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// TXT → BMP → PDF → TXT → …, `segments` splices of `per_segment` bytes:
/// every boundary moves the compression-ratio threshold, so a static tuner
/// faces a fresh rollback risk `segments - 1` times per run.
std::string write_spliced_corpus(std::size_t per_segment,
                                 std::size_t segments) {
  const auto kinds = wl::all_kinds();
  std::vector<std::uint8_t> bytes;
  bytes.reserve(segments * per_segment);
  for (std::size_t i = 0; i < segments; ++i) {
    const auto part =
        wl::make_corpus(kinds[i % kinds.size()], per_segment, /*seed=*/42 + i);
    bytes.insert(bytes.end(), part.begin(), part.end());
  }
  const auto path = std::filesystem::temp_directory_path() /
                    ("tvs_ablation_control_" + std::to_string(per_segment) +
                     "x" + std::to_string(segments) + ".bin");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  return path.string();
}

pipeline::RunConfig arm_config(const std::string& input,
                               std::uint32_t step_size) {
  auto cfg = pipeline::RunConfig::x86_disk(wl::FileKind::Txt,
                                           sre::DispatchPolicy::Balanced);
  cfg.input_path = input;
  // One estimate per 4 blocks (the paper's 16 is tuned for single-phase
  // inputs): a denser estimate stream, so the speculation health signal has
  // enough resolution for feedback control to act mid-run.
  cfg.ratios.reduce_ratio = 4;
  cfg.spec.step_size = step_size;
  cfg.spec.tolerance = 0.002;
  return cfg;
}

struct Arm {
  std::string name;
  double latency_us = 0.0;
  std::uint64_t makespan_us = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t retunes = 0;
};

double env_pct(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atof(v) : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::init_reports(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const std::size_t per_segment = smoke ? 64 * 1024 : 256 * 1024;
  const std::size_t segments = smoke ? 24 : 48;
  const std::string input = write_spliced_corpus(per_segment, segments);

  std::printf("Ablation: adaptive control plane vs static tuning\n");
  std::printf("(TXT>BMP>PDF cycle, %zu x %zu KiB phases, x86 disk, "
              "balanced%s)\n\n",
              segments, per_segment / 1024, smoke ? ", --smoke" : "");

  // --- Static arms ---------------------------------------------------------
  std::vector<Arm> arms;
  pipeline::RunResult aggressive_res;
  for (const auto& [name, step] :
       std::vector<std::pair<std::string, std::uint32_t>>{
           {"static/aggressive(step=1)", 1},
           {"static/moderate(step=8)", 8},
           {"static/conservative(step=32)", 32}}) {
    const auto res = pipeline::run_sim(arm_config(input, step));
    pipeline::verify_roundtrip(res);
    if (step == 1) aggressive_res = res;
    arms.push_back({name, res.avg_latency_us(), res.makespan_us,
                    res.rollbacks, 0});
  }

  // --- Adaptive arm --------------------------------------------------------
  // Calibrate the controller's time axis and rollback band to this
  // workload's own scale: sample ~100 times per run, call the rollback rate
  // "high" above a quarter of the aggressive arm's disaster rate.
  const auto& aggr = arms[0];
  control::ControlConfig ctl_cfg;
  ctl_cfg.enabled = true;
  ctl_cfg.interval_us = std::max<std::uint64_t>(1, aggr.makespan_us / 100);
  ctl_cfg.min_dwell_us = 3 * ctl_cfg.interval_us;
  if (aggr.rollbacks > 0 && aggr.makespan_us > 0) {
    const double disaster_rate =
        static_cast<double>(aggr.rollbacks) * 1e6 /
        static_cast<double>(aggr.makespan_us);
    ctl_cfg.rollback_rate_high = disaster_rate / 4.0;
    ctl_cfg.rollback_rate_low = disaster_rate / 32.0;
  }
  control::Controller controller(ctl_cfg, {});
  {
    pipeline::RunOptions opt;
    opt.controller = &controller;
    const auto res = pipeline::run_sim(arm_config(input, 1), opt);
    pipeline::verify_roundtrip(res);
    arms.push_back({"adaptive(controller)", res.avg_latency_us(),
                    res.makespan_us, res.rollbacks,
                    controller.stream(1, 1).retunes()});
  }

  std::printf("%-30s %12s %12s %10s %8s\n", "arm", "latency-us", "makespan",
              "rollbacks", "retunes");
  for (const Arm& a : arms) {
    std::printf("%-30s %12.1f %12llu %10llu %8llu\n", a.name.c_str(),
                a.latency_us, static_cast<unsigned long long>(a.makespan_us),
                static_cast<unsigned long long>(a.rollbacks),
                static_cast<unsigned long long>(a.retunes));
  }

  const Arm& adaptive = arms.back();
  const auto static_best = *std::min_element(
      arms.begin(), arms.end() - 1,
      [](const Arm& a, const Arm& b) { return a.latency_us < b.latency_us; });
  const auto static_worst = *std::max_element(
      arms.begin(), arms.end() - 1,
      [](const Arm& a, const Arm& b) { return a.latency_us < b.latency_us; });

  int failures = 0;

  // Gate 1: strictly better than the worst static arm.
  if (adaptive.latency_us >= static_worst.latency_us) {
    std::printf("\nFAIL: adaptive (%.1f us) not better than worst static "
                "%s (%.1f us)\n",
                adaptive.latency_us, static_worst.name.c_str(),
                static_worst.latency_us);
    ++failures;
  }

  // Gate 2: within tolerance of the oracle-tuned static arm.
  const double tol_pct = env_pct("TVS_ABLATION_TOL_PCT", 15.0);
  const double vs_best =
      (adaptive.latency_us - static_best.latency_us) /
      static_best.latency_us * 100.0;
  std::printf("\nadaptive vs best static (%s): %+.2f%% (gate %.0f%%), "
              "vs worst: %+.2f%%\n",
              static_best.name.c_str(), vs_best, tol_pct,
              (adaptive.latency_us - static_worst.latency_us) /
                  static_worst.latency_us * 100.0);
  if (vs_best > tol_pct) {
    std::printf("FAIL: adaptive misses the best static arm by more than "
                "%.0f%%\n", tol_pct);
    ++failures;
  }

  // Gate 3: a disabled controller must be bit-identical to an unwired run.
  {
    control::Controller off({}, {});  // enabled = false
    pipeline::RunOptions opt;
    opt.controller = &off;
    const auto res = pipeline::run_sim(arm_config(input, 1), opt);
    if (res.container != aggressive_res.container ||
        res.makespan_us != aggressive_res.makespan_us) {
      std::printf("FAIL: disabled controller perturbed the schedule "
                  "(makespan %llu vs %llu)\n",
                  static_cast<unsigned long long>(res.makespan_us),
                  static_cast<unsigned long long>(aggressive_res.makespan_us));
      ++failures;
    } else {
      std::printf("disabled-controller run: bit-identical (makespan %llu)\n",
                  static_cast<unsigned long long>(res.makespan_us));
    }
  }

  // Gate 4: sampling overhead. Ticks fire at the adaptive cadence but the
  // bands are unreachable, so wall-clock delta is pure sampling cost.
  {
    const int reps = smoke ? 3 : 5;
    auto cfg = arm_config(input, 1);
    control::ControlConfig idle_cfg = ctl_cfg;
    idle_cfg.rollback_rate_high = 1e300;
    idle_cfg.rollback_rate_low = -1.0;

    const std::function<void()> run_off = [&] { (void)pipeline::run_sim(cfg); };
    const std::function<void()> run_ticking = [&] {
      control::Controller idle(idle_cfg, {});
      pipeline::RunOptions opt;
      opt.controller = &idle;
      (void)pipeline::run_sim(cfg, opt);
    };
    run_off();  // warmup
    double off_ms = 1e300, on_ms = 1e300;
    for (int i = 0; i < reps; ++i) {
      off_ms = std::min(off_ms, timed_ms(run_off));
      on_ms = std::min(on_ms, timed_ms(run_ticking));
    }
    const double pct = (on_ms - off_ms) / off_ms * 100.0;
    const double max_pct = env_pct("TVS_OVERHEAD_MAX_PCT", 2.0);
    std::printf("sampling overhead: %8.2f ms -> %8.2f ms (%+.2f%%, gate "
                "%.1f%%)\n", off_ms, on_ms, pct, max_pct);
    if (pct > max_pct) {
      std::printf("FAIL: controller sampling overhead exceeds %.1f%%\n",
                  max_pct);
      ++failures;
    }
  }

  std::filesystem::remove(input);
  if (failures == 0) {
    std::printf("\nablation_control: all gates passed\n");
    return 0;
  }
  std::printf("\nablation_control: %d gate(s) FAILED\n", failures);
  return 1;
}
