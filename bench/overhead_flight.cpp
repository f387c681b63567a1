// Flight-recorder overhead gate: always-on tracing must be close to free.
//
// Runs the same Huffman configuration on the real threaded engine (sharded
// dispatch, 4+ workers — the serving layer's hot configuration) with the
// flight recorder off and armed. Wall-clock threaded runs are noisy, so the
// design works at it from three sides:
//  * tolerance is pinned high so every epoch commits — rollback count is
//    schedule-dependent, and a run that happens to roll back does genuinely
//    different work, which would swamp a single-digit budget;
//  * off/armed runs are paired within each repetition and the order
//    alternates between repetitions, so machine drift (frequency scaling,
//    cache state) cancels instead of biasing one stack;
//  * the statistic is the median of per-repetition ratios, not a difference
//    of independent means.
//
// Exits non-zero when the median overhead exceeds the budget (default 3 %,
// override with TVS_FLIGHT_OVERHEAD_MAX_PCT — CI relaxes it on shared
// runners). On machines with fewer cores than the worker fleet the run is
// oversubscribed: every context switch lands in the measurement, and the
// per-event recorder cost (~20-40 ns, ~0.2% of a run) is unresolvable under
// the scheduler churn. The default budget widens there — with a printed
// explanation — because the number being gated is instrumentation cost, not
// preemption noise; the env override still wins either way.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "flight/recorder.h"
#include "pipeline/driver.h"
#include "pipeline/run_config.h"

namespace {

using Clock = std::chrono::steady_clock;

double timed_ms(const pipeline::RunConfig& cfg,
                const pipeline::RunOptions& opt) {
  const auto t0 = Clock::now();
  (void)pipeline::run_threaded(cfg, opt);
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace

int main() {
  constexpr unsigned kWorkers = 4;
  const unsigned cores = std::thread::hardware_concurrency();
  const bool oversubscribed = cores != 0 && cores < kWorkers + 1;

  int reps = oversubscribed ? 15 : 9;  // more reps to fight churn noise
  if (const char* env = std::getenv("TVS_FLIGHT_OVERHEAD_REPS")) {
    reps = std::max(3, std::atoi(env));
  }
  auto cfg = pipeline::RunConfig::x86_disk(wl::FileKind::Txt,
                                           sre::DispatchPolicy::Balanced);
  // Deterministic speculation path: every verification passes, so both
  // stacks execute the same task stream (full event traffic — epochs,
  // checks, predictions — without schedule-dependent rollback work).
  cfg.spec.tolerance = 1e9;

  pipeline::RunOptions base;
  base.workers = kWorkers;
  base.arrival_time_scale = 0.0;  // compute-bound: maximizes event rate

  flight::Recorder recorder;
  recorder.start();
  pipeline::RunOptions armed = base;
  armed.flight = &recorder;

  std::printf("Flight-recorder overhead: threaded sharded, %u workers, "
              "median of %d paired ratios\n",
              base.workers, reps);

  // Warmup: fault in the corpus, code paths and the recorder's rings.
  (void)timed_ms(cfg, base);
  (void)timed_ms(cfg, armed);

  std::vector<double> ratios;
  double off_best = 1e300, armed_best = 1e300;
  for (int i = 0; i < reps; ++i) {
    double off_ms = 0.0, armed_ms = 0.0;
    if (i % 2 == 0) {
      off_ms = timed_ms(cfg, base);
      armed_ms = timed_ms(cfg, armed);
    } else {
      armed_ms = timed_ms(cfg, armed);
      off_ms = timed_ms(cfg, base);
    }
    ratios.push_back(armed_ms / off_ms);
    off_best = std::min(off_best, off_ms);
    armed_best = std::min(armed_best, armed_ms);
    std::printf("  rep %d: off %8.2f ms, armed %8.2f ms (ratio %.4f)\n",
                i + 1, off_ms, armed_ms, armed_ms / off_ms);
  }

  const double med_pct = (median(ratios) - 1.0) * 100.0;
  std::printf("  best off   : %8.2f ms\n", off_best);
  std::printf("  best armed : %8.2f ms\n", armed_best);
  std::printf("  records in window: %zu, dropped: %llu\n",
              recorder.window_size(),
              static_cast<unsigned long long>(recorder.dropped()));
  std::printf("  median paired overhead: %+.2f%%\n", med_pct);

  double max_pct = 3.0;
  if (oversubscribed) {
    std::printf(
        "  note: %u core(s) hosting %u workers + feeder — oversubscribed; "
        "the measurement is dominated by scheduler churn (even a no-op "
        "observer reads ~2%% here), so the gate only guards against "
        "order-of-magnitude blowups: budget widened to 15%%\n",
        cores, base.workers);
    max_pct = 15.0;
  }
  if (const char* env = std::getenv("TVS_FLIGHT_OVERHEAD_MAX_PCT")) {
    max_pct = std::strtod(env, nullptr);
  }

  // The recorder must actually have captured the runs — a 0% "overhead"
  // from a silently-disabled recorder would make the gate meaningless.
  if (recorder.window_size() == 0) {
    std::printf("FAIL: recorder captured no records — gate is vacuous\n");
    return 1;
  }
  if (med_pct > max_pct) {
    std::printf("FAIL: flight-recorder overhead %.2f%% exceeds %.2f%% budget\n",
                med_pct, max_pct);
    return 1;
  }
  std::printf("OK: flight-recorder overhead %.2f%% within %.2f%% budget\n",
              med_pct, max_pct);
  return 0;
}
