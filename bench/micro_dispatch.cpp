// Dispatch-path worker-scaling sweep of the ThreadedExecutor (workers
// self-stage from the ready pool into work-stealing deques, lock-free
// completions, director-side wakeups), across worker counts, task grains
// and workload shapes.
//
// Two shapes per cell:
//
//  * flat  — N independent natural tasks submitted up front; the executor
//    drains a full pool, so the number is raw pop/retire throughput.
//  * chain — C parallel dependency chains of L links each (the paper's
//    coarse-grain streaming shape: every stage feeds the next). Each
//    completion must be retired before its successor becomes ready, so this
//    shape stresses the completion path and the wakeup protocol as workers
//    are added.
//
// With fine-grain (empty) bodies the numbers are almost pure scheduler
// overhead; with coarse-grain (~20 µs spin) bodies the overhead amortizes
// away. Every cell runs `reps` times and reports the median and quartiles of
// its throughput; the counters come from the median rep. Results go to
// BENCH_dispatch.json (override with --out <path>) under the shared
// provenance header (bench_util.h).
//
// This is a scheduler microbenchmark, not a figure reproduction: the paper's
// figures come from the deterministic virtual-time simulator (see
// docs/scheduling.md).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sre/runtime.h"
#include "sre/threaded_executor.h"

namespace {

/// One run of one cell.
struct Rep {
  double wall_ms = 0.0;
  double tasks_per_sec = 0.0;
  sre::ThreadedExecutor::DispatchStats stats;
};

struct Cell {
  const char* shape = "";  // "flat" | "chain"
  unsigned workers = 0;
  unsigned grain_us = 0;
  std::size_t tasks = 0;
  benchutil::Spread tps;      ///< tasks/s over the reps
  benchutil::Spread wall_ms;  ///< wall time over the reps
  Rep median_rep;             ///< the rep whose throughput is the median
};

void spin_for_us(unsigned us) {
  if (us == 0) return;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

Rep run_once(unsigned workers, unsigned grain_us, std::size_t chains,
             std::size_t links) {
  sre::Runtime rt(sre::DispatchPolicy::NonSpeculative);
  sre::ThreadedExecutor::Options opts;
  opts.workers = workers;
  opts.collect_pop_latency = true;
  sre::ThreadedExecutor ex(rt, opts);

  const std::size_t tasks = chains * links;
  std::vector<sre::TaskPtr> handles;
  handles.reserve(tasks);
  for (std::size_t c = 0; c < chains; ++c) {
    sre::TaskPtr prev;
    for (std::size_t l = 0; l < links; ++l) {
      auto t = rt.make_task(
          "t" + std::to_string(c) + "_" + std::to_string(l),
          sre::TaskClass::Natural, sre::kNaturalEpoch,
          /*depth=*/0, /*cost_us=*/grain_us,
          [grain_us](sre::TaskContext&) { spin_for_us(grain_us); });
      if (prev) rt.add_dependency(prev, t);
      handles.push_back(t);
      prev = t;
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& t : handles) rt.submit(t);
  ex.run();
  const auto t1 = std::chrono::steady_clock::now();

  Rep r;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.tasks_per_sec = r.wall_ms > 0.0
                        ? static_cast<double>(tasks) / (r.wall_ms / 1000.0)
                        : 0.0;
  r.stats = ex.dispatch_stats();
  return r;
}

Cell run_cell(unsigned workers, unsigned grain_us, std::size_t chains,
              std::size_t links, unsigned reps) {
  std::vector<Rep> runs;
  for (unsigned i = 0; i < reps; ++i) {
    runs.push_back(run_once(workers, grain_us, chains, links));
  }
  std::vector<double> tps;
  std::vector<double> wall;
  for (const Rep& r : runs) {
    tps.push_back(r.tasks_per_sec);
    wall.push_back(r.wall_ms);
  }
  std::sort(runs.begin(), runs.end(), [](const Rep& a, const Rep& b) {
    return a.tasks_per_sec < b.tasks_per_sec;
  });
  Cell c;
  c.shape = links > 1 ? "chain" : "flat";
  c.workers = workers;
  c.grain_us = grain_us;
  c.tasks = chains * links;
  c.tps = benchutil::spread(tps);
  c.wall_ms = benchutil::spread(wall);
  c.median_rep = runs[runs.size() / 2];
  return c;
}

void print_cell(const Cell& c) {
  const auto& s = c.median_rep.stats;
  std::printf(
      "  %-5s w=%-2u grain=%-2uus  %8.1f ms  %10.0f tasks/s [%.0f..%.0f]"
      "  p50=%llu p99=%llu us  steals=%llu self=%llu retires=%llu\n",
      c.shape, c.workers, c.grain_us, c.wall_ms.median, c.tps.median,
      c.tps.p25, c.tps.p75,
      static_cast<unsigned long long>(s.pop_latency_quantile_us(0.50)),
      static_cast<unsigned long long>(s.pop_latency_quantile_us(0.99)),
      static_cast<unsigned long long>(s.steals),
      static_cast<unsigned long long>(s.self_stages),
      static_cast<unsigned long long>(s.worker_retires));
}

void write_json(const std::string& path, const std::vector<Cell>& cells,
                unsigned reps, const std::string& sha) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_dispatch: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"micro_dispatch\",\n");
  std::fprintf(f,
               "  \"description\": \"ThreadedExecutor dispatch-path "
               "worker-scaling sweep; tasks_per_sec is the median over reps "
               "with quartiles, counters from the median rep\",\n");
  benchutil::write_provenance(f, reps, sha);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const auto& s = c.median_rep.stats;
    std::fprintf(
        f,
        "    {\"shape\": \"%s\", \"workers\": %u, \"grain_us\": %u, "
        "\"tasks\": %zu, \"wall_ms\": %.3f, \"tasks_per_sec\": %.0f, "
        "\"tasks_per_sec_p25\": %.0f, \"tasks_per_sec_p75\": %.0f, "
        "\"pop_p50_us\": %llu, \"pop_p99_us\": %llu, "
        "\"local_pops\": %llu, \"steals\": %llu, \"self_stages\": %llu, "
        "\"inline_finishes\": %llu, \"worker_retires\": %llu, "
        "\"parks\": %llu, \"completion_fallbacks\": %llu}%s\n",
        c.shape, c.workers, c.grain_us, c.tasks, c.wall_ms.median,
        c.tps.median, c.tps.p25, c.tps.p75,
        static_cast<unsigned long long>(s.pop_latency_quantile_us(0.50)),
        static_cast<unsigned long long>(s.pop_latency_quantile_us(0.99)),
        static_cast<unsigned long long>(s.local_pops),
        static_cast<unsigned long long>(s.steals),
        static_cast<unsigned long long>(s.self_stages),
        static_cast<unsigned long long>(s.inline_finishes),
        static_cast<unsigned long long>(s.worker_retires),
        static_cast<unsigned long long>(s.parks),
        static_cast<unsigned long long>(s.completion_fallbacks),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string sha = benchutil::git_sha();
  std::string out = "BENCH_dispatch.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  const unsigned reps = quick ? 1 : 5;
  const std::size_t fine_tasks = quick ? 1000 : 8000;
  const std::size_t coarse_tasks = quick ? 500 : 2000;
  const std::size_t chains = 4;
  const std::size_t chain_links = quick ? 100 : 500;

  std::printf("micro_dispatch: executor worker-scaling sweep, %u reps/cell\n",
              reps);
  std::vector<Cell> cells;
  // Flat shape: independent tasks, full pool from the start.
  for (const unsigned grain_us : {0u, 20u}) {
    const std::size_t tasks = grain_us == 0 ? fine_tasks : coarse_tasks;
    for (const unsigned workers : {1u, 2u, 4u, 8u, 16u}) {
      cells.push_back(run_cell(workers, grain_us, tasks, 1, reps));
      print_cell(cells.back());
    }
  }
  // Chain shape: completion-path stress (fine grain only — coarse bodies
  // hide the dispatch cost this benchmark exists to expose).
  for (const unsigned workers : {1u, 2u, 4u, 8u, 16u}) {
    cells.push_back(
        run_cell(workers, /*grain_us=*/0, chains, chain_links, reps));
    print_cell(cells.back());
  }
  write_json(out, cells, reps, sha);
  return 0;
}
