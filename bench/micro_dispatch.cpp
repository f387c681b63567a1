// Dispatch-path worker-scaling sweep of the ThreadedExecutor (workers
// self-stage from the ready pool into work-stealing deques, lock-free
// completions drained by workers, worker-side wakeups), across worker
// counts, task grains and workload shapes.
//
// Three shapes per cell:
//
//  * flat  — N independent natural tasks submitted up front; the executor
//    drains a full pool, so the number is raw pop/retire throughput.
//  * chain — C parallel dependency chains of L links each (the paper's
//    coarse-grain streaming shape: every stage feeds the next). Each
//    completion must be retired before its successor becomes ready, so this
//    shape stresses the completion path and the wakeup protocol as workers
//    are added.
//  * feed  — the bulk-input injection path: 8192 arrivals (1024 with
//    --quick) due at the same instant go through schedule_arrival, each
//    making and submitting one empty count-like task, and every 16th also a
//    reduce-like task with an edge from each of its group's 16 counts (the
//    Huffman pipeline's shape on an all-at-t=0 input). The feeder injects while the workers drain
//    and retire, so this measures the runtime-lock contention between
//    them; the number is µs per arrival from run() until the last arrival
//    callback returns.
//
// With fine-grain (empty) bodies the numbers are almost pure scheduler
// overhead; with coarse-grain (~20 µs spin) bodies the overhead amortizes
// away. Cells are tens of milliseconds long, so thread start-up and the
// end-of-run handshake stay small against them. Every cell runs `reps`
// times and reports the median and quartiles of its throughput; the
// counters come from the median rep. Results go to BENCH_dispatch.json
// (override with --out <path>) under the shared provenance header
// (bench_util.h).
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
  double us_per_arrival = 0.0;  ///< feed shape only
  sre::ThreadedExecutor::DispatchStats stats;
};

struct Cell {
  const char* shape = "";  // "flat" | "chain" | "feed"
  unsigned workers = 0;
  unsigned grain_us = 0;
  std::size_t tasks = 0;
  benchutil::Spread tps;      ///< tasks/s over the reps
  benchutil::Spread wall_ms;  ///< wall time over the reps
  benchutil::Spread us_per_arrival;  ///< feed shape only
  Rep median_rep;             ///< the rep whose throughput is the median
};

constexpr std::size_t kFeedGroup = 16;

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

Rep run_feed(unsigned workers, std::size_t arrivals) {
  sre::Runtime rt(sre::DispatchPolicy::NonSpeculative);
  sre::ThreadedExecutor::Options opts;
  opts.workers = workers;
  opts.collect_pop_latency = true;
  sre::ThreadedExecutor ex(rt, opts);

  const auto empty = [](sre::TaskContext&) {};
  std::vector<sre::TaskPtr> group;  // touched by the feeder thread only
  group.reserve(kFeedGroup);
  std::chrono::steady_clock::time_point injected;
  for (std::size_t i = 0; i < arrivals; ++i) {
    ex.schedule_arrival(0, [&, i](std::uint64_t) {
      auto count = rt.make_task("count[" + std::to_string(i) + "]",
                                sre::TaskClass::Natural, sre::kNaturalEpoch,
                                /*depth=*/1, /*cost_us=*/0, empty);
      group.push_back(count);
      rt.submit(count);
      if (group.size() == kFeedGroup) {
        auto reduce = rt.make_task(
            "reduce[" + std::to_string(i / kFeedGroup) + "]",
            sre::TaskClass::Natural, sre::kNaturalEpoch, /*depth=*/2,
            /*cost_us=*/0, empty);
        for (const auto& c : group) rt.add_dependency(c, reduce);
        rt.submit(reduce);
        group.clear();
      }
      if (i + 1 == arrivals) injected = std::chrono::steady_clock::now();
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  ex.run();
  const auto t1 = std::chrono::steady_clock::now();

  Rep r;
  const std::size_t tasks = arrivals + arrivals / kFeedGroup;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.tasks_per_sec = r.wall_ms > 0.0
                        ? static_cast<double>(tasks) / (r.wall_ms / 1000.0)
                        : 0.0;
  r.us_per_arrival =
      std::chrono::duration<double, std::micro>(injected - t0).count() /
      static_cast<double>(arrivals);
  r.stats = ex.dispatch_stats();
  return r;
}

/// Runs `reps` reps of one cell. `links` == 0 selects the feed shape, with
/// `chains` arrivals.
Cell run_cell(unsigned workers, unsigned grain_us, std::size_t chains,
              std::size_t links, unsigned reps) {
  const bool feed = links == 0;
  std::vector<Rep> runs;
  for (unsigned i = 0; i < reps; ++i) {
    runs.push_back(feed ? run_feed(workers, chains)
                        : run_once(workers, grain_us, chains, links));
  }
  std::vector<double> tps;
  std::vector<double> wall;
  std::vector<double> per_arrival;
  for (const Rep& r : runs) {
    tps.push_back(r.tasks_per_sec);
    wall.push_back(r.wall_ms);
    per_arrival.push_back(r.us_per_arrival);
  }
  std::sort(runs.begin(), runs.end(), [](const Rep& a, const Rep& b) {
    return a.tasks_per_sec < b.tasks_per_sec;
  });
  Cell c;
  c.shape = feed ? "feed" : links > 1 ? "chain" : "flat";
  c.workers = workers;
  c.grain_us = grain_us;
  c.tasks = feed ? chains + chains / kFeedGroup : chains * links;
  c.tps = benchutil::spread(tps);
  c.wall_ms = benchutil::spread(wall);
  if (feed) c.us_per_arrival = benchutil::spread(per_arrival);
  c.median_rep = runs[runs.size() / 2];
  return c;
}

void print_cell(const Cell& c) {
  const auto& s = c.median_rep.stats;
  if (c.us_per_arrival.median > 0.0) {
    std::printf("  %-5s w=%-2u  %.3f us/arrival [%.3f..%.3f]\n", c.shape,
                c.workers, c.us_per_arrival.median, c.us_per_arrival.p25,
                c.us_per_arrival.p75);
  }
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
               "with quartiles, counters from the median rep; feed rows add "
               "us_per_arrival, the injection time per same-instant arrival\",\n");
  benchutil::write_provenance(f, reps, sha);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const auto& s = c.median_rep.stats;
    char arrival[128] = "";
    if (c.us_per_arrival.median > 0.0) {
      std::snprintf(arrival, sizeof arrival,
                    "\"us_per_arrival\": %.3f, \"us_per_arrival_p25\": %.3f, "
                    "\"us_per_arrival_p75\": %.3f, ",
                    c.us_per_arrival.median, c.us_per_arrival.p25,
                    c.us_per_arrival.p75);
    }
    std::fprintf(
        f,
        "    {\"shape\": \"%s\", \"workers\": %u, \"grain_us\": %u, "
        "\"tasks\": %zu, \"wall_ms\": %.3f, \"tasks_per_sec\": %.0f, "
        "\"tasks_per_sec_p25\": %.0f, \"tasks_per_sec_p75\": %.0f, "
        "%s"
        "\"pop_p50_us\": %llu, \"pop_p99_us\": %llu, "
        "\"local_pops\": %llu, \"steals\": %llu, \"self_stages\": %llu, "
        "\"inline_finishes\": %llu, \"worker_retires\": %llu, "
        "\"parks\": %llu, \"completion_fallbacks\": %llu}%s\n",
        c.shape, c.workers, c.grain_us, c.tasks, c.wall_ms.median,
        c.tps.median, c.tps.p25, c.tps.p75, arrival,
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
  const unsigned reps = quick ? 1 : 7;
  const std::size_t fine_tasks = quick ? 1000 : 64000;
  const std::size_t coarse_tasks = quick ? 500 : 4000;
  const std::size_t chains = 4;
  const std::size_t chain_links = quick ? 100 : 10000;
  const std::size_t feed_arrivals = quick ? 1024 : 8192;

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
  // Feed shape: same-instant arrivals through the feeder.
  for (const unsigned workers : {1u, 2u, 4u, 8u, 16u}) {
    cells.push_back(
        run_cell(workers, /*grain_us=*/0, feed_arrivals, /*links=*/0, reps));
    print_cell(cells.back());
  }
  write_json(out, cells, reps, sha);
  return 0;
}
