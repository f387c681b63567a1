// Serving-layer load sweep: many concurrent Huffman sessions over one
// shared worker fleet (src/serve), closed-loop and open-loop.
//
// Three experiments:
//
//  * identity — the correctness anchor: the same N NonSpeculative session
//    configs run (a) concurrently at max_concurrent = N and (b) strictly
//    sequentially at max_concurrent = 1 must produce byte-identical
//    compressed containers. Sharing workers must not change results.
//
//  * closed-loop — submit S sessions up front and wait for all of them,
//    sweeping the concurrency window. Reports session throughput and
//    p50/p95/p99 session latency; the window sweep shows how much the
//    shared fleet overlaps independent streams.
//
//  * open-loop — PoissonArrival-timed submissions at ~1×, ~2× and a ~5×
//    burst point (PoissonArrival burst mode: back-to-back groups of 4) of
//    the measured service capacity against a small bounded admission
//    queue. At 1× the service keeps up (few or no sheds); past capacity
//    arrivals do not slow down, so the only stable response is load
//    shedding: the bench asserts sheds happened, the drain completed, the
//    runtime went quiescent and no epoch bookkeeping leaked — overload
//    degrades into refusals, not into a deadlock or an unbounded queue.
//
// Reporting: wall-clock on this class of host cannot resolve gaps under
// ~±10%, so the closed-loop sweep reports *paired-ratio medians* — each
// repetition runs the conc=1 baseline and the conc=N cell back to back and
// the speedup is the median of the per-rep wall ratios — plus rollback
// counts, instead of leaning on raw wall-clock deltas. Every closed-loop
// figure is the median over the reps with its quartiles.
//
// Results go to BENCH_serve.json (--out <path>), with the provenance header
// every BENCH_*.json carries (bench_util.h). --quick shrinks the
// sweep; --smoke runs only a short low-rate open-loop check and asserts
// zero sheds (the CI gate).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "flight/recorder.h"
#include "io/arrival_model.h"
#include "pipeline/driver.h"
#include "pipeline/run_config.h"
#include "serve/session_manager.h"
#include "sre/runtime.h"

namespace {

pipeline::RunConfig session_workload(std::uint64_t seed, std::size_t bytes,
                                     sre::DispatchPolicy policy) {
  pipeline::RunConfig cfg =
      pipeline::RunConfig::x86_disk(wl::FileKind::Txt, policy);
  cfg.bytes = bytes;
  cfg.seed = seed;
  return cfg;
}

serve::ServiceConfig base_service(unsigned workers, std::size_t concurrent) {
  serve::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.max_concurrent = concurrent;
  return cfg;
}

std::uint64_t pct(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto ix = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(ix, v.size() - 1)];
}

struct ClosedRow {
  unsigned workers = 0;
  std::size_t concurrent = 0;
  std::size_t sessions = 0;
  double wall_ms = 0.0;
  double sessions_per_sec = 0.0;
  std::uint64_t p50_us = 0, p95_us = 0, p99_us = 0;
  std::uint64_t rollbacks = 0;
};

/// One window size over the reps: each figure's median and quartiles.
struct ClosedCell {
  unsigned workers = 0;
  std::size_t concurrent = 0;
  std::size_t sessions = 0;
  benchutil::Spread wall_ms, sessions_per_sec, p50_us, p95_us, p99_us,
      rollbacks;
  /// wall(conc=1) / wall(conc=N), paired per rep. All zero for the
  /// baseline row itself.
  benchutil::Spread speedup_x;
};

struct OpenRow {
  double rate_x = 0.0;  ///< offered load relative to measured capacity
  std::uint64_t mean_gap_us = 0;
  std::size_t burst_len = 1;  ///< PoissonArrival burst clustering
  std::size_t offered = 0;
  std::size_t done = 0;
  std::size_t shed = 0;
  double shed_rate = 0.0;
  std::uint64_t p95_us = 0;
  std::uint64_t rollbacks = 0;
  bool drained_clean = false;
};

/// Runs S sessions closed-loop; also returns each session's container when
/// `containers` is non-null (the identity check reuses this path).
ClosedRow run_closed(unsigned workers, std::size_t concurrent,
                     std::size_t sessions, std::size_t bytes,
                     sre::DispatchPolicy policy,
                     std::vector<std::vector<std::uint8_t>>* containers) {
  serve::SessionManager mgr(base_service(workers, concurrent));
  const std::uint64_t t0 = mgr.now_us();
  std::vector<serve::SessionId> ids;
  ids.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    serve::SessionConfig sc;
    sc.run = session_workload(/*seed=*/1000 + i, bytes, policy);
    ids.push_back(mgr.submit(std::move(sc)).id);
  }
  std::vector<std::uint64_t> latencies;
  std::uint64_t rollbacks = 0;
  for (const auto id : ids) {
    const pipeline::RunResult* r = mgr.wait(id);
    if (r == nullptr) {
      std::fprintf(stderr, "serve_load: closed-loop session shed?!\n");
      continue;
    }
    pipeline::verify_roundtrip(*r);
    latencies.push_back(mgr.stats(id).latency_us());
    rollbacks += r->rollbacks;
    if (containers != nullptr) containers->push_back(r->container);
    mgr.release(id);  // consumed — keep the sweep's memory flat
  }
  const std::uint64_t t1 = mgr.now_us();
  mgr.drain();

  ClosedRow row;
  row.workers = workers;
  row.concurrent = concurrent;
  row.sessions = sessions;
  row.wall_ms = static_cast<double>(t1 - t0) / 1000.0;
  row.sessions_per_sec = row.wall_ms > 0.0
                             ? static_cast<double>(latencies.size()) /
                                   (row.wall_ms / 1000.0)
                             : 0.0;
  row.p50_us = pct(latencies, 0.50);
  row.p95_us = pct(latencies, 0.95);
  row.p99_us = pct(latencies, 0.99);
  row.rollbacks = rollbacks;
  return row;
}

OpenRow run_open(unsigned workers, std::size_t concurrent,
                 std::size_t sessions, std::size_t bytes,
                 std::uint64_t mean_gap_us, double rate_x,
                 std::size_t burst_len = 1) {
  serve::ServiceConfig scfg = base_service(workers, concurrent);
  // Small bounded queue: overload must turn into sheds quickly, not into a
  // long queue that hides the imbalance for the whole bench run.
  scfg.shed.queue_capacity = {6, 6, 6};
  serve::SessionManager mgr(scfg);

  std::vector<serve::SessionConfig> configs(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    configs[i].run =
        session_workload(/*seed=*/5000 + i, bytes, sre::DispatchPolicy::Balanced);
  }
  const sio::PoissonArrival arrivals(static_cast<double>(mean_gap_us),
                                     /*seed=*/0xbeefULL + sessions, burst_len);
  const auto outcomes = serve::submit_open_loop(mgr, std::move(configs), arrivals);

  OpenRow row;
  row.rate_x = rate_x;
  row.mean_gap_us = mean_gap_us;
  row.burst_len = burst_len;
  row.offered = outcomes.size();
  std::vector<std::uint64_t> latencies;
  for (const auto& o : outcomes) {
    if (!o.accepted) {
      ++row.shed;
      continue;
    }
    const pipeline::RunResult* r = mgr.wait(o.id);
    const auto st = mgr.stats(o.id);
    if (r == nullptr) {
      ++row.shed;  // shed in queue (deadline) — still a refusal
      continue;
    }
    pipeline::verify_roundtrip(*r);
    ++row.done;
    row.rollbacks += r->rollbacks;
    latencies.push_back(st.latency_us());
    mgr.release(o.id);  // consumed — keep the sweep's memory flat
  }
  mgr.drain();
  const auto depths = mgr.runtime().queue_depths();
  row.drained_clean = mgr.runtime().quiescent() && depths.open_epochs == 0 &&
                      depths.epoch_tasks == 0;
  row.shed_rate = row.offered > 0
                      ? static_cast<double>(row.shed) /
                            static_cast<double>(row.offered)
                      : 0.0;
  row.p95_us = pct(latencies, 0.95);
  return row;
}

/// Smoke check for the flight recorder's post-mortem path: a session whose
/// input cannot be read must end Failed and leave an automatic post-mortem
/// dump on disk.
bool run_post_mortem_smoke(unsigned workers) {
  const auto dir = std::filesystem::temp_directory_path() / "tvs_serve_smoke";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  flight::Recorder::Options fopts;
  fopts.post_mortem_dir = dir.string();
  flight::Recorder recorder(fopts);
  recorder.start();

  serve::ServiceConfig scfg = base_service(workers, /*concurrent=*/2);
  scfg.flight = &recorder;
  serve::SessionManager mgr(scfg);

  serve::SessionConfig bad;
  bad.name = "doomed";
  bad.run = session_workload(/*seed=*/1, 64 * 1024,
                             sre::DispatchPolicy::Balanced);
  bad.run.input_path = "/nonexistent/tvs_serve_load_smoke_input";
  const auto outcome = mgr.submit(std::move(bad));
  if (!outcome.accepted) return false;
  const bool failed = mgr.wait(outcome.id) == nullptr &&
                      mgr.stats(outcome.id).state ==
                          serve::SessionState::Failed;
  mgr.drain();

  const auto path = dir / ("session-" + std::to_string(outcome.id) +
                           "-postmortem.trace.json");
  const bool dumped = std::filesystem::exists(path);
  if (!failed || !dumped) {
    std::fprintf(stderr,
                 "serve_load: post-mortem smoke failed=%d dump_exists=%d "
                 "(%s)\n",
                 failed ? 1 : 0, dumped ? 1 : 0, path.c_str());
  }
  std::filesystem::remove_all(dir, ec);
  return failed && dumped;
}

/// Byte-identity: concurrent vs sequential execution of identical configs.
bool run_identity(unsigned workers, std::size_t sessions, std::size_t bytes) {
  std::vector<std::vector<std::uint8_t>> concurrent_out;
  std::vector<std::vector<std::uint8_t>> sequential_out;
  // NonSpeculative sessions: with speculation off the committed encoding is
  // schedule-independent, so byte-identity across interleavings is exact.
  (void)run_closed(workers, sessions, sessions, bytes,
                   sre::DispatchPolicy::NonSpeculative, &concurrent_out);
  (void)run_closed(workers, /*concurrent=*/1, sessions, bytes,
                   sre::DispatchPolicy::NonSpeculative, &sequential_out);
  if (concurrent_out.size() != sessions || sequential_out.size() != sessions) {
    return false;
  }
  for (std::size_t i = 0; i < sessions; ++i) {
    if (concurrent_out[i] != sequential_out[i]) return false;
  }
  return true;
}

void write_json(const std::string& path, const std::string& sha,
                unsigned reps, bool identity_ok,
                const std::vector<ClosedCell>& closed,
                const std::vector<OpenRow>& open) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "serve_load: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"serve_load\",\n");
  std::fprintf(f,
               "  \"description\": \"multi-session serving layer: closed- "
               "and open-loop load over one shared worker fleet; each "
               "closed-loop figure is the median over the reps with its "
               "quartiles (speedup_x: paired wall ratio against "
               "conc=1)\",\n");
  benchutil::write_provenance(f, reps, sha);
  std::fprintf(f, "  \"closed_loop\": [\n");
  for (std::size_t i = 0; i < closed.size(); ++i) {
    const ClosedCell& c = closed[i];
    std::fprintf(f,
                 "    {\"workers\": %u, \"concurrent\": %zu, \"sessions\": "
                 "%zu",
                 c.workers, c.concurrent, c.sessions);
    // Each figure as "name" (median), "name_p25" and "name_p75".
    struct Figure {
      const char* name;
      const benchutil::Spread& s;
      int digits;
    };
    for (const Figure& fig : {Figure{"wall_ms", c.wall_ms, 3},
                              Figure{"sessions_per_sec", c.sessions_per_sec, 2},
                              Figure{"speedup_x", c.speedup_x, 3},
                              Figure{"rollbacks", c.rollbacks, 0},
                              Figure{"p50_us", c.p50_us, 0},
                              Figure{"p95_us", c.p95_us, 0},
                              Figure{"p99_us", c.p99_us, 0}}) {
      std::fprintf(f, ", \"%s\": %.*f, \"%s_p25\": %.*f, \"%s_p75\": %.*f",
                   fig.name, fig.digits, fig.s.median, fig.name, fig.digits,
                   fig.s.p25, fig.name, fig.digits, fig.s.p75);
    }
    std::fprintf(f, "}%s\n", i + 1 < closed.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"open_loop\": [\n");
  for (std::size_t i = 0; i < open.size(); ++i) {
    const OpenRow& o = open[i];
    std::fprintf(f,
                 "    {\"rate_x\": %.2f, \"mean_gap_us\": %llu, "
                 "\"burst_len\": %zu, \"offered\": "
                 "%zu, \"done\": %zu, \"shed\": %zu, \"shed_rate\": %.3f, "
                 "\"p95_us\": %llu, \"rollbacks\": %llu, "
                 "\"drained_clean\": %s}%s\n",
                 o.rate_x, static_cast<unsigned long long>(o.mean_gap_us),
                 o.burst_len, o.offered, o.done, o.shed, o.shed_rate,
                 static_cast<unsigned long long>(o.p95_us),
                 static_cast<unsigned long long>(o.rollbacks),
                 o.drained_clean ? "true" : "false",
                 i + 1 < open.size() ? "," : "");
  }
  const OpenRow* overload = nullptr;
  for (const auto& o : open) {
    if (o.rate_x >= 2.0) overload = &o;
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"headline\": {\"identity_ok\": %s, "
               "\"overload_sheds\": %zu, \"overload_drained_clean\": %s}\n",
               identity_ok ? "true" : "false",
               overload != nullptr ? overload->shed : 0,
               overload != nullptr && overload->drained_clean ? "true"
                                                             : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string sha = benchutil::git_sha();
  std::string out = "BENCH_serve.json";
  bool quick = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  const unsigned workers = 8;
  const std::size_t bytes = quick || smoke ? 96 * 1024 : 256 * 1024;

  if (smoke) {
    // CI gate: a short, comfortably under-capacity open-loop run must shed
    // nothing and drain clean.
    std::printf("serve_load --smoke: low-rate open loop, %u workers\n",
                workers);
    ClosedRow probe = run_closed(workers, /*concurrent=*/4, /*sessions=*/8,
                                 bytes, sre::DispatchPolicy::Balanced,
                                 nullptr);
    const std::uint64_t service_us = std::max<std::uint64_t>(probe.p50_us, 1);
    // Offer at ~1/4 of the concurrent-capacity rate.
    const std::uint64_t gap = service_us;
    OpenRow row = run_open(workers, /*concurrent=*/4, /*sessions=*/16, bytes,
                           gap, 0.25);
    std::printf("  offered=%zu done=%zu shed=%zu drained_clean=%d\n",
                row.offered, row.done, row.shed, row.drained_clean ? 1 : 0);
    if (row.shed != 0 || !row.drained_clean || row.done != row.offered) {
      std::fprintf(stderr,
                   "serve_load: FAIL — low-rate smoke shed %zu of %zu "
                   "(drained_clean=%d)\n",
                   row.shed, row.offered, row.drained_clean ? 1 : 0);
      return 1;
    }
    // A forced-Failed session must leave a flight-recorder post-mortem.
    if (!run_post_mortem_smoke(workers)) {
      std::fprintf(stderr, "serve_load: FAIL — post-mortem smoke\n");
      return 1;
    }
    std::printf("  post-mortem dump for forced-Failed session: OK\n");
    std::printf("serve_load: smoke OK\n");
    return 0;
  }

  const std::size_t sessions = quick ? 8 : 24;

  std::printf("serve_load: identity check (%u workers, 4 sessions)\n",
              workers);
  const bool identity_ok = run_identity(workers, /*sessions=*/4, bytes);
  std::printf("  concurrent == sequential: %s\n",
              identity_ok ? "yes" : "NO — MISMATCH");

  // Closed-loop sweep, paired per repetition: each rep runs the conc=1
  // baseline and every window cell; the per-conc speedup is the median of
  // the within-rep wall ratios (the only signal that survives this host's
  // ±10% wall-clock noise).
  const std::size_t reps = quick ? 1 : 3;
  const std::vector<std::size_t> concs = {1, 2, 4, 8};
  std::printf("serve_load: closed-loop window sweep (%zu paired rep(s))\n",
              reps);
  std::vector<std::vector<ClosedRow>> cells(concs.size());
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t ci = 0; ci < concs.size(); ++ci) {
      cells[ci].push_back(run_closed(workers, concs[ci], sessions, bytes,
                                     sre::DispatchPolicy::Balanced, nullptr));
    }
  }
  std::vector<ClosedCell> closed;
  for (std::size_t ci = 0; ci < concs.size(); ++ci) {
    const auto over_reps = [&cells, ci](auto field) {
      std::vector<double> v;
      for (const ClosedRow& r : cells[ci]) {
        v.push_back(static_cast<double>(r.*field));
      }
      return benchutil::spread(std::move(v));
    };
    ClosedCell cell;
    cell.workers = cells[ci][0].workers;
    cell.concurrent = cells[ci][0].concurrent;
    cell.sessions = cells[ci][0].sessions;
    cell.wall_ms = over_reps(&ClosedRow::wall_ms);
    cell.sessions_per_sec = over_reps(&ClosedRow::sessions_per_sec);
    cell.p50_us = over_reps(&ClosedRow::p50_us);
    cell.p95_us = over_reps(&ClosedRow::p95_us);
    cell.p99_us = over_reps(&ClosedRow::p99_us);
    cell.rollbacks = over_reps(&ClosedRow::rollbacks);
    if (ci > 0) {
      std::vector<double> ratios;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        if (cells[ci][rep].wall_ms > 0.0) {
          ratios.push_back(cells[0][rep].wall_ms / cells[ci][rep].wall_ms);
        }
      }
      cell.speedup_x = benchutil::spread(std::move(ratios));
    }
    std::printf(
        "  conc=%zu  %7.1f ms [%.1f, %.1f]  %6.2f sess/s  speedup(med)=%.2fx  "
        "p50=%.0f p95=%.0f p99=%.0f us  rollbacks=%.0f\n",
        cell.concurrent, cell.wall_ms.median, cell.wall_ms.p25,
        cell.wall_ms.p75, cell.sessions_per_sec.median,
        cell.speedup_x.median, cell.p50_us.median, cell.p95_us.median,
        cell.p99_us.median, cell.rollbacks.median);
    closed.push_back(cell);
  }

  // Capacity estimate from the conc=4 cell: sessions/sec the service
  // actually sustained; the open-loop gap is its inverse.
  double capacity_sps = 1.0;
  for (const auto& c : closed) {
    if (c.concurrent == 4) {
      capacity_sps = std::max(c.sessions_per_sec.median, 0.01);
    }
  }
  const auto gap_1x =
      static_cast<std::uint64_t>(std::max(1.0, 1e6 / capacity_sps));

  std::printf("serve_load: open loop (capacity ~%.2f sess/s)\n", capacity_sps);
  // Enough arrivals that a 2× imbalance overflows the bounded queue: the
  // backlog grows at ~1× capacity, so the run must offer several queue-fuls.
  // The 5× point arrives in back-to-back bursts of 4 (PoissonArrival burst
  // mode) — the spikiest overload the admission queue has to absorb.
  const std::size_t open_sessions = sessions * 3;
  std::vector<OpenRow> open;
  for (const double rate_x : {1.0, 2.0, 5.0}) {
    const std::size_t burst_len = rate_x >= 5.0 ? 4 : 1;
    const auto gap = static_cast<std::uint64_t>(
        std::max(1.0, static_cast<double>(gap_1x) / rate_x));
    OpenRow row = run_open(workers, /*concurrent=*/4, open_sessions, bytes,
                           gap, rate_x, burst_len);
    std::printf(
        "  rate=%.1fx gap=%lluus burst=%zu  offered=%zu done=%zu shed=%zu "
        "(%.0f%%)  p95=%llu us  rollbacks=%llu  drained_clean=%d\n",
        row.rate_x, static_cast<unsigned long long>(row.mean_gap_us),
        row.burst_len, row.offered, row.done, row.shed, 100.0 * row.shed_rate,
        static_cast<unsigned long long>(row.p95_us),
        static_cast<unsigned long long>(row.rollbacks),
        row.drained_clean ? 1 : 0);
    open.push_back(row);
  }

  write_json(out, sha, static_cast<unsigned>(reps), identity_ok, closed, open);

  bool ok = identity_ok;
  for (const auto& o : open) {
    ok = ok && o.drained_clean;
    if (o.rate_x >= 2.0) ok = ok && o.shed > 0;
  }
  if (!ok) {
    std::fprintf(stderr, "serve_load: FAIL (see rows above)\n");
    return 1;
  }
  std::printf("serve_load: OK\n");
  return 0;
}
