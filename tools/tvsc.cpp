// tvsc: a real command-line compressor built on the speculative pipeline —
// the "downstream user" artifact. Compresses/decompresses actual files on
// disk in the TVSH container format, running the threaded runtime with
// speculation across the file's natural block stream.
//
//   tvsc c <input> <output.tvsh>   compress
//   tvsc d <input.tvsh> <output>   decompress
//   tvsc t <input.tvsh>            integrity test (decode + report)
//   tvsc serve <inputs...>         compress many files as concurrent
//                                  sessions on one shared worker fleet
//                                  (src/serve); writes <input>.tvsh each
//   tvsc served                    distributed node agent: serve a local
//                                  SessionManager over the framed RPC
//                                  protocol (src/dist); routers dial in
//   tvsc route <inputs...>         distributed client+router: shard the
//                                  inputs across --node= agents with
//                                  spill-before-shed placement; writes
//                                  <input>.tvsh each
//
// Observability flags (compress mode):
//   --metrics=prom|json|dash   final snapshot to stdout (prom/json) or a
//                              live one-line dashboard on stderr (dash)
//   --metrics-interval=<ms>    sampler tick period (default 50 ms)
//   --report=<dir>             write a run-report bundle (json/md/prom)
//
// Serving flags (serve mode):
//   --workers=<n>              shared fleet size (default 8)
//   --concurrent=<n>           sessions running at once (default 4)
//   --metrics=prom|json        serving-metrics snapshot on exit
//   --flight-recorder=<dir>    arm the always-on flight recorder; writes
//                              flight.tvsf + flight.trace.json into <dir>
//                              on exit and automatic post-mortem dumps
//                              there for Failed/Shed sessions
//   --flight-window=<s>        recorder retention window in seconds
//                              (default 30; post-mortems keep the last
//                              min(window, 10) seconds)
//   --control                  enable the adaptive control plane: a control
//                              thread samples serving metrics and retunes
//                              admission limits and per-session speculation
//                              knobs live (docs/control-plane.md)
//   --control-interval=<ms>    controller sampling period (default 50 ms;
//                              knobs dwell for 4 intervals after a move)
//
// Distributed flags:
//   served: --port=<p> (0 = pick free), --port-file=<path> (write the
//   bound port for scripted discovery), --name=<node>, --once (exit after
//   the router disconnects), --heartbeat=<ms>, plus the serve-mode fleet
//   flags (--workers/--concurrent).
//   route: --node=host:port (repeatable, one per agent).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "dist/node_agent.h"
#include "dist/router.h"
#include "flight/recorder.h"

#include "huffman/stream_format.h"
#include "io/block_source.h"
#include "metrics/exporters.h"
#include "metrics/observer.h"
#include "metrics/registry.h"
#include "metrics/report.h"
#include "metrics/sampler.h"
#include "pipeline/driver.h"
#include "pipeline/huffman_pipeline.h"
#include "serve/session_manager.h"
#include "sre/threaded_executor.h"
#include "stats/summary.h"

namespace {

struct CliOptions {
  std::string metrics;          ///< "", "prom", "json" or "dash"
  std::uint64_t interval_ms = 50;
  std::string report_dir;       ///< "" = no report bundle
  unsigned workers = 8;         ///< serve mode: shared fleet size
  std::size_t concurrent = 4;   ///< serve mode: running-session window
  std::string flight_dir;       ///< "" = flight recorder off
  std::uint64_t flight_window_s = 30;  ///< recorder retention (seconds)
  bool control = false;         ///< serve mode: adaptive control plane
  std::uint64_t control_interval_ms = 50;  ///< controller sampling period
  // Distributed (served / route modes):
  std::uint16_t port = 0;            ///< served: listen port (0 = pick free)
  std::string port_file;             ///< served: write bound port here
  std::string node_name = "node";    ///< served: agent name in the cluster
  bool once = false;                 ///< served: exit after one connection
  std::uint64_t heartbeat_ms = 50;   ///< served: heartbeat interval
  /// served: Bulk admission-queue capacity override (SIZE_MAX = default).
  /// Lets bench/dist_load build a node that is saturated for Bulk.
  std::size_t bulk_cap = static_cast<std::size_t>(-1);
  std::vector<std::string> nodes;    ///< route: host:port per agent
};

int usage() {
  std::fputs(
      "usage:\n"
      "  tvsc c <input> <output.tvsh>   compress\n"
      "  tvsc d <input.tvsh> <output>   decompress\n"
      "  tvsc t <input.tvsh>            integrity test\n"
      "  tvsc serve <inputs...>         compress many files concurrently;\n"
      "                                 writes <input>.tvsh each\n"
      "  tvsc served                    node agent: serve sessions over the\n"
      "                                 framed RPC protocol\n"
      "  tvsc route <inputs...>         shard inputs across --node= agents;\n"
      "                                 writes <input>.tvsh each\n"
      "flags (compress):\n"
      "  --metrics=prom|json|dash       metrics snapshot / live dashboard\n"
      "  --metrics-interval=<ms>        sampler period (default 50)\n"
      "  --report=<dir>                 write run-report bundle into <dir>\n"
      "flags (serve):\n"
      "  --workers=<n>                  shared fleet size (default 8)\n"
      "  --concurrent=<n>               running-session window (default 4)\n"
      "  --flight-recorder=<dir>        arm the flight recorder; traces and\n"
      "                                 post-mortems land in <dir>\n"
      "  --flight-window=<s>            recorder retention (default 30 s)\n"
      "  --control                      adaptive control plane: retune\n"
      "                                 admission + speculation knobs live\n"
      "  --control-interval=<ms>        controller sampling period "
      "(default 50)\n"
      "flags (served):\n"
      "  --port=<p>                     listen port (default 0 = pick free)\n"
      "  --port-file=<path>             write the bound port for discovery\n"
      "  --name=<node>                  agent name (default \"node\")\n"
      "  --once                         exit after the router disconnects\n"
      "  --heartbeat=<ms>               heartbeat interval (default 50)\n"
      "  --bulk-cap=<n>                 Bulk admission-queue capacity\n"
      "flags (route):\n"
      "  --node=host:port               agent to route to (repeatable)\n",
      stderr);
  return 2;
}

int compress_file(const std::string& in_path, const std::string& out_path,
                  const CliOptions& cli) {
  auto data = huff::read_file(in_path);
  const std::size_t original = data.size();
  const bool want_metrics = !cli.metrics.empty() || !cli.report_dir.empty();

  // Local files are all-available; the disk arrival model still paces the
  // first pass so speculation has something to hide.
  sio::BlockSource src(std::move(data), sio::kDefaultBlockSize,
                       std::make_shared<sio::DiskArrival>(2));

  pipeline::RunConfig cfg = pipeline::RunConfig::x86_disk(
      wl::FileKind::Txt, sre::DispatchPolicy::Balanced);
  sre::Runtime rt(cfg.policy);

  metrics::Registry reg;
  metrics::MetricsObserver mobs(reg);
  if (want_metrics) rt.set_observer(&mobs);

  sre::ThreadedExecutor::Options topts;
  topts.workers = 8;
  topts.arrival_time_scale = 0.0;
  if (want_metrics) {
    topts.worker_start_hook = [](unsigned ix) {
      metrics::bind_shard(ix % metrics::kShards);
    };
  }
  sre::ThreadedExecutor ex(rt, topts);
  pipeline::HuffmanPipeline pl(rt, src, cfg);
  src.for_each_arrival([&](std::size_t i, sio::Micros at) {
    ex.schedule_arrival(at, [&pl, i](std::uint64_t now) {
      pl.on_block_arrival(i, now);
    });
  });

  metrics::Sampler sampler;
  if (want_metrics) {
    pipeline::install_standard_series(sampler, rt, pl, &reg);
    if (cli.metrics == "dash") {
      sampler.set_tick_hook([&reg](const metrics::Sampler::Sample& s) {
        std::fprintf(stderr, "\r%s",
                     metrics::dashboard_line(reg.snapshot(), s.t_us).c_str());
        std::fflush(stderr);
      });
    }
    sampler.start(cli.interval_ms * 1000);
  }
  ex.run();
  if (want_metrics) {
    sampler.stop();
    sampler.tick(ex.now_us());
    sampler.clear_series();
    if (cli.metrics == "dash") std::fputc('\n', stderr);
  }
  pl.validate_complete();

  const auto container = pl.assemble_output();
  huff::write_file(out_path, container);
  std::fprintf(stderr,
               "%s: %zu -> %zu bytes (%.1f%%), %zu blocks, speculation %s, "
               "%llu rollback(s)\n",
               out_path.c_str(), original, container.size(),
               original == 0 ? 0.0
                             : 100.0 * static_cast<double>(container.size()) /
                                   static_cast<double>(original),
               src.n_blocks(),
               pl.speculation_committed() ? "committed" : "off",
               static_cast<unsigned long long>(pl.rollbacks()));

  if (cli.metrics == "prom") {
    std::fputs(metrics::to_prometheus(reg.snapshot()).c_str(), stdout);
  } else if (cli.metrics == "json") {
    std::fputs(metrics::to_json(reg.snapshot(), sampler).c_str(), stdout);
    std::fputc('\n', stdout);
  } else if (cli.metrics == "dash") {
    std::fprintf(stderr, "%s\n",
                 metrics::dashboard_line(reg.snapshot(), ex.now_us()).c_str());
  }

  if (!cli.report_dir.empty()) {
    report::RunInfo info;
    info.scenario = "tvsc c " + in_path;
    info.engine = "threaded";
    info.makespan_us = rt.counters().total_runtime_us;
    info.blocks = src.n_blocks();
    const stats::Summary lat = stats::summarize(pl.trace().latencies());
    info.avg_latency_us = lat.mean;
    info.p95_latency_us = lat.p95;
    info.max_latency_us = lat.max;
    info.spec_committed = pl.speculation_committed();
    info.rollbacks = pl.rollbacks();
    info.wasted_encodes = pl.trace().wasted_encodes();
    info.wait_discarded = pl.wait_discarded();
    info.input_bytes = original;
    info.output_bits = pl.output_bits();
    info.counters = rt.counters();
    const report::RunReport rep = report::make_report(info, &reg, &sampler);
    for (const auto& path : report::write_bundle(rep, cli.report_dir)) {
      std::fprintf(stderr, "report: %s\n", path.c_str());
    }
  }
  return 0;
}

/// Satellite observability: per-priority latency percentiles plus the
/// attribution breakdown, printed at the end of every serve run.
void print_serve_summary(const std::vector<serve::SessionStats>& sessions) {
  std::fputs("--- serve summary ---------------------------------------\n",
             stderr);
  for (std::size_t p = 0; p < serve::kPriorities; ++p) {
    const auto prio = static_cast<serve::Priority>(p);
    std::vector<std::uint64_t> lat;
    serve::SessionStats::Attribution sum;
    std::size_t done = 0, shed = 0, failed = 0;
    for (const auto& st : sessions) {
      if (st.priority != prio) continue;
      switch (st.state) {
        case serve::SessionState::Done:
          ++done;
          lat.push_back(st.latency_us());
          break;
        case serve::SessionState::Shed:
          ++shed;
          break;
        case serve::SessionState::Failed:
          ++failed;
          break;
        default:
          break;
      }
      sum.queue_us += st.attribution.queue_us;
      sum.dispatch_us += st.attribution.dispatch_us;
      sum.compute_us += st.attribution.compute_us;
      sum.commit_stall_us += st.attribution.commit_stall_us;
      sum.rollback_waste_us += st.attribution.rollback_waste_us;
    }
    if (done + shed + failed == 0) continue;
    std::sort(lat.begin(), lat.end());
    const auto pct = [&lat](double q) -> double {
      if (lat.empty()) return 0.0;
      const auto ix = static_cast<std::size_t>(
          q * static_cast<double>(lat.size() - 1) + 0.5);
      return static_cast<double>(lat[std::min(ix, lat.size() - 1)]) / 1000.0;
    };
    std::fprintf(stderr,
                 "%-11s %zu done, %zu shed, %zu failed | latency p50 %.1f ms, "
                 "p95 %.1f ms\n",
                 serve::to_string(prio).c_str(), done, shed, failed, pct(0.5),
                 pct(0.95));
    std::fprintf(stderr,
                 "            attribution: queue %.1f ms, dispatch %.1f ms, "
                 "compute %.1f ms, commit-stall %.1f ms, "
                 "rollback-waste %.1f ms\n",
                 static_cast<double>(sum.queue_us) / 1000.0,
                 static_cast<double>(sum.dispatch_us) / 1000.0,
                 static_cast<double>(sum.compute_us) / 1000.0,
                 static_cast<double>(sum.commit_stall_us) / 1000.0,
                 static_cast<double>(sum.rollback_waste_us) / 1000.0);
  }
}

int serve_files(const std::vector<std::string>& paths, const CliOptions& cli) {
  metrics::Registry reg;

  std::unique_ptr<flight::Recorder> flight;
  if (!cli.flight_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cli.flight_dir, ec);
    if (ec) {
      std::fprintf(stderr, "tvsc: cannot create %s: %s\n",
                   cli.flight_dir.c_str(), ec.message().c_str());
      return 2;
    }
    flight::Recorder::Options fopts;
    fopts.window_us = cli.flight_window_s * 1'000'000;
    fopts.post_mortem_dir = cli.flight_dir;
    fopts.post_mortem_window_us =
        std::min<std::uint64_t>(fopts.window_us, 10'000'000);
    flight = std::make_unique<flight::Recorder>(fopts);
    flight->start();
  }

  serve::ServiceConfig scfg;
  scfg.workers = cli.workers;
  scfg.max_concurrent = cli.concurrent;
  scfg.registry = cli.metrics.empty() ? nullptr : &reg;
  scfg.per_session_metrics = !cli.metrics.empty();
  scfg.flight = flight.get();
  if (cli.control) {
    scfg.control.enabled = true;
    scfg.control.interval_us = cli.control_interval_ms * 1'000;
    scfg.control.min_dwell_us = 4 * scfg.control.interval_us;
  }

  serve::SessionManager mgr(scfg);

  std::vector<serve::SessionId> ids;
  ids.reserve(paths.size());
  for (const auto& path : paths) {
    serve::SessionConfig sc;
    sc.name = path;
    sc.run = pipeline::RunConfig::x86_disk(wl::FileKind::Txt,
                                           sre::DispatchPolicy::Balanced);
    sc.run.input_path = path;
    const auto outcome = mgr.submit(std::move(sc));
    if (!outcome.accepted) {
      std::fprintf(stderr, "tvsc: %s shed at submit (%s)\n", path.c_str(),
                   outcome.shed_reason.c_str());
      continue;
    }
    ids.push_back(outcome.id);
  }

  int rc = 0;
  std::size_t total_blocks = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const pipeline::RunResult* result = mgr.wait(ids[i]);
    const auto st = mgr.stats(ids[i]);
    if (result == nullptr) {
      const bool failed = st.state == serve::SessionState::Failed;
      std::fprintf(stderr, "tvsc: %s %s (%s)\n", st.name.c_str(),
                   failed ? "failed" : "shed",
                   failed ? st.error.c_str() : st.shed_reason.c_str());
      rc = 1;
      continue;
    }
    const std::string out_path = st.name + ".tvsh";
    huff::write_file(out_path, result->container);
    total_blocks += result->trace.size();
    std::fprintf(stderr,
                 "%s: %zu -> %zu bytes, %.1f ms latency, speculation %s, "
                 "%llu rollback(s)\n",
                 out_path.c_str(), result->input.size(),
                 result->container.size(),
                 static_cast<double>(st.latency_us()) / 1000.0,
                 result->spec_committed ? "committed" : "off",
                 static_cast<unsigned long long>(result->rollbacks));
  }
  mgr.drain();
  print_serve_summary(mgr.all_sessions());
  {
    // Final load snapshot: the same cheap counters an agent ships in its
    // heartbeats (src/serve/load.h). After drain() the live gauges are
    // zero; the cumulative triple is the run's outcome tally.
    const serve::LoadSnapshot load = mgr.load_snapshot();
    std::fprintf(stderr,
                 "load: %llu done, %llu shed, %llu failed | %zu running, "
                 "%zu queued (cap I/B/K %zu/%zu/%zu), score %.2f\n",
                 static_cast<unsigned long long>(load.done),
                 static_cast<unsigned long long>(load.shed),
                 static_cast<unsigned long long>(load.failed), load.running,
                 load.total_queued(), load.queue_capacity[0],
                 load.queue_capacity[1], load.queue_capacity[2],
                 load.load_score());
  }
  if (cli.control) {
    const auto cs = mgr.control_status();
    std::fprintf(
        stderr,
        "control: window %zu, bulk queue cap %zu, %llu admission retune(s), "
        "%llu speculation retune(s)\n",
        cs.max_concurrent, cs.bulk_queue_cap,
        static_cast<unsigned long long>(cs.admission_retunes),
        static_cast<unsigned long long>(cs.spec_retunes));
  }
  {
    // Steady-path allocation observability (tvs_alloc_*): encode output is
    // bump-allocated from epoch arenas, so chunk mallocs per block should
    // sit near zero once the runtime's chunk pool is warm.
    const sre::ArenaStats alloc = mgr.runtime().arena_stats();
    std::fprintf(
        stderr,
        "arena: %llu bump allocs (%llu KiB) over %zu blocks — %llu chunk "
        "mallocs (%.4f/block), %llu recycled\n",
        static_cast<unsigned long long>(alloc.allocs),
        static_cast<unsigned long long>(alloc.bytes / 1024), total_blocks,
        static_cast<unsigned long long>(alloc.chunks_new),
        total_blocks == 0
            ? 0.0
            : static_cast<double>(alloc.chunks_new) /
                  static_cast<double>(total_blocks),
        static_cast<unsigned long long>(alloc.chunks_reused));
  }

  if (flight) {
    flight->stop();
    const std::string bin = cli.flight_dir + "/flight.tvsf";
    const std::string json = cli.flight_dir + "/flight.trace.json";
    if (flight->dump_binary(bin)) {
      std::fprintf(stderr, "flight: %s\n", bin.c_str());
    } else {
      std::fprintf(stderr, "tvsc: failed to write %s\n", bin.c_str());
    }
    if (flight->dump_chrome_trace(json)) {
      std::fprintf(stderr, "flight: %s\n", json.c_str());
    } else {
      std::fprintf(stderr, "tvsc: failed to write %s\n", json.c_str());
    }
  }

  if (cli.metrics == "prom") {
    std::fputs(metrics::to_prometheus(reg.snapshot()).c_str(), stdout);
  } else if (cli.metrics == "json") {
    std::fputs(metrics::to_json(reg.snapshot()).c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return rc;
}

/// `tvsc served`: run a distributed node agent until the router disconnects
/// (--once) or the process is killed. Scripted callers discover the bound
/// port through --port-file.
int run_served(const CliOptions& cli) {
  dist::NodeAgentOptions opts;
  opts.name = cli.node_name;
  opts.port = cli.port;
  opts.once = cli.once;
  opts.heartbeat_interval_ms = cli.heartbeat_ms;
  opts.service.workers = cli.workers;
  opts.service.max_concurrent = cli.concurrent;
  if (cli.bulk_cap != static_cast<std::size_t>(-1)) {
    opts.service.shed.queue_capacity[static_cast<std::size_t>(
        serve::Priority::Bulk)] = cli.bulk_cap;
  }

  dist::NodeAgent agent(opts);
  agent.start();
  std::fprintf(stderr, "tvsc served[%s]: listening on 127.0.0.1:%u\n",
               cli.node_name.c_str(), static_cast<unsigned>(agent.port()));
  if (!cli.port_file.empty()) {
    std::FILE* f = std::fopen(cli.port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "tvsc: cannot write %s\n", cli.port_file.c_str());
      return 2;
    }
    std::fprintf(f, "%u\n", static_cast<unsigned>(agent.port()));
    std::fclose(f);
  }
  agent.join();
  const serve::LoadSnapshot load = agent.manager().load_snapshot();
  agent.stop();
  std::fprintf(stderr,
               "tvsc served[%s]: exiting — %llu done, %llu shed, %llu "
               "failed\n",
               cli.node_name.c_str(),
               static_cast<unsigned long long>(load.done),
               static_cast<unsigned long long>(load.shed),
               static_cast<unsigned long long>(load.failed));
  return 0;
}

/// `tvsc route`: the distributed counterpart of serve_files — same inputs,
/// same <input>.tvsh outputs, but sessions are sharded across the --node=
/// agents instead of one local SessionManager. Paths must be readable on
/// the serving nodes (loopback deployments share the filesystem).
int route_files(const std::vector<std::string>& paths, const CliOptions& cli) {
  if (cli.nodes.empty()) {
    std::fprintf(stderr, "tvsc: route needs at least one --node=host:port\n");
    return 2;
  }
  dist::Router router;
  for (const auto& hp : cli.nodes) {
    const auto colon = hp.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == hp.size()) {
      std::fprintf(stderr, "tvsc: bad --node=%s (want host:port)\n",
                   hp.c_str());
      return 2;
    }
    const std::string host = hp.substr(0, colon);
    const auto port = static_cast<std::uint16_t>(
        std::stoul(hp.substr(colon + 1)));
    router.add_node(host, port);
  }

  std::vector<std::uint64_t> ids;
  ids.reserve(paths.size());
  for (const auto& path : paths) {
    dist::SessionSpec spec;
    spec.name = path;
    spec.input_path = path;
    const auto out = router.submit(std::move(spec));
    if (!out.placed) {
      std::fprintf(stderr, "tvsc: %s shed by router (%s)\n", path.c_str(),
                   out.shed_reason.c_str());
    }
    ids.push_back(out.id);
  }

  int rc = 0;
  for (const auto id : ids) {
    const auto so = router.wait(id);
    if (so.state == dist::WireState::Done) {
      const std::string out_path = so.name + ".tvsh";
      huff::write_file(out_path, so.container);
      std::fprintf(stderr,
                   "%s: %zu bytes via %s, %.1f ms latency, %llu rollback(s)\n",
                   out_path.c_str(), so.container.size(), so.node.c_str(),
                   static_cast<double>(so.latency_us) / 1000.0,
                   static_cast<unsigned long long>(so.rollbacks));
    } else {
      std::fprintf(stderr, "tvsc: %s %s (%s)\n", so.name.c_str(),
                   so.state == dist::WireState::Shed ? "shed" : "failed",
                   so.detail.c_str());
      rc = 1;
    }
  }
  router.drain();

  const auto t = router.totals();
  std::fprintf(stderr,
               "--- route summary ---------------------------------------\n"
               "%llu submitted: %llu routed (%llu spilled), %llu done, "
               "%llu shed (%llu router / %llu node), %llu failed, "
               "%llu node death(s)\n",
               static_cast<unsigned long long>(t.submitted),
               static_cast<unsigned long long>(t.routed),
               static_cast<unsigned long long>(t.spilled),
               static_cast<unsigned long long>(t.done),
               static_cast<unsigned long long>(t.shed_router + t.shed_node),
               static_cast<unsigned long long>(t.shed_router),
               static_cast<unsigned long long>(t.shed_node),
               static_cast<unsigned long long>(t.failed),
               static_cast<unsigned long long>(t.node_deaths));
  for (const auto& n : router.nodes()) {
    std::fprintf(stderr, "node %-11s %s | %llu done, %llu shed, %llu failed\n",
                 n.name.c_str(), n.alive ? "alive" : "DEAD",
                 static_cast<unsigned long long>(n.done),
                 static_cast<unsigned long long>(n.shed),
                 static_cast<unsigned long long>(n.failed));
  }
  return rc;
}

int decompress_file(const std::string& in_path, const std::string& out_path) {
  const auto container = huff::read_file(in_path);
  const auto data = huff::decompress_buffer(container);
  huff::write_file(out_path, data);
  std::printf("%s: %zu -> %zu bytes\n", out_path.c_str(), container.size(),
              data.size());
  return 0;
}

int test_file(const std::string& in_path) {
  const auto container = huff::read_file(in_path);
  const auto s = huff::deserialize(container);
  if (huff::decompress(s).size() != s.original_bytes) {
    throw std::runtime_error("decoded size differs from the header");
  }
  std::printf("%s: OK (%llu bytes original, %u blocks of %u, %llu payload "
              "bits)\n",
              in_path.c_str(),
              static_cast<unsigned long long>(s.original_bytes), s.n_blocks,
              s.block_size, static_cast<unsigned long long>(s.payload_bits));
  return 0;
}

bool parse_flag(const std::string& arg, CliOptions& cli) {
  if (arg.rfind("--metrics=", 0) == 0) {
    cli.metrics = arg.substr(10);
    return cli.metrics == "prom" || cli.metrics == "json" ||
           cli.metrics == "dash";
  }
  if (arg.rfind("--metrics-interval=", 0) == 0) {
    try {
      cli.interval_ms = std::stoull(arg.substr(19));
    } catch (const std::exception&) {
      return false;
    }
    return cli.interval_ms > 0;
  }
  if (arg.rfind("--report=", 0) == 0) {
    cli.report_dir = arg.substr(9);
    return !cli.report_dir.empty();
  }
  if (arg.rfind("--workers=", 0) == 0) {
    try {
      cli.workers = static_cast<unsigned>(std::stoul(arg.substr(10)));
    } catch (const std::exception&) {
      return false;
    }
    return cli.workers > 0;
  }
  if (arg.rfind("--concurrent=", 0) == 0) {
    try {
      cli.concurrent = std::stoull(arg.substr(13));
    } catch (const std::exception&) {
      return false;
    }
    return cli.concurrent > 0;
  }
  if (arg.rfind("--flight-recorder=", 0) == 0) {
    cli.flight_dir = arg.substr(18);
    return !cli.flight_dir.empty();
  }
  if (arg.rfind("--flight-window=", 0) == 0) {
    try {
      cli.flight_window_s = std::stoull(arg.substr(16));
    } catch (const std::exception&) {
      return false;
    }
    return cli.flight_window_s > 0;
  }
  if (arg == "--control") {
    cli.control = true;
    return true;
  }
  if (arg.rfind("--control-interval=", 0) == 0) {
    try {
      cli.control_interval_ms = std::stoull(arg.substr(19));
    } catch (const std::exception&) {
      return false;
    }
    cli.control = true;
    return cli.control_interval_ms > 0;
  }
  if (arg.rfind("--port=", 0) == 0) {
    try {
      cli.port = static_cast<std::uint16_t>(std::stoul(arg.substr(7)));
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }
  if (arg.rfind("--port-file=", 0) == 0) {
    cli.port_file = arg.substr(12);
    return !cli.port_file.empty();
  }
  if (arg.rfind("--name=", 0) == 0) {
    cli.node_name = arg.substr(7);
    return !cli.node_name.empty();
  }
  if (arg == "--once") {
    cli.once = true;
    return true;
  }
  if (arg.rfind("--heartbeat=", 0) == 0) {
    try {
      cli.heartbeat_ms = std::stoull(arg.substr(12));
    } catch (const std::exception&) {
      return false;
    }
    return cli.heartbeat_ms > 0;
  }
  if (arg.rfind("--bulk-cap=", 0) == 0) {
    try {
      cli.bulk_cap = std::stoull(arg.substr(11));
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }
  if (arg.rfind("--node=", 0) == 0) {
    cli.nodes.push_back(arg.substr(7));
    return !cli.nodes.back().empty();
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      if (!parse_flag(arg, cli)) {
        std::fprintf(stderr, "tvsc: bad flag %s\n", arg.c_str());
        return usage();
      }
    } else {
      pos.push_back(arg);
    }
  }
  if (pos.empty()) return usage();
  const std::string& mode = pos[0];
  try {
    if (mode == "c" && pos.size() == 3) return compress_file(pos[1], pos[2], cli);
    if (mode == "d" && pos.size() == 3) return decompress_file(pos[1], pos[2]);
    if (mode == "t" && pos.size() == 2) return test_file(pos[1]);
    if (mode == "serve" && pos.size() >= 2) {
      return serve_files({pos.begin() + 1, pos.end()}, cli);
    }
    if (mode == "served" && pos.size() == 1) return run_served(cli);
    if (mode == "route" && pos.size() >= 2) {
      return route_files({pos.begin() + 1, pos.end()}, cli);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tvsc: %s\n", e.what());
    return 1;
  }
  return usage();
}
