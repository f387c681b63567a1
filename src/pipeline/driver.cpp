#include "pipeline/driver.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "flight/observer.h"
#include "huffman/stream_format.h"
#include "huffman/tree.h"
#include "io/block_source.h"
#include "metrics/observer.h"
#include "pipeline/huffman_pipeline.h"
#include "sim/sim_executor.h"
#include "sre/threaded_executor.h"

namespace pipeline {
namespace {

std::shared_ptr<const sio::ArrivalModel> make_arrivals(const RunConfig& cfg) {
  switch (cfg.io) {
    case IoMode::Disk:
      return std::make_shared<sio::DiskArrival>();
    case IoMode::Socket:
      return std::make_shared<sio::SocketArrival>(cfg.socket_per_block_us,
                                                  cfg.socket_jitter_us);
  }
  throw std::invalid_argument("make_arrivals: unknown IO mode");
}

sio::BlockSource make_source(const RunConfig& cfg) {
  if (!cfg.input_path.empty()) {
    // Zero-copy path: blocks are spans over the page cache. Fall back to a
    // read() copy where mmap is unavailable (odd filesystems, platforms).
    try {
      return sio::BlockSource::map_file(cfg.input_path, cfg.ratios.block_size,
                                        make_arrivals(cfg));
    } catch (const std::runtime_error&) {
      return sio::BlockSource(huff::read_file(cfg.input_path),
                              cfg.ratios.block_size, make_arrivals(cfg));
    }
  }
  return sio::BlockSource(wl::make_corpus(cfg.file, cfg.bytes, cfg.seed),
                          cfg.ratios.block_size, make_arrivals(cfg));
}

/// Mirrors the runtime's arena counters (sre::ArenaStats) into the
/// tvs_alloc_* registry family. Counters are monotonic and the registry
/// outlives runs that share a runtime, so mirror the *delta* since the
/// previous call for the same registry/runtime pair.
void mirror_alloc_stats(metrics::Registry& reg, const sre::ArenaStats& before,
                        const sre::ArenaStats& after) {
  reg.counter("tvs_alloc_arena_allocs_total").add(after.allocs - before.allocs);
  reg.counter("tvs_alloc_arena_bytes_total").add(after.bytes - before.bytes);
  reg.counter("tvs_alloc_arena_chunks_total", "origin=\"malloc\"")
      .add(after.chunks_new - before.chunks_new);
  reg.counter("tvs_alloc_arena_chunks_total", "origin=\"recycled\"")
      .add(after.chunks_reused - before.chunks_reused);
  reg.counter("tvs_alloc_arena_oversize_total")
      .add(after.oversize - before.oversize);
}

RunResult collect(const sio::BlockSource& src, HuffmanPipeline& pl,
                  sre::Runtime& rt, stats::Micros makespan) {
  pl.validate_complete();
  RunResult res;
  res.trace = pl.trace();
  res.counters = rt.counters();
  res.makespan_us = makespan;
  res.spec_committed = pl.speculation_committed();
  res.rollbacks = pl.rollbacks();
  res.wait_discarded = pl.wait_discarded();
  res.output_bits = pl.output_bits();
  res.natural_dispatches = rt.pool().natural_pops();
  res.spec_dispatches = rt.pool().speculative_pops();
  res.control_dispatches = rt.pool().control_pops();
  res.input.assign(src.bytes().begin(), src.bytes().end());
  res.container = pl.assemble_output();
  return res;
}

/// Composes the effective observer for a run: the metrics bridge (if a
/// registry was given), fanned together with the caller's observer when
/// both exist. Owns the MetricsObserver; keep alive for the run.
struct ObserverStack {
  std::optional<metrics::MetricsObserver> metrics_obs;
  std::optional<flight::FlightObserver> flight_obs;
  sre::FanoutObserver fan;
  sre::Observer* effective = nullptr;

  ObserverStack(const RunOptions& opt) {
    if (opt.registry) metrics_obs.emplace(*opt.registry);
    if (opt.flight) flight_obs.emplace(*opt.flight);
    sre::Observer* parts[3] = {};
    std::size_t n = 0;
    if (metrics_obs) parts[n++] = &*metrics_obs;
    if (flight_obs) parts[n++] = &*flight_obs;
    if (opt.observer) parts[n++] = opt.observer;
    if (n == 1) {
      effective = parts[0];
    } else if (n > 1) {
      for (std::size_t i = 0; i < n; ++i) fan.add(parts[i]);
      effective = &fan;
    }
  }
};

}  // namespace

// The first series refreshes a shared QueueDepths / Snapshot probe so each
// tick costs one runtime lock acquisition and (with a registry) one registry
// sweep, regardless of how many series read from them.
void install_standard_series(metrics::Sampler& s, sre::Runtime& rt,
                             const HuffmanPipeline& pl,
                             metrics::Registry* reg) {
  auto depths = std::make_shared<sre::Runtime::QueueDepths>();
  s.add_series("ready_control", [&rt, depths] {
    *depths = rt.queue_depths();
    return static_cast<double>(depths->ready_control);
  });
  s.add_series("ready_natural", [depths] {
    return static_cast<double>(depths->ready_natural);
  });
  s.add_series("ready_speculative", [depths] {
    return static_cast<double>(depths->ready_speculative);
  });
  s.add_series("blocked", [depths] {
    return static_cast<double>(depths->blocked);
  });
  s.add_series("running", [depths] {
    return static_cast<double>(depths->running);
  });
  s.add_series("open_epochs", [depths] {
    return static_cast<double>(depths->open_epochs);
  });
  s.add_series("epoch_tasks", [depths] {
    return static_cast<double>(depths->epoch_tasks);
  });
  s.add_series("wait_pending", [&pl] {
    return static_cast<double>(pl.wait_pending());
  });
  if (!reg) return;

  // counter_sum is one registry lock + a handful of counter reads; a full
  // snapshot() would copy every histogram's shards on every tick.
  s.add_series("spec_cpu_share", [reg] {
    const double spec =
        reg->counter_sum("tvs_cpu_time_us_total", "class=\"speculative\"");
    const double nat =
        reg->counter_sum("tvs_cpu_time_us_total", "class=\"natural\"");
    const double all = spec + nat;
    return all == 0.0 ? 0.0 : spec / all;
  });
  s.add_series("rollbacks", [reg] {
    return reg->counter_sum("tvs_epochs_aborted_total");
  });
}

double RunResult::avg_latency_us() const {
  const auto lats = trace.latencies();
  if (lats.empty()) return 0.0;
  double sum = 0.0;
  for (auto l : lats) sum += static_cast<double>(l);
  return sum / static_cast<double>(lats.size());
}

stats::Summary RunResult::latency_summary() const {
  return stats::summarize(trace.latencies());
}

RunResult run_sim(const RunConfig& config, const RunOptions& options) {
  sio::BlockSource src = make_source(config);
  sre::Runtime rt(config.policy, config.priority_mode);
  const sre::ArenaStats alloc_before = rt.arena_stats();
  ObserverStack obs(options);
  if (obs.effective) rt.set_observer(obs.effective);
  sim::SimExecutor ex(rt, config.platform);
  HuffmanPipeline pl(rt, src, config);

  src.for_each_arrival([&](std::size_t i, sio::Micros at) {
    ex.schedule_arrival(at, [&pl, i](sim::Micros now) {
      pl.on_block_arrival(i, now);
    });
  });

  // Sampling on virtual time: a self-re-arming zero-cost tick event. It
  // stops re-arming once it is the only thing left on the queue and the
  // runtime has drained, so the simulation still terminates.
  std::shared_ptr<std::function<void(sim::Micros)>> tick_keepalive;
  if (options.sampler) {
    install_standard_series(*options.sampler, rt, pl, options.registry);
    const std::uint64_t interval =
        std::max<std::uint64_t>(1, options.sample_interval_us);
    tick_keepalive = std::make_shared<std::function<void(sim::Micros)>>();
    std::weak_ptr<std::function<void(sim::Micros)>> weak = tick_keepalive;
    *tick_keepalive = [&ex, &rt, s = options.sampler, interval,
                       weak](sim::Micros now) {
      s->tick(now);
      if (ex.pending_events() > 0 || !rt.quiescent()) {
        if (auto self = weak.lock()) ex.schedule_arrival(now + interval, *self);
      }
    };
    ex.schedule_arrival(interval, *tick_keepalive);
  }

  ex.run();
  if (options.sampler) {
    // Closing row at the makespan — unless the last in-run tick already
    // covers it (trailing ticks can land at or after the last completion).
    const auto rows = options.sampler->samples();
    if (rows.empty() || rows.back().t_us < ex.makespan_us()) {
      options.sampler->tick(ex.makespan_us());
    }
    options.sampler->clear_series();
  }
  RunResult res = collect(src, pl, rt, ex.makespan_us());
  if (options.registry) {
    mirror_alloc_stats(*options.registry, alloc_before, rt.arena_stats());
  }
  return res;
}

RunResult run_sim(const RunConfig& config, sre::Observer* observer) {
  RunOptions opt;
  opt.observer = observer;
  return run_sim(config, opt);
}

RunResult run_threaded(const RunConfig& config, const RunOptions& options) {
  sio::BlockSource src = make_source(config);
  sre::Runtime rt(config.policy, config.priority_mode);
  const sre::ArenaStats alloc_before = rt.arena_stats();
  ObserverStack obs(options);
  if (obs.effective) rt.set_observer(obs.effective);
  sre::ThreadedExecutor::Options topts;
  topts.workers = options.workers;
  topts.arrival_time_scale = options.arrival_time_scale;
  if (options.registry) {
    // Pin each worker to its own metrics shard: deterministic, no false
    // sharing between workers.
    topts.worker_start_hook = [](unsigned ix) {
      metrics::bind_shard(ix % metrics::kShards);
    };
  }
  sre::ThreadedExecutor ex(rt, topts);
  HuffmanPipeline pl(rt, src, config);

  src.for_each_arrival([&](std::size_t i, sio::Micros at) {
    ex.schedule_arrival(at, [&pl, i](std::uint64_t now) {
      pl.on_block_arrival(i, now);
    });
  });

  if (options.sampler) {
    install_standard_series(*options.sampler, rt, pl, options.registry);
    options.sampler->start(
        std::max<std::uint64_t>(1, options.sample_interval_us));
  }
  ex.run();
  if (options.sampler) {
    options.sampler->stop();
    options.sampler->tick(ex.now_us());  // closing row at engine time
    options.sampler->clear_series();
  }
  RunResult res = collect(src, pl, rt, rt.counters().total_runtime_us);
  res.dispatch = ex.dispatch_stats();
  if (options.registry) {
    // Mirror the scheduler-path counters into the registry so report bundles
    // carry them alongside the speculation metrics.
    metrics::Registry& reg = *options.registry;
    const auto& d = res.dispatch;
    reg.counter("tvs_dispatch_acquires_total", "source=\"local\"")
        .add(d.local_pops);
    reg.counter("tvs_dispatch_acquires_total", "source=\"steal\"")
        .add(d.steals);
    reg.counter("tvs_dispatch_acquires_total", "source=\"self_stage\"")
        .add(d.self_stages);
    reg.counter("tvs_dispatch_revoked_at_pop_total").add(d.revoked_at_pop);
    reg.counter("tvs_dispatch_worker_parks_total").add(d.parks);
    reg.counter("tvs_dispatch_completion_fallbacks_total")
        .add(d.completion_fallbacks);
    mirror_alloc_stats(reg, alloc_before, rt.arena_stats());
  }
  return res;
}

RunResult run_threaded(const RunConfig& config, unsigned workers,
                       double arrival_time_scale) {
  RunOptions opt;
  opt.workers = workers;
  opt.arrival_time_scale = arrival_time_scale;
  return run_threaded(config, opt);
}

SharedRun::SharedRun() = default;
SharedRun::SharedRun(SharedRun&&) noexcept = default;
SharedRun& SharedRun::operator=(SharedRun&&) noexcept = default;
SharedRun::~SharedRun() = default;

SharedRun begin_shared_run(const RunConfig& config, sre::Runtime& runtime,
                           sre::ThreadedExecutor& ex, double block_time_scale,
                           std::function<void(std::uint64_t)> on_complete,
                           std::function<void(std::uint64_t)> on_last_arrival) {
  SharedRun run;
  run.source = std::make_shared<const sio::BlockSource>(make_source(config));
  // The shared_ptr overload: the pipeline's state co-owns the source, so
  // the session can be destroyed as soon as results are collected even if
  // stray aborted tasks are still draining on the shared executor.
  run.pipeline =
      std::make_unique<HuffmanPipeline>(runtime, run.source, config);
  if (on_complete) {
    // A zero-block run completes synchronously inside set_on_complete,
    // which has no clock and fires with t == 0; substitute the engine's
    // current time so session latency/makespan stay meaningful.
    sre::ThreadedExecutor* exp = &ex;
    run.pipeline->set_on_complete(
        [cb = std::move(on_complete), exp](std::uint64_t t) {
          cb(t != 0 ? t : exp->now_us());
        });
  }

  // Offset the session's arrival schedule to "now" and scale it here rather
  // than through Options::arrival_time_scale — the executor is shared, and
  // its global scale would stretch every other session too.
  run.base_us = ex.now_us();
  const std::size_t n = run.source->n_blocks();
  HuffmanPipeline* pl = run.pipeline.get();
  std::uint64_t last_at = 0;
  run.source->for_each_arrival([&](std::size_t i, sio::Micros at) {
    const auto scaled = run.base_us + static_cast<std::uint64_t>(
                                          static_cast<double>(at) *
                                          block_time_scale);
    last_at = std::max(last_at, scaled);
    ex.schedule_arrival(scaled, [pl, i](std::uint64_t now) {
      pl->on_block_arrival(i, now);
    });
  });
  if (on_last_arrival) {
    // Equal-time arrivals fire in submission order, so this lands strictly
    // after the final on_block_arrival. When they share its instant they
    // share one feeder batch, whose tasks publish just after this returns;
    // the callback only marks the session Draining, which needs none.
    if (n == 0) last_at = run.base_us;
    ex.schedule_arrival(last_at, std::move(on_last_arrival));
  }
  return run;
}

RunResult collect_shared_run(const SharedRun& run, std::uint64_t done_us) {
  HuffmanPipeline& pl = *run.pipeline;
  pl.validate_complete();
  RunResult res;
  res.trace = pl.trace();
  res.makespan_us = done_us > run.base_us ? done_us - run.base_us : 0;
  res.spec_committed = pl.speculation_committed();
  res.rollbacks = pl.rollbacks();
  res.wait_discarded = pl.wait_discarded();
  res.output_bits = pl.output_bits();
  res.input.assign(run.source->bytes().begin(), run.source->bytes().end());
  res.container = pl.assemble_output();
  return res;
}

report::RunInfo run_info(const RunConfig& config, const RunResult& result,
                         const std::string& engine) {
  report::RunInfo info;
  info.scenario = config.label();
  info.engine = engine;
  info.makespan_us = result.makespan_us;
  info.blocks = result.trace.size();
  info.avg_latency_us = result.avg_latency_us();
  const stats::Summary lat = result.latency_summary();
  info.p95_latency_us = lat.p95;
  info.max_latency_us = lat.max;
  info.spec_committed = result.spec_committed;
  info.rollbacks = result.rollbacks;
  info.wasted_encodes = result.trace.wasted_encodes();
  info.wait_discarded = result.wait_discarded;
  info.input_bytes = result.input.size();
  info.output_bits = result.output_bits;
  info.counters = result.counters;
  // All-zero under run_sim (see RunResult::dispatch);
  // the report layer omits the section in that case rather than printing
  // a wall of zeros that looks like a measurement.
  const auto& d = result.dispatch;
  info.dispatch.tasks_run = d.tasks_run;
  info.dispatch.local_pops = d.local_pops;
  info.dispatch.steals = d.steals;
  info.dispatch.self_stages = d.self_stages;
  info.dispatch.revoked_at_pop = d.revoked_at_pop;
  info.dispatch.parks = d.parks;
  info.dispatch.completion_fallbacks = d.completion_fallbacks;
  info.dispatch.inline_finishes = d.inline_finishes;
  info.dispatch.worker_retires = d.worker_retires;
  return info;
}

void verify_roundtrip(const RunResult& result) {
  const auto decoded = huff::decompress_buffer(result.container);
  if (decoded.size() != result.input.size()) {
    throw std::logic_error("verify_roundtrip: size mismatch (" +
                           std::to_string(decoded.size()) + " vs " +
                           std::to_string(result.input.size()) + ")");
  }
  if (decoded != result.input) {
    throw std::logic_error("verify_roundtrip: content mismatch");
  }
}

double size_overhead_vs_optimal(const RunResult& result) {
  const huff::Histogram hist = huff::Histogram::of(result.input);
  const huff::HuffmanTree tree = huff::HuffmanTree::build(hist);
  const auto optimal = static_cast<double>(tree.encoded_bits(hist));
  if (optimal == 0.0) return 0.0;
  // The committed tree's coded bits, without the container's byte padding.
  const auto committed = static_cast<double>(huff::encoded_bits(
      huff::read_header(result.container).lengths, hist));
  return (committed - optimal) / optimal;
}

}  // namespace pipeline
