// bulk-txt and stream-shift: one input compressed again and again on the
// threaded engine, exactly as `tvsc c` wires it (BlockSource → HuffmanPipeline
// → ThreadedExecutor::run → validate_complete → assemble_output), speculative
// and NonSpeculative, next to the serial huff::compress_buffer reference.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "emit.h"
#include "huffman/fast_decoder.h"
#include "huffman/stream_format.h"
#include "io/arrival_model.h"
#include "io/block_source.h"
#include "pipeline/huffman_pipeline.h"
#include "sre/observer.h"
#include "sre/runtime.h"
#include "sre/threaded_executor.h"
#include "workload/corpus.h"
#include "workloads.h"

namespace bench {
namespace {

/// Benchmark-side observer for the traced run: per task kind, how many tasks
/// retired and their mean on_dispatched → on_finished span. Under Sharded
/// dispatch on_dispatched fires when the director *stages* a task, not when
/// a worker starts it, so the span includes inbox and deque wait.
class KindObserver final : public sre::Observer {
 public:
  static constexpr std::array<std::string_view, 6> kKinds = {
      "count", "reduce", "tree", "offset", "encode", "check"};

  void on_task_created(const sre::TaskInfo& task) override {
    // "encode[7]" and the speculative "spec-encode[7,e3]" are one kind.
    std::string_view kind = task.name;
    kind = kind.substr(0, kind.find('['));
    if (kind.starts_with("spec-")) kind.remove_prefix(5);
    std::size_t k = 0;
    while (k < kKinds.size() && kKinds[k] != kind) ++k;
    std::scoped_lock lk(mu_);
    live_[task.id] = Live{k, 0};
  }

  void on_dispatched(sre::TaskId task, std::uint64_t now_us,
                     unsigned /*cpu*/) override {
    std::scoped_lock lk(mu_);
    const auto it = live_.find(task);
    if (it != live_.end()) it->second.staged_us = now_us;
  }

  void on_finished(sre::TaskId task, std::uint64_t now_us,
                   bool aborted) override {
    std::scoped_lock lk(mu_);
    const auto it = live_.find(task);
    if (it == live_.end()) return;
    if (!aborted && it->second.kind < kKinds.size()) {
      Kind& s = kinds_[it->second.kind];
      ++s.tasks;
      s.sum_us += static_cast<double>(now_us - std::min(now_us, it->second.staged_us));
    }
    live_.erase(it);
  }

  void emit() const {
    std::scoped_lock lk(mu_);
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      const Kind& s = kinds_[k];
      const std::string kind(kKinds[k]);
      emit_layer("sre.tasks." + kind, static_cast<double>(s.tasks));
      emit_layer("sre.staged_to_done_us." + kind,
                 s.tasks == 0 ? 0.0 : s.sum_us / static_cast<double>(s.tasks));
    }
  }

 private:
  struct Live {
    std::size_t kind = 0;
    std::uint64_t staged_us = 0;
  };
  struct Kind {
    std::uint64_t tasks = 0;
    double sum_us = 0.0;
  };
  mutable std::mutex mu_;
  std::unordered_map<sre::TaskId, Live> live_;
  std::array<Kind, kKinds.size()> kinds_{};
};

/// One workload's input and the two engine configurations it runs under.
struct EngineInput {
  /// Input number `variant` of this run (deterministic in the run's seed).
  std::function<std::vector<std::uint8_t>(std::uint64_t variant)> generate;
  /// True: every measurement cycle compresses a fresh variant, so a run's
  /// medians cover many inputs instead of hinging on one.
  bool new_input_each_cycle = false;
  std::vector<std::uint8_t> bytes;
  std::string path;
  std::shared_ptr<const sio::ArrivalModel> arrivals;
  double time_scale = 0.0;  ///< ThreadedExecutor::Options::arrival_time_scale
  pipeline::RunConfig spec;
  pipeline::RunConfig nonspec;
  std::vector<std::uint8_t> reference;  ///< huff::compress_buffer(bytes)
  double nominal_cycle_s = 1.0;
  double nominal_traced_cycle_s = 1.0;

  /// Blocks arrive on the arrival model's schedule rather than all at t = 0,
  /// so the compresses run at that pace, not at the host's speed.
  bool paced() const { return time_scale > 0; }
};

/// One threaded compress and everything observed about it.
struct Compressed {
  double wall_s = 0.0;  ///< map → container ready
  double map_s = 0.0;
  double construct_s = 0.0;
  double run_s = 0.0;
  double validate_s = 0.0;
  double assemble_s = 0.0;
  std::vector<std::uint8_t> container;
  std::vector<double> latency_us;     ///< scheduled arrival → committed
  std::vector<double> feeder_lag_us;  ///< feeder firing − scheduled arrival
  stats::RunCounters counters;
  sre::ThreadedExecutor::DispatchStats dispatch;
  std::uint64_t rollbacks = 0;
  std::size_t wait_discarded = 0;
  std::uint64_t wasted_encodes = 0;
  std::size_t spec_commits = 0;
};

Compressed compress(const EngineInput& in, const pipeline::RunConfig& cfg,
                    unsigned workers, sre::Observer* observer) {
  Compressed c;
  const auto t0 = Clock::now();
  sio::BlockSource src =
      sio::BlockSource::map_file(in.path, cfg.ratios.block_size, in.arrivals);
  c.map_s = seconds_since(t0);
  sre::Runtime rt(cfg.policy, cfg.priority_mode);
  if (observer != nullptr) rt.set_observer(observer);
  sre::ThreadedExecutor::Options topts;
  topts.workers = workers;
  topts.arrival_time_scale = in.time_scale;
  topts.collect_pop_latency = observer != nullptr;
  sre::ThreadedExecutor ex(rt, topts);

  auto t = Clock::now();
  pipeline::HuffmanPipeline pl(rt, src, cfg);
  c.construct_s = seconds_since(t);
  src.for_each_arrival([&](std::size_t i, sio::Micros at) {
    ex.schedule_arrival(at, [&pl, i](std::uint64_t now) {
      pl.on_block_arrival(i, now);
    });
  });
  t = Clock::now();
  ex.run();
  c.run_s = seconds_since(t);
  t = Clock::now();
  pl.validate_complete();
  c.validate_s = seconds_since(t);
  t = Clock::now();
  c.container = pl.assemble_output();
  c.assemble_s = seconds_since(t);
  c.wall_s = seconds_since(t0);

  // Latency is measured from the schedule the arrival model set (engine
  // time = model time × scale), not from when the feeder got round to it,
  // so a late feeder counts against the blocks it delayed.
  const stats::BlockTrace& trace = pl.trace();
  c.latency_us.reserve(trace.size());
  c.feeder_lag_us.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const double due = static_cast<double>(src.arrival_us(i)) * in.time_scale;
    const stats::BlockRecord& r = trace.at(i);
    c.latency_us.push_back(static_cast<double>(*r.done_us) - due);
    c.feeder_lag_us.push_back(static_cast<double>(r.arrival_us) - due);
  }
  c.counters = rt.counters();
  c.dispatch = ex.dispatch_stats();
  c.rollbacks = pl.rollbacks();
  c.wait_discarded = pl.wait_discarded();
  c.wasted_encodes = trace.wasted_encodes();
  c.spec_commits = trace.speculative_commits();
  return c;
}

/// Quantile of the executor's log2-bucketed pop-latency histogram (bucket b
/// holds latencies of bit width b), interpolated linearly inside the bucket.
double pop_latency_quantile_us(const std::array<std::uint64_t, 64>& h,
                               double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t n : h) total += n;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double below = 0.0;
  for (std::size_t b = 0; b < h.size(); ++b) {
    const auto n = static_cast<double>(h[b]);
    if (n > 0.0 && below + n >= target) {
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(b));
      return lo + (hi - lo) * (target - below) / n;
    }
    below += n;
  }
  return std::ldexp(1.0, 63);
}

void emit_engine_layers(const Compressed& c, std::size_t blocks) {
  const double n = static_cast<double>(blocks);
  emit_layer("io.map_us", c.map_s * 1e6);
  emit_layer("io.feeder_lag_p99_us", percentile(c.feeder_lag_us, 0.99));
  emit_layer("pipeline.construct_us", c.construct_s * 1e6);
  emit_layer("pipeline.run_ms", c.run_s * 1e3);
  emit_layer("pipeline.assemble_output_ms", c.assemble_s * 1e3);
  emit_layer("pipeline.tail_share", c.assemble_s / c.wall_s);
  emit_layer("pipeline.validate_us", c.validate_s * 1e6);

  const auto& d = c.dispatch;
  emit_layer("sre.tasks_executed", static_cast<double>(c.counters.tasks_executed));
  emit_layer("sre.tasks_per_block",
             static_cast<double>(c.counters.tasks_executed) / n);
  emit_layer("sre.steals", static_cast<double>(d.steals));
  emit_layer("sre.parks", static_cast<double>(d.parks));
  emit_layer("sre.director_stages", static_cast<double>(d.director_stages));
  emit_layer("sre.inline_finishes", static_cast<double>(d.inline_finishes));
  emit_layer("sre.worker_retires", static_cast<double>(d.worker_retires));
  emit_layer("sre.completion_fallbacks",
             static_cast<double>(d.completion_fallbacks));
  emit_layer("sre.pop_latency_p50_us", pop_latency_quantile_us(d.pop_latency, 0.5));
  emit_layer("sre.pop_latency_p99_us",
             pop_latency_quantile_us(d.pop_latency, 0.99));

  const auto& k = c.counters;
  emit_layer("core.epochs_opened", static_cast<double>(k.epochs_opened));
  emit_layer("core.epochs_committed", static_cast<double>(k.epochs_committed));
  emit_layer("core.rollbacks", static_cast<double>(c.rollbacks));
  emit_layer("core.checks_executed", static_cast<double>(k.checks_executed));
  emit_layer("core.wasted_encodes", static_cast<double>(c.wasted_encodes));
  emit_layer("core.wait_discarded", static_cast<double>(c.wait_discarded));
  emit_layer("core.useful_encode_ratio",
             n / (n + static_cast<double>(c.wasted_encodes)));
  emit_layer("core.spec_commit_share", static_cast<double>(c.spec_commits) / n);
}

void emit_compress_op(std::string_view op, const EngineInput& in,
                      const Compressed& c, bool traced) {
  Line("op")
      .str("op", op)
      .num("traced", traced ? 1 : 0)
      .num("paced", in.paced())
      .num("bytes", static_cast<double>(in.bytes.size()))
      .num("out_bytes", static_cast<double>(c.container.size()))
      .num("wall_s", c.wall_s)
      .num("lat_p50_ms", percentile(c.latency_us, 0.50) / 1e3)
      .num("lat_p99_ms", percentile(c.latency_us, 0.99) / 1e3)
      .emit();
}

/// Speculative compress, then its round-trip check: huff::decompress_buffer
/// of the container (timed: the `decompress` op) must give the input back,
/// and the container may exceed the exact-tree reference only by what the
/// tolerance allows. Speculative containers may differ from run to run, so
/// their bytes are never compared.
void spec_op(const EngineInput& in, unsigned workers, KindObserver* observer) {
  emit_begin("spec");
  Compressed c;
  try {
    c = compress(in, in.spec, workers, observer);
  } catch (const std::exception& e) {
    emit_fail("spec", e.what());
    return;
  }
  const bool traced = observer != nullptr;
  emit_begin("decompress");
  const auto t0 = Clock::now();
  std::vector<std::uint8_t> back;
  try {
    back = huff::decompress_buffer(c.container);
  } catch (const std::exception& e) {
    emit_fail("decompress", e.what());
    emit_fail("spec", "container does not decode", true);
    return;
  }
  const double decode_s = seconds_since(t0);
  if (back != in.bytes) {
    emit_fail("decompress", "round trip differs from the input", true);
    emit_fail("spec", "round trip differs from the input", true);
    return;
  }
  Line("op")
      .str("op", "decompress")
      .num("traced", traced ? 1 : 0)
      .num("bytes", static_cast<double>(in.bytes.size()))
      .num("wall_s", decode_s)
      .emit();
  // The committed tree passed a check at tolerance `t` against the exact
  // histogram, so the payload is at most ~(1 + t) × the exact-tree payload;
  // the floor that makes every byte encodable adds well under 1 %.
  const double bound =
      static_cast<double>(in.reference.size()) * (1.0 + in.spec.spec.tolerance) *
          1.01 +
      64.0;
  if (static_cast<double>(c.container.size()) > bound) {
    char what[128];
    std::snprintf(what, sizeof what, "container %zu bytes over the bound %.0f",
                  c.container.size(), bound);
    emit_fail("spec", what, true);
    return;
  }
  emit_compress_op("spec", in, c, traced);
  if (traced) {
    emit_engine_layers(c, c.latency_us.size());
    observer->emit();
    emit_layer("huffman.decode_ns_per_byte",
               decode_s * 1e9 / static_cast<double>(in.bytes.size()));
  }
}

/// Checks a deterministic container: byte-equal to the verified reference,
/// or else decoded and compared with the input.
bool round_trips(const EngineInput& in, const std::vector<std::uint8_t>& c) {
  if (c == in.reference) return true;
  try {
    return huff::decompress_buffer(c) == in.bytes;
  } catch (const std::exception&) {
    return false;
  }
}

void nonspec_op(const EngineInput& in, unsigned workers) {
  emit_begin("nonspec");
  try {
    const Compressed c = compress(in, in.nonspec, workers, nullptr);
    if (!round_trips(in, c.container)) {
      emit_fail("nonspec", "round trip differs from the input", true);
      return;
    }
    emit_compress_op("nonspec", in, c, false);
  } catch (const std::exception& e) {
    emit_fail("nonspec", e.what());
  }
}

void serial_op(const EngineInput& in) {
  emit_begin("serial");
  const auto t0 = Clock::now();
  const std::vector<std::uint8_t> c = huff::compress_buffer(in.bytes);
  const double wall_s = seconds_since(t0);
  if (!round_trips(in, c)) {
    emit_fail("serial", "round trip differs from the input", true);
    return;
  }
  Line("op")
      .str("op", "serial")
      .num("bytes", static_cast<double>(in.bytes.size()))
      .num("out_bytes", static_cast<double>(c.size()))
      .num("wall_s", wall_s)
      .emit();
}

/// Generates input `variant`, writes it where the engine maps it from, and
/// computes its exact-tree reference container. The reference is checked by
/// decoding every indexed block with huff::FastDecoder (the faster of the
/// program's two decoders; huff::decompress_buffer checks the speculative
/// output of the same input).
void load(EngineInput& in, std::uint64_t variant) {
  in.bytes = in.generate(variant);
  huff::write_file(in.path, in.bytes);
  in.reference = huff::compress_buffer(in.bytes);
  const huff::CompressedStream s = huff::deserialize(in.reference);
  const huff::FastDecoder fast(s.table());
  for (std::size_t i = 0; i < s.n_blocks; ++i) {
    const std::size_t len = s.block_bytes(i);
    const auto out = fast.decode(s.payload, len, s.block_offsets[i]);
    if (!std::equal(out.begin(), out.end(),
                    in.bytes.begin() + static_cast<std::ptrdiff_t>(i * s.block_size))) {
      throw std::runtime_error("compress_buffer does not round-trip");
    }
  }
}

/// Runs `op` in a child forked from this single-threaded process and waits
/// for it. A pipeline's State owns callbacks that hold it, so every run
/// leaves its State behind until its process exits; a child per operation
/// keeps that from piling up into the timings and the peak memory of the
/// operations after it, and every operation starts from the same process.
/// A crash costs that operation, and is reported with its signal. The
/// child's records end with a "probe" record. With `probe` (for operations
/// that run at the host's speed, not at an arrival pace), it carries the
/// host's speed on all workers and on one thread, probed right before and
/// after `op`; run.py pairs it with the operations `op` recorded.
void in_child(const Options& opt, bool probe, const std::function<void()>& op,
              double& peak_kib) {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int rc = 0;
    try {
      Line end("probe");
      if (!probe) {
        op();
      } else {
        const double all_before = probe_mbps(opt.workers);
        const double one_before = probe_mbps(1);
        op();
        const double one_after = probe_mbps(1);
        const double all_after = probe_mbps(opt.workers);
        end.num("mbps", std::sqrt(all_before * all_after))
            .num("mbps_1", std::sqrt(one_before * one_after));
      }
      end.emit();
    } catch (const std::exception& e) {
      emit_fail("child", e.what());
      rc = 1;
    }
    std::fflush(stdout);
    _exit(rc);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) {
    throw std::runtime_error("wait4 failed");
  }
  peak_kib = std::max(peak_kib, static_cast<double>(usage.ru_maxrss));
  if (WIFSIGNALED(status)) {
    emit_fail("child", std::string("killed by signal ") +
                           strsignal(WTERMSIG(status)));
  }
}

/// One measurement cycle: speculative compress (and, traced, a second one
/// with the tracing on), NonSpeculative and serial compress of the current
/// input, plus the kernel timings when traced; each in its own child. The
/// speculative child also decompresses, at the host's speed.
void run_cycle(const Options& opt, const EngineInput& in, double& peak_kib) {
  in_child(opt, true, [&] { spec_op(in, opt.workers, nullptr); }, peak_kib);
  if (opt.trace) {
    in_child(opt, !in.paced(), [&] {
      KindObserver observer;
      spec_op(in, opt.workers, &observer);
    }, peak_kib);
  }
  in_child(opt, !in.paced(), [&] { nonspec_op(in, opt.workers); }, peak_kib);
  in_child(opt, true, [&] { serial_op(in); }, peak_kib);
  if (opt.trace) {
    in_child(opt, false, [&] {
      emit_begin("kernels");
      if (time_kernels(in.bytes, in.spec, in.reference)) {
        Line("op").str("op", "kernels").emit();
      }
    }, peak_kib);
  }
}

int run_engine(const Options& opt, EngineInput in) {
  load(in, 0);
  (void)probe_mbps(opt.workers);  // builds the probe's input before forking
  double peak_kib = 0.0;

  // Set-up: map the input, start an engine and run one warm-up compress, as
  // a fresh `tvsc c` process does; five times, run.py reports the median.
  for (int k = 0; k < 5; ++k) {
    in_child(opt, !in.paced(), [&] {
      const auto t0 = Clock::now();
      (void)compress(in, in.spec, opt.workers, nullptr);
      Line("setup")
          .num("s", seconds_since(t0))
          .num("paced", in.paced())
          .emit();
    }, peak_kib);
  }

  const Quota quota = Quota::of(
      opt, opt.trace ? in.nominal_traced_cycle_s : in.nominal_cycle_s);
  const auto start = Clock::now();
  for (std::size_t cycle = 0; cycle < quota.cycles; ++cycle) {
    if (cycle >= Quota::kMinCycles && seconds_since(start) > quota.cap_s) break;
    if (cycle > 0 && in.new_input_each_cycle) load(in, cycle);
    run_cycle(opt, in, peak_kib);
  }
  Line("rss").num("peak_mb", peak_kib / 1024.0).emit();
  return 0;
}

/// splitmix64 finalizer: a seeded, well-spread choice per (seed, variant, i).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

int run_bulk_txt(const Options& opt) {
  EngineInput in;
  in.generate = [seed = opt.seed](std::uint64_t) {
    return wl::make_corpus(wl::FileKind::Txt, 32u << 20, seed);
  };
  in.path = opt.workdir + "/bulk.txt";
  // `tvsc c` sees a local file: every block is available at t = 0.
  in.arrivals = std::make_shared<sio::DiskArrival>(2);
  in.time_scale = 0.0;
  in.spec = pipeline::RunConfig::x86_disk(wl::FileKind::Txt,
                                          sre::DispatchPolicy::Balanced);
  in.nonspec = pipeline::RunConfig::x86_disk(
      wl::FileKind::Txt, sre::DispatchPolicy::NonSpeculative);
  in.nominal_cycle_s = 1.45;
  in.nominal_traced_cycle_s = 3.2;
  return run_engine(opt, std::move(in));
}

int run_stream_shift(const Options& opt) {
  EngineInput in;
  // TXT → BMP → PDF → TXT …: the file type, and with it the best code
  // table, changes every 256 KiB. Where the checks fail depends on the
  // bytes, so block latency varies from splice to splice; each cycle
  // compresses a fresh splice, drawn from a seeded pool of segments, so a
  // run's medians describe the workload rather than one splice.
  constexpr std::size_t kSegment = 256u << 10;
  constexpr std::size_t kSegments = 24;
  constexpr std::size_t kPerKind = 16;
  const auto kinds = wl::all_kinds();
  auto pool = std::make_shared<std::vector<std::vector<std::uint8_t>>>();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    for (std::size_t j = 0; j < kPerKind; ++j) {
      pool->push_back(wl::make_corpus(kinds[k], kSegment,
                                      opt.seed * 1000 + k * kPerKind + j));
    }
  }
  in.generate = [pool, seed = opt.seed,
                 n_kinds = kinds.size()](std::uint64_t variant) {
    std::vector<std::uint8_t> bytes;
    bytes.reserve(kSegment * kSegments);
    for (std::size_t i = 0; i < kSegments; ++i) {
      const std::uint64_t pick = mix((seed << 32) ^ (variant << 8) ^ i) % kPerKind;
      const auto& part = (*pool)[(i % n_kinds) * kPerKind + pick];
      bytes.insert(bytes.end(), part.begin(), part.end());
    }
    return bytes;
  };
  in.new_input_each_cycle = true;
  in.path = opt.workdir + "/stream.bin";
  // A fixed pace of one 4 KiB block per 100 µs, produced by the engine's
  // own feeder thread: open-loop, so a slow engine cannot slow the input.
  in.arrivals = std::make_shared<sio::SocketArrival>(100, 0);
  in.time_scale = 1.0;
  auto socket = [](sre::DispatchPolicy policy) {
    pipeline::RunConfig cfg =
        pipeline::RunConfig::x86_socket(wl::FileKind::Txt, policy);
    cfg.ratios.reduce_ratio = 4;
    cfg.spec.tolerance = 0.002;
    return cfg;
  };
  in.spec = socket(sre::DispatchPolicy::Balanced);
  in.nonspec = socket(sre::DispatchPolicy::NonSpeculative);
  in.nominal_cycle_s = 0.6;
  in.nominal_traced_cycle_s = 1.2;
  return run_engine(opt, std::move(in));
}

}  // namespace bench
