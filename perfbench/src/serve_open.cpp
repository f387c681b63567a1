// serve-open: seeded Poisson submits at a fixed absolute rate into one
// serve::SessionManager, as `tvsc serve` runs it. A single-threaded generator
// calls submit() itself at each due time; session latency is measured from
// that due time, so a stalled submit counts against the sessions it delayed.
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "emit.h"
#include "huffman/stream_format.h"
#include "io/arrival_model.h"
#include "io/block_source.h"
#include "pipeline/huffman_pipeline.h"
#include "serve/session_manager.h"
#include "sre/runtime.h"
#include "workload/corpus.h"
#include "workloads.h"

namespace bench {
namespace {

constexpr std::size_t kFileBytes = 128u << 10;
constexpr std::size_t kFiles = 48;  ///< distinct inputs, reused round-robin
constexpr std::size_t kSessions = 1000;
constexpr double kRatePerSecond = 400.0;
constexpr std::size_t kConcurrent = 4;
constexpr std::size_t kWarmupSessions = 8;

struct InputFile {
  std::string path;
  wl::FileKind kind = wl::FileKind::Txt;
  std::vector<std::uint8_t> bytes;
  std::size_t reference_bytes = 0;  ///< huff::compress_buffer size
};

serve::SessionConfig session_config(const InputFile& f, std::size_t i) {
  serve::SessionConfig sc;
  sc.name = "s" + std::to_string(i);
  sc.run = pipeline::RunConfig::x86_disk(f.kind, sre::DispatchPolicy::Balanced);
  sc.run.input_path = f.path;
  sc.priority = static_cast<serve::Priority>(i % serve::kPriorities);
  return sc;
}

std::unique_ptr<serve::SessionManager> start_manager(
    const Options& opt, const std::vector<InputFile>& files) {
  serve::ServiceConfig cfg;
  cfg.workers = opt.workers;
  cfg.max_concurrent = kConcurrent;
  auto mgr = std::make_unique<serve::SessionManager>(cfg);
  std::vector<serve::SessionId> ids;
  for (std::size_t i = 0; i < kWarmupSessions; ++i) {
    ids.push_back(mgr->submit(session_config(files[i % files.size()], i)).id);
  }
  for (const serve::SessionId id : ids) {
    (void)mgr->wait(id);
    mgr->release(id);
  }
  return mgr;
}

/// One submitted session on its way to the collector.
struct Pending {
  serve::SessionId id = 0;
  std::uint64_t due_us = 0;  ///< engine time the generator was due to submit
  std::size_t file = 0;
};

/// A finished session's output, kept for the round-trip check after the
/// open loop (decoding during it would compete with the workers).
struct Output {
  std::size_t file = 0;
  std::vector<std::uint8_t> container;
};

}  // namespace

int run_serve_open(const Options& opt) {
  std::vector<InputFile> files(kFiles);
  const auto kinds = wl::all_kinds();
  for (std::size_t i = 0; i < kFiles; ++i) {
    InputFile& f = files[i];
    f.kind = kinds[i % kinds.size()];
    f.bytes = wl::make_corpus(f.kind, kFileBytes, opt.seed * 1000 + i);
    f.path = opt.workdir + "/in" + std::to_string(i) + ".bin";
    huff::write_file(f.path, f.bytes);
    f.reference_bytes = huff::compress_buffer(f.bytes).size();
  }

  // Set-up: start the service and warm it with a few closed-loop sessions;
  // three times, keeping the last service for the measurement.
  std::unique_ptr<serve::SessionManager> mgr;
  for (int k = 0; k < 3; ++k) {
    mgr.reset();
    const auto t0 = Clock::now();
    mgr = start_manager(opt, files);
    Line("setup").num("s", seconds_since(t0)).emit();
  }

  if (opt.trace) {
    // io.map_us and pipeline.construct_us on a session-sized input.
    for (std::size_t i = 0; i < kFiles; ++i) {
      const auto cfg = session_config(files[i], i).run;
      auto t0 = Clock::now();
      const auto src = std::make_shared<const sio::BlockSource>(
          sio::BlockSource::map_file(files[i].path, cfg.ratios.block_size,
                                     std::make_shared<sio::DiskArrival>()));
      emit_layer("io.map_us", seconds_since(t0) * 1e6);
      sre::Runtime rt(cfg.policy, cfg.priority_mode);
      t0 = Clock::now();
      const pipeline::HuffmanPipeline pl(rt, src, cfg);
      emit_layer("pipeline.construct_us", seconds_since(t0) * 1e6);
    }
  }

  const double rss_before_kib = current_rss_kib();
  const sre::ArenaStats arena_before = mgr->runtime().arena_stats();

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool generator_done = false;
  std::vector<Output> outputs;
  std::vector<double> lat_ms;  ///< generator due time → session Done
  std::vector<double> ratio;
  std::uint64_t blocks = 0;
  std::uint64_t rollbacks = 0;
  std::vector<double> queue_ms;
  std::vector<double> dispatch_ms;
  std::vector<double> stall_ms;

  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return !pending.empty() || generator_done; });
        if (pending.empty()) return;
        p = pending.front();
        pending.pop_front();
      }
      const pipeline::RunResult* result = mgr->wait(p.id);
      const serve::SessionStats st = mgr->stats(p.id);
      if (result == nullptr) {
        emit_fail("session", st.state == serve::SessionState::Failed
                                 ? "failed: " + st.error
                                 : "shed: " + st.shed_reason);
        continue;
      }
      lat_ms.push_back(
          static_cast<double>(st.done_us - std::min(st.done_us, p.due_us)) / 1e3);
      ratio.push_back(static_cast<double>(result->container.size()) /
                      static_cast<double>(files[p.file].bytes.size()));
      blocks += result->trace.size();
      rollbacks += result->rollbacks;
      queue_ms.push_back(static_cast<double>(st.queue_wait_us()) / 1e3);
      dispatch_ms.push_back(static_cast<double>(st.attribution.dispatch_us) / 1e3);
      stall_ms.push_back(static_cast<double>(st.attribution.commit_stall_us) / 1e3);
      outputs.push_back({p.file, result->container});
      mgr->release(p.id);
    }
  });

  // The generator: Poisson due times at a fixed absolute rate, each submit
  // made by this thread at its due time whether or not the service keeps up.
  const sio::PoissonArrival arrivals(1e6 / kRatePerSecond, opt.seed);
  const std::uint64_t t0_us = mgr->now_us() + 1000;
  std::vector<double> lag_us;
  std::vector<double> submit_us;
  lag_us.reserve(kSessions);
  submit_us.reserve(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const std::uint64_t due = t0_us + arrivals.arrival_us(i);
    const std::uint64_t now = mgr->now_us();
    if (due > now) std::this_thread::sleep_for(std::chrono::microseconds(due - now));
    const std::size_t file = i % kFiles;
    emit_begin("session");
    lag_us.push_back(static_cast<double>(mgr->now_us()) - static_cast<double>(due));
    const auto s0 = Clock::now();
    const auto outcome = mgr->submit(session_config(files[file], kWarmupSessions + i));
    submit_us.push_back(seconds_since(s0) * 1e6);
    if (!outcome.accepted) {
      emit_fail("session", "shed at submit: " + outcome.shed_reason);
      continue;
    }
    {
      std::scoped_lock lk(mu);
      pending.push_back({outcome.id, due, file});
    }
    cv.notify_one();
  }
  {
    std::scoped_lock lk(mu);
    generator_done = true;
  }
  cv.notify_one();
  collector.join();

  Line("loop")
      .num("lat_p50_ms", percentile(lat_ms, 0.50))
      .num("lat_p99_ms", percentile(lat_ms, 0.99))
      .num("ratio_p50", percentile(ratio, 0.50))
      .emit();

  const double rss_after_kib = current_rss_kib();
  const sre::ArenaStats arena_after = mgr->runtime().arena_stats();
  const serve::LoadSnapshot load = mgr->load_snapshot();
  const double done = static_cast<double>(std::max<std::size_t>(1, outputs.size()));
  emit_layer("serve.submit_us_p50", percentile(submit_us, 0.50));
  emit_layer("serve.queue_wait_p50_ms", percentile(queue_ms, 0.50));
  emit_layer("serve.queue_wait_p99_ms", percentile(queue_ms, 0.99));
  emit_layer("serve.dispatch_p50_ms", percentile(dispatch_ms, 0.50));
  emit_layer("serve.commit_stall_p50_ms", percentile(stall_ms, 0.50));
  emit_layer("serve.shed", static_cast<double>(load.shed));
  emit_layer("serve.failed", static_cast<double>(load.failed));
  // Net of the containers this harness keeps for the round-trip check.
  double kept_kib = 0.0;
  for (const Output& out : outputs) {
    kept_kib += static_cast<double>(out.container.size()) / 1024.0;
  }
  emit_layer("serve.rss_growth_kb_per_session",
             (rss_after_kib - rss_before_kib - kept_kib) /
                 static_cast<double>(kSessions));
  emit_layer("serve.arena_chunk_mallocs_per_block",
             static_cast<double>(arena_after.chunks_new - arena_before.chunks_new) /
                 static_cast<double>(std::max<std::uint64_t>(1, blocks)));
  emit_layer("serve.rollbacks_per_session", static_cast<double>(rollbacks) / done);
  emit_layer("serve.generator_lag_p99_us", percentile(lag_us, 0.99));
  mgr->drain();

  // Round-trip check of every session's output, after the open loop.
  for (const Output& out : outputs) {
    const InputFile& f = files[out.file];
    std::vector<std::uint8_t> back;
    try {
      back = huff::decompress_buffer(out.container);
    } catch (const std::exception& e) {
      emit_fail("verify", e.what(), true);
      continue;
    }
    // Tolerance 1 % (the x86-disk default) plus the <1 % histogram floor.
    const double bound = static_cast<double>(f.reference_bytes) * 1.01 * 1.01 + 64.0;
    if (back != f.bytes) {
      emit_fail("verify", "round trip differs from the input", true);
    } else if (static_cast<double>(out.container.size()) > bound) {
      emit_fail("verify", "container over the size bound", true);
    } else {
      Line("verified").emit();
    }
  }
  return 0;
}

}  // namespace bench
