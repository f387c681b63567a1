#include "stress/torture.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/speculator.h"
#include "core/wait_buffer.h"
#include "sre/chaos_point.h"
#include "sre/runtime.h"
#include "sre/threaded_executor.h"

namespace stress {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_of(std::uint64_t key) {
  return static_cast<double>(key >> 11) * 0x1.0p-53;
}

/// Seeded estimate stream: a base value with occasional large jumps. The
/// tolerance predicate is exact equality, so any jump between the adopted
/// guess and the newest estimate fails the next check — storm_rate is the
/// direct knob for rollback pressure.
std::uint64_t estimate_value(std::uint64_t seed, std::uint32_t index,
                             double storm_rate) {
  std::uint64_t v = 1'000'000;
  for (std::uint32_t i = 1; i <= index; ++i) {
    if (unit_of(splitmix64(seed ^ (0x9e37ULL << 32) ^ i)) < storm_rate) {
      v += 400'000;
    }
  }
  return v;
}

/// One sink emission, as the oracle sees it: the key, and whether it came
/// from the committing thread while its commit flush was in flight.
struct Emission {
  unsigned key;
  bool in_commit_window;
};

/// Per-epoch ordering oracle shared by both scenarios: every emission the
/// committer made during its commit window must precede every emission made
/// outside it (racing adds queue behind the in-flight flush; pass-through
/// only begins once the flush has fully drained), and no (epoch, key) pair
/// may be emitted twice.
void check_epoch_emissions(const std::vector<Emission>& seq, sre::Epoch epoch,
                           TortureReport& rep) {
  std::set<unsigned> keys;
  bool seen_outside_window = false;
  for (const Emission& e : seq) {
    if (!keys.insert(e.key).second) {
      rep.fail("duplicate sink emission for epoch " + std::to_string(epoch) +
               " key " + std::to_string(e.key));
    }
    if (e.in_commit_window) {
      if (seen_outside_window) {
        rep.fail("commit flush of epoch " + std::to_string(epoch) +
                 " interleaved with a racing add");
      }
    } else {
      seen_outside_window = true;
    }
  }
}

tvs::VerificationPolicy verify_policy(std::uint32_t verify_every) {
  if (verify_every == 0) return tvs::VerificationPolicy::optimistic();
  if (verify_every == 1) return tvs::VerificationPolicy::full();
  return tvs::VerificationPolicy::every_kth(verify_every);
}

}  // namespace

TortureOptions TortureOptions::for_seed(std::uint64_t seed) {
  TortureOptions opt;
  opt.seed = seed;
  const std::uint64_t h = splitmix64(seed);
  opt.workers = 2 + static_cast<unsigned>(h % 3);          // 2..4
  opt.estimates = 24 + static_cast<std::uint32_t>((h >> 8) % 25);  // 24..48
  opt.burst = 1 + static_cast<std::uint32_t>((h >> 16) % 4);
  opt.chain_tasks = 2 + static_cast<unsigned>((h >> 24) % 3);
  opt.step_size = 1 + static_cast<std::uint32_t>((h >> 32) % 3);
  switch ((h >> 40) % 3) {
    case 0: opt.verify_every = 1; break;  // Full
    case 1: opt.verify_every = 4; break;  // EveryKth(4)
    default: opt.verify_every = 0; break; // Optimistic
  }
  opt.adaptive_restart = ((h >> 48) & 1) != 0;
  opt.storm_rate = 0.15 + 0.5 * unit_of(splitmix64(h));
  opt.chaos.yield_prob = 0.5;
  opt.chaos.sleep_prob = 0.1;
  opt.chaos.max_sleep_us = 30;
  if (seed % 5 == 0) {  // one seed in five injects faults on top of chaos
    opt.chaos.fail_prob = 0.05;
    opt.chaos.delay_prob = 0.10;
    opt.chaos.max_delay_us = 80;
  }
  return opt;
}

TortureReport run_speculator_torture(const TortureOptions& opt) {
  TortureReport rep;
  rep.seed = opt.seed;

  ChaosSchedule chaos(opt.seed, opt.chaos);
  sre::chaos::ScopedHook chaos_guard(&chaos);

  sre::Runtime rt(sre::DispatchPolicy::Balanced);
  rt.set_fault_plan(&chaos);

  // Observed effects, written by callbacks/sinks on whatever thread they
  // fire on. `commit_window_epoch` + `committer_tid` mark the interval in
  // which the committing thread drains the wait buffer (single writer: the
  // committer stores the tid, then publishes the epoch with release order).
  struct Obs {
    std::mutex mu;
    std::uint64_t naturals = 0;
    std::uint64_t commits = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t epochs_opened = 0;
    std::set<sre::Epoch> dropped;
    sre::Epoch committed_epoch = 0;
    std::map<sre::Epoch, std::vector<Emission>> emissions;
    std::vector<bool> natural_done;
    std::thread::id committer_tid;
    std::atomic<sre::Epoch> commit_window_epoch{0};
  } obs;
  obs.natural_done.assign(opt.chain_tasks, false);

  tvs::WaitBuffer<unsigned, sre::Epoch> buffer(
      [&obs](const unsigned& key, sre::Epoch&& epoch, std::uint64_t) {
        const bool in_window =
            obs.commit_window_epoch.load(std::memory_order_acquire) == epoch &&
            std::this_thread::get_id() == obs.committer_tid;
        std::scoped_lock lk(obs.mu);
        obs.emissions[epoch].push_back({key, in_window});
      },
      /*retire_window=*/4);

  tvs::SpecConfig cfg;
  cfg.step_size = opt.step_size;
  cfg.verify = verify_policy(opt.verify_every);
  cfg.adaptive_restart = opt.adaptive_restart;

  tvs::Speculator<std::uint64_t>::Callbacks cb;
  cb.build_chain = [&](const std::uint64_t&, sre::Epoch epoch, std::uint32_t) {
    {
      std::scoped_lock lk(obs.mu);
      ++obs.epochs_opened;
    }
    // A serial chain: aborting mid-chain exercises destroy propagation
    // through blocked successors, not just ready-pool removal.
    sre::TaskPtr prev;
    for (unsigned b = 0; b < opt.chain_tasks; ++b) {
      auto task = rt.make_task(
          "spec[" + std::to_string(b) + ",e" + std::to_string(epoch) + "]",
          sre::TaskClass::Speculative, epoch, /*depth=*/3, /*cost_us=*/20,
          [](sre::TaskContext&) {});
      task->add_completion_hook(
          [&buffer, epoch, b](sre::Task&, std::uint64_t done_us) {
            buffer.add(epoch, b, sre::Epoch{epoch}, done_us);
          });
      if (prev) rt.add_dependency(prev, task);
      prev = task;
      rt.submit(task);
    }
  };
  cb.within_tolerance = [](const std::uint64_t& guess,
                           const std::uint64_t& current) {
    return guess == current;
  };
  cb.on_commit = [&](const std::uint64_t&, sre::Epoch epoch,
                    std::uint64_t now_us) {
    {
      std::scoped_lock lk(obs.mu);
      ++obs.commits;
      obs.committed_epoch = epoch;
    }
    obs.committer_tid = std::this_thread::get_id();
    obs.commit_window_epoch.store(epoch, std::memory_order_release);
    buffer.commit(epoch, now_us);
    obs.commit_window_epoch.store(0, std::memory_order_release);
  };
  cb.on_rollback = [&](sre::Epoch epoch, std::uint64_t) {
    {
      std::scoped_lock lk(obs.mu);
      ++obs.rollbacks;
      obs.dropped.insert(epoch);
    }
    buffer.drop(epoch);
  };
  cb.build_natural = [&](const std::uint64_t&, std::uint64_t) {
    {
      std::scoped_lock lk(obs.mu);
      ++obs.naturals;
    }
    for (unsigned b = 0; b < opt.chain_tasks; ++b) {
      auto task = rt.make_task("natural[" + std::to_string(b) + "]",
                               sre::TaskClass::Natural, sre::kNaturalEpoch,
                               /*depth=*/3, /*cost_us=*/20,
                               [](sre::TaskContext&) {});
      task->add_completion_hook([&obs, b](sre::Task&, std::uint64_t) {
        std::scoped_lock lk(obs.mu);
        obs.natural_done[b] = true;
      });
      rt.submit(task);
    }
  };

  tvs::Speculator<std::uint64_t> spec(rt, cfg, std::move(cb),
                                      /*check_cost_us=*/12);

  sre::ThreadedExecutor::Options ex_opt;
  ex_opt.workers = opt.workers;
  sre::ThreadedExecutor ex(rt, ex_opt);

  const std::uint32_t burst = std::max<std::uint32_t>(1, opt.burst);
  const std::uint32_t final_ix = opt.estimates + 1;
  for (std::uint32_t i = 1; i < final_ix; ++i) {
    const std::uint64_t at_us = ((i - 1) / burst) * 150 + 50;
    ex.schedule_arrival(at_us, [&spec, &opt, i](std::uint64_t now) {
      spec.on_estimate(estimate_value(opt.seed, i, opt.storm_rate), i,
                       /*is_final=*/false, now);
    });
  }
  // The final estimate, held (when final_hold_us is set) by re-arming its
  // arrival every 100 µs until a second epoch has opened or the hold ends.
  const std::uint64_t final_at = ((final_ix - 1) / burst) * 150 + 50;
  std::function<void(std::uint64_t)> fire_final = [&](std::uint64_t now) {
    bool respeculated;
    {
      std::scoped_lock lk(obs.mu);
      respeculated = obs.epochs_opened > 1;
    }
    if (!respeculated && now < final_at + opt.final_hold_us) {
      ex.schedule_arrival(now + 100, fire_final);
      return;
    }
    spec.on_estimate(estimate_value(opt.seed, final_ix, opt.storm_rate),
                     final_ix, /*is_final=*/true, now);
  };
  ex.schedule_arrival(final_at, fire_final);
  ex.run();

  // --- Oracles -----------------------------------------------------------
  const bool fault_injected = opt.chaos.fail_prob > 0.0;
  std::scoped_lock lk(obs.mu);
  rep.naturals = obs.naturals;
  rep.commits = obs.commits;
  rep.rollbacks = obs.rollbacks;
  rep.epochs_opened = obs.epochs_opened;
  for (const auto& [epoch, seq] : obs.emissions) rep.sink_emits += seq.size();
  rep.chaos_decisions = chaos.decisions();
  rep.finished = spec.finished();
  if (opt.chaos.record) rep.trace = chaos.trace_text();

  if (obs.naturals > 1) {
    rep.fail("natural path built " + std::to_string(obs.naturals) + " times");
  }
  if (obs.commits > 1) {
    rep.fail("committed " + std::to_string(obs.commits) + " times");
  }
  if (obs.naturals >= 1 && obs.commits >= 1) {
    rep.fail("run both committed and built the natural path");
  }
  for (const auto& [epoch, seq] : obs.emissions) {
    if (obs.dropped.count(epoch) != 0) {
      rep.fail("payload of dropped epoch " + std::to_string(epoch) +
               " reached the sink");
    }
    check_epoch_emissions(seq, epoch, rep);
  }
  if (!fault_injected) {
    // Spurious task failures can kill a check task (its verdict is never
    // delivered) or a chain/natural task (its output never lands), so these
    // completeness oracles only bind on fault-free runs.
    if (!rep.finished) rep.fail("quiesced without reaching a terminal state");
    if (obs.commits + obs.naturals != 1) {
      rep.fail("expected exactly one terminal build, saw " +
               std::to_string(obs.commits + obs.naturals));
    }
    if (rt.counters().rollbacks != obs.rollbacks) {
      rep.fail("runtime rollback counter disagrees with on_rollback calls");
    }
    if (obs.commits == 1) {
      const auto& seq = obs.emissions[obs.committed_epoch];
      if (seq.size() != opt.chain_tasks) {
        rep.fail("committed epoch emitted " + std::to_string(seq.size()) +
                 " of " + std::to_string(opt.chain_tasks) + " results");
      }
    }
    if (obs.naturals == 1) {
      for (unsigned b = 0; b < opt.chain_tasks; ++b) {
        if (!obs.natural_done[b]) rep.fail("natural output incomplete");
      }
    }
    const auto depths = rt.queue_depths();
    if (depths.open_epochs != 0 || depths.epoch_tasks != 0) {
      rep.fail("runtime epoch bookkeeping leaked after quiescence");
    }
  }
  return rep;
}

TortureReport run_wait_buffer_torture(const TortureOptions& opt) {
  TortureReport rep;
  rep.seed = opt.seed;

  ChaosSchedule chaos(opt.seed, opt.chaos);
  sre::chaos::ScopedHook chaos_guard(&chaos);

  const unsigned threads = std::max(2u, opt.workers);
  const sre::Epoch epochs = std::max<sre::Epoch>(8, opt.estimates / 2);
  const unsigned keys_per_thread = std::max(1u, opt.chain_tasks);
  const sre::Epoch retire_window = (opt.seed % 2 == 0) ? 6 : 0;

  // Per-epoch commit windows: the designated committer thread stores its id,
  // then publishes the flag with release order; the sink reads flag-then-id.
  struct Obs {
    std::mutex mu;
    std::map<sre::Epoch, std::vector<Emission>> emissions;
    std::uint64_t total = 0;
    std::vector<std::thread::id> committer;
    std::vector<std::atomic<bool>> window;
    explicit Obs(sre::Epoch n) : committer(n + 1), window(n + 1) {}
  } obs(epochs);

  tvs::WaitBuffer<unsigned, sre::Epoch>* buf_ptr = nullptr;
  // Hostile sink: slow-ish (the chaos hook sleeps at the buffer's chaos
  // points) and re-entrant — every primary-key emission adds a shadow entry
  // for the same epoch back into the buffer mid-flush. The shadow key range
  // (>= 10'000) terminates the recursion.
  tvs::WaitBuffer<unsigned, sre::Epoch> buf(
      [&obs, &buf_ptr](const unsigned& key, sre::Epoch&& epoch,
                       std::uint64_t now_us) {
        const bool in_window =
            obs.window[epoch].load(std::memory_order_acquire) &&
            std::this_thread::get_id() == obs.committer[epoch];
        {
          std::scoped_lock lk(obs.mu);
          obs.emissions[epoch].push_back({key, in_window});
          ++obs.total;
        }
        if (key < 10'000) {
          buf_ptr->add(epoch, 10'000 + key, sre::Epoch{epoch}, now_us);
        }
      },
      retire_window);
  buf_ptr = &buf;

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (sre::Epoch e = 1; e <= epochs; ++e) {
        const unsigned base = t * keys_per_thread;
        const unsigned half = (keys_per_thread + 1) / 2;
        for (unsigned k = 0; k < half; ++k) {
          buf.add(e, base + k, sre::Epoch{e}, e);
        }
        if (e % threads == t) {
          // Open this epoch's commit window: store the id, then publish the
          // flag (release); the sink reads flag-then-id. Single writer —
          // only this thread ever commits e.
          obs.committer[e] = std::this_thread::get_id();
          obs.window[e].store(true, std::memory_order_release);
          buf.commit(e, e);
          obs.window[e].store(false, std::memory_order_release);
        } else if (e % 3 == 0 && (e + 1) % threads == t) {
          // Contested epoch: a drop racing the commit. First settle wins;
          // if the drop wins, the oracle expects zero emissions for e.
          buf.drop(e);
        }
        // Late adds: race the in-flight flush, pass through after it, or
        // get discarded behind a drop/retire — all must stay ordered.
        for (unsigned k = half; k < keys_per_thread; ++k) {
          buf.add(e, base + k, sre::Epoch{e}, e);
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  std::scoped_lock lk(obs.mu);
  rep.sink_emits = obs.total;
  rep.chaos_decisions = chaos.decisions();
  rep.finished = true;
  if (opt.chaos.record) rep.trace = chaos.trace_text();

  for (const auto& [epoch, seq] : obs.emissions) {
    check_epoch_emissions(seq, epoch, rep);
  }
  if (buf.total_pending() != 0) {
    rep.fail("entries left pending after every epoch settled");
  }
  if (retire_window != 0 && buf.tracked_epochs() > retire_window + 1) {
    rep.fail("watermark GC left " + std::to_string(buf.tracked_epochs()) +
             " tracked epochs (window " + std::to_string(retire_window) + ")");
  }
  return rep;
}

}  // namespace stress
