#include "serve/session_manager.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "pipeline/huffman_pipeline.h"

namespace serve {
namespace {

std::string priority_labels(Priority p) {
  return "priority=\"" + to_string(p) + "\"";
}

std::string reason_labels(const char* reason) {
  return std::string("reason=\"") + reason + "\"";
}

std::string session_labels(const std::string& name) {
  return "session=\"" + name + "\"";
}

/// Message for the exception currently being handled (call inside catch).
std::string current_exception_message() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

SessionManager::SessionManager(ServiceConfig cfg)
    : cfg_(cfg),
      rt_(std::make_unique<sre::Runtime>(cfg.policy, cfg.priority_mode)),
      admission_(ShedPolicy(cfg.shed)) {
  if (cfg_.flight != nullptr) {
    flight_obs_.emplace(*cfg_.flight);
    rt_->set_observer(&*flight_obs_);
  }
  // Always on: one hash update per task completion buys the attribution
  // breakdown in SessionStats even when no recorder is attached.
  rt_->set_stream_accounting(true);
  if (cfg_.fault_plan != nullptr) rt_->set_fault_plan(cfg_.fault_plan);
  sre::ThreadedExecutor::Options topts;
  topts.workers = cfg_.workers;
  if (cfg_.registry != nullptr) {
    topts.worker_start_hook = [](unsigned ix) {
      metrics::bind_shard(ix % metrics::kShards);
    };
  }
  ex_ = std::make_unique<sre::ThreadedExecutor>(*rt_, topts);
  // Service mode must open before run() starts, or a momentarily empty
  // schedule would let the feeder exit and run() return immediately.
  ex_->begin_service();
  engine_ = std::thread(&SessionManager::engine_main, this);
  manager_ = std::thread(&SessionManager::manager_main, this);
}

SessionManager::~SessionManager() {
  try {
    drain();
  } catch (...) {
    // Destructor swallows engine errors; call drain() to observe them.
  }
}

void SessionManager::engine_main() {
  try {
    ex_->run();
  } catch (...) {
    std::scoped_lock lk(mu_);
    engine_error_ = std::current_exception();
    engine_failed_ = true;
    manager_cv_.notify_all();
    client_cv_.notify_all();
  }
}

SessionManager::SubmitOutcome SessionManager::submit(SessionConfig cfg) {
  const std::uint64_t now = ex_->now_us();
  SessionPtr s;
  {
    // The record must be in sessions_ before the controller can hand the
    // session to the manager — otherwise the manager could pop, run and
    // even complete it while it is still invisible to on_complete's
    // sessions_.find(), leaking the running_ slot and hanging wait().
    std::scoped_lock lk(mu_);
    s = std::make_shared<Session>(next_id_++, std::move(cfg), now);
    // Every task this session's pipeline creates carries the session id as
    // its stream — the key for usage accounting and flight-trace grouping.
    s->cfg.run.stream_id = s->id;
    sessions_.emplace(s->id, s);
  }
  flight_state(s->id, "Queued", now);
  const auto offer = admission_.offer(s);

  SubmitOutcome out;
  out.id = s->id;
  out.accepted = offer.queued;
  if (!offer.queued) {
    out.shed_reason = offer.shed_reason;
    std::scoped_lock lk(mu_);
    mark_shed_locked(s, offer.shed_reason);
  }
  if (offer.queued) {
    if (cfg_.registry != nullptr) {
      cfg_.registry
          ->counter("serve_sessions_submitted_total",
                    priority_labels(s->cfg.priority))
          .add();
      cfg_.registry->gauge("serve_sessions_queued")
          .set(static_cast<double>(admission_.queued()));
    }
    manager_cv_.notify_all();
  }
  out.queued = admission_.queued();
  return out;
}

void SessionManager::mark_shed_locked(const SessionPtr& s,
                                      const char* reason) {
  const std::uint64_t now = ex_->now_us();
  s->stats.state = SessionState::Shed;
  s->stats.shed_reason = reason;
  ++shed_count_;
  // A shed session's whole latency is queue time (it never reached a worker).
  s->stats.attribution.queue_us =
      now > s->stats.submitted_us ? now - s->stats.submitted_us : 0;
  flight_state(s->id, "Shed", now);
  queue_post_mortem_locked(*s, std::string("shed: ") + reason);
  if (cfg_.registry != nullptr) {
    cfg_.registry->counter("serve_sessions_shed_total", reason_labels(reason))
        .add();
  }
  client_cv_.notify_all();
}

void SessionManager::mark_failed_locked(const SessionPtr& s,
                                        std::string error) {
  const std::uint64_t now = ex_->now_us();
  s->stats.state = SessionState::Failed;
  s->stats.error = std::move(error);
  ++failed_count_;
  fill_attribution_locked(*s, now);
  flight_state(s->id, "Failed", now);
  queue_post_mortem_locked(*s, "failed: " + s->stats.error);
  if (cfg_.registry != nullptr) {
    cfg_.registry
        ->counter("serve_sessions_failed_total",
                  priority_labels(s->stats.priority))
        .add();
  }
  client_cv_.notify_all();
}

void SessionManager::flight_state(SessionId id, std::string_view label,
                                  std::uint64_t t_us) {
  if (flight_obs_) flight_obs_->session_state(id, label, t_us);
}

void SessionManager::fill_attribution_locked(Session& s, std::uint64_t t_us) {
  auto& a = s.stats.attribution;
  const sre::Runtime::StreamUsage usage = rt_->take_stream_usage(s.id);
  a.queue_us = s.stats.queue_wait_us();
  a.compute_us = usage.compute_us;
  a.rollback_waste_us = usage.waste_us;
  if (usage.first_dispatch_us != sre::Runtime::StreamUsage::kNever &&
      usage.first_dispatch_us > s.stats.admitted_us) {
    a.dispatch_us = usage.first_dispatch_us - s.stats.admitted_us;
  }
  if (s.stats.drained_us > 0 && s.stats.done_us > s.stats.drained_us) {
    a.commit_stall_us = s.stats.done_us - s.stats.drained_us;
  }
  if (flight_obs_) {
    flight_obs_->attribution(s.id, "queue", a.queue_us, t_us);
    flight_obs_->attribution(s.id, "dispatch", a.dispatch_us, t_us);
    flight_obs_->attribution(s.id, "compute", a.compute_us, t_us);
    flight_obs_->attribution(s.id, "commit-stall", a.commit_stall_us, t_us);
    flight_obs_->attribution(s.id, "rollback-waste", a.rollback_waste_us,
                             t_us);
  }
}

void SessionManager::queue_post_mortem_locked(const Session& s,
                                              std::string reason) {
  if (cfg_.flight == nullptr ||
      cfg_.flight->options().post_mortem_dir.empty()) {
    return;
  }
  const auto& a = s.stats.attribution;
  PostMortemJob job;
  job.id = s.id;
  job.reason = std::move(reason);
  job.attribution_us = {{"queue", a.queue_us},
                        {"dispatch", a.dispatch_us},
                        {"compute", a.compute_us},
                        {"commit-stall", a.commit_stall_us},
                        {"rollback-waste", a.rollback_waste_us}};
  pm_pending_.push_back(std::move(job));
  manager_cv_.notify_all();
}

void SessionManager::flush_post_mortems(std::unique_lock<std::mutex>& lk) {
  while (!pm_pending_.empty()) {
    std::vector<PostMortemJob> jobs;
    jobs.swap(pm_pending_);
    lk.unlock();
    // File IO (plus a recorder drain) outside the lock; submit()/wait()
    // must never block on disk.
    for (const PostMortemJob& job : jobs) {
      cfg_.flight->write_post_mortem(job.id, job.reason, job.attribution_us);
    }
    lk.lock();
  }
}

void SessionManager::manager_main() {
  std::unique_lock lk(mu_);
  for (;;) {
    if (engine_failed_) break;

    // 1. Finalize sessions whose last block committed.
    while (!completed_.empty()) {
      const SessionId id = completed_.back();
      completed_.pop_back();
      auto it = sessions_.find(id);
      if (it != sessions_.end()) finalize(it->second, lk);
    }

    // 2. Expire stale queued sessions even while every slot is busy.
    std::vector<SessionPtr> shed;
    admission_.purge_expired(ex_->now_us(), shed);

    // 3. Admit while slots are free.
    while (running_ < cfg_.max_concurrent) {
      SessionPtr s = admission_.next(ex_->now_us(), shed);
      if (!s) break;
      s->stats.state = SessionState::Admitted;
      s->stats.admitted_us = ex_->now_us();
      flight_state(s->id, "Admitted", s->stats.admitted_us);
      if (cfg_.registry != nullptr) {
        // Admission-time wait histogram: unlike serve_queue_wait_us (which
        // lands at Done), this is fresh while sessions are still running.
        cfg_.registry
            ->histogram("serve_admit_wait_us", priority_labels(s->cfg.priority))
            .observe(s->stats.queue_wait_us());
      }
      ++running_;
      const SessionId id = s->id;
      lk.unlock();
      // Build the pipeline and schedule its arrivals outside the lock:
      // source synthesis is the expensive part of admission and must not
      // block submit()/wait()/stats(). It is also where user-supplied
      // inputs first bite (make_source reads input_path), and a throw
      // escaping this thread would std::terminate the whole service — so
      // failures become a per-session Failed verdict instead.
      try {
        pipeline::SharedRun run = pipeline::begin_shared_run(
            s->cfg.run, *rt_, *ex_, cfg_.block_time_scale,
            /*on_complete=*/
            [this, id](std::uint64_t done_us) {
              std::scoped_lock cb(mu_);
              auto sit = sessions_.find(id);
              if (sit != sessions_.end()) sit->second->stats.done_us = done_us;
              completed_.push_back(id);
              manager_cv_.notify_all();
            },
            /*on_last_arrival=*/
            [this, id](std::uint64_t now_us) {
              std::scoped_lock cb(mu_);
              auto sit = sessions_.find(id);
              if (sit == sessions_.end()) return;
              auto& st = sit->second->stats;
              if (st.state == SessionState::Admitted ||
                  st.state == SessionState::Running) {
                st.state = SessionState::Draining;
                st.drained_us = now_us;
                flight_state(id, "Draining", now_us);
              }
            });
        lk.lock();
        s->run = std::move(run);
      } catch (...) {
        const std::string error = current_exception_message();
        lk.lock();
        if (running_ > 0) --running_;
        mark_failed_locked(s, error);
        continue;  // the slot is free again — try the next queued session
      }
      if (s->stats.state == SessionState::Admitted) {
        s->stats.state = SessionState::Running;
        flight_state(s->id, "Running", ex_->now_us());
      }
      if (cfg_.registry != nullptr) {
        cfg_.registry->gauge("serve_sessions_running")
            .set(static_cast<double>(running_));
        cfg_.registry->gauge("serve_sessions_queued")
            .set(static_cast<double>(admission_.queued()));
      }
    }

    for (const auto& s : shed) mark_shed_locked(s, "deadline");
    shed.clear();

    // 3½. Post-mortem dumps queued by shed/failed marks (file IO happens
    // with the lock dropped).
    flush_post_mortems(lk);

    // 4. Drain check: admission closed, queues empty, nothing in flight.
    if (draining_ && running_ == 0 && completed_.empty() &&
        admission_.queued() == 0) {
      break;
    }

    // The timeout is the deadline-expiry tick; every state change of
    // interest (submit, completion, drain) also notifies explicitly.
    manager_cv_.wait_for(lk, std::chrono::milliseconds(2));
  }
  // Stragglers: shutdown-shed submits or a final failure can queue jobs
  // after the last in-loop flush; every post-mortem is on disk before the
  // manager exits (and thus before drain() returns).
  flush_post_mortems(lk);
  manager_done_ = true;
  client_cv_.notify_all();
}

void SessionManager::finalize(const SessionPtr& s,
                              std::unique_lock<std::mutex>& lk) {
  const std::uint64_t done = s->stats.done_us;
  // Move the run handle out so the pipeline + source are destroyed outside
  // the lock (task closures pin their own state, so this is safe even with
  // stray aborted tasks still draining). Collection runs on the manager
  // thread, so a validation throw must become a per-session failure, not a
  // process abort.
  pipeline::SharedRun run = std::move(s->run);
  lk.unlock();
  std::unique_ptr<pipeline::RunResult> result;
  std::string error;
  try {
    result = std::make_unique<pipeline::RunResult>(
        pipeline::collect_shared_run(run, done));
  } catch (...) {
    error = current_exception_message();
  }
  run = pipeline::SharedRun();  // destroy pipeline + source now
  lk.lock();
  if (running_ > 0) --running_;
  if (result == nullptr) {
    mark_failed_locked(s, std::move(error));
    manager_cv_.notify_all();
    return;
  }
  s->result = std::move(result);
  s->stats.state = SessionState::Done;
  ++done_count_;
  fill_attribution_locked(*s, done);
  flight_state(s->id, "Done", done);
  note_done_metrics(s->stats, *s->result);
  client_cv_.notify_all();
  manager_cv_.notify_all();
}

void SessionManager::note_done_metrics(const SessionStats& st,
                                       const pipeline::RunResult& result) {
  if (cfg_.registry == nullptr) return;
  auto& reg = *cfg_.registry;
  reg.counter("serve_sessions_done_total", priority_labels(st.priority)).add();
  reg.histogram("serve_latency_us", priority_labels(st.priority))
      .observe(st.latency_us());
  reg.histogram("serve_queue_wait_us", priority_labels(st.priority))
      .observe(st.queue_wait_us());
  reg.gauge("serve_sessions_running").set(static_cast<double>(running_));
  if (cfg_.per_session_metrics) {
    const auto labels = session_labels(st.name);
    reg.gauge("serve_session_latency_us", labels)
        .set(static_cast<double>(st.latency_us()));
    reg.gauge("serve_session_output_bits", labels)
        .set(static_cast<double>(result.output_bits));
    reg.counter("serve_session_rollbacks_total", labels).add(result.rollbacks);
  }
}

const pipeline::RunResult* SessionManager::wait(SessionId id) {
  std::unique_lock lk(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  SessionPtr s = it->second;
  const auto terminal = [](SessionState st) {
    return st == SessionState::Done || st == SessionState::Shed ||
           st == SessionState::Failed;
  };
  client_cv_.wait(lk, [&] { return terminal(s->stats.state) || engine_failed_; });
  if (!terminal(s->stats.state) && engine_error_) {
    std::rethrow_exception(engine_error_);
  }
  return s->result.get();
}

bool SessionManager::release(SessionId id) {
  std::scoped_lock lk(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  Session& s = *it->second;
  if (s.stats.state != SessionState::Done &&
      s.stats.state != SessionState::Shed &&
      s.stats.state != SessionState::Failed) {
    return false;
  }
  // Keep the record (stats stay queryable) but drop everything heavy: the
  // result's input/container byte copies and the workload spec. run is
  // already empty for every terminal state.
  s.result.reset();
  s.cfg = SessionConfig{};
  return true;
}

LoadSnapshot SessionManager::load_snapshot() const {
  std::scoped_lock lk(mu_);
  LoadSnapshot snap;
  snap.queued = admission_.depths();
  snap.queue_capacity = admission_.shed_config().queue_capacity;
  snap.running = running_;
  snap.max_concurrent = cfg_.max_concurrent;
  snap.done = done_count_;
  snap.shed = shed_count_;
  snap.failed = failed_count_;
  return snap;
}

SessionStats SessionManager::stats(SessionId id) const {
  std::scoped_lock lk(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return {};
  return it->second->stats;
}

std::vector<SessionStats> SessionManager::all_sessions() const {
  std::scoped_lock lk(mu_);
  std::vector<SessionStats> out;
  out.reserve(sessions_.size());
  for (SessionId id = 1; id < next_id_; ++id) {
    auto it = sessions_.find(id);
    if (it != sessions_.end()) out.push_back(it->second->stats);
  }
  return out;
}

void SessionManager::drain() {
  {
    std::scoped_lock lk(mu_);
    if (drained_) {
      if (engine_error_) std::rethrow_exception(engine_error_);
      return;
    }
    draining_ = true;
  }
  admission_.close();
  manager_cv_.notify_all();
  if (manager_.joinable()) manager_.join();
  // The manager only exits once every admitted session resolved (or the
  // engine died); closing service now lets the feeder — and run() — finish.
  ex_->end_service();
  if (engine_.joinable()) engine_.join();
  if (cfg_.registry != nullptr) {
    // The runtime is owned by this manager, so its arena counters cover
    // exactly this service's lifetime; mirror them once at drain.
    const sre::ArenaStats a = rt_->arena_stats();
    auto& reg = *cfg_.registry;
    reg.counter("tvs_alloc_arena_allocs_total").add(a.allocs);
    reg.counter("tvs_alloc_arena_bytes_total").add(a.bytes);
    reg.counter("tvs_alloc_arena_chunks_total", "origin=\"malloc\"")
        .add(a.chunks_new);
    reg.counter("tvs_alloc_arena_chunks_total", "origin=\"recycled\"")
        .add(a.chunks_reused);
    reg.counter("tvs_alloc_arena_oversize_total").add(a.oversize);
  }
  std::unique_lock lk(mu_);
  // A submit racing drain() can shed with "shutdown" after the manager's
  // final flush; write those stragglers here so drain() always leaves every
  // post-mortem on disk.
  flush_post_mortems(lk);
  drained_ = true;
  if (engine_error_) std::rethrow_exception(engine_error_);
}

std::vector<SessionManager::SubmitOutcome> submit_open_loop(
    SessionManager& mgr, std::vector<SessionConfig> configs,
    const sio::ArrivalModel& arrivals) {
  std::vector<SessionManager::SubmitOutcome> outcomes;
  outcomes.reserve(configs.size());
  const std::uint64_t base = mgr.now_us();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::uint64_t target = base + arrivals.arrival_us(i);
    for (;;) {
      const std::uint64_t now = mgr.now_us();
      if (now >= target) break;
      std::this_thread::sleep_for(
          std::chrono::microseconds(std::min<std::uint64_t>(target - now, 1000)));
    }
    outcomes.push_back(mgr.submit(std::move(configs[i])));
  }
  return outcomes;
}

}  // namespace serve
