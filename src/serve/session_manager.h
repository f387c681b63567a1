// SessionManager: many concurrent pipeline sessions over one shared engine.
//
// The serving layer's core. One sre::Runtime + ThreadedExecutor (in service
// mode) hosts every session's tasks; an AdmissionController holds the
// bounded per-priority queues in front of it. A manager thread moves
// sessions through the lifecycle (see serve/session.h):
//
//   submit() ──► AdmissionController ──► manager pops when a slot frees
//                      │                        │
//                      ▼                        ▼
//                 Shed (bounded            begin_shared_run on the live
//                 queue / deadline /       engine; Running → Draining →
//                 shutdown)                Done; result collected. A throw
//                                          on this path (unreadable input,
//                                          collection failure) marks the
//                                          session Failed and frees the
//                                          slot — never the whole process.
//
// Backpressure contract: submit() never blocks. It returns a SubmitOutcome
// that either carries the admission-queue depth (the pressure signal — a
// well-behaved closed-loop client slows down as it grows) or says the
// session was shed and why (the open-loop overload response; arrivals that
// do not slow down are bounded by shedding instead of by an unbounded
// queue). A shed session never reached a worker.
//
// Isolation: sessions share workers but nothing else — each owns its
// Speculator, WaitBuffer and epoch space (Runtime::open_epoch is globally
// monotonic), so one stream rolling back cannot disturb another stream's
// commits. tests/serve/multi_session_torture_test.cpp pins this under the
// chaos schedule.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flight/observer.h"
#include "io/arrival_model.h"
#include "pipeline/driver.h"
#include "serve/admission.h"
#include "serve/load.h"
#include "serve/service_config.h"
#include "serve/session.h"
#include "sre/runtime.h"
#include "sre/threaded_executor.h"

namespace serve {

class SessionManager {
 public:
  /// What submit() tells the client — the backpressure signal.
  struct SubmitOutcome {
    SessionId id = 0;
    bool accepted = false;    ///< queued (or already running); false = shed
    std::string shed_reason;  ///< non-empty iff !accepted
    std::size_t queued = 0;   ///< admission depth after this submit
  };

  /// Starts the shared engine (runtime + executor in service mode) and the
  /// manager thread. The service is live on return.
  explicit SessionManager(ServiceConfig cfg);
  /// Drains (see drain()) then stops. Engine errors are swallowed here;
  /// call drain() explicitly to observe them.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Offer a session. Non-blocking: either queued for admission or shed on
  /// the spot (queue full, soft cap, or the service is draining).
  SubmitOutcome submit(SessionConfig cfg);

  /// Blocks until the session reaches a terminal state (Done, Shed or
  /// Failed). Returns the per-session result (null when shed, failed or
  /// unknown id; a failed session's error is in stats(id).error). The
  /// pointer stays valid until release(id) or the manager's destruction.
  /// Rethrows the engine error if the service died before the session
  /// resolved.
  const pipeline::RunResult* wait(SessionId id);

  /// Frees a terminal session's heavy payload — the RunResult (input and
  /// container byte copies) and the workload config — keeping only the
  /// SessionStats, so a long-running service's memory stays bounded by live
  /// sessions rather than history. Returns false (and does nothing) for
  /// unknown ids or sessions that have not reached Done/Shed/Failed.
  /// Invalidates any pointer previously returned by wait(id); stats(id) and
  /// all_sessions() keep working.
  bool release(SessionId id);

  /// Snapshot of one session's serving stats (state, timestamps, reason).
  [[nodiscard]] SessionStats stats(SessionId id) const;
  /// Snapshots of every session ever submitted, in id order.
  [[nodiscard]] std::vector<SessionStats> all_sessions() const;

  /// Current admission-queue depth (the backpressure probe).
  [[nodiscard]] std::size_t queued() const { return admission_.queued(); }

  /// Cheap occupancy snapshot: per-priority queue depths against the shed
  /// limits, the running count, and cumulative done/shed/failed
  /// counters. One lock acquisition; safe to call at heartbeat rate. The
  /// distributed router's placement signal (src/dist), and the source of
  /// `tvsc serve`'s exit load line.
  [[nodiscard]] LoadSnapshot load_snapshot() const;

  /// Graceful shutdown: close admission (new submits shed with reason
  /// "shutdown"), let everything already queued or running finish, then
  /// stop the engine. Idempotent. Rethrows any engine error.
  void drain();

  /// Engine time (µs since the executor started).
  [[nodiscard]] std::uint64_t now_us() const { return ex_->now_us(); }

  [[nodiscard]] const sre::Runtime& runtime() const { return *rt_; }
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }

 private:
  void engine_main();
  void manager_main();
  /// Finalize one completed session: collect its result, free its pipeline.
  void finalize(const SessionPtr& s, std::unique_lock<std::mutex>& lk);
  /// Mark `s` shed under mu_ and publish metrics/wakeups.
  void mark_shed_locked(const SessionPtr& s, const char* reason);
  /// Mark `s` failed (its own work threw) under mu_; the error lands in
  /// stats, metrics are published and wait()ers are woken.
  void mark_failed_locked(const SessionPtr& s, std::string error);
  void note_done_metrics(const SessionStats& st,
                         const pipeline::RunResult& result);
  /// Flight-recorder session edge (no-op without a recorder). Safe under mu_.
  void flight_state(SessionId id, std::string_view label, std::uint64_t t_us);
  /// Fills stats.attribution from the runtime's per-stream usage (consumes
  /// it) and, with a recorder, emits the Attribution records. Caller holds
  /// mu_; takes the runtime lock (mu_ → runtime lock is the established
  /// order).
  void fill_attribution_locked(Session& s, std::uint64_t t_us);
  /// Queues a post-mortem dump for the manager thread (file IO must never
  /// run under mu_ — submit() calls mark_shed_locked on the client thread).
  void queue_post_mortem_locked(const Session& s, std::string reason);
  /// Writes every queued post-mortem, dropping mu_ around the file IO.
  void flush_post_mortems(std::unique_lock<std::mutex>& lk);

  ServiceConfig cfg_;
  std::unique_ptr<sre::Runtime> rt_;
  /// Engaged iff cfg_.flight; installed as the runtime's observer.
  std::optional<flight::FlightObserver> flight_obs_;
  std::unique_ptr<sre::ThreadedExecutor> ex_;
  AdmissionController admission_;

  mutable std::mutex mu_;
  std::condition_variable manager_cv_;  ///< wakes the manager thread
  std::condition_variable client_cv_;   ///< wakes wait()ers
  std::unordered_map<SessionId, SessionPtr> sessions_;
  std::vector<SessionId> completed_;  ///< on_complete fired, pending collect
  /// Post-mortem dumps awaiting the manager thread (guaranteed written —
  /// including stragglers queued during shutdown — before drain() returns).
  struct PostMortemJob {
    SessionId id = 0;
    std::string reason;
    std::vector<std::pair<std::string, std::uint64_t>> attribution_us;
  };
  std::vector<PostMortemJob> pm_pending_;
  std::size_t running_ = 0;           ///< sessions in Running/Draining
  /// Cumulative terminal counts (the LoadSnapshot counters). Kept here
  /// rather than derived from sessions_ so release()d history still counts.
  std::uint64_t done_count_ = 0;
  std::uint64_t shed_count_ = 0;
  std::uint64_t failed_count_ = 0;
  SessionId next_id_ = 1;
  bool draining_ = false;
  bool manager_done_ = false;
  bool engine_failed_ = false;
  std::exception_ptr engine_error_;
  bool drained_ = false;

  std::thread engine_;
  std::thread manager_;
};

/// Submits `configs` open-loop: session i is offered at engine time
/// `mgr.now_us() at call + arrivals.arrival_us(i)` whether or not the
/// service is keeping up — arrivals never slow down, which is exactly what
/// makes overload (and shedding) observable. Synchronous; outcomes are in
/// submit order.
std::vector<SessionManager::SubmitOutcome> submit_open_loop(
    SessionManager& mgr, std::vector<SessionConfig> configs,
    const sio::ArrivalModel& arrivals);

}  // namespace serve
