// Session: one client stream moving through the serving layer.
//
// A session is a single pipeline run (today: Huffman compression of one
// input) with serving metadata wrapped around it — identity, priority, the
// lifecycle state machine, and the timestamps the latency histograms are
// built from. Sessions share one sre::Runtime + ThreadedExecutor worker
// fleet but own their Speculator, WaitBuffer and epoch space, so rollbacks
// in one stream never touch another (see docs/serving.md).
//
//   Queued ──► Admitted ──► Running ──► Draining ──► Done
//     │             │                                  │
//     │             └──────────────────────────────────┴──► Failed
//     └────────────────────────────────────────────► Shed
//
//   Queued    accepted by the admission controller, waiting for a slot
//   Admitted  popped by the manager; pipeline built on the shared runtime
//   Running   block arrivals scheduled on the live executor
//   Draining  every block has been injected; awaiting the final commits
//   Done      all blocks committed; RunResult collected
//   Shed      rejected (queue full / deadline expired / shutdown); no
//             pipeline was ever built — shedding happens strictly before
//             admission, so a shed session consumed no worker time
//   Failed    the session's own work threw (unreadable input at admission,
//             result collection failure); the error is recorded, the slot
//             freed, and the service keeps serving other sessions
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "pipeline/driver.h"
#include "pipeline/run_config.h"

namespace serve {

/// Admission priority classes, highest first. The admission controller
/// keeps one bounded queue per class and always serves the highest
/// non-empty one.
enum class Priority : std::uint8_t { Interactive = 0, Batch = 1, Bulk = 2 };
inline constexpr std::size_t kPriorities = 3;

enum class SessionState : std::uint8_t {
  Queued,
  Admitted,
  Running,
  Draining,
  Done,
  Shed,
  Failed,
};

[[nodiscard]] std::string to_string(Priority p);
[[nodiscard]] std::string to_string(SessionState s);

using SessionId = std::uint64_t;

/// What a client submits: a pipeline configuration plus serving metadata.
struct SessionConfig {
  std::string name;          ///< metrics label; defaults to "s<id>" if empty
  pipeline::RunConfig run;   ///< the workload (input, policy, speculation)
  Priority priority = Priority::Batch;
  /// Longest this session may wait in the admission queue before it is shed
  /// (µs of engine time). 0 = use the shed policy's per-priority default.
  std::uint64_t queue_deadline_us = 0;
};

/// Snapshot of a session's serving-side outcome. All timestamps are engine
/// time (executor microseconds); 0 = the edge was never reached.
struct SessionStats {
  SessionId id = 0;
  std::string name;
  Priority priority = Priority::Batch;
  SessionState state = SessionState::Queued;
  std::string shed_reason;  ///< non-empty iff state == Shed
  std::string error;        ///< non-empty iff state == Failed
  std::uint64_t submitted_us = 0;
  std::uint64_t admitted_us = 0;
  std::uint64_t drained_us = 0;  ///< last block injected
  std::uint64_t done_us = 0;

  /// Where the session's latency went. Filled at finalization (Done or
  /// Failed) from the runtime's per-stream usage accounting; zeros for shed
  /// sessions (they never reached a worker). compute/rollback_waste sum
  /// task time across workers, so they can exceed the wall-clock latency.
  struct Attribution {
    std::uint64_t queue_us = 0;          ///< submit → admit
    std::uint64_t dispatch_us = 0;       ///< admit → first task dispatched
    std::uint64_t compute_us = 0;        ///< task time of retired tasks
    std::uint64_t commit_stall_us = 0;   ///< drained → done
    std::uint64_t rollback_waste_us = 0; ///< task time of aborted tasks
  };
  Attribution attribution;

  /// Queue wait: submit → admit (0 when shed before admission).
  [[nodiscard]] std::uint64_t queue_wait_us() const {
    return admitted_us > submitted_us ? admitted_us - submitted_us : 0;
  }
  /// Total session latency: submit → done.
  [[nodiscard]] std::uint64_t latency_us() const {
    return done_us > submitted_us ? done_us - submitted_us : 0;
  }
};

/// Internal per-session record owned by the SessionManager; exposed because
/// the AdmissionController queues these. All mutable fields are guarded by
/// the manager's lock — the controller and manager never touch a Session
/// concurrently without it.
struct Session {
  Session(SessionId sid, SessionConfig config, std::uint64_t now_us);

  SessionId id;
  SessionConfig cfg;
  SessionStats stats;
  /// Engaged from Admitted until the result is collected at Done. The
  /// pipeline's task closures pin their own state, so destroying this after
  /// collection is safe even with stray aborted tasks still draining.
  pipeline::SharedRun run;
  /// Engaged at Done.
  std::unique_ptr<pipeline::RunResult> result;
};

using SessionPtr = std::shared_ptr<Session>;

}  // namespace serve
