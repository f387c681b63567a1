// ServiceConfig: one bundle describing a serving instance — the shared
// engine (worker count, dispatch policy/mode), the concurrency window, the
// shed policy, and the observability wiring. Everything a SessionManager
// needs to start serving.
#pragma once

#include <cstddef>

#include "metrics/registry.h"
#include "serve/shed_policy.h"
#include "sre/fault.h"
#include "sre/ids.h"
#include "sre/threaded_executor.h"

namespace flight {
class Recorder;
}

namespace serve {

struct ServiceConfig {
  /// Shared worker fleet size (one sre::ThreadedExecutor for all sessions).
  unsigned workers = 8;
  /// Sessions allowed in Running/Draining at once; further admissions wait
  /// in the priority queues. This is the slot count the admission
  /// controller feeds.
  std::size_t max_concurrent = 4;

  /// Scheduling policy of the shared runtime. One runtime, one policy: all
  /// sessions run under it (a session's own RunConfig::policy still decides
  /// whether *that* session builds a speculative chain — NonSpeculative
  /// sessions simply never open epochs).
  sre::DispatchPolicy policy = sre::DispatchPolicy::Balanced;
  sre::PriorityMode priority_mode = sre::PriorityMode::DepthFirst;

  /// Multiplier on each session's block-arrival schedule (its RunConfig's
  /// ArrivalModel). 0 = inject blocks as fast as the feeder can — sessions
  /// are then compute-bound, the bench's closed-loop mode.
  double block_time_scale = 0.0;

  /// Admission-queue bounds and deadlines.
  ShedPolicy::Config shed;

  /// Non-null: serving metrics land here (serve_sessions_*_total,
  /// serve_session_latency_us, queue gauges). Borrowed; must outlive the
  /// SessionManager.
  metrics::Registry* registry = nullptr;
  /// Also emit per-session series labelled session="<name>" (latency,
  /// rollbacks, output size). Off by default: unbounded label cardinality
  /// is a real cost in a long-running service.
  bool per_session_metrics = false;

  /// Non-null: the always-on flight recorder (src/flight/). The manager
  /// installs a FlightObserver on the shared runtime, stamps every task
  /// with its session's stream id, records session lifecycle edges and
  /// latency attribution, and writes automatic post-mortem dumps for
  /// Failed/Shed sessions when the recorder has a post_mortem_dir.
  /// Borrowed; must be started and must outlive the SessionManager.
  flight::Recorder* flight = nullptr;

  /// Non-null: fault-injection plan installed on the shared runtime (e.g. a
  /// stress::ChaosSchedule forcing rollbacks/failures in tests). Borrowed;
  /// must outlive the SessionManager.
  sre::FaultPlan* fault_plan = nullptr;
};

}  // namespace serve
