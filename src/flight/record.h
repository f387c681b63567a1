// Flight-recorder record: the fixed-size binary event every hot-path write
// produces. 64 bytes, POD, no strings, no heap — a worker emitting one does
// a struct copy into its SPSC ring and nothing else. Variable-length data
// (task-name stems, predictor names, session-state labels, rollback causes)
// is interned once off the hot path and referenced by id (see interner.h).
//
// Field meaning is per-kind (see the Kind table below); unused fields are
// zero. Times are engine microseconds (executor steady-clock time under the
// threaded engine, virtual time under the simulator). `stream` is the
// serving-layer session id carried by the task (0 = not session-owned).
#pragma once

#include <cstdint>

namespace flight {

/// What a record describes. Values are stable across versions — the binary
/// dump format (export.h) stores them raw.
enum class Kind : std::uint16_t {
  None = 0,
  // Task lifecycle (joined by `task` id at export time).
  TaskCreated = 1,    ///< task, stream, epoch, name=stem, a=depth, b=cost_us,
                      ///< flags=TaskClass value
  TaskDispatched = 2, ///< task, t_us, cpu
  TaskFinished = 3,   ///< task, t_us, flags&kFlagAborted
  // Epoch lifecycle.
  EpochOpened = 4,    ///< epoch
  EpochCommitted = 5, ///< epoch
  EpochAborted = 6,   ///< epoch
  RollbackCascade = 7,///< epoch, a=tasks destroyed by the abort
  // Speculation decisions.
  CheckVerdict = 8,     ///< epoch, flags&(kFlagWithin|kFlagFinal),
                        ///< a=bit-cast double tolerance margin
  PredictionScored = 9, ///< name=predictor, flags&kFlagHit,
                        ///< a=bit-cast double rel_error
  PredictorCharged = 10,///< name=predictor (a rollback was charged to it)
  SpeculationGated = 11,///< a=estimate index, b=bit-cast double confidence
  FaultInjected = 12,   ///< task, flags&kFlagFailed, a=delay_us
  // Serving layer (emitted by serve::SessionManager).
  SessionState = 13,  ///< stream, name=state label ("Queued".."Failed"), t_us
  Attribution = 14,   ///< stream, name=component label, a=microseconds
  // Dependence graph.
  Edge = 15,          ///< task=consumer, a=producer
};

/// Stable lowercase label for a kind ("task-created", "edge", ...); "?" for
/// values outside the enum (a dump from a newer writer).
[[nodiscard]] constexpr const char* kind_name(Kind k) {
  switch (k) {
    case Kind::None: return "none";
    case Kind::TaskCreated: return "task-created";
    case Kind::TaskDispatched: return "task-dispatched";
    case Kind::TaskFinished: return "task-finished";
    case Kind::EpochOpened: return "epoch-opened";
    case Kind::EpochCommitted: return "epoch-committed";
    case Kind::EpochAborted: return "epoch-aborted";
    case Kind::RollbackCascade: return "rollback-cascade";
    case Kind::CheckVerdict: return "check-verdict";
    case Kind::PredictionScored: return "prediction";
    case Kind::PredictorCharged: return "predictor-charged";
    case Kind::SpeculationGated: return "speculation-gated";
    case Kind::FaultInjected: return "fault-injected";
    case Kind::SessionState: return "session-state";
    case Kind::Attribution: return "attribution";
    case Kind::Edge: return "edge";
  }
  return "?";
}

// Per-kind flag bits.
inline constexpr std::uint32_t kFlagAborted = 1u;  ///< TaskFinished
inline constexpr std::uint32_t kFlagWithin = 1u;   ///< CheckVerdict
inline constexpr std::uint32_t kFlagFinal = 2u;    ///< CheckVerdict
inline constexpr std::uint32_t kFlagHit = 1u;      ///< PredictionScored
inline constexpr std::uint32_t kFlagFailed = 1u;   ///< FaultInjected

struct Record {
  std::uint64_t t_us = 0;    ///< engine time (approximate for clock-less events)
  std::uint64_t stream = 0;  ///< owning session id; 0 = engine/none
  std::uint64_t task = 0;    ///< task id for task-scoped kinds
  std::uint64_t a = 0;       ///< kind-specific payload (see Kind)
  std::uint64_t b = 0;       ///< kind-specific payload (see Kind)
  std::uint32_t epoch = 0;   ///< speculation epoch; 0 = natural
  std::uint32_t name = 0;    ///< interned string id; 0 = none
  Kind kind = Kind::None;
  std::uint16_t cpu = 0;     ///< worker index for TaskDispatched
  std::uint32_t flags = 0;
  std::uint8_t pad_[8] = {}; ///< keep sizeof == 64 (one cache line)
};

static_assert(sizeof(Record) == 64, "Record must stay one cache line");

}  // namespace flight
