// Flight-recorder exporters: Chrome/Perfetto trace_event JSON, a Graphviz
// DOT of the observed dynamic DFG, an ASCII per-CPU utilization timeline,
// the compact binary dump (.tvsf, readable by tools/trace_dump --flight),
// and the causal-slice extraction post-mortems are built from.
//
// All entry points are pure functions over a snapshot of records plus the
// interner's name table — they never touch live rings, so they can run on
// any thread (the drainer, a CLI tool, a test) against data of any shape:
// empty windows, aborted-epoch-only traces and spanless sessions all
// produce valid output.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "flight/record.h"

namespace flight {

/// Extra context stamped into a post-mortem trace: the terminal reason and
/// the session's latency attribution breakdown, emitted as an instant event
/// so the dump is self-describing.
struct PostMortemInfo {
  std::uint64_t session = 0;
  std::string reason;  ///< e.g. "failed: unreadable input", "shed: queue_full"
  std::vector<std::pair<std::string, std::uint64_t>> attribution_us;
};

/// One task's lifecycle, joined by task id from its TaskCreated,
/// TaskDispatched and TaskFinished records. Fields whose record is not in
/// the window stay zero. A task aborted before it ever ran has `finished`
/// and `aborted` set but no dispatch, so it has no execution interval.
struct TaskSpan {
  std::uint64_t task = 0;
  std::uint32_t name = 0;    ///< interned name stem
  std::uint64_t stream = 0;
  std::uint32_t epoch = 0;
  std::uint32_t cls = 0;     ///< sre::TaskClass value
  std::uint64_t depth = 0;
  bool dispatched = false;
  bool finished = false;
  bool aborted = false;
  std::uint64_t dispatch_us = 0;
  std::uint64_t finish_us = 0;
  std::uint16_t cpu = 0;

  /// Dispatched and finished: the task has an execution interval.
  [[nodiscard]] bool ran() const { return dispatched && finished; }
};

/// The task-lifecycle join every exporter is built on, in order of each
/// task's first record (creation order for a complete capture).
[[nodiscard]] std::vector<TaskSpan> task_spans(
    const std::vector<Record>& records);

/// Chrome trace_event JSON (array form — loads in chrome://tracing and
/// ui.perfetto.dev). Emits causally-grouped spans: one process per session
/// (pid = stream id, pid 0 = engine), with the session lifecycle span on
/// tid 0, epoch spans on tid 1 and task spans on tid 2+cpu, plus instant
/// events for speculation decisions (check verdicts, rollbacks) and
/// attribution records.
[[nodiscard]] std::string to_chrome_trace(
    const std::vector<Record>& records, const std::vector<std::string>& names,
    const PostMortemInfo* post_mortem = nullptr);

/// Graphviz digraph of the observed dynamic DFG, in the paper's notation:
/// speculative tasks dashed, control (check) tasks as diamonds, aborted
/// tasks red. Nodes are the joined tasks; edges come from Edge records
/// between included tasks. `max_tasks` keeps only the first N tasks
/// (0 = all).
[[nodiscard]] std::string to_dot(const std::vector<Record>& records,
                                 const std::vector<std::string>& names,
                                 std::size_t max_tasks = 0);

/// Per-CPU timeline of `width` columns spanning the first dispatch to the
/// last finish: '#' natural, 's' speculative, 'x' aborted speculative,
/// 'c' control, '.' idle.
[[nodiscard]] std::string utilization_timeline(
    const std::vector<Record>& records, std::size_t width = 96);

/// Compact binary dump: magic "TVSF", version, interned name table, then
/// raw 64-byte records. Same-machine format (native endianness).
[[nodiscard]] std::string write_binary(const std::vector<Record>& records,
                                       const std::vector<std::string>& names);

struct Dump {
  std::vector<std::string> names;
  std::vector<Record> records;
};

/// Parses write_binary output. Throws std::runtime_error on malformed input.
[[nodiscard]] Dump read_binary(const std::string& bytes);

/// The causal slice for one session: every record owned by the session's
/// stream, everything in the speculation epochs those records touch
/// (check verdicts, epoch lifecycle, rollback cascades), the full lifecycle
/// of every task so reached. When `last_window_us` > 0, timed records older
/// than that window before the slice's newest timestamp are dropped — the
/// post-mortem's "last N seconds" contract. Clock-less records (t_us == 0)
/// always survive.
[[nodiscard]] std::vector<Record> session_slice(
    const std::vector<Record>& window, std::uint64_t session,
    std::uint64_t last_window_us = 0);

}  // namespace flight
