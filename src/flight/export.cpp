#include "flight/export.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "sre/ids.h"

namespace flight {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 4);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// JSON-safe double: finite values as-is, anything else as 0 (NaN/inf are
/// not valid JSON number tokens).
std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string name_of(const std::vector<std::string>& names, std::uint32_t id,
                    const char* fallback) {
  if (id != 0 && id < names.size() && !names[id].empty()) return names[id];
  return fallback;
}

double as_double(std::uint64_t bits) { return std::bit_cast<double>(bits); }

bool is_class(const TaskSpan& t, sre::TaskClass c) {
  return t.cls == static_cast<std::uint32_t>(c);
}

const char* class_name(std::uint32_t cls) {
  switch (cls) {
    case 0: return "natural";
    case 1: return "speculative";
    case 2: return "control";
  }
  return "?";
}

void append_le(std::string& out, const void* p, std::size_t n) {
  out.append(static_cast<const char*>(p), n);
}

template <typename T>
T read_pod(const std::string& s, std::size_t& pos) {
  if (pos + sizeof(T) > s.size()) {
    throw std::runtime_error("flight dump: truncated");
  }
  T v;
  std::memcpy(&v, s.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

}  // namespace

std::vector<TaskSpan> task_spans(const std::vector<Record>& records) {
  std::vector<TaskSpan> spans;
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (const Record& r : records) {
    if (r.kind != Kind::TaskCreated && r.kind != Kind::TaskDispatched &&
        r.kind != Kind::TaskFinished) {
      continue;
    }
    const auto [it, inserted] = index.try_emplace(r.task, spans.size());
    if (inserted) spans.push_back(TaskSpan{.task = r.task});
    TaskSpan& t = spans[it->second];
    switch (r.kind) {
      case Kind::TaskCreated:
        t.name = r.name;
        t.stream = r.stream;
        t.epoch = r.epoch;
        t.cls = r.flags;
        t.depth = r.a;
        break;
      case Kind::TaskDispatched:
        t.dispatched = true;
        t.dispatch_us = r.t_us;
        t.cpu = r.cpu;
        break;
      default:  // TaskFinished
        t.finished = true;
        t.finish_us = r.t_us;
        t.aborted = (r.flags & kFlagAborted) != 0;
        break;
    }
  }
  return spans;
}

std::string to_chrome_trace(const std::vector<Record>& records,
                            const std::vector<std::string>& names,
                            const PostMortemInfo* post_mortem) {
  // Join task lifecycles and collect per-epoch / per-session extents.
  const std::vector<TaskSpan> tasks = task_spans(records);
  struct EpochAgg {
    std::uint64_t stream = 0;
    bool committed = false, aborted = false;
    bool timed = false;
    std::uint64_t t_min = 0, t_max = 0;
    std::uint64_t cascade_tasks = 0;
  };
  std::map<std::uint32_t, EpochAgg> epochs;
  struct SessionAgg {
    bool timed = false;
    std::uint64_t t_min = 0, t_max = 0;
    std::uint32_t last_state = 0;
  };
  std::map<std::uint64_t, SessionAgg> sessions;

  auto stretch = [](bool& timed, std::uint64_t& lo, std::uint64_t& hi,
                    std::uint64_t t) {
    if (t == 0) return;
    if (!timed) {
      timed = true;
      lo = hi = t;
      return;
    }
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  };

  for (const Record& r : records) {
    switch (r.kind) {
      case Kind::EpochOpened:
        (void)epochs[r.epoch];
        break;
      case Kind::EpochCommitted:
        epochs[r.epoch].committed = true;
        break;
      case Kind::EpochAborted:
        epochs[r.epoch].aborted = true;
        break;
      case Kind::RollbackCascade:
        epochs[r.epoch].cascade_tasks = r.a;
        break;
      case Kind::SessionState: {
        SessionAgg& s = sessions[r.stream];
        stretch(s.timed, s.t_min, s.t_max, r.t_us);
        s.last_state = r.name;
        break;
      }
      default:
        break;
    }
  }
  for (const TaskSpan& t : tasks) {
    if (t.epoch == 0) continue;
    EpochAgg& e = epochs[t.epoch];
    if (t.stream != 0) e.stream = t.stream;
    if (!t.ran()) continue;
    stretch(e.timed, e.t_min, e.t_max, t.dispatch_us);
    stretch(e.timed, e.t_min, e.t_max, t.finish_us);
  }

  std::set<std::uint64_t> pids;
  pids.insert(0);
  for (const auto& [s, agg] : sessions) pids.insert(s);
  for (const TaskSpan& t : tasks) pids.insert(t.stream);
  for (const auto& [e, agg] : epochs) pids.insert(agg.stream);
  if (post_mortem != nullptr) pids.insert(post_mortem->session);

  std::ostringstream os;
  os << "[\n";
  bool first = true;
  auto emit = [&](const std::string& ev) {
    if (!first) os << ",\n";
    first = false;
    os << "  " << ev;
  };

  // Process / thread naming metadata.
  for (const std::uint64_t pid : pids) {
    std::ostringstream ev;
    ev << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\""
       << (pid == 0 ? std::string("engine")
                    : "session " + std::to_string(pid))
       << "\"}}";
    emit(ev.str());
  }

  // Session lifecycle spans (tid 0 in the session's process).
  for (const auto& [sid, agg] : sessions) {
    const std::string final_state = name_of(names, agg.last_state, "?");
    if (agg.timed) {
      const std::uint64_t dur =
          agg.t_max > agg.t_min ? agg.t_max - agg.t_min : 1;
      std::ostringstream ev;
      ev << "{\"name\":\"session " << sid << "\",\"cat\":\"session\","
         << "\"ph\":\"X\",\"ts\":" << agg.t_min << ",\"dur\":" << dur
         << ",\"pid\":" << sid << ",\"tid\":0,\"args\":{\"final_state\":\""
         << json_escape(final_state) << "\"}}";
      emit(ev.str());
    } else {
      // A session shed while Queued has no timed edge at all — still emit
      // a zero-ts instant so the trace names its terminal state.
      std::ostringstream ev;
      ev << "{\"name\":\"session " << sid << " [" << json_escape(final_state)
         << "]\",\"cat\":\"session\",\"ph\":\"i\",\"ts\":0,\"s\":\"g\","
         << "\"pid\":" << sid << ",\"tid\":0}";
      emit(ev.str());
    }
  }

  // Epoch spans (tid 1).
  for (const auto& [eid, agg] : epochs) {
    const char* status =
        agg.aborted ? "aborted" : (agg.committed ? "committed" : "open");
    if (agg.timed) {
      const std::uint64_t dur =
          agg.t_max > agg.t_min ? agg.t_max - agg.t_min : 1;
      std::ostringstream ev;
      ev << "{\"name\":\"epoch " << eid << " [" << status
         << "]\",\"cat\":\"epoch\",\"ph\":\"X\",\"ts\":" << agg.t_min
         << ",\"dur\":" << dur << ",\"pid\":" << agg.stream
         << ",\"tid\":1,\"args\":{\"cascade_tasks\":" << agg.cascade_tasks
         << "}}";
      emit(ev.str());
    } else {
      // Aborted-epoch-only traces: no task ever ran, so there is no span —
      // record the outcome as an instant instead.
      std::ostringstream ev;
      ev << "{\"name\":\"epoch " << eid << " [" << status
         << "]\",\"cat\":\"epoch\",\"ph\":\"i\",\"ts\":0,\"s\":\"g\","
         << "\"pid\":" << agg.stream << ",\"tid\":1}";
      emit(ev.str());
    }
  }

  // Task spans (tid 2 + worker index).
  for (const TaskSpan& t : tasks) {
    if (!t.ran()) continue;
    const std::uint64_t dur =
        t.finish_us > t.dispatch_us ? t.finish_us - t.dispatch_us : 1;
    std::ostringstream ev;
    ev << "{\"name\":\"" << json_escape(name_of(names, t.name, "task"))
       << "\",\"cat\":\"" << class_name(t.cls)
       << (t.aborted ? ",aborted" : "") << "\",\"ph\":\"X\",\"ts\":"
       << t.dispatch_us << ",\"dur\":" << dur << ",\"pid\":" << t.stream
       << ",\"tid\":" << (2 + t.cpu) << ",\"args\":{\"task\":" << t.task
       << ",\"epoch\":" << t.epoch << ",\"depth\":" << t.depth << "}}";
    emit(ev.str());
  }

  // Decision / serving instants.
  for (const Record& r : records) {
    std::ostringstream ev;
    switch (r.kind) {
      case Kind::CheckVerdict: {
        const bool within = (r.flags & kFlagWithin) != 0;
        ev << "{\"name\":\"check e" << r.epoch
           << (within ? " within" : " exceeded")
           << ((r.flags & kFlagFinal) != 0 ? " (final)" : "")
           << "\",\"cat\":\"speculation\",\"ph\":\"i\",\"ts\":" << r.t_us
           << ",\"s\":\"g\",\"pid\":" << epochs[r.epoch].stream
           << ",\"tid\":1,\"args\":{\"epoch\":" << r.epoch
           << ",\"margin\":" << json_num(as_double(r.a)) << "}}";
        break;
      }
      case Kind::PredictionScored:
        ev << "{\"name\":\"scored:"
           << json_escape(name_of(names, r.name, "predictor"))
           << "\",\"cat\":\"speculation\",\"ph\":\"i\",\"ts\":" << r.t_us
           << ",\"s\":\"g\",\"pid\":0,\"tid\":1,\"args\":{\"hit\":"
           << ((r.flags & kFlagHit) != 0 ? "true" : "false")
           << ",\"rel_error\":" << json_num(as_double(r.a)) << "}}";
        break;
      case Kind::PredictorCharged:
        ev << "{\"name\":\"rollback-cause:"
           << json_escape(name_of(names, r.name, "predictor"))
           << "\",\"cat\":\"speculation\",\"ph\":\"i\",\"ts\":" << r.t_us
           << ",\"s\":\"g\",\"pid\":0,\"tid\":1,\"args\":{}}";
        break;
      case Kind::SpeculationGated:
        ev << "{\"name\":\"gated\",\"cat\":\"speculation\",\"ph\":\"i\","
           << "\"ts\":" << r.t_us << ",\"s\":\"g\",\"pid\":0,\"tid\":1,"
           << "\"args\":{\"estimate\":" << r.a
           << ",\"confidence\":" << json_num(as_double(r.b)) << "}}";
        break;
      case Kind::EpochAborted:
        ev << "{\"name\":\"rollback e" << r.epoch
           << "\",\"cat\":\"speculation\",\"ph\":\"i\",\"ts\":" << r.t_us
           << ",\"s\":\"g\",\"pid\":" << epochs[r.epoch].stream
           << ",\"tid\":1,\"args\":{\"epoch\":" << r.epoch << "}}";
        break;
      case Kind::FaultInjected:
        ev << "{\"name\":\"fault"
           << ((r.flags & kFlagFailed) != 0 ? " (failed)" : " (delayed)")
           << "\",\"cat\":\"chaos\",\"ph\":\"i\",\"ts\":" << r.t_us
           << ",\"s\":\"g\",\"pid\":0,\"tid\":1,\"args\":{\"task\":" << r.task
           << ",\"delay_us\":" << r.a << "}}";
        break;
      case Kind::SessionState:
        ev << "{\"name\":\"state:"
           << json_escape(name_of(names, r.name, "?"))
           << "\",\"cat\":\"session\",\"ph\":\"i\",\"ts\":" << r.t_us
           << ",\"s\":\"g\",\"pid\":" << r.stream << ",\"tid\":0,\"args\":{}}";
        break;
      case Kind::Attribution:
        ev << "{\"name\":\"attribution:"
           << json_escape(name_of(names, r.name, "?"))
           << "\",\"cat\":\"session\",\"ph\":\"i\",\"ts\":" << r.t_us
           << ",\"s\":\"g\",\"pid\":" << r.stream
           << ",\"tid\":0,\"args\":{\"us\":" << r.a << "}}";
        break;
      default:
        continue;
    }
    emit(ev.str());
  }

  if (post_mortem != nullptr) {
    std::ostringstream ev;
    ev << "{\"name\":\"post-mortem\",\"cat\":\"session\",\"ph\":\"i\","
       << "\"ts\":0,\"s\":\"g\",\"pid\":" << post_mortem->session
       << ",\"tid\":0,\"args\":{\"reason\":\""
       << json_escape(post_mortem->reason) << "\"";
    for (const auto& [component, us] : post_mortem->attribution_us) {
      ev << ",\"" << json_escape(component) << "_us\":" << us;
    }
    ev << "}}";
    emit(ev.str());
  }

  os << "\n]\n";
  return os.str();
}

std::string to_dot(const std::vector<Record>& records,
                   const std::vector<std::string>& names,
                   std::size_t max_tasks) {
  const std::vector<TaskSpan> tasks = task_spans(records);
  const std::size_t limit =
      max_tasks == 0 ? tasks.size() : std::min(max_tasks, tasks.size());

  std::ostringstream os;
  os << "digraph dfg {\n  rankdir=LR;\n  node [fontsize=9];\n";
  std::unordered_set<std::uint64_t> included;
  for (std::size_t i = 0; i < limit; ++i) {
    const TaskSpan& t = tasks[i];
    included.insert(t.task);
    const bool control = is_class(t, sre::TaskClass::Control);
    const char* shape = control ? "diamond" : "box";
    // The paper draws speculation dashed.
    const char* style =
        is_class(t, sre::TaskClass::Speculative) ? "dashed" : "solid";
    const char* color = t.aborted ? "red" : control ? "blue" : "black";
    os << "  t" << t.task << " [label=\""
       << json_escape(name_of(names, t.name, "task")) << "\",shape=" << shape
       << ",style=" << style << ",color=" << color << "];\n";
  }
  for (const Record& r : records) {
    if (r.kind == Kind::Edge && included.contains(r.a) &&
        included.contains(r.task)) {
      os << "  t" << r.a << " -> t" << r.task << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string utilization_timeline(const std::vector<Record>& records,
                                 std::size_t width) {
  const std::vector<TaskSpan> tasks = task_spans(records);
  std::uint64_t start = ~std::uint64_t{0}, end = 0;
  std::size_t cpus = 0;
  for (const TaskSpan& t : tasks) {
    if (!t.ran()) continue;
    start = std::min(start, t.dispatch_us);
    end = std::max(end, t.finish_us);
    cpus = std::max<std::size_t>(cpus, t.cpu + 1u);
  }
  if (cpus == 0 || width == 0) return "(no executed tasks)\n";
  end = std::max(end, start);  // a dump may carry finish < dispatch

  const std::uint64_t span = std::max<std::uint64_t>(end - start, 1);
  const auto col = [&](std::uint64_t t_us) {
    return static_cast<std::size_t>((std::clamp(t_us, start, end) - start) *
                                    width / span);
  };
  std::vector<std::string> rows(cpus, std::string(width, '.'));
  for (const TaskSpan& t : tasks) {
    if (!t.ran()) continue;
    char glyph = '#';
    if (is_class(t, sre::TaskClass::Control)) glyph = 'c';
    if (is_class(t, sre::TaskClass::Speculative)) glyph = t.aborted ? 'x' : 's';
    const std::size_t col0 = col(t.dispatch_us);
    const std::size_t col1 = std::min(std::max(col(t.finish_us), col0 + 1),
                                      width);
    for (std::size_t c = col0; c < col1; ++c) rows[t.cpu][c] = glyph;
  }

  // Header: first and last timestamp, flush with the ends of a
  // "  cpu N |...|" row (width + 10 columns).
  std::ostringstream os;
  const std::string lo = "  " + std::to_string(start) + "us";
  const std::string hi = std::to_string(end) + "us";
  const std::size_t gap = width + 10 > lo.size() + hi.size()
                              ? width + 10 - lo.size() - hi.size()
                              : 1;
  os << lo << std::string(gap, ' ') << hi << "\n";
  for (std::size_t c = 0; c < cpus; ++c) {
    os << "  cpu" << (c < 10 ? " " : "") << c << " |" << rows[c] << "|\n";
  }
  os << "  [#] natural  [s] speculative  [x] aborted  [c] control  [.] idle\n";
  return os.str();
}

std::string write_binary(const std::vector<Record>& records,
                         const std::vector<std::string>& names) {
  std::string out;
  out.reserve(16 + names.size() * 16 + records.size() * sizeof(Record));
  out.append("TVSF", 4);
  const std::uint32_t version = 1;
  append_le(out, &version, sizeof(version));
  const auto name_count = static_cast<std::uint32_t>(names.size());
  append_le(out, &name_count, sizeof(name_count));
  for (const std::string& n : names) {
    const auto len = static_cast<std::uint32_t>(n.size());
    append_le(out, &len, sizeof(len));
    out.append(n);
  }
  const auto record_count = static_cast<std::uint64_t>(records.size());
  append_le(out, &record_count, sizeof(record_count));
  for (const Record& r : records) {
    append_le(out, &r, sizeof(Record));
  }
  return out;
}

Dump read_binary(const std::string& bytes) {
  std::size_t pos = 0;
  if (bytes.size() < 4 || bytes.compare(0, 4, "TVSF") != 0) {
    throw std::runtime_error("flight dump: bad magic");
  }
  pos = 4;
  const auto version = read_pod<std::uint32_t>(bytes, pos);
  if (version != 1) {
    throw std::runtime_error("flight dump: unsupported version " +
                             std::to_string(version));
  }
  Dump d;
  const auto name_count = read_pod<std::uint32_t>(bytes, pos);
  d.names.reserve(name_count);
  for (std::uint32_t i = 0; i < name_count; ++i) {
    const auto len = read_pod<std::uint32_t>(bytes, pos);
    if (pos + len > bytes.size()) {
      throw std::runtime_error("flight dump: truncated name table");
    }
    d.names.emplace_back(bytes, pos, len);
    pos += len;
  }
  const auto record_count = read_pod<std::uint64_t>(bytes, pos);
  // Divide instead of multiplying: a hostile count must not overflow.
  if (record_count > (bytes.size() - pos) / sizeof(Record)) {
    throw std::runtime_error("flight dump: truncated records");
  }
  d.records.resize(record_count);
  if (record_count > 0) {
    std::memcpy(d.records.data(), bytes.data() + pos,
                record_count * sizeof(Record));
  }
  pos += static_cast<std::size_t>(record_count) * sizeof(Record);
  if (pos != bytes.size()) {
    throw std::runtime_error("flight dump: trailing garbage");
  }
  return d;
}

std::vector<Record> session_slice(const std::vector<Record>& window,
                                  std::uint64_t session,
                                  std::uint64_t last_window_us) {
  if (session == 0) return {};

  // Pass 1: epochs the session's own records touch.
  std::unordered_set<std::uint32_t> epochs;
  for (const Record& r : window) {
    if (r.stream == session && r.epoch != 0) epochs.insert(r.epoch);
  }
  // Pass 2: the task closure — every task created in the session's stream
  // or inside one of its epochs (dispatch/finish records carry only the
  // task id, so membership is resolved through TaskCreated).
  std::unordered_set<std::uint64_t> task_ids;
  for (const Record& r : window) {
    if (r.kind != Kind::TaskCreated) continue;
    if (r.stream == session || (r.epoch != 0 && epochs.contains(r.epoch))) {
      task_ids.insert(r.task);
    }
  }
  // Pass 3: collect, tracking the slice's newest timestamp for the window
  // bound. Global speculation decisions ride along — they are the "why"
  // behind the session's rollbacks.
  std::vector<Record> out;
  std::uint64_t t_end = 0;
  auto global_decision = [](Kind k) {
    return k == Kind::PredictionScored || k == Kind::PredictorCharged ||
           k == Kind::SpeculationGated;
  };
  for (const Record& r : window) {
    const bool owned = r.stream == session ||
                       (r.epoch != 0 && epochs.contains(r.epoch)) ||
                       (r.task != 0 && task_ids.contains(r.task));
    if (owned || global_decision(r.kind)) {
      out.push_back(r);
      if (owned) t_end = std::max(t_end, r.t_us);
    }
  }
  if (last_window_us > 0 && t_end > last_window_us) {
    const std::uint64_t cutoff = t_end - last_window_us;
    std::erase_if(out, [cutoff](const Record& r) {
      return r.t_us != 0 && r.t_us < cutoff;
    });
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Record& x, const Record& y) {
                     return x.t_us < y.t_us;
                   });
  return out;
}

}  // namespace flight
