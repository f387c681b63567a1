// Output protocol of the tvsbench harness: one JSON object per stdout line,
// flushed as soon as it is written, so a run that dies part-way still leaves
// every finished operation on record for run.py to count. Record kinds:
//
//   {"ev":"info",   ...}            provenance (compiler, build type, nproc)
//   {"ev":"setup",  "s":x, "paced":0|1}  one timed set-up of the workload
//   {"ev":"begin",  "op":k}         an operation started (counts as attempted)
//   {"ev":"op",     "op":k, ...}    an operation finished and its output was
//                                   verified by round trip
//   {"ev":"fail",   "op":k, "what":s, "wrong":0|1}
//                                   an operation threw or was shed (wrong 0),
//                                   or its output did not round-trip (1)
//   {"ev":"verified"}               serve-open: one session's output passed
//                                   the round-trip check
//   {"ev":"loop",   ...}            serve-open: the open loop's session
//                                   latency p50/p99 and median ratio
//   {"ev":"probe",  "mbps":x, "mbps_1":y}
//                                   ends the records of one child process;
//                                   when it probed, the host speed on all
//                                   workers and on one thread around its
//                                   operations (probe.cpp)
//   {"ev":"layer",  "name":n, "v":x}   one sample of a per-layer metric
//   {"ev":"rss",    "peak_mb":x}    peak resident memory of the processes
//                                   the harness forked for its cycles
//
// run.py reduces the records to the metrics the benchmark reports.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile, q in [0, 1]. Empty input gives 0.
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

/// Builds one record and writes it as a single line. Lines from different
/// threads never interleave.
class Line {
 public:
  explicit Line(std::string_view ev) { str("ev", ev); }

  Line& str(std::string_view key, std::string_view value) {
    field(key);
    out_ += '"';
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
    return *this;
  }

  Line& num(std::string_view key, double value) {
    field(key);
    if (!std::isfinite(value)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    out_ += buf;
    return *this;
  }

  void emit() {
    out_ += "}\n";
    static std::mutex mu;
    std::scoped_lock lk(mu);
    std::fputs(out_.c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  void field(std::string_view key) {
    out_ += out_.empty() ? '{' : ',';
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }

  std::string out_;
};

inline void emit_layer(std::string_view name, double value) {
  Line("layer").str("name", name).num("v", value).emit();
}

inline void emit_begin(std::string_view op) { Line("begin").str("op", op).emit(); }

/// `wrong_output`: the operation finished but its output failed the
/// round-trip or size check (as opposed to throwing or being shed).
inline void emit_fail(std::string_view op, std::string_view what,
                      bool wrong_output = false) {
  Line("fail").str("op", op).str("what", what).num("wrong", wrong_output).emit();
}

}  // namespace bench
