#include "metrics/exporters.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace metrics {
namespace {

/// Prometheus sample line: name{labels} value.
void prom_line(std::ostringstream& os, const std::string& name,
               const std::string& labels, double value) {
  os << name;
  if (!labels.empty()) os << '{' << labels << '}';
  // Counters are integral in practice; print them without exponent noise.
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    os << ' ' << static_cast<long long>(value) << '\n';
  } else {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %.9g\n", value);
    os << buf;
  }
}

std::string with_extra_label(const std::string& labels,
                             const std::string& extra) {
  return labels.empty() ? extra : labels + "," + extra;
}

/// Number formatting for JSON: finite doubles only (NaN/inf → 0).
void json_number(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    os << static_cast<long long>(v);
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

void json_scalars(std::ostringstream& os, const char* key,
                  const std::vector<ScalarSnapshot>& scalars) {
  os << '"' << key << "\":[";
  bool first = true;
  for (const auto& s : scalars) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(s.name) << "\",\"labels\":\""
       << json_escape(s.labels) << "\",\"value\":";
    json_number(os, s.value);
    os << '}';
  }
  os << ']';
}

void json_histograms(std::ostringstream& os,
                     const std::vector<HistogramSnapshot>& hists) {
  os << "\"histograms\":[";
  bool first = true;
  for (const auto& h : hists) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(h.name) << "\",\"labels\":\""
       << json_escape(h.labels) << "\",\"count\":" << h.totals.count
       << ",\"sum\":" << h.totals.sum << ",\"buckets\":[";
    // Sparse encoding: only non-empty buckets, as [upper_bound, count].
    bool bfirst = true;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (h.totals.buckets[b] == 0) continue;
      if (!bfirst) os << ',';
      bfirst = false;
      os << '[' << Histogram::Totals::upper_bound(b) << ','
         << h.totals.buckets[b] << ']';
    }
    os << "]}";
  }
  os << ']';
}

}  // namespace

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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_prometheus(const Snapshot& snapshot) {
  std::ostringstream os;
  std::string last_name;
  for (const auto& c : snapshot.counters) {
    if (c.name != last_name) {
      os << "# TYPE " << c.name << " counter\n";
      last_name = c.name;
    }
    prom_line(os, c.name, c.labels, c.value);
  }
  for (const auto& g : snapshot.gauges) {
    if (g.name != last_name) {
      os << "# TYPE " << g.name << " gauge\n";
      last_name = g.name;
    }
    prom_line(os, g.name, g.labels, g.value);
  }
  for (const auto& h : snapshot.histograms) {
    if (h.name != last_name) {
      os << "# TYPE " << h.name << " histogram\n";
      last_name = h.name;
    }
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (h.totals.buckets[b] == 0) continue;  // sparse: skip empty buckets
      cum += h.totals.buckets[b];
      prom_line(os, h.name + "_bucket",
                with_extra_label(
                    h.labels,
                    "le=\"" +
                        std::to_string(Histogram::Totals::upper_bound(b)) +
                        "\""),
                static_cast<double>(cum));
    }
    prom_line(os, h.name + "_bucket",
              with_extra_label(h.labels, "le=\"+Inf\""),
              static_cast<double>(h.totals.count));
    prom_line(os, h.name + "_sum", h.labels,
              static_cast<double>(h.totals.sum));
    prom_line(os, h.name + "_count", h.labels,
              static_cast<double>(h.totals.count));
  }
  return os.str();
}

std::string to_json(const Snapshot& snapshot) {
  std::ostringstream os;
  os << '{';
  json_scalars(os, "counters", snapshot.counters);
  os << ',';
  json_scalars(os, "gauges", snapshot.gauges);
  os << ',';
  json_histograms(os, snapshot.histograms);
  os << '}';
  return os.str();
}

std::string to_json(const Snapshot& snapshot, const Sampler& sampler) {
  std::ostringstream os;
  os << '{';
  json_scalars(os, "counters", snapshot.counters);
  os << ',';
  json_scalars(os, "gauges", snapshot.gauges);
  os << ',';
  json_histograms(os, snapshot.histograms);
  os << ",\"samples\":{\"names\":[";
  const auto names = sampler.series_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(names[i]) << '"';
  }
  os << "],\"rows\":[";
  const auto rows = sampler.samples();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) os << ',';
    os << '[' << rows[i].t_us;
    for (double v : rows[i].values) {
      os << ',';
      json_number(os, v);
    }
    os << ']';
  }
  os << "],\"dropped\":" << sampler.dropped() << "}}";
  return os.str();
}

std::string dashboard_line(const Snapshot& snapshot, std::uint64_t now_us) {
  const double finished =
      snapshot.scalar("tvs_tasks_finished_total");
  const double spec_finished = snapshot.scalar(
      "tvs_tasks_finished_total", "class=\"speculative\"");
  const double spec_share = finished > 0 ? 100.0 * spec_finished / finished : 0;
  const double opened = snapshot.scalar("tvs_epochs_opened_total");
  const double committed = snapshot.scalar("tvs_epochs_committed_total");
  const double aborted = snapshot.scalar("tvs_epochs_aborted_total");
  const double open = snapshot.scalar("tvs_open_epochs");
  const double pass =
      snapshot.scalar("tvs_check_verdicts_total", "verdict=\"pass\"");
  const double fail =
      snapshot.scalar("tvs_check_verdicts_total", "verdict=\"fail\"");

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "t=%.1fs tasks=%.0f (spec %.0f%%) epochs %.0f/%.0f/%.0f "
                "open=%.0f checks %.0fp/%.0ff",
                static_cast<double>(now_us) / 1e6, finished, spec_share,
                opened, committed, aborted, open, pass, fail);
  return buf;
}

}  // namespace metrics
