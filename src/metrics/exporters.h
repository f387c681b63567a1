// Metrics exporters: turn a registry Snapshot (and optionally the sampler's
// time series) into consumable formats.
//
//  * Prometheus text exposition — scrape-ready `# TYPE` + sample lines;
//    histograms become cumulative `_bucket{le=...}` / `_sum` / `_count`.
//  * JSON snapshot — one self-describing object (counters, gauges,
//    histograms, samples) for run reports and external tooling.
//  * Dashboard line — a one-line terminal rendering of the run's health
//    (ready depths, open epochs, hit rate, rollbacks), suitable for
//    printing with '\r' as a live ticker.
#pragma once

#include <string>

#include "metrics/registry.h"
#include "metrics/sampler.h"

namespace metrics {

/// Prometheus text exposition format (version 0.0.4).
[[nodiscard]] std::string to_prometheus(const Snapshot& snapshot);

/// JSON object with "counters", "gauges", "histograms" arrays.
[[nodiscard]] std::string to_json(const Snapshot& snapshot);

/// JSON object additionally carrying the sampler's series under "samples":
/// {"names": [...], "rows": [[t_us, v...], ...], "dropped": n}.
[[nodiscard]] std::string to_json(const Snapshot& snapshot,
                                  const Sampler& sampler);

/// One terminal line summarizing speculation health from the snapshot, e.g.
///   t=1.2s tasks=1234 (spec 40%) epochs 3/2/1 open=0 checks 5p/1f
[[nodiscard]] std::string dashboard_line(const Snapshot& snapshot,
                                         std::uint64_t now_us);

/// JSON-escapes a string (shared by exporters and the report writer).
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace metrics
