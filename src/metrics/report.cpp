#include "metrics/report.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "metrics/exporters.h"

namespace report {
namespace {

using metrics::json_escape;

void write_text(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out) throw std::runtime_error("report: cannot write " + path);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

}  // namespace

std::string RunReport::to_json() const {
  const auto& i = info;
  std::ostringstream os;
  os << "{\n  \"scenario\": \"" << json_escape(i.scenario) << "\",\n"
     << "  \"engine\": \"" << json_escape(i.engine) << "\",\n"
     << "  \"makespan_us\": " << i.makespan_us << ",\n"
     << "  \"blocks\": " << i.blocks << ",\n"
     << "  \"avg_latency_us\": " << fmt(i.avg_latency_us) << ",\n"
     << "  \"p95_latency_us\": " << i.p95_latency_us << ",\n"
     << "  \"max_latency_us\": " << i.max_latency_us << ",\n"
     << "  \"spec_committed\": " << (i.spec_committed ? "true" : "false")
     << ",\n"
     << "  \"rollbacks\": " << i.rollbacks << ",\n"
     << "  \"gate_denials\": " << i.gate_denials << ",\n"
     << "  \"wasted_encodes\": " << i.wasted_encodes << ",\n"
     << "  \"wait_discarded\": " << i.wait_discarded << ",\n"
     << "  \"input_bytes\": " << i.input_bytes << ",\n"
     << "  \"output_bits\": " << i.output_bits << ",\n"
     << "  \"best_predictor\": \"" << json_escape(i.best_predictor) << "\",\n"
     << "  \"counters\": {"
     << "\"tasks_executed\": " << i.counters.tasks_executed
     << ", \"tasks_aborted\": " << i.counters.tasks_aborted
     << ", \"spec_tasks_executed\": " << i.counters.spec_tasks_executed
     << ", \"checks_executed\": " << i.counters.checks_executed
     << ", \"rollbacks\": " << i.counters.rollbacks
     << ", \"epochs_opened\": " << i.counters.epochs_opened
     << ", \"epochs_committed\": " << i.counters.epochs_committed << "},\n"
     << "  \"predictors\": [";
  bool first = true;
  for (const auto& row : i.predictors.rows()) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": \"" << json_escape(row.name)
       << "\", \"scored\": " << row.scored << ", \"hits\": " << row.hits
       << ", \"hit_rate\": " << fmt(row.hit_rate())
       << ", \"supplied\": " << row.guesses_supplied
       << ", \"rollbacks_charged\": " << row.rollbacks_charged << "}";
  }
  os << "],\n";

  if (!i.dispatch.empty()) {
    const auto& d = i.dispatch;
    os << "  \"dispatch\": {"
       << "\"tasks_run\": " << d.tasks_run
       << ", \"local_pops\": " << d.local_pops
       << ", \"inbox_pops\": " << d.inbox_pops
       << ", \"steals\": " << d.steals
       << ", \"self_stages\": " << d.self_stages
       << ", \"director_stages\": " << d.director_stages
       << ", \"revoked_at_pop\": " << d.revoked_at_pop
       << ", \"parks\": " << d.parks
       << ", \"completion_fallbacks\": " << d.completion_fallbacks
       << ", \"inline_finishes\": " << d.inline_finishes
       << ", \"worker_retires\": " << d.worker_retires << "},\n";
  }

  // Sampler series: column names plus [t_us, v...] rows.
  os << "  \"samples\": {\"names\": [";
  for (std::size_t s = 0; s < series_names.size(); ++s) {
    if (s) os << ", ";
    os << '"' << json_escape(series_names[s]) << '"';
  }
  os << "], \"dropped\": " << samples_dropped << ", \"rows\": [";
  for (std::size_t r = 0; r < samples.size(); ++r) {
    if (r) os << ", ";
    os << '[' << samples[r].t_us;
    for (double v : samples[r].values) {
      char buf[64];
      std::snprintf(buf, sizeof buf, ",%.9g", v);
      os << buf;
    }
    os << ']';
  }
  os << "]},\n";

  // Embed the full metrics snapshot as a sub-object.
  os << "  \"metrics\": " << metrics::to_json(metrics) << "\n}\n";
  return os.str();
}

std::string RunReport::to_markdown() const {
  const auto& i = info;
  std::ostringstream os;
  os << "# Run report — " << i.scenario << "\n\n";
  os << "| | |\n|---|---|\n";
  os << "| engine | " << i.engine << " |\n";
  os << "| makespan | " << i.makespan_us << " µs |\n";
  os << "| blocks | " << i.blocks << " |\n";
  os << "| avg / p95 / max latency | " << fmt(i.avg_latency_us) << " / "
     << i.p95_latency_us << " / " << i.max_latency_us << " µs |\n";
  os << "| speculation committed | " << (i.spec_committed ? "yes" : "no")
     << " |\n";
  os << "| rollbacks / gate denials | " << i.rollbacks << " / "
     << i.gate_denials << " |\n";
  os << "| wasted encodes / wait discarded | " << i.wasted_encodes << " / "
     << i.wait_discarded << " |\n";
  if (i.input_bytes > 0) {
    os << "| compression | " << i.input_bytes << " B → " << (i.output_bits / 8)
       << " B (" << fmt(100.0 * static_cast<double>(i.output_bits / 8) /
                        static_cast<double>(i.input_bytes))
       << "%) |\n";
  }
  os << "| tasks executed / aborted | " << i.counters.tasks_executed << " / "
     << i.counters.tasks_aborted << " |\n";
  os << "| epochs opened / committed | " << i.counters.epochs_opened << " / "
     << i.counters.epochs_committed << " |\n";

  if (!i.dispatch.empty()) {
    const auto& d = i.dispatch;
    os << "\n## Dispatch\n\n| | |\n|---|---|\n";
    os << "| tasks run | " << d.tasks_run << " |\n";
    os << "| pops: local / inbox / steal / self-stage | " << d.local_pops
       << " / " << d.inbox_pops << " / " << d.steals << " / " << d.self_stages
       << " |\n";
    os << "| director stages | " << d.director_stages << " |\n";
    os << "| revoked at pop | " << d.revoked_at_pop << " |\n";
    os << "| parks / completion fallbacks | " << d.parks << " / "
       << d.completion_fallbacks << " |\n";
    os << "| inline finishes / worker retires | " << d.inline_finishes << " / "
       << d.worker_retires << " |\n";
  }

  if (!i.predictors.rows().empty()) {
    os << "\n## Predictors";
    if (!i.best_predictor.empty()) os << " (best: " << i.best_predictor << ")";
    os << "\n\n| predictor | scored | hit rate | supplied | charged |\n"
       << "|---|---|---|---|---|\n";
    for (const auto& row : i.predictors.rows()) {
      os << "| " << row.name << " | " << row.scored << " | "
         << fmt(100.0 * row.hit_rate()) << "% | " << row.guesses_supplied
         << " | " << row.rollbacks_charged << " |\n";
    }
  }

  if (!samples.empty()) {
    os << "\n## Sampled series\n\n" << samples.size() << " samples";
    if (samples_dropped > 0) os << " (" << samples_dropped << " dropped)";
    os << " over " << samples.front().t_us << "–" << samples.back().t_us
       << " µs: ";
    for (std::size_t s = 0; s < series_names.size(); ++s) {
      if (s) os << ", ";
      os << series_names[s];
    }
    os << ". Full rows in the JSON report.\n";
  }

  // A terse metrics digest; the full snapshot is in the JSON/prom files.
  os << "\n## Metrics digest\n\n```\n"
     << metrics::dashboard_line(metrics, i.makespan_us) << "\n```\n";
  return os.str();
}

RunReport make_report(RunInfo info, const metrics::Registry* registry,
                      const metrics::Sampler* sampler) {
  RunReport rep;
  rep.info = std::move(info);
  if (registry != nullptr) rep.metrics = registry->snapshot();
  if (sampler != nullptr) {
    rep.series_names = sampler->series_names();
    rep.samples = sampler->samples();
    rep.samples_dropped = sampler->dropped();
  }
  return rep;
}

std::vector<std::string> write_bundle(const RunReport& report,
                                      const std::string& dir,
                                      const std::string& stem) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> written;
  const std::string base = dir + "/" + stem;

  write_text(base + ".json", report.to_json());
  written.push_back(base + ".json");
  write_text(base + ".md", report.to_markdown());
  written.push_back(base + ".md");
  write_text(base + ".prom", metrics::to_prometheus(report.metrics));
  written.push_back(base + ".prom");
  return written;
}

}  // namespace report
