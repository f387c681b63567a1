// trace_dump: run one Huffman scenario with the flight recorder attached
// and emit the artifacts — Chrome trace-event JSON (open in chrome://tracing
// or ui.perfetto.dev), a Graphviz DOT of the observed dynamic DFG, and an
// ASCII per-CPU utilization timeline on stdout.
//
//   $ ./trace_dump [txt|bmp|pdf] [out_prefix] [bytes]
//   $ dot -Tsvg out.dfg.dot -o dfg.svg
//
// The recorder runs with an unbounded window, so the capture is the full
// run; if its rings dropped any record the artifacts are still written but
// the tool exits 1, because a truncated capture is not a full trace.
//
// Flight mode: decode a flight-recorder binary dump (.tvsf, written by
// `tvsc serve --flight-recorder=<dir>` or Recorder::dump_binary) into the
// same summary and artifacts.
//
//   $ ./trace_dump --flight flight.tvsf [out_prefix]
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "flight/export.h"
#include "flight/record.h"
#include "flight/recorder.h"
#include "pipeline/driver.h"

namespace {

void write_text(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  if (!out) {
    throw std::runtime_error("trace_dump: cannot write " + path);
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace_dump: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// Prints a per-kind summary of the capture and writes its artifacts.
void render(const std::string& source,
            const std::vector<flight::Record>& records,
            const std::vector<std::string>& names,
            const std::string& prefix) {
  constexpr std::size_t kKinds =
      static_cast<std::size_t>(flight::Kind::Edge) + 1;
  std::array<std::size_t, kKinds> by_kind{};
  std::size_t unknown = 0;
  std::uint64_t t_min = ~std::uint64_t{0}, t_max = 0;
  for (const auto& r : records) {
    const auto k = static_cast<std::size_t>(r.kind);
    ++(k < kKinds ? by_kind[k] : unknown);
    if (r.t_us != 0) {
      t_min = std::min(t_min, r.t_us);
      t_max = std::max(t_max, r.t_us);
    }
  }
  std::printf("%s: %zu records, %zu interned names", source.c_str(),
              records.size(), names.size());
  if (t_max != 0) {
    std::printf(", span %llu..%llu us",
                static_cast<unsigned long long>(t_min),
                static_cast<unsigned long long>(t_max));
  }
  std::printf("\n");
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (by_kind[k] != 0) {
      std::printf("  %-18s %zu\n",
                  flight::kind_name(static_cast<flight::Kind>(k)), by_kind[k]);
    }
  }
  if (unknown != 0) std::printf("  %-18s %zu\n", "unknown", unknown);

  write_text(prefix + ".chrome.json", flight::to_chrome_trace(records, names));
  write_text(prefix + ".dfg.dot", flight::to_dot(records, names));
  std::printf("\nper-CPU utilization:\n%s",
              flight::utilization_timeline(records).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--flight") {
    if (argc < 3) {
      std::fprintf(stderr,
                   "usage: trace_dump --flight <file.tvsf> [out_prefix]\n");
      return 2;
    }
    const std::string prefix = argc > 3 ? argv[3] : "/tmp/tvs_flight";
    try {
      const flight::Dump dump = flight::read_binary(read_file(argv[2]));
      render(argv[2], dump.records, dump.names, prefix);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace_dump: %s\n", e.what());
      return 1;
    }
  }

  wl::FileKind kind = wl::FileKind::Txt;
  if (argc > 1) {
    const std::string arg = argv[1];
    if (arg == "bmp") kind = wl::FileKind::Bmp;
    if (arg == "pdf") kind = wl::FileKind::Pdf;
  }
  const std::string prefix = argc > 2 ? argv[2] : "/tmp/tvs_trace";

  auto cfg = pipeline::RunConfig::x86_disk(kind, sre::DispatchPolicy::Balanced);
  cfg.bytes = 512 * 1024;  // small enough that the DOT stays readable
  if (argc > 3) {
    try {
      cfg.bytes = std::stoull(argv[3]);
    } catch (const std::exception&) {
      std::fprintf(stderr, "trace_dump: bad byte count '%s'\n", argv[3]);
      return 2;
    }
  }
  cfg.platform = sim::PlatformConfig::x86(8);

  flight::Recorder::Options ropts;
  ropts.window_us = std::numeric_limits<std::uint64_t>::max();
  ropts.window_max_records = std::numeric_limits<std::size_t>::max();
  flight::Recorder recorder(ropts);
  recorder.start();
  pipeline::RunOptions opt;
  opt.flight = &recorder;
  try {
    const auto result = pipeline::run_sim(cfg, opt);
    pipeline::verify_roundtrip(result);
  } catch (const std::exception& e) {
    // Still emit whatever was recorded — a partial trace of a failed run is
    // exactly when you want the artifacts. The exporters tolerate empty or
    // truncated recordings.
    std::fprintf(stderr, "trace_dump: run failed: %s\n", e.what());
  }
  const std::vector<flight::Record> records = recorder.snapshot();
  recorder.stop();

  try {
    render("scenario " + cfg.label(), records, recorder.interner().names(),
           prefix);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_dump: %s\n", e.what());
    return 1;
  }
  if (recorder.dropped() != 0) {
    std::fprintf(stderr,
                 "trace_dump: recorder dropped %llu records; the capture is "
                 "truncated\n",
                 static_cast<unsigned long long>(recorder.dropped()));
    return 1;
  }
  return 0;
}
