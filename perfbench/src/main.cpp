// tvsbench: the measuring half of the repository benchmark. It drives one
// workload through the program's public API and writes raw records (see
// emit.h); perfbench/run.py builds it, runs it in a child process per
// workload and turns the records into metrics.
//
//   tvsbench --workload <bulk-txt|stream-shift|serve-open> --seed <n>
//            --seconds <s> --trace <0|1> --workdir <dir>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "emit.h"
#include "workloads.h"

namespace bench {

Quota Quota::of(const Options& opt, double nominal_cycle_s) {
  Quota q;
  q.cycles = std::max<std::size_t>(
      kMinCycles,
      static_cast<std::size_t>(std::llround(opt.seconds / nominal_cycle_s)));
  q.cap_s = std::min(130.0, 3.0 * opt.seconds);
  return q;
}

double current_rss_kib() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

}  // namespace bench

namespace {

int usage() {
  std::fputs(
      "usage: tvsbench --workload <bulk-txt|stream-shift|serve-open> "
      "--seed <n> --seconds <s> --trace <0|1> --workdir <dir>\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (key == "--workdir") {
        opt.workdir = val;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (opt.workdir.empty() || !(opt.seconds > 0.0)) return usage();
  opt.workers = std::max(1u, std::thread::hardware_concurrency());

  bench::Line("info")
      .str("workload", opt.workload)
      .str("compiler", __VERSION__)
      .str("build_type", TVSBENCH_BUILD_TYPE)
      .num("nproc", opt.workers)
      .num("seed", static_cast<double>(opt.seed))
      .num("seconds", opt.seconds)
      .num("trace", opt.trace ? 1 : 0)
      .emit();

  try {
    if (opt.workload == "bulk-txt") return bench::run_bulk_txt(opt);
    if (opt.workload == "stream-shift") return bench::run_stream_shift(opt);
    if (opt.workload == "serve-open") return bench::run_serve_open(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tvsbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
