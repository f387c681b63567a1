// Policy explorer: a small CLI over the full scenario grid, for poking at
// the design space beyond the paper's figures.
//
//   $ ./policy_explorer --file pdf --platform cell --io disk
//                       --policy aggressive --step 4 --verify full --tol 0.02
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pipeline/driver.h"
#include "stats/ascii_plot.h"

namespace {

const char* kUsage = R"(usage: policy_explorer [options]
  --file txt|bmp|pdf          workload              (default txt)
  --platform x86|cell         machine model         (default x86)
  --io disk|socket            arrival model         (default disk)
  --policy none|conservative|aggressive|balanced    (default balanced)
  --step N                    speculation step size (default 1)
  --verify everyN|optimistic|full                   (default every8)
  --tol F                     tolerance fraction    (default 0.01)
  --cpus N                    simulated CPUs        (default 16)
  --bytes N                   input size in bytes   (default: paper size)
  --input PATH                compress a real file instead of a synthetic one
)";

struct Args {
  pipeline::RunConfig cfg =
      pipeline::RunConfig::x86_disk(wl::FileKind::Txt,
                                    sre::DispatchPolicy::Balanced);
  std::string file = "txt";
  std::string platform = "x86";
  std::string io = "disk";
};

bool parse(int argc, char** argv, Args& out) {
  std::string policy = "balanced";
  std::string verify = "every8";
  std::uint32_t step = 1;
  double tol = 0.01;
  unsigned cpus = 16;
  std::size_t bytes = 0;
  std::string input_path;

  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--file") out.file = val;
    else if (key == "--platform") out.platform = val;
    else if (key == "--io") out.io = val;
    else if (key == "--policy") policy = val;
    else if (key == "--step") step = static_cast<std::uint32_t>(std::stoul(val));
    else if (key == "--verify") verify = val;
    else if (key == "--tol") tol = std::stod(val);
    else if (key == "--cpus") cpus = static_cast<unsigned>(std::stoul(val));
    else if (key == "--bytes") bytes = std::stoull(val);
    else if (key == "--input") input_path = val;
    else return false;
  }

  wl::FileKind kind = wl::FileKind::Txt;
  if (out.file == "bmp") kind = wl::FileKind::Bmp;
  else if (out.file == "pdf") kind = wl::FileKind::Pdf;
  else if (out.file != "txt") return false;

  sre::DispatchPolicy pol = sre::DispatchPolicy::Balanced;
  if (policy == "none") pol = sre::DispatchPolicy::NonSpeculative;
  else if (policy == "conservative") pol = sre::DispatchPolicy::Conservative;
  else if (policy == "aggressive") pol = sre::DispatchPolicy::Aggressive;
  else if (policy != "balanced") return false;

  const bool cell = out.platform == "cell";
  if (!cell && out.platform != "x86") return false;
  const bool socket = out.io == "socket";
  if (!socket && out.io != "disk") return false;

  if (cell) {
    out.cfg = socket ? pipeline::RunConfig::cell_socket(kind, pol)
                     : pipeline::RunConfig::cell_disk(kind, pol);
    out.cfg.platform = sim::PlatformConfig::cell(cpus);
  } else {
    out.cfg = socket ? pipeline::RunConfig::x86_socket(kind, pol)
                     : pipeline::RunConfig::x86_disk(kind, pol);
    out.cfg.platform = sim::PlatformConfig::x86(cpus);
  }

  out.cfg.spec.step_size = step;
  out.cfg.spec.tolerance = tol;
  out.cfg.bytes = bytes;
  out.cfg.input_path = input_path;
  if (verify == "optimistic") {
    out.cfg.spec.verify = tvs::VerificationPolicy::optimistic();
  } else if (verify == "full") {
    out.cfg.spec.verify = tvs::VerificationPolicy::full();
  } else if (verify.rfind("every", 0) == 0) {
    out.cfg.spec.verify = tvs::VerificationPolicy::every_kth(
        static_cast<std::uint32_t>(std::stoul(verify.substr(5))));
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  std::printf("scenario: %s\n", args.cfg.label().c_str());
  const auto result = pipeline::run_sim(args.cfg);
  pipeline::verify_roundtrip(result);

  const auto latencies = result.trace.latencies();
  const auto summary = result.latency_summary();
  std::printf("\nlatency   : %s\n", summary.to_string().c_str());
  std::printf("runtime   : %llu us\n",
              static_cast<unsigned long long>(result.makespan_us));
  std::printf("specul.   : committed=%s rollbacks=%llu wasted_encodes=%llu "
              "buffered_drops=%zu\n",
              result.spec_committed ? "yes" : "no",
              static_cast<unsigned long long>(result.rollbacks),
              static_cast<unsigned long long>(result.trace.wasted_encodes()),
              result.wait_discarded);
  std::printf("dispatch  : natural=%llu speculative=%llu\n",
              static_cast<unsigned long long>(result.natural_dispatches),
              static_cast<unsigned long long>(result.spec_dispatches));
  std::printf("size      : %+.2f%% vs optimal\n",
              pipeline::size_overhead_vs_optimal(result) * 100.0);
  std::printf("\nlatency per element:\n%s\n",
              stats::sparkline(latencies).c_str());
  std::printf("round trip: OK\n");
  return 0;
}
