// Streaming compressor over slow I/O — the paper's second motivating case
// ("data trickles into the system slowly, and a prefix of the data can be
// speculated upon").
//
// Runs the REAL threaded runtime (worker + feeder threads), with
// a simulated long-distance socket feeding blocks on a (time-compressed)
// WAN schedule. Writes the compressed artifact to disk as a .tvsh container
// and decodes it back as proof.
//
//   $ ./socket_stream_compressor [output.tvsh]
#include <cstdio>
#include <string>

#include "huffman/stream_format.h"
#include "pipeline/driver.h"

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "/tmp/stream.tvsh";

  pipeline::RunConfig config = pipeline::RunConfig::x86_socket(
      wl::FileKind::Txt, sre::DispatchPolicy::Balanced);
  config.bytes = 1024 * 1024;  // 1 MiB over the simulated WAN

  std::printf("streaming %zu KiB over a simulated socket "
              "(%llu us/block, time compressed 100x)...\n",
              config.bytes / 1024,
              static_cast<unsigned long long>(config.socket_per_block_us));

  // Real threads; the feeder injects each 4 KiB block on the socket
  // schedule scaled by 0.01 (so ~1.4 s of WAN time runs in ~14 ms).
  const pipeline::RunResult result =
      pipeline::run_threaded(config, /*workers=*/4, /*arrival_time_scale=*/0.01);
  pipeline::verify_roundtrip(result);

  huff::write_file(out_path, result.container);
  const auto reread = huff::read_file(out_path);
  const auto decoded = huff::decompress_buffer(reread);
  if (decoded != result.input) {
    std::fprintf(stderr, "FATAL: artifact on disk failed to round-trip\n");
    return 1;
  }

  const auto summary = result.latency_summary();
  std::printf("wrote %s (%zu bytes, %.1f%% of input)\n", out_path.c_str(),
              result.container.size(),
              100.0 * static_cast<double>(result.container.size()) /
                  static_cast<double>(result.input.size()));
  std::printf("decoded artifact matches input: OK\n");
  std::printf("speculation committed: %s, rollbacks: %llu\n",
              result.spec_committed ? "yes" : "no",
              static_cast<unsigned long long>(result.rollbacks));
  std::printf("per-block wall-clock latency: %s\n",
              summary.to_string().c_str());
  std::printf("(with speculation, blocks are encoded as they arrive instead\n"
              " of waiting for the full stream — compare the mean latency to\n"
              " the total stream duration)\n");
  return 0;
}
