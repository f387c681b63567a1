// huffman.* layer samples: each kernel the pipeline's tasks call, timed one
// call at a time on the workload's own input, serially, with the work
// counted in input bytes or calls.
#include <algorithm>
#include <string>
#include <vector>

#include "emit.h"
#include "huffman/canonical.h"
#include "huffman/encoder.h"
#include "huffman/fast_decoder.h"
#include "huffman/histogram.h"
#include "huffman/offsets.h"
#include "huffman/stream_format.h"
#include "huffman/tree.h"
#include "workloads.h"

namespace bench {

bool time_kernels(std::span<const std::uint8_t> input,
                  const pipeline::RunConfig& cfg,
                  std::span<const std::uint8_t> reference) {
  const std::size_t bs = cfg.ratios.block_size;
  const std::size_t n = (input.size() + bs - 1) / bs;
  const auto bytes = static_cast<double>(input.size());
  std::vector<std::span<const std::uint8_t>> blocks(n);
  for (std::size_t i = 0; i < n; ++i) {
    blocks[i] = input.subspan(i * bs, std::min(bs, input.size() - i * bs));
  }
  double ns = 0.0;
  auto timed = [&ns](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  };

  // Count: Histogram::of per block.
  std::vector<huff::Histogram> hists(n);
  for (std::size_t i = 0; i < n; ++i) {
    timed([&] { hists[i] = huff::Histogram::of(blocks[i]); });
  }
  emit_layer("huffman.count_ns_per_byte", ns / bytes);

  // Reduce: fold each group of reduce_ratio histograms into the prefix.
  const std::size_t R = cfg.ratios.reduce_ratio;
  huff::Histogram prefix;
  std::vector<huff::Histogram> snapshots;
  ns = 0.0;
  for (std::size_t b = 0; b < n; b += R) {
    timed([&] {
      for (std::size_t i = b; i < std::min(n, b + R); ++i) prefix.merge(hists[i]);
    });
    snapshots.push_back(prefix);
  }
  emit_layer("huffman.reduce_us", ns / 1e3 / static_cast<double>(snapshots.size()));

  // Tree: a speculative tree task's work (floored prefix → tree → canonical
  // table), on up to 64 prefixes spread over the stream.
  const std::size_t step = std::max<std::size_t>(1, snapshots.size() / 64);
  std::size_t trees = 0;
  ns = 0.0;
  for (std::size_t r = 0; r < snapshots.size(); r += step, ++trees) {
    timed([&] {
      const huff::HuffmanTree tree =
          huff::HuffmanTree::build(snapshots[r].with_floor(1));
      (void)huff::CodeTable::from_lengths(tree.lengths());
    });
  }
  emit_layer("huffman.tree_us", ns / 1e3 / static_cast<double>(trees));

  // The committed table of a natural run: exact, from the whole input.
  const huff::CodeTable table = huff::CodeTable::from_histogram(prefix);

  // Offset: the serial bit-offset chain, one call per offset group.
  const std::size_t G = cfg.ratios.offset_group;
  std::vector<std::uint64_t> offsets;
  offsets.reserve(n);
  std::uint64_t start = 0;
  std::size_t groups = 0;
  ns = 0.0;
  for (std::size_t b = 0; b < n; b += G, ++groups) {
    huff::OffsetGroup og;
    timed([&] {
      og = huff::compute_offsets(
          std::span<const huff::Histogram>(hists).subspan(b, std::min(G, n - b)),
          table, start);
    });
    start = og.end_offset;
    offsets.insert(offsets.end(), og.block_offsets.begin(), og.block_offsets.end());
  }
  emit_layer("huffman.offset_us_per_group",
             ns / 1e3 / static_cast<double>(groups));

  // Encode: encode_block per block.
  std::vector<huff::EncodedBlock> encoded(n);
  ns = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    timed([&] { encoded[i] = huff::encode_block(blocks[i], table); });
  }
  emit_layer("huffman.encode_ns_per_byte", ns / bytes);

  huff::CompressedStream s;
  s.original_bytes = input.size();
  s.n_blocks = static_cast<std::uint32_t>(n);
  s.block_size = static_cast<std::uint32_t>(bs);
  s.lengths = table.lengths();
  s.block_offsets = offsets;
  s.payload_bits = n == 0 ? 0 : offsets.back() + encoded.back().bit_count;
  ns = 0.0;
  timed([&] { s.payload = huff::assemble(encoded, offsets); });
  emit_layer("huffman.assemble_ns_per_byte", ns / bytes);

  std::vector<std::uint8_t> container;
  ns = 0.0;
  timed([&] { container = huff::serialize(s); });
  emit_layer("huffman.serialize_ns_per_byte", ns / bytes);
  if (!std::equal(container.begin(), container.end(), reference.begin(),
                  reference.end())) {
    emit_fail("kernels", "kernel path differs from compress_buffer", true);
    return false;
  }

  // Fast decode: FastDecoder per indexed block, each checked against its
  // input block.
  const huff::FastDecoder fast(table);
  bool same = true;
  ns = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> out;
    timed([&] { out = fast.decode(s.payload, blocks[i].size(), offsets[i]); });
    same = same && std::equal(out.begin(), out.end(), blocks[i].begin(),
                              blocks[i].end());
  }
  emit_layer("huffman.fast_decode_ns_per_byte", ns / bytes);
  if (!same) {
    emit_fail("kernels", "FastDecoder output differs from the input", true);
    return false;
  }
  return true;
}

}  // namespace bench
