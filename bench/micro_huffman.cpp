// Microbenchmarks of the Huffman substrate — the real per-task costs behind
// the simulator's CostModel (and the justification for its ratios).
//
// Two modes:
//   * default: the google-benchmark suite below.
//   * --kernels [--json FILE]: kernel sweep (histogram as the scalar
//     reference vs the swar kernel, encode as the BitWriter reference vs the
//     word packer, × block size) using paired ratios — interleaved
//     reference/fast trials, median and quartiles of per-pair time ratios —
//     because bare wall-clock on a shared box cannot resolve sub-10% deltas;
//     plus the table decoder (interleaved, as decompress_buffer runs it, and
//     one block at a time) and the commit sink's placement
//     (ContainerWriter::place) per 4 KiB block. Then, on a 32 MiB TXT
//     corpus: histogram, encode and interleaved decode per thread at 1 and
//     4 threads at once, each thread over its own range; and the whole
//     decompress of the corpus's container through decompress_buffer (fresh output)
//     and decompress_into (pre-faulted caller storage). Emits
//     BENCH_kernels.json with the shared provenance header (bench_util.h).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "huffman/canonical.h"
#include "huffman/encoder.h"
#include "huffman/fast_decoder.h"
#include "huffman/hist_kernels.h"
#include "huffman/length_limited.h"
#include "huffman/offsets.h"
#include "huffman/stream_format.h"
#include "huffman/tree.h"
#include "sre/arena.h"
#include "workload/corpus.h"

namespace {

const std::vector<std::uint8_t>& txt_1mb() {
  static const auto data = wl::make_corpus(wl::FileKind::Txt, 1 << 20);
  return data;
}

void BM_CountBlock(benchmark::State& state) {
  const auto& data = txt_1mb();
  const auto block =
      std::span(data).first(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::Histogram::of(block));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CountBlock)->Arg(4096)->Arg(65536);

void BM_ReduceHistograms(benchmark::State& state) {
  const auto& data = txt_1mb();
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<huff::Histogram> hists(n);
  for (std::size_t i = 0; i < n; ++i) {
    hists[i] = huff::Histogram::of(std::span(data).subspan(i * 4096, 4096));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::Histogram::merged(hists));
  }
}
BENCHMARK(BM_ReduceHistograms)->Arg(8)->Arg(16)->Arg(64);

void BM_TreeBuild(benchmark::State& state) {
  const auto hist = huff::Histogram::of(txt_1mb()).with_floor(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::HuffmanTree::build(hist));
  }
}
BENCHMARK(BM_TreeBuild);

void BM_CanonicalTable(benchmark::State& state) {
  const auto lengths =
      huff::HuffmanTree::build(huff::Histogram::of(txt_1mb()).with_floor(1))
          .lengths();
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::CodeTable::from_lengths(lengths));
  }
}
BENCHMARK(BM_CanonicalTable);

void BM_EncodeBlock(benchmark::State& state) {
  const auto& data = txt_1mb();
  const auto table = huff::CodeTable::from_histogram(huff::Histogram::of(data));
  const auto block =
      std::span(data).first(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::encode_block(block, table));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EncodeBlock)->Arg(4096)->Arg(65536);

void BM_OffsetGroup(benchmark::State& state) {
  const auto& data = txt_1mb();
  const auto table = huff::CodeTable::from_histogram(huff::Histogram::of(data));
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<huff::Histogram> hists(n);
  for (std::size_t i = 0; i < n; ++i) {
    hists[i] = huff::Histogram::of(std::span(data).subspan(i * 4096, 4096));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::compute_offsets(hists, table, 0));
  }
}
BENCHMARK(BM_OffsetGroup)->Arg(16)->Arg(64);

void BM_CheckTask(benchmark::State& state) {
  // The tolerance check: two encoded_bits evaluations plus a comparison —
  // "Check tasks are simple and run very quickly" (paper §IV-B).
  const auto& data = txt_1mb();
  const auto hist = huff::Histogram::of(data);
  const auto guess = huff::CodeTable::from_histogram(
      huff::Histogram::of(std::span(data).first(65536)).with_floor(1));
  const auto current = huff::CodeTable::from_histogram(hist.with_floor(1));
  for (auto _ : state) {
    const auto a = guess.encoded_bits(hist);
    const auto b = current.encoded_bits(hist);
    benchmark::DoNotOptimize(a > b ? a - b : b - a);
  }
}
BENCHMARK(BM_CheckTask);

void BM_DecodeBlock(benchmark::State& state) {
  // Unlimited code lengths, as compress_buffer and the pipeline emit: the
  // rare over-window codes take FastDecoder's canonical range walk.
  const auto& data = txt_1mb();
  const auto table = huff::CodeTable::from_histogram(huff::Histogram::of(data));
  const auto block = std::span(data).first(4096);
  const auto enc = huff::encode_block(block, table);
  const huff::FastDecoder decoder(table);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.decode(enc.bits, block.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_DecodeBlock);

void BM_FastDecodeBlock(benchmark::State& state) {
  // Length-limited codes: every symbol is one table hit, never the walk
  // BM_DecodeBlock can take.
  const auto& data = txt_1mb();
  const auto window = static_cast<std::uint8_t>(state.range(0));
  const auto hist = huff::Histogram::of(data);
  const auto table = huff::CodeTable::from_lengths(
      huff::build_limited_lengths(hist, window));
  const auto block = std::span(data).first(4096);
  const auto enc = huff::encode_block(block, table);
  const huff::FastDecoder decoder(table, window);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.decode(enc.bits, block.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_FastDecodeBlock)->Arg(10)->Arg(12);

void BM_PackageMerge(benchmark::State& state) {
  const auto hist = huff::Histogram::of(txt_1mb()).with_floor(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::build_limited_lengths(hist, 12));
  }
}
BENCHMARK(BM_PackageMerge);

void BM_CompressBufferEndToEnd(benchmark::State& state) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 256 * 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(huff::compress_buffer(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_CompressBufferEndToEnd);

void BM_WorkloadGeneration(benchmark::State& state) {
  const auto kind = static_cast<wl::FileKind>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wl::make_corpus(kind, 256 * 1024, 1));
  }
}
BENCHMARK(BM_WorkloadGeneration)->Arg(0)->Arg(1)->Arg(2);

// --- Kernel sweep (--kernels) ----------------------------------------------

using Clock = std::chrono::steady_clock;

/// One timed trial: runs `fn` `reps` times; returns seconds.
template <typename Fn>
double trial_seconds(Fn&& fn, std::size_t reps) {
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    fn();
  }
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Timed trials per row: paired trials for a kernel with a reference, plain
/// trials for the decoder.
constexpr std::size_t kTrials = 9;

struct SweepRow {
  const char* kernel;
  const char* variant;
  std::size_t block_size;
  benchutil::Spread mb_per_s;  ///< over the timed kernel's trials
  /// Per-pair reference_time / kernel_time; unset for a kernel with no
  /// reference.
  std::optional<benchutil::Spread> ratio_vs_scalar;
};

/// Paired-ratio measurement of `fn` against `reference` on the same input:
/// trials interleave reference/fn so slow drift (thermal, noisy
/// neighbours) cancels in each pair's ratio. The reference's own row passes
/// it as both.
template <typename Ref, typename Fn>
SweepRow sweep_one(const char* kernel, const char* variant,
                   std::size_t block_size, std::size_t bytes_per_trial,
                   Ref&& reference, Fn&& fn) {
  const std::size_t reps = std::max<std::size_t>(1, bytes_per_trial / block_size);
  const double mb = static_cast<double>(reps * block_size) / (1 << 20);
  std::vector<double> ratios;
  std::vector<double> mbps;
  // Warm both paths (page in the corpus, prime the freelists).
  (void)trial_seconds(reference, std::max<std::size_t>(1, reps / 8));
  (void)trial_seconds(fn, std::max<std::size_t>(1, reps / 8));
  for (std::size_t p = 0; p < kTrials; ++p) {
    const double base = trial_seconds(reference, reps);
    const double var = trial_seconds(fn, reps);
    ratios.push_back(base / var);
    mbps.push_back(mb / var);
  }
  return {kernel, variant, block_size, benchutil::spread(mbps),
          benchutil::spread(ratios)};
}

/// Decodes every block of `s` into its range of `out`: four at a
/// time through decode4_into as decompress_into does (`interleaved`), or
/// one decode_into per block.
void decode_run(const huff::CompressedStream& s,
                const huff::FastDecoder& decoder, std::span<std::uint8_t> out,
                bool interleaved) {
  constexpr std::size_t kLanes = huff::FastDecoder::kLanes;
  const auto block_out = [&](std::size_t i) {
    return out.subspan(i * s.block_size, s.block_bytes(i));
  };
  std::size_t i = 0;
  for (; interleaved && s.n_blocks - i >= kLanes; i += kLanes) {
    decoder.decode4_into(
        s.payload,
        {s.block_offsets[i], s.block_offsets[i + 1], s.block_offsets[i + 2],
         s.block_offsets[i + 3]},
        {block_out(i), block_out(i + 1), block_out(i + 2), block_out(i + 3)});
  }
  for (; i < s.n_blocks; ++i) {
    decoder.decode_into(s.payload, s.block_offsets[i], block_out(i));
  }
  benchmark::DoNotOptimize(out.data());
  benchmark::ClobberMemory();
}

/// The decode half of decompress_into on one thread: every 4 KiB
/// block of a compress_buffer container (unlimited-length table) into its
/// range of one output buffer, interleaved (row `interleaved`) or one block
/// per call (row `table`). Returns nullopt if the decode is not byte-exact.
std::optional<SweepRow> decode_row(std::span<const std::uint8_t> data,
                                   std::size_t bytes_per_trial,
                                   bool interleaved) {
  constexpr std::uint32_t kBlock = 4096;
  const auto s = huff::deserialize(huff::compress_buffer(data, kBlock));
  const huff::FastDecoder decoder(s.table());
  std::vector<std::uint8_t> out(data.size());
  const auto decode_all = [&] { decode_run(s, decoder, out, interleaved); };
  decode_all();
  if (!std::equal(out.begin(), out.end(), data.begin(), data.end())) {
    return std::nullopt;
  }
  const std::size_t reps = std::max<std::size_t>(1, bytes_per_trial / data.size());
  const double mb = static_cast<double>(reps * data.size()) / (1 << 20);
  std::vector<double> mbps;
  for (std::size_t t = 0; t < kTrials; ++t) {
    mbps.push_back(mb / trial_seconds(decode_all, reps));
  }
  return SweepRow{"decode", interleaved ? "interleaved" : "table", kBlock,
                  benchutil::spread(mbps), std::nullopt};
}

/// The commit sink's placement: ContainerWriter::place of every encoded
/// 4 KiB block of `data` at the byte-aligned offsets compute_offsets gives.
/// MB/s counts input bytes. Returns nullopt if the payload differs from
/// huff::assemble's.
std::optional<SweepRow> place_row(std::span<const std::uint8_t> data,
                                  const huff::CodeTable& table,
                                  std::size_t bytes_per_trial) {
  constexpr std::size_t kBlock = 4096;
  const std::size_t n = data.size() / kBlock;
  std::vector<huff::Histogram> hists;
  std::vector<huff::EncodedBlock> blocks;
  for (std::size_t b = 0; b < n; ++b) {
    const auto block = data.subspan(b * kBlock, kBlock);
    hists.push_back(huff::Histogram::of(block));
    blocks.push_back(huff::encode_block(block, table));
  }
  const auto offsets = huff::all_offsets(hists, table);
  huff::ContainerWriter writer(
      n * kBlock, static_cast<std::uint32_t>(n), kBlock, table.lengths(),
      table.encoded_bits(huff::Histogram::merged(hists)));
  // Later trials place over the first one's bytes: the stores are the same.
  const auto place_all = [&] {
    for (std::size_t i = 0; i < n; ++i) writer.place(i, offsets[i], blocks[i]);
    benchmark::DoNotOptimize(writer);
    benchmark::ClobberMemory();
  };
  const std::size_t bytes = n * kBlock;
  const std::size_t reps = std::max<std::size_t>(1, bytes_per_trial / bytes);
  const double mb = static_cast<double>(reps * bytes) / (1 << 20);
  std::vector<double> mbps;
  for (std::size_t t = 0; t < kTrials; ++t) {
    mbps.push_back(mb / trial_seconds(place_all, reps));
  }
  if (huff::deserialize(writer.take()).payload !=
      huff::assemble(blocks, offsets)) {
    return std::nullopt;
  }
  return SweepRow{"place", "memcpy", kBlock, benchutil::spread(mbps),
                  std::nullopt};
}

/// Steady-state allocation cost of the arena encode path: encode `epochs`
/// full epochs of blocks into per-worker lanes and report chunk mallocs per
/// block after the first (warm-up) epoch.
struct AllocRow {
  double arena_chunk_mallocs_per_block;
  double arena_bump_allocs_per_block;
  // encode_block: bounded scratch plus the exact-size result, by
  // construction.
  double heap_allocs_per_block;
  std::size_t blocks;
};

AllocRow measure_allocs(std::span<const std::uint8_t> data,
                        std::size_t block_size) {
  const auto table = huff::CodeTable::from_histogram(
      huff::Histogram::of(data).with_floor(1));
  auto pool = std::make_shared<sre::ChunkPool>();
  const std::size_t nblocks = data.size() / block_size;
  constexpr std::size_t kEpochs = 8;
  sre::ArenaStats after_warm;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    auto arenas = std::make_shared<sre::EpochArenas>(pool, e);
    for (std::size_t b = 0; b < nblocks; ++b) {
      const auto block = data.subspan(b * block_size, block_size);
      const auto hist = huff::Histogram::of(block);
      auto out = arenas->lane(0).alloc_bytes((table.encoded_bits(hist) + 7) / 8);
      benchmark::DoNotOptimize(
          huff::encode_block_into(block, table, out, arenas));
    }
    if (e == 0) after_warm = pool->stats();
  }
  const auto st = pool->stats();
  const auto steady_blocks = static_cast<double>(nblocks * (kEpochs - 1));
  return {static_cast<double>(st.chunks_new - after_warm.chunks_new) /
              steady_blocks,
          static_cast<double>(st.allocs - after_warm.allocs) / steady_blocks,
          2.0, nblocks * kEpochs};
}

// --- Thread scaling and whole decompress -----------------------------------

/// The 32 MiB TXT corpus the scaling and decompress rows share; bulk-txt's
/// size.
constexpr std::size_t kBigCorpus = std::size_t{32} << 20;
constexpr std::size_t kScaleBlock = 4096;
/// The scaling rows' thread count beside 1: the cores of the 4-vCPU host
/// the committed rows come from, and an 8 MiB range each.
constexpr unsigned kScaleThreads = 4;

/// One kernel's per-thread cost with `threads` threads running it at once,
/// each over its own range of the corpus.
struct ScalingRow {
  const char* kernel;
  const char* variant;
  unsigned threads;
  std::size_t bytes_per_thread;
  benchutil::Spread ns_per_byte;  ///< per thread, over threads × trials
};

/// A kernel prepared for every range: pass(t) makes one pass over range t.
struct RangeKernel {
  const char* kernel;
  const char* variant;
  std::function<void(std::size_t)> pass;
};

/// Runs pass(t) `reps` times on each of `threads` threads released at once,
/// thread t over range t, and appends each thread's ns per byte to `ns`.
void concurrent_trial(const RangeKernel& k, unsigned threads, std::size_t reps,
                      std::size_t range_bytes, std::vector<double>& ns) {
  std::vector<double> per(threads);
  std::latch start(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      const double sec = trial_seconds([&] { k.pass(t); }, reps);
      per[t] = sec * 1e9 / static_cast<double>(reps * range_bytes);
    });
  }
  for (auto& th : pool) th.join();
  ns.insert(ns.end(), per.begin(), per.end());
}

/// Histogram, encode (the word packer, as the pipeline runs it) and
/// interleaved decode at 1 and kScaleThreads threads: the corpus splits
/// into kScaleThreads ranges, and the 1-thread rows run range 0 alone, so every
/// thread does the same work. Trials alternate the two thread counts so
/// drift cancels. Returns nullopt if a range does not decode byte-exact.
std::optional<std::vector<ScalingRow>> scaling_rows(
    std::span<const std::uint8_t> corpus) {
  constexpr unsigned threads = kScaleThreads;
  const std::size_t range = corpus.size() / threads / kScaleBlock * kScaleBlock;
  const auto range_of = [&](std::size_t t) {
    return corpus.subspan(t * range, range);
  };
  const auto table = huff::CodeTable::from_histogram(
      huff::Histogram::of(corpus).with_floor(1));
  std::size_t scratch_bytes = 0;
  for (std::size_t b = 0; b < corpus.size(); b += kScaleBlock) {
    scratch_bytes = std::max<std::size_t>(
        scratch_bytes,
        (table.encoded_bits(huff::Histogram::of(corpus.subspan(b, kScaleBlock))) +
         7) / 8 + 8);
  }
  struct RangeState {
    huff::CompressedStream stream;
    huff::FastDecoder decoder;
    std::vector<std::uint8_t> out;
    std::vector<std::uint8_t> scratch;
  };
  std::vector<std::unique_ptr<RangeState>> state;
  for (std::size_t t = 0; t < threads; ++t) {
    auto stream = huff::deserialize(huff::compress_buffer(range_of(t)));
    auto decoder = huff::FastDecoder(stream.table());
    state.push_back(std::make_unique<RangeState>(RangeState{
        std::move(stream), std::move(decoder),
        std::vector<std::uint8_t>(range), std::vector<std::uint8_t>(scratch_bytes)}));
    auto& st = *state.back();
    decode_run(st.stream, st.decoder, st.out, true);
    if (!std::equal(st.out.begin(), st.out.end(), range_of(t).begin(),
                    range_of(t).end())) {
      return std::nullopt;
    }
  }
  const RangeKernel kernels[] = {
      {"histogram", "swar",
       [&](std::size_t t) {
         const auto r = range_of(t);
         for (std::size_t b = 0; b < r.size(); b += kScaleBlock) {
           benchmark::DoNotOptimize(huff::Histogram::of(r.subspan(b, kScaleBlock)));
         }
       }},
      {"encode", "word",
       [&](std::size_t t) {
         const auto r = range_of(t);
         for (std::size_t b = 0; b < r.size(); b += kScaleBlock) {
           benchmark::DoNotOptimize(huff::encode_block_into(
               r.subspan(b, kScaleBlock), table, state[t]->scratch, nullptr));
         }
       }},
      {"decode", "interleaved",
       [&](std::size_t t) {
         decode_run(state[t]->stream, state[t]->decoder, state[t]->out, true);
       }},
  };
  // About 16 MiB per thread per trial.
  const std::size_t reps = std::max<std::size_t>(1, (std::size_t{16} << 20) / range);
  std::vector<ScalingRow> rows;
  for (const auto& k : kernels) {
    std::vector<double> one;
    std::vector<double> many;
    k.pass(0);  // warm the range and the code paths
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      concurrent_trial(k, 1, reps, range, one);
      concurrent_trial(k, threads, reps, range, many);
    }
    rows.push_back({k.kernel, k.variant, 1, range, benchutil::spread(one)});
    rows.push_back({k.kernel, k.variant, threads, range, benchutil::spread(many)});
  }
  return rows;
}

/// Whole-decompress trials per entry; more than kTrials, as one call is a
/// single ~30 ms sample.
constexpr std::size_t kDecompressTrials = 15;

struct DecompressRow {
  const char* entry;
  benchutil::Spread ms;
  benchutil::Spread mb_per_s;
};

/// The corpus's compress_buffer container decompressed whole, alternating
/// decompress_buffer (a fresh output per call, its fill and page faults
/// timed, its release not) and decompress_into (one caller buffer, faulted
/// in before the first trial and reused). Returns nullopt if either output
/// differs from the corpus.
std::optional<std::vector<DecompressRow>> decompress_rows(
    std::span<const std::uint8_t> corpus) {
  const auto container = huff::compress_buffer(corpus);
  std::vector<std::uint8_t> into(corpus.size(), 1);
  std::vector<double> buffer_ms;
  std::vector<double> into_ms;
  bool exact = true;
  for (std::size_t trial = 0; trial < kDecompressTrials; ++trial) {
    auto t0 = Clock::now();
    auto out = huff::decompress_buffer(container);
    buffer_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    exact = exact && std::equal(out.begin(), out.end(), corpus.begin(), corpus.end());
    out = {};
    t0 = Clock::now();
    huff::decompress_into(container, into);
    into_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    exact = exact && std::equal(into.begin(), into.end(), corpus.begin());
  }
  if (!exact) return std::nullopt;
  const auto mbps = [&](const std::vector<double>& ms) {
    std::vector<double> out;
    for (const double m : ms) {
      out.push_back(static_cast<double>(corpus.size()) / (1 << 20) / (m / 1000));
    }
    return benchutil::spread(out);
  };
  return std::vector<DecompressRow>{
      {"decompress_buffer", benchutil::spread(buffer_ms), mbps(buffer_ms)},
      {"decompress_into", benchutil::spread(into_ms), mbps(into_ms)}};
}

int run_kernel_sweep(const char* json_path, const std::string& sha) {
  const auto data = wl::make_corpus(wl::FileKind::Txt, 1 << 20);
  const auto table = huff::CodeTable::from_histogram(
      huff::Histogram::of(data).with_floor(1));
  const std::size_t block_sizes[] = {4096, 16384, 65536, 262144};
  constexpr std::size_t kBytesPerTrial = std::size_t{8} << 20;

  std::vector<SweepRow> rows;
  for (std::size_t bs : block_sizes) {
    const auto block = std::span(data).first(bs);
    const auto hist_ref = [&] {
      huff::Histogram h;
      huff::detail::hist_scalar(block, &h.at(0));
      benchmark::DoNotOptimize(h);
    };
    const auto hist_fast = [&] {
      benchmark::DoNotOptimize(huff::Histogram::of(block));
    };
    rows.push_back(sweep_one("histogram", "scalar", bs, kBytesPerTrial,
                             hist_ref, hist_ref));
    rows.push_back(sweep_one("histogram", "swar", bs, kBytesPerTrial,
                             hist_ref, hist_fast));
    const auto encode_ref = [&] {
      benchmark::DoNotOptimize(huff::detail::encode_reference(block, table));
    };
    const auto encode_fast = [&] {
      benchmark::DoNotOptimize(huff::encode_block(block, table));
    };
    rows.push_back(sweep_one("encode", "bitwriter", bs, kBytesPerTrial,
                             encode_ref, encode_ref));
    rows.push_back(sweep_one("encode", "word", bs, kBytesPerTrial, encode_ref,
                             encode_fast));
    // Pipeline-shaped encode: output pre-sized exactly from the block's
    // histogram (the Count product), as the arena path in huffman_pipeline
    // does. The reference encodes, then copies its bytes into the output.
    const auto out_store = std::make_shared<std::vector<std::uint8_t>>(
        (table.encoded_bits(huff::Histogram::of(block)) + 7) / 8);
    const auto arena_ref = [&] {
      const auto enc = huff::detail::encode_reference(block, table);
      std::copy(enc.bits.begin(), enc.bits.end(), out_store->data());
      benchmark::DoNotOptimize(out_store->data());
    };
    const auto arena_fast = [&] {
      benchmark::DoNotOptimize(huff::encode_block_into(
          block, table, {out_store->data(), out_store->size()}, out_store));
    };
    rows.push_back(sweep_one("encode_arena", "bitwriter", bs, kBytesPerTrial,
                             arena_ref, arena_ref));
    rows.push_back(sweep_one("encode_arena", "word", bs, kBytesPerTrial,
                             arena_ref, arena_fast));
  }
  for (const bool interleaved : {true, false}) {
    const auto decode = decode_row(data, kBytesPerTrial, interleaved);
    if (!decode) {
      std::fprintf(stderr, "decode: FastDecoder output differs from the input\n");
      return 1;
    }
    rows.push_back(*decode);
  }
  const auto place = place_row(data, table, kBytesPerTrial);
  if (!place) {
    std::fprintf(stderr,
                 "place: ContainerWriter differs from huff::assemble\n");
    return 1;
  }
  rows.push_back(*place);
  const AllocRow allocs = measure_allocs(data, 4096);
  const auto big = wl::make_corpus(wl::FileKind::Txt, kBigCorpus, 29);
  const auto scaling = scaling_rows(big);
  if (!scaling) {
    std::fprintf(stderr, "scaling: a range's decode differs from the input\n");
    return 1;
  }
  const auto decompress = decompress_rows(big);
  if (!decompress) {
    std::fprintf(stderr, "decompress: output differs from the input\n");
    return 1;
  }

  std::printf("kernel sweep (median MB/s over %zu trials; paired-ratio "
              "median vs the reference)\n",
              kTrials);
  std::printf("%-12s %-11s %9s %12s %8s\n", "kernel", "variant", "block",
              "MB/s", "ratio");
  for (const auto& r : rows) {
    std::printf("%-12s %-11s %9zu %12.1f", r.kernel, r.variant, r.block_size,
                r.mb_per_s.median);
    if (r.ratio_vs_scalar) {
      std::printf(" %7.2fx\n", r.ratio_vs_scalar->median);
    } else {
      std::printf(" %8s\n", "-");
    }
  }
  std::printf(
      "arena encode path: %.4f chunk mallocs/block, %.2f bump allocs/block "
      "over %zu blocks (heap path: %.1f allocs/block by construction)\n",
      allocs.arena_chunk_mallocs_per_block, allocs.arena_bump_allocs_per_block,
      allocs.blocks, allocs.heap_allocs_per_block);
  std::printf("per-thread cost over own %zu MiB ranges of a 32 MiB TXT corpus "
              "(median, p25..p75 ns/B over threads x %zu trials)\n",
              (*scaling)[0].bytes_per_thread >> 20, kTrials);
  for (const auto& r : *scaling) {
    std::printf("%-12s %-11s %2u thread(s) %6.2f ns/B (%.2f..%.2f)\n", r.kernel,
                r.variant, r.threads, r.ns_per_byte.median, r.ns_per_byte.p25,
                r.ns_per_byte.p75);
  }
  std::printf("whole decompress of the 32 MiB TXT container (%zu trials, "
              "median, p25..p75)\n",
              kDecompressTrials);
  for (const auto& r : *decompress) {
    std::printf("%-18s %7.2f ms (%.2f..%.2f) %8.1f MB/s\n", r.entry,
                r.ms.median, r.ms.p25, r.ms.p75, r.mb_per_s.median);
  }

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"kernels\",\n"
                 "  \"method\": \"MB/s median and quartiles over "
                 "provenance.reps trials of 8 MiB each; each row "
                 "interleaves its trials with its reference kernel's and "
                 "reports the per-pair time ratio (reference rows against "
                 "themselves); histogram rows are the hist_scalar reference "
                 "(scalar) and Histogram::count's hist_swar (swar); encode "
                 "rows are the BitWriter reference, "
                 "detail::encode_reference (bitwriter, into the arena "
                 "output by a copy), and the word packer (word); decode is "
                 "every 4 KiB block of a compress_buffer container "
                 "(unlimited code lengths) on one thread, four at a time "
                 "through FastDecoder::decode4_into as decompress_buffer "
                 "runs them (interleaved) or one FastDecoder::decode_into "
                 "per block (table); place is ContainerWriter::place of "
                 "each encoded 4 KiB block at its byte-aligned offset, "
                 "MB/s of input bytes; scaling rows are ns/B per "
                 "thread (median and quartiles over threads x reps samples) "
                 "of histogram, encode and interleaved decode over 4 KiB "
                 "blocks, each of `threads` threads on its own "
                 "bytes_per_thread range of a 32 MiB TXT corpus (seed 29), "
                 "the 1-thread row on one such range alone, trials "
                 "alternating the two counts; decompress rows time the whole "
                 "decompress of that corpus's compress_buffer container over "
                 "decompress_trials alternating calls, decompress_buffer "
                 "into a fresh vector and decompress_into into one "
                 "pre-faulted caller buffer\",\n");
    benchutil::write_provenance(f, static_cast<unsigned>(kTrials), sha);
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(f,
                   "    {\"kernel\": \"%s\", \"variant\": \"%s\", "
                   "\"block_size\": %zu, \"mb_per_s\": %.1f, "
                   "\"mb_per_s_p25\": %.1f, \"mb_per_s_p75\": %.1f",
                   r.kernel, r.variant, r.block_size, r.mb_per_s.median,
                   r.mb_per_s.p25, r.mb_per_s.p75);
      if (r.ratio_vs_scalar) {
        std::fprintf(f,
                     ", \"ratio_vs_scalar_median\": %.3f, "
                     "\"ratio_vs_scalar_p25\": %.3f, "
                     "\"ratio_vs_scalar_p75\": %.3f",
                     r.ratio_vs_scalar->median, r.ratio_vs_scalar->p25,
                     r.ratio_vs_scalar->p75);
      }
      std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"scaling\": [\n");
    for (std::size_t i = 0; i < scaling->size(); ++i) {
      const auto& r = (*scaling)[i];
      std::fprintf(f,
                   "    {\"kernel\": \"%s\", \"variant\": \"%s\", "
                   "\"block_size\": %zu, \"threads\": %u, "
                   "\"bytes_per_thread\": %zu, \"ns_per_byte\": %.3f, "
                   "\"ns_per_byte_p25\": %.3f, \"ns_per_byte_p75\": %.3f}%s\n",
                   r.kernel, r.variant, kScaleBlock, r.threads,
                   r.bytes_per_thread, r.ns_per_byte.median, r.ns_per_byte.p25,
                   r.ns_per_byte.p75, i + 1 < scaling->size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"decompress_trials\": %zu,\n  \"decompress\": [\n",
                 kDecompressTrials);
    for (std::size_t i = 0; i < decompress->size(); ++i) {
      const auto& r = (*decompress)[i];
      std::fprintf(f,
                   "    {\"entry\": \"%s\", \"bytes\": %zu, \"ms\": %.2f, "
                   "\"ms_p25\": %.2f, \"ms_p75\": %.2f, \"mb_per_s\": %.1f, "
                   "\"mb_per_s_p25\": %.1f, \"mb_per_s_p75\": %.1f}%s\n",
                   r.entry, kBigCorpus, r.ms.median, r.ms.p25, r.ms.p75,
                   r.mb_per_s.median, r.mb_per_s.p25, r.mb_per_s.p75,
                   i + 1 < decompress->size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"allocations\": {\"arena_chunk_mallocs_per_block\": "
                 "%.5f, \"arena_bump_allocs_per_block\": %.2f, "
                 "\"heap_allocs_per_block\": %.1f, \"blocks\": %zu}\n}\n",
                 allocs.arena_chunk_mallocs_per_block,
                 allocs.arena_bump_allocs_per_block,
                 allocs.heap_allocs_per_block, allocs.blocks);
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  bool kernels = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--kernels") {
      kernels = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  if (kernels) {
    return run_kernel_sweep(json_path, benchutil::git_sha());
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
