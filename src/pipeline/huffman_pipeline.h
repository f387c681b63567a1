// HuffmanPipeline: the paper's benchmark, built as a dynamic DFG on the SRE.
//
// Mirrors Fig. 2 of the paper. First pass: a Count task per arriving 4 KiB
// block; a serial chain of Reduce tasks, each folding `reduce_ratio` block
// histograms into the running prefix histogram. Each Reduce completion is an
// *estimate* in the tolerant-value-speculation sense, handed straight to the
// pipeline's tvs::SpeculativeStage (the speculation basis, paper §III-B);
// when the Speculator wants one, a Control-class prediction task builds the
// prefix Huffman tree. Second pass: one Chain per epoch — Offset tasks (one
// per group of `offset_group` blocks, serially chained — variable-length
// codes make block positions a prefix computation) feeding parallel Encode
// tasks. A speculative chain runs under an epoch from a predicted tree; its
// results wait in a WaitBuffer until a passing final check commits them. A
// failed check rolls the epoch back and re-speculates from the newest prefix
// (or falls back to the natural second pass if the final histogram is
// already known). The natural second pass is the same Chain wiring under
// sre::kNaturalEpoch, built from the exact table of the final histogram.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/speculative_stage.h"
#include "huffman/canonical.h"
#include "huffman/encoder.h"
#include "huffman/histogram.h"
#include "io/block_source.h"
#include "pipeline/run_config.h"
#include "sre/runtime.h"
#include "sre/slot.h"
#include "stats/trace.h"

namespace pipeline {

/// The speculated value: a prefix histogram and the canonical table implied
/// by it. Tables for speculation are built over a floored histogram so every
/// byte value is encodable regardless of what arrives later.
struct TreeEstimate {
  std::shared_ptr<const huff::Histogram> hist;
  std::shared_ptr<const huff::CodeTable> table;
};

class HuffmanPipeline {
 public:
  /// `source` must outlive the pipeline *and every task the pipeline ever
  /// submitted* (stray aborted tasks may still read blocks while they
  /// drain). Cost/memory attributes come from `config.platform.cost`;
  /// speculation is controlled by `config.policy` and `config.spec`.
  HuffmanPipeline(sre::Runtime& runtime, const sio::BlockSource& source,
                  const RunConfig& config);

  /// As above, but the pipeline shares ownership of `source`, and the shared
  /// internal state rides in every task closure — so this handle (and the
  /// caller's source reference) may be destroyed as soon as results are
  /// collected, even while stray aborted tasks are still draining on the
  /// executor. The serving layer (src/serve) relies on this to retire
  /// sessions eagerly on a long-running shared runtime.
  HuffmanPipeline(sre::Runtime& runtime,
                  std::shared_ptr<const sio::BlockSource> source,
                  const RunConfig& config);

  /// Arrival entry point: the executor calls this (from its feeder/event
  /// schedule) when block `i`'s bytes become available.
  void on_block_arrival(std::size_t i, std::uint64_t now_us);

  /// Installs a callback fired exactly once, when the last committed block
  /// is placed in the output container — from then on validate_complete()
  /// passes and assemble_output() hands the container over. Runs on
  /// whichever executor thread places the last block, with the engine time
  /// of the commit that placed it; fires immediately (now_us = 0) if the
  /// run is already complete when installed.
  /// The serving layer uses this to detect session completion without
  /// waiting for global runtime quiescence.
  void set_on_complete(std::function<void(std::uint64_t now_us)> fn);

  // --- Results (valid after the executor's run() returns) -----------------

  [[nodiscard]] const stats::BlockTrace& trace() const;

  /// True iff the committed output came from a speculative epoch.
  [[nodiscard]] bool speculation_committed() const;

  /// Entries discarded from the wait buffer by rollbacks.
  [[nodiscard]] std::size_t wait_discarded() const;

  /// Speculative results currently parked in the wait buffer (live value —
  /// metrics probes sample it mid-run).
  [[nodiscard]] std::size_t wait_pending() const;

  /// Number of rollback events observed by the pipeline.
  [[nodiscard]] std::uint64_t rollbacks() const;

  /// Throws std::logic_error if any block has no committed encoding — a run
  /// that loses blocks is a correctness bug.
  void validate_complete() const;

  /// Hands over the compressed container. Nothing is assembled here: each
  /// block was copied to its final byte in one preallocated container when
  /// it committed (docs/data-plane.md, "Commit sink"), so this checks the
  /// layout and moves the finished container out. Throws std::logic_error
  /// if a block is not placed yet, if the placed blocks do not hold the
  /// committed table's coded size, or on a second call.
  [[nodiscard]] std::vector<std::uint8_t> assemble_output();

  /// The committed container's payload_bits (0 until every block is
  /// placed).
  [[nodiscard]] std::uint64_t output_bits() const;

 private:
  /// One block's committed encoding and its absolute start bit.
  struct BlockResult {
    huff::EncodedBlock enc;
    std::uint64_t offset = 0;
  };

  struct Chain;
  struct State;

  // Wiring helpers (definitions in the .cpp). Static and keyed off the
  // shared State: no task closure or completion hook ever captures the
  // HuffmanPipeline handle itself, so the handle can be destroyed while
  // stray tasks are still in flight — each task pins State (and through it
  // the source) until it retires.
  static void on_estimate(const std::shared_ptr<State>& st, std::size_t r,
                          std::uint64_t now_us);
  static void build_spec_chain(const std::shared_ptr<State>& st,
                               const TreeEstimate& guess, sre::Epoch epoch,
                               std::uint32_t estimate_index);
  static void install_chain_locked(const std::shared_ptr<State>& st,
                                   std::shared_ptr<const huff::CodeTable> table,
                                   sre::Epoch epoch,
                                   std::size_t counted_blocks);
  static void extend_chain_locked(const std::shared_ptr<State>& st);
  static void build_natural(const std::shared_ptr<State>& st,
                            const TreeEstimate& final_value);

  std::shared_ptr<State> st_;
};

}  // namespace pipeline
