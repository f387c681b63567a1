#include "pipeline/huffman_pipeline.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "huffman/offsets.h"
#include "huffman/stream_format.h"
#include "huffman/tree.h"
#include "sre/arena.h"
#include "sim/cost_model.h"

namespace pipeline {

using sim::TaskKind;

namespace {

/// Encode `block` into the calling worker's lane of `arenas`. The exact
/// output size comes from the block's histogram (already complete: Encode
/// depends on Offset depends on Count), so the bump allocation is sized
/// precisely — no second pass over the data, no worst-case padding. The
/// returned ByteBuf co-owns `arenas`: committed results keep the epoch's
/// memory alive, and a rollback's reference drop reclaims it wholesale.
huff::EncodedBlock encode_into_lane(std::span<const std::uint8_t> block,
                                    const huff::Histogram& hist,
                                    const huff::CodeTable& table,
                                    const std::shared_ptr<sre::EpochArenas>&
                                        arenas,
                                    unsigned worker) {
  const std::uint64_t nbits = table.encoded_bits(hist);
  auto out = arenas->lane(worker).alloc_bytes((nbits + 7) / 8);
  return huff::encode_block_into(block, table, out, arenas);
}

/// One histogram per block, left uninitialized at construction: each count
/// body constructs its block's histogram in place, so the page faults land
/// on the workers rather than on the constructing thread. Task dependencies
/// order every reader (reduce, offset, encode) after its block's count.
class BlockHistograms {
 public:
  static_assert(std::is_trivially_destructible_v<huff::Histogram>);

  explicit BlockHistograms(std::size_t n)
      : n_(n), hists_(std::allocator<huff::Histogram>().allocate(n)) {}
  ~BlockHistograms() {
    std::allocator<huff::Histogram>().deallocate(hists_, n_);
  }
  BlockHistograms(const BlockHistograms&) = delete;
  BlockHistograms& operator=(const BlockHistograms&) = delete;

  /// The count body of block `b`.
  void count(std::size_t b, std::span<const std::uint8_t> block) {
    std::construct_at(hists_ + b)->count(block);
  }
  [[nodiscard]] const huff::Histogram& operator[](std::size_t b) const {
    return hists_[b];
  }
  [[nodiscard]] std::span<const huff::Histogram> range(std::size_t begin,
                                                       std::size_t end) const {
    return {hists_ + begin, end - begin};
  }

 private:
  std::size_t n_;
  huff::Histogram* hists_;
};

/// The commit sink (docs/data-plane.md, "Commit sink"): every committed
/// block goes straight to its place in one preallocated container. The
/// first committed block makes the writer, outside the lock; blocks that
/// commit meanwhile are parked, and the thread that made the writer places
/// them. Completion fires once every block is placed.
class CommitSink {
 public:
  using MakeWriter = std::function<huff::ContainerWriter()>;

  CommitSink(std::size_t n_blocks, MakeWriter make)
      : n_(n_blocks), make_(std::move(make)) {}

  void place(std::size_t block, std::uint64_t offset,
             const huff::EncodedBlock& enc, std::uint64_t now_us) {
    std::unique_lock lk(mu_);
    std::size_t placed = 1;
    if (writer_) {
      lk.unlock();
      put(block, offset, enc);
    } else {
      parked_.push_back({block, offset, enc});
      if (allocating_) return;
      allocating_ = true;
      lk.unlock();
      huff::ContainerWriter writer = make_();
      lk.lock();
      writer_.emplace(std::move(writer));
      // Nothing parks once the writer exists: one batch drains them all.
      const std::vector<Parked> batch = std::exchange(parked_, {});
      lk.unlock();
      for (const Parked& p : batch) put(p.block, p.offset, p.enc);
      placed = batch.size();
    }
    lk.lock();
    placed_ += placed;
    if (placed_ != n_ || !on_complete_) return;
    const auto fire = on_complete_;
    lk.unlock();
    fire(now_us);
  }

  /// See HuffmanPipeline::set_on_complete.
  void set_on_complete(std::function<void(std::uint64_t)> fn) {
    std::unique_lock lk(mu_);
    on_complete_ = std::move(fn);
    if (placed_ == n_) {
      const auto fire = on_complete_;
      lk.unlock();
      fire(0);
    }
  }

  /// The container's payload size; 0 until the writer exists.
  [[nodiscard]] std::uint64_t payload_bits() const {
    std::scoped_lock lk(mu_);
    return writer_ ? writer_->payload_bits() : 0;
  }

  /// Hands the finished container over; a second call throws.
  std::vector<std::uint8_t> take() {
    std::scoped_lock lk(mu_);
    if (taken_) {
      throw std::logic_error("assemble_output: container already taken");
    }
    if (placed_ != n_) {
      throw std::logic_error("assemble_output: incomplete run");
    }
    // A zero-block run commits nothing, so nothing made the writer.
    if (!writer_) writer_.emplace(make_());
    taken_ = true;
    return writer_->take();
  }

 private:
  struct Parked {
    std::size_t block;
    std::uint64_t offset;
    huff::EncodedBlock enc;
  };

  void put(std::size_t block, std::uint64_t offset,
           const huff::EncodedBlock& enc) {
    // The committed table's payload size must be exactly what the blocks
    // tile: the last block ends on it.
    if (block + 1 == n_ && offset + enc.bit_count != writer_->payload_bits()) {
      throw std::logic_error("HuffmanPipeline: blocks end at bit " +
                             std::to_string(offset + enc.bit_count) +
                             ", the committed table's payload at " +
                             std::to_string(writer_->payload_bits()));
    }
    writer_->place(block, offset, enc);
  }

  const std::size_t n_;
  const MakeWriter make_;
  mutable std::mutex mu_;
  std::optional<huff::ContainerWriter> writer_;
  bool allocating_ = false;
  bool taken_ = false;
  std::vector<Parked> parked_;
  std::size_t placed_ = 0;
  std::function<void(std::uint64_t)> on_complete_;
};

/// The paper's check quantity (§IV-B): the compressed size of the data seen
/// so far under the newer tree, and how far the guess's size is from it.
struct SizeDelta {
  std::uint64_t cur_bits = 0;
  std::uint64_t diff = 0;
};

SizeDelta size_delta(const TreeEstimate& guess, const TreeEstimate& cur) {
  const std::uint64_t cur_bits = cur.table->encoded_bits(*cur.hist);
  const std::uint64_t guess_bits = guess.table->encoded_bits(*cur.hist);
  return {cur_bits,
          guess_bits > cur_bits ? guess_bits - cur_bits : cur_bits - guess_bits};
}

}  // namespace

/// The live second pass: one epoch's tree, serial offset chain tail, and
/// per-block offset store. A speculative chain is destroyed on rollback and
/// survives commit (later arrivals pass through the wait buffer); the
/// natural chain (epoch sre::kNaturalEpoch) is built last and never replaced.
struct HuffmanPipeline::Chain {
  sre::Epoch epoch = 0;
  std::shared_ptr<const huff::CodeTable> table;
  sre::TaskPtr prev_offset;  ///< tail of the serial offset chain
  std::shared_ptr<sre::Slot<std::uint64_t>> prev_end;  ///< bits after tail group
  std::shared_ptr<std::vector<std::uint64_t>> offsets; ///< absolute start bits
  /// This epoch's encode-output arenas (one lane per worker). Dropped with
  /// the chain on rollback; results that reached the wait buffer keep it
  /// alive through their ByteBuf owner refs until committed or dropped.
  std::shared_ptr<sre::EpochArenas> arena;
  std::size_t next_group = 0;
  std::size_t counted_blocks = 0;  ///< prefix of blocks with completed counts
};

struct HuffmanPipeline::State {
  using Stage = tvs::SpeculativeStage<TreeEstimate, BlockResult>;

  State(sre::Runtime& runtime, const sio::BlockSource& source, RunConfig config)
      : rt(runtime),
        src(source),
        cfg(std::move(config)),
        n_blocks(source.n_blocks()),
        block_hists(n_blocks),
        sink(n_blocks, [this] { return make_writer(); }) {}

  sre::Runtime& rt;
  const sio::BlockSource& src;
  /// Engaged by the shared_ptr constructor: keeps the source alive as long
  /// as State itself (and every task pins State), so the caller may drop
  /// its reference once results are collected.
  std::shared_ptr<const sio::BlockSource> src_keepalive;
  RunConfig cfg;

  const std::size_t n_blocks;
  std::size_t n_reduces = 0;

  std::mutex mu;

  /// Blocks whose counts are transitively complete (updated by the serial
  /// reduce chain). Authoritative for chain extension: a speculative chain
  /// built from an older estimate must still cover everything counted by
  /// the time it is wired up.
  std::size_t counted_blocks = 0;

  // First pass. Tasks are tracked weakly: their bodies pin State, so a
  // strong reference would cycle whenever a run is abandoned with them
  // unrun. An expired count or reduce task has finished (natural tasks are
  // never aborted), so there is no dependency left to declare on it.
  BlockHistograms block_hists;
  std::vector<std::weak_ptr<sre::Task>> count_tasks;
  std::weak_ptr<sre::Task> prev_reduce;
  huff::Histogram prefix;  ///< mutated only by the serial reduce chain
  std::vector<std::shared_ptr<const huff::Histogram>> snapshots;

  // The live second pass (guarded by mu) and the speculation stage.
  std::optional<Chain> chain;
  std::unique_ptr<Stage> stage;

  /// Places every committed block into the output container.
  CommitSink sink;

  [[nodiscard]] std::size_t group_begin(std::size_t g) const {
    return g * cfg.ratios.offset_group;
  }
  [[nodiscard]] std::size_t group_end(std::size_t g) const {
    return std::min((g + 1) * cfg.ratios.offset_group, n_blocks);
  }
  [[nodiscard]] std::uint64_t cost(TaskKind kind, std::size_t n = 1) const {
    return cfg.platform.cost.cost(kind, n);
  }

  /// Code lengths of the committed output's table. A block commits only
  /// from the live chain's epoch, so the live chain holds that table; a
  /// zero-block run has no chain and an all-zero (valid empty) table.
  [[nodiscard]] huff::CodeLengths committed_lengths() {
    std::scoped_lock lk(mu);
    return chain ? chain->table->lengths() : huff::CodeLengths{};
  }

  /// The output container for the committed table, zero-filled with its
  /// header written. Its payload is the committed table's size of the final
  /// prefix histogram, which every block's offset was computed against.
  [[nodiscard]] huff::ContainerWriter make_writer() {
    const huff::CodeLengths lengths = committed_lengths();
    const std::uint64_t payload_bits =
        n_reduces == 0 ? 0 : huff::encoded_bits(lengths, *snapshots.back());
    return {src.total_bytes(), static_cast<std::uint32_t>(n_blocks),
            static_cast<std::uint32_t>(src.block_size()), lengths,
            payload_bits};
  }
};

HuffmanPipeline::HuffmanPipeline(sre::Runtime& runtime,
                                 const sio::BlockSource& source,
                                 const RunConfig& config)
    : st_(std::make_shared<State>(runtime, source, config)) {
  State& st = *st_;
  const std::size_t R = config.ratios.reduce_ratio;
  if (R == 0 || config.ratios.offset_group == 0) {
    throw std::invalid_argument("HuffmanPipeline: zero ratio");
  }
  st.n_reduces = (st.n_blocks + R - 1) / R;
  st.count_tasks.resize(st.n_blocks);
  st.snapshots.resize(st.n_reduces);

  const bool speculating = config.speculation_enabled();
  // State-owned closures (the stage hooks) hold only a weak reference: each
  // is called from a task that pins State, and a strong one would keep State
  // alive through itself.
  const std::weak_ptr<State> w = st_;
  State::Stage::Hooks hooks;
  hooks.build_chain = [w](const TreeEstimate& guess, sre::Epoch epoch,
                          std::uint32_t gix) {
    build_spec_chain(w.lock(), guess, epoch, gix);
  };
  hooks.build_natural = [w](const TreeEstimate& final_value) {
    build_natural(w.lock(), final_value);
  };
  hooks.within_tolerance = [tol = config.spec.tolerance](
                               const TreeEstimate& guess,
                               const TreeEstimate& cur) {
    // The paper's check (§IV-B): reject when the size difference exceeds
    // the tolerance fraction of the newer tree's size.
    const SizeDelta d = size_delta(guess, cur);
    return static_cast<double>(d.diff) <= tol * static_cast<double>(d.cur_bits);
  };
  hooks.tolerance_margin = [tol = config.spec.tolerance](
                               const TreeEstimate& guess,
                               const TreeEstimate& cur) {
    // Headroom ratio for observability: observed relative size delta over
    // the allowed delta. < 1 passes the check above; ~0 = perfect guess.
    const SizeDelta d = size_delta(guess, cur);
    const double allowed = tol * static_cast<double>(d.cur_bits);
    return allowed <= 0.0 ? (d.diff == 0 ? 0.0 : 1e9)
                          : static_cast<double>(d.diff) / allowed;
  };
  hooks.on_rollback = [w](sre::Epoch epoch) {
    const auto stp = w.lock();
    std::scoped_lock lk(stp->mu);
    if (stp->chain && stp->chain->epoch == epoch) stp->chain.reset();
  };
  hooks.on_committed = [w](std::size_t b, const BlockResult& r,
                           std::uint64_t now_us) {
    w.lock()->sink.place(b, r.offset, r.enc, now_us);
  };
  st.stage = std::make_unique<State::Stage>(
      runtime, st.n_blocks,
      speculating ? std::optional(config.spec) : std::nullopt,
      st.cost(TaskKind::Check), st_, std::move(hooks), config.stream_id);
}

HuffmanPipeline::HuffmanPipeline(sre::Runtime& runtime,
                                 std::shared_ptr<const sio::BlockSource> source,
                                 const RunConfig& config)
    : HuffmanPipeline(runtime, *source, config) {
  st_->src_keepalive = std::move(source);
}

void HuffmanPipeline::set_on_complete(std::function<void(std::uint64_t)> fn) {
  st_->sink.set_on_complete(std::move(fn));
}

void HuffmanPipeline::on_block_arrival(std::size_t i, std::uint64_t now_us) {
  auto st = st_;
  const std::size_t R = st->cfg.ratios.reduce_ratio;

  sre::TaskPtr count;
  sre::TaskPtr reduce;
  {
    std::scoped_lock lk(st->mu);
    st->stage->record_arrival(i, now_us);

    count = st->rt.make_task(
        "count[" + std::to_string(i) + "]", sre::TaskClass::Natural,
        sre::kNaturalEpoch, /*depth=*/1, st->cost(TaskKind::Count),
        [st, i](sre::TaskContext&) {
          st->block_hists.count(i, st->src.block(i));
        },
        st->cfg.stream_id);
    count->set_mem_bytes(st->src.block_size() + sizeof(huff::Histogram));
    st->count_tasks[i] = count;

    // The last block of a reduce group (or of the stream) closes that group:
    // create the serial Reduce task folding the group into the prefix.
    const bool closes_group = ((i + 1) % R == 0) || (i + 1 == st->n_blocks);
    if (closes_group) {
      const std::size_t r = i / R;
      const std::size_t begin = r * R;
      const std::size_t end = i + 1;
      reduce = st->rt.make_task(
          "reduce[" + std::to_string(r) + "]", sre::TaskClass::Natural,
          sre::kNaturalEpoch, /*depth=*/2,
          st->cost(TaskKind::Reduce, end - begin),
          [st, r, begin, end](sre::TaskContext&) {
            for (std::size_t b = begin; b < end; ++b) {
              st->prefix.merge(st->block_hists[b]);
            }
            st->snapshots[r] = std::make_shared<huff::Histogram>(st->prefix);
          },
          st->cfg.stream_id);
      reduce->set_mem_bytes((end - begin) * sizeof(huff::Histogram));
      // Each reduce completion is a fresh prefix histogram: an estimate.
      reduce->add_completion_hook(
          [st, r](sre::Task&, std::uint64_t done_us) {
            on_estimate(st, r, done_us);
          });
      for (std::size_t b = begin; b < end; ++b) {
        if (auto c = st->count_tasks[b].lock()) {
          st->rt.add_dependency(c, reduce);
        }
      }
      if (auto prev = st->prev_reduce.lock()) {
        st->rt.add_dependency(prev, reduce);
      }
      st->prev_reduce = reduce;
    }
  }
  st->rt.submit(count);
  if (reduce) st->rt.submit(reduce);
}

void HuffmanPipeline::on_estimate(const std::shared_ptr<State>& st,
                                  std::size_t r, std::uint64_t now_us) {
  const bool is_final = (r + 1 == st->n_reduces);
  const auto k = static_cast<std::uint32_t>(r + 1);
  // The estimate is the speculation basis (paper §III-B): it triggers the
  // speculative side first, then advances normal execution.
  if (st->stage->offer(k, is_final)) {
    // "trees are created with every new histogram that in turn generate
    // checking tasks" (paper Fig. 2 caption) — here, only for estimates the
    // speculator will actually consume.
    auto snapshot = st->snapshots[r];
    auto cell = std::make_shared<TreeEstimate>();
    auto tree_task = st->rt.make_task(
        "tree[" + std::to_string(k) + (is_final ? ",final]" : "]"),
        sre::TaskClass::Control, sre::kNaturalEpoch, /*depth=*/1000,
        st->cost(TaskKind::TreeBuild),
        [snapshot, cell](sre::TaskContext&) {
          // Flooring guarantees every byte value has a code, so a tree
          // built from a prefix can encode later symbols too.
          const huff::HuffmanTree tree =
              huff::HuffmanTree::build(snapshot->with_floor(1));
          cell->hist = snapshot;
          cell->table = std::make_shared<const huff::CodeTable>(
              huff::CodeTable::from_lengths(tree.lengths()));
        },
        st->cfg.stream_id);
    tree_task->set_mem_bytes(2 * sizeof(huff::Histogram));
    st->stage->estimate_on_done(
        *tree_task, k, is_final, [cell] { return *cell; }, /*offered=*/true);
    st->rt.submit(tree_task);
  }
  {
    std::scoped_lock lk(st->mu);
    const std::size_t counted =
        std::min((r + 1) * st->cfg.ratios.reduce_ratio, st->n_blocks);
    st->counted_blocks = std::max(st->counted_blocks, counted);
    if (st->chain) {
      st->chain->counted_blocks =
          std::max(st->chain->counted_blocks, st->counted_blocks);
      extend_chain_locked(st);
    }
  }
  // Without speculation the final estimate feeds the natural second pass.
  if (!st->cfg.speculation_enabled()) {
    st->stage->estimate(k, is_final, TreeEstimate{st->snapshots[r], nullptr},
                        now_us);
  }
}

void HuffmanPipeline::build_spec_chain(const std::shared_ptr<State>& st,
                                       const TreeEstimate& guess,
                                       sre::Epoch epoch,
                                       std::uint32_t estimate_index) {
  std::scoped_lock lk(st->mu);
  // A builder that lost the race to its epoch's rollback (or to a newer
  // epoch's builder) must not replace the live chain.
  if (st->stage->stale(epoch)) return;
  // Cover everything counted so far, not just the estimate's prefix: more
  // reduces may have completed while the prediction task was in flight.
  install_chain_locked(
      st, guess.table, epoch,
      std::max(std::min(static_cast<std::size_t>(estimate_index) *
                            st->cfg.ratios.reduce_ratio,
                        st->n_blocks),
               st->counted_blocks));
}

/// Makes `table`'s chain under `epoch` the live one and wires it over the
/// first `counted_blocks` blocks. Caller holds st->mu.
void HuffmanPipeline::install_chain_locked(
    const std::shared_ptr<State>& st,
    std::shared_ptr<const huff::CodeTable> table, sre::Epoch epoch,
    std::size_t counted_blocks) {
  Chain chain;
  chain.epoch = epoch;
  chain.table = std::move(table);
  chain.offsets = std::make_shared<std::vector<std::uint64_t>>(st->n_blocks, 0);
  chain.arena = st->rt.make_epoch_arenas(epoch);
  chain.counted_blocks = counted_blocks;
  st->chain = std::move(chain);
  extend_chain_locked(st);
}

/// Wires the live chain's offset groups (and their encodes) as far as the
/// counted prefix reaches: `offset[g]`/`encode[b]` on the natural path,
/// `spec-offset[g,eE]`/`spec-encode[b,eE]` under epoch E. Caller holds
/// st->mu. The run is published as one runtime batch, before st->mu is
/// released.
void HuffmanPipeline::extend_chain_locked(const std::shared_ptr<State>& st) {
  sre::Runtime::Batch batch(st->rt);
  Chain& chain = *st->chain;
  const std::size_t G = st->cfg.ratios.offset_group;
  const sre::Epoch epoch = chain.epoch;
  const bool speculative = epoch != sre::kNaturalEpoch;
  const sre::TaskClass cls =
      speculative ? sre::TaskClass::Speculative : sre::TaskClass::Natural;
  const auto name = [speculative, epoch](const char* kind, std::size_t i) {
    const std::string ix = std::to_string(i);
    return speculative ? "spec-" + std::string(kind) + "[" + ix + ",e" +
                             std::to_string(epoch) + "]"
                       : std::string(kind) + "[" + ix + "]";
  };

  while (chain.next_group * G < st->n_blocks &&
         st->group_end(chain.next_group) <= chain.counted_blocks) {
    const std::size_t g = chain.next_group++;
    const std::size_t begin = st->group_begin(g);
    const std::size_t end = st->group_end(g);
    auto table = chain.table;
    auto offsets = chain.offsets;
    auto prev_end = chain.prev_end;
    auto group_end_slot = sre::make_slot<std::uint64_t>();

    auto offset_task = st->rt.make_task(
        name("offset", g), cls, epoch, /*depth=*/4,
        st->cost(TaskKind::Offset, end - begin),
        [st, begin, end, table, offsets, prev_end, group_end_slot](
            sre::TaskContext&) {
          const std::uint64_t start = prev_end ? prev_end->get() : 0;
          const huff::OffsetGroup og = huff::compute_offsets(
              st->block_hists.range(begin, end), *table, start);
          for (std::size_t b = begin; b < end; ++b) {
            (*offsets)[b] = og.block_offsets[b - begin];
          }
          group_end_slot->set(og.end_offset);
        },
        st->cfg.stream_id);
    offset_task->set_mem_bytes((end - begin) * sizeof(huff::Histogram));
    // On the natural path every count is Done, so these declare no edge.
    for (std::size_t b = begin; b < end; ++b) {
      if (auto c = st->count_tasks[b].lock()) {
        st->rt.add_dependency(c, offset_task);
      }
    }
    if (chain.prev_offset) {
      st->rt.add_dependency(chain.prev_offset, offset_task);
    }
    chain.prev_offset = offset_task;
    chain.prev_end = group_end_slot;
    st->rt.submit(offset_task);

    for (std::size_t b = begin; b < end; ++b) {
      auto enc = std::make_shared<huff::EncodedBlock>();
      auto arena = chain.arena;
      auto encode_task = st->rt.make_task(
          name("encode", b), cls, epoch, /*depth=*/5,
          st->cost(TaskKind::Encode),
          [st, b, table, enc, arena](sre::TaskContext& ctx) {
            *enc = encode_into_lane(st->src.block(b), st->block_hists[b],
                                    *table, arena, ctx.worker);
          },
          st->cfg.stream_id);
      encode_task->set_mem_bytes(3 * st->src.block_size() +
                                 sizeof(huff::CodeTable));
      encode_task->add_completion_hook(
          [st, b, enc, offsets, epoch](sre::Task&, std::uint64_t done_us) {
            st->stage->deliver(epoch, b,
                               BlockResult{std::move(*enc), (*offsets)[b]},
                               done_us);
          });
      st->rt.add_dependency(offset_task, encode_task);
      st->rt.submit(encode_task);
    }
  }
}

void HuffmanPipeline::build_natural(const std::shared_ptr<State>& st,
                                    const TreeEstimate& final_value) {
  // Natural tree task: exact (unfloored) table from the complete histogram.
  auto hist = final_value.hist;
  auto table_cell = std::make_shared<std::shared_ptr<const huff::CodeTable>>();
  auto tree_task = st->rt.make_task(
      "tree[natural]", sre::TaskClass::Natural, sre::kNaturalEpoch,
      /*depth=*/3, st->cost(TaskKind::TreeBuild),
      [hist, table_cell](sre::TaskContext&) {
        *table_cell = std::make_shared<const huff::CodeTable>(
            huff::CodeTable::from_histogram(*hist));
      },
      st->cfg.stream_id);
  tree_task->set_mem_bytes(2 * sizeof(huff::Histogram));

  tree_task->add_completion_hook([st, table_cell](sre::Task&,
                                                  std::uint64_t) {
    // All counts finished (the final reduce ran), so the whole natural
    // second pass is laid out at once. It replaces any chain left over,
    // which can only belong to a rolled-back epoch. Its arenas are keyed to
    // the run instead of a speculative epoch — freed when the last
    // committed result is released.
    std::scoped_lock lk(st->mu);
    install_chain_locked(st, *table_cell, sre::kNaturalEpoch, st->n_blocks);
  });
  st->rt.submit(tree_task);
}

const stats::BlockTrace& HuffmanPipeline::trace() const {
  return st_->stage->trace();
}

bool HuffmanPipeline::speculation_committed() const {
  return st_->stage->speculation_committed();
}

std::size_t HuffmanPipeline::wait_discarded() const {
  return st_->stage->wait_discarded();
}

std::size_t HuffmanPipeline::wait_pending() const {
  return st_->stage->wait_pending();
}

std::uint64_t HuffmanPipeline::rollbacks() const {
  return st_->stage->rollbacks();
}

void HuffmanPipeline::validate_complete() const {
  if (st_->n_blocks != 0 && !st_->stage->committed()) {
    throw std::logic_error("HuffmanPipeline: run produced no code table");
  }
  const stats::BlockTrace& trace = st_->stage->trace();
  st_->stage->with_results([&trace](const auto& slots) {
    for (std::size_t b = 0; b < slots.size(); ++b) {
      if (!slots[b]) {
        throw std::logic_error("HuffmanPipeline: block " + std::to_string(b) +
                               " has no committed encoding");
      }
      if (!trace.at(b).completed()) {
        throw std::logic_error("HuffmanPipeline: block " + std::to_string(b) +
                               " missing completion timestamp");
      }
    }
  });
}

std::uint64_t HuffmanPipeline::output_bits() const {
  return st_->sink.payload_bits();
}

std::vector<std::uint8_t> HuffmanPipeline::assemble_output() {
  return st_->sink.take();
}

}  // namespace pipeline
