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
#include "predict/bank.h"
#include "predict/ewma.h"
#include "predict/histogram_morph.h"
#include "predict/last_value.h"
#include "predict/stride.h"
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

}  // namespace

/// Active speculative second pass: one epoch's tree, serial offset chain
/// tail, and per-block offset store. Destroyed on rollback; survives commit
/// (later arrivals pass through the wait buffer).
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
        root("huffman"),
        first_pass(&root.add_child("first-pass")),
        second_pass(&root.add_child("second-pass")),
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

  // SuperTask hierarchy (paper §III-A): the root directs data between the
  // two passes. The first pass's histogram port is flagged as a speculation
  // basis (§III-B), so each publication both advances normal execution
  // (chain bookkeeping, natural path at the final estimate) and triggers
  // the speculative side (prediction tasks).
  sre::SuperTask root;
  sre::SuperTask* first_pass;
  sre::SuperTask* second_pass;

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

  /// The natural path's exact code lengths, set before any natural encode
  /// is spawned. All-zero (a valid empty table) for a zero-block run.
  huff::CodeLengths natural_lengths{};

  // Speculation: the live epoch's second pass (guarded by mu), the
  // predictor bank (PredictorMode::Bank: observes every prefix histogram,
  // supplies the speculation basis and the gate confidence), and the stage.
  std::optional<Chain> chain;
  std::unique_ptr<predict::PredictorBank<huff::Histogram>> bank;
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

  /// Code lengths of the committed output's table.
  [[nodiscard]] huff::CodeLengths committed_lengths() {
    if (stage->speculation_committed()) {
      return stage->committed()->table->lengths();
    }
    std::scoped_lock lk(mu);
    return natural_lengths;
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
  if (speculating && config.spec.predictor == tvs::PredictorMode::Bank) {
    // Score predictions in the same units as the speculation check: the
    // relative compressed-size delta between the predicted tree and the
    // best tree for the data actually seen, so hit rate estimates "would
    // this predictor's guess have survived a check".
    st.bank = std::make_unique<predict::PredictorBank<huff::Histogram>>(
        config.spec.tolerance,
        [](const huff::Histogram& pred, const huff::Histogram& actual) {
          const auto t_pred = huff::CodeTable::from_lengths(
              huff::HuffmanTree::build(pred.with_floor(1)).lengths());
          const auto t_act = huff::CodeTable::from_lengths(
              huff::HuffmanTree::build(actual.with_floor(1)).lengths());
          const double pb = static_cast<double>(t_pred.encoded_bits(actual));
          const double ab = static_cast<double>(t_act.encoded_bits(actual));
          return ab <= 0.0 ? 0.0 : std::abs(pb - ab) / ab;
        });
    // Registration order is the tie-break: the paper-equivalent baseline
    // predictor stays the safe default until another one earns the lead.
    st.bank->add(std::make_unique<predict::LastValue<huff::Histogram>>());
    st.bank->add(std::make_unique<predict::HistogramMorph>());
    st.bank->add(std::make_unique<predict::Stride<huff::Histogram>>());
    st.bank->add(std::make_unique<predict::Ewma<huff::Histogram>>());
    st.bank->set_score_hook(
        [rt = &st.rt](const std::string& name, bool hit, double err) {
          if (sre::Observer* obs = rt->observer()) {
            obs->on_prediction_scored(name, hit, err);
          }
        });
  }

  // State-owned closures (stage hooks, SuperTask subscribers) hold only a
  // weak reference: each is called from a task that pins State, and a
  // strong one would keep State alive through itself.
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
    // The paper's check (§IV-B): compare the compressed size of the data
    // seen so far under both trees; reject when the difference exceeds the
    // tolerance fraction of the newer tree's size.
    const std::uint64_t cur_bits = cur.table->encoded_bits(*cur.hist);
    const std::uint64_t guess_bits = guess.table->encoded_bits(*cur.hist);
    const std::uint64_t diff =
        guess_bits > cur_bits ? guess_bits - cur_bits : cur_bits - guess_bits;
    return static_cast<double>(diff) <= tol * static_cast<double>(cur_bits);
  };
  hooks.tolerance_margin = [tol = config.spec.tolerance](
                               const TreeEstimate& guess,
                               const TreeEstimate& cur) {
    // Headroom ratio for observability: observed relative size delta over
    // the allowed delta. < 1 passes the check above; ~0 = perfect guess.
    const std::uint64_t cur_bits = cur.table->encoded_bits(*cur.hist);
    const std::uint64_t guess_bits = guess.table->encoded_bits(*cur.hist);
    const std::uint64_t diff =
        guess_bits > cur_bits ? guess_bits - cur_bits : cur_bits - guess_bits;
    const double allowed = tol * static_cast<double>(cur_bits);
    return allowed <= 0.0 ? (diff == 0 ? 0.0 : 1e9)
                          : static_cast<double>(diff) / allowed;
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
  if (st.bank) {
    hooks.observe = [bank = st.bank.get()](std::uint32_t k,
                                           const TreeEstimate& est) {
      bank->observe(k, *est.hist);
    };
    hooks.charge_rollback = [bank = st.bank.get()] {
      return bank->charge_rollback();
    };
  }
  st.stage = std::make_unique<State::Stage>(
      runtime, st.n_blocks,
      speculating ? std::optional(config.spec) : std::nullopt,
      st.cost(TaskKind::Check), st_, std::move(hooks), config.stream_id);
  if (st.bank) {
    State::Stage::PredictorHook hook;
    hook.confidence = [bank = st.bank.get(),
                       n = static_cast<std::uint32_t>(st.n_reduces)](
                          std::uint32_t) { return bank->confidence(n); };
    st.stage->speculator()->set_predictor_hook(std::move(hook));
  }

  // --- SuperTask wiring ------------------------------------------------
  // Normal-execution subscriber: every new prefix histogram advances the
  // first pass's bookkeeping; the final one feeds the natural second pass
  // when no speculation is running.
  st.first_pass->subscribe_value<EstimateMsg>(
      "histogram",
      [w, speculating](const EstimateMsg& msg, std::uint64_t now_us) {
        const auto stp = w.lock();
        {
          std::scoped_lock lk(stp->mu);
          const std::size_t counted = std::min(
              (msg.reduce_index + 1) * stp->cfg.ratios.reduce_ratio,
              stp->n_blocks);
          stp->counted_blocks = std::max(stp->counted_blocks, counted);
          if (stp->chain) {
            stp->chain->counted_blocks =
                std::max(stp->chain->counted_blocks, stp->counted_blocks);
            extend_chain_locked(stp);
          }
        }
        if (!speculating) {
          stp->stage->estimate(
              static_cast<std::uint32_t>(msg.reduce_index + 1),
              msg.reduce_index + 1 == stp->n_reduces,
              TreeEstimate{stp->snapshots[msg.reduce_index], nullptr}, now_us);
        }
      });

  if (speculating) {
    // Speculative side: the histogram port is a flagged speculation basis;
    // each publication may spawn a Control-class prediction task that
    // builds the prefix tree and feeds the Speculator.
    st.first_pass->mark_speculation_basis("histogram");
    st.first_pass->set_speculation_trigger(
        [w](const sre::SuperTask::Payload& payload, std::uint64_t) {
          const auto stp = w.lock();
          const auto& msg =
              *std::static_pointer_cast<const EstimateMsg>(payload);
          const std::size_t r = msg.reduce_index;
          const bool is_final = (r + 1 == stp->n_reduces);
          const auto k = static_cast<std::uint32_t>(r + 1);
          auto snapshot = stp->snapshots[r];
          // The bank sees every estimate (scoring needs the full stream),
          // even the ones the speculator will not consume.
          if (!stp->stage->offer(k, is_final, TreeEstimate{snapshot, nullptr})) {
            return;
          }

          // "trees are created with every new histogram that in turn
          // generate checking tasks" (paper Fig. 2 caption) — here, only
          // for estimates the speculator will actually consume. Under
          // PredictorMode::Bank the tree's basis is the bank's
          // extrapolation to the *final* histogram — the distribution the
          // final check will actually judge the guess against; the final
          // estimate always uses the exact histogram.
          std::shared_ptr<const huff::Histogram> basis = snapshot;
          if (stp->bank && !is_final) {
            basis = std::make_shared<const huff::Histogram>(
                stp->bank
                    ->predict(static_cast<std::uint32_t>(stp->n_reduces))
                    .guess);
          }
          auto cell = std::make_shared<TreeEstimate>();
          auto tree_task = stp->rt.make_task(
              "tree[" + std::to_string(k) + (is_final ? ",final]" : "]"),
              sre::TaskClass::Control, sre::kNaturalEpoch, /*depth=*/1000,
              stp->cost(TaskKind::TreeBuild),
              [snapshot, basis, cell](sre::TaskContext&) {
                // Flooring guarantees every byte value has a code, so a
                // tree built from a prefix can encode later symbols too.
                const huff::HuffmanTree tree =
                    huff::HuffmanTree::build(basis->with_floor(1));
                // The estimate's histogram stays the *actual* prefix: the
                // tolerance check judges trees on data really seen.
                cell->hist = snapshot;
                cell->table = std::make_shared<const huff::CodeTable>(
                    huff::CodeTable::from_lengths(tree.lengths()));
              },
              stp->cfg.stream_id);
          tree_task->set_mem_bytes(2 * sizeof(huff::Histogram));
          stp->stage->estimate_on_done(
              *tree_task, k, is_final, [cell] { return *cell; },
              /*offered=*/true);
          stp->rt.submit(tree_task);
        });
  }
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
      // Each reduce publishes a fresh prefix histogram through the
      // SuperTask hierarchy. The flagged port advances normal execution AND
      // triggers the speculative side (paper §III-B: "the expected data has
      // arrived and should advance normal program execution, and ...
      // trigger a speculative task").
      reduce->add_completion_hook(
          [st, r](sre::Task&, std::uint64_t done_us) {
            st->first_pass->publish_value<EstimateMsg>("histogram", {r},
                                                       done_us);
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

void HuffmanPipeline::build_spec_chain(const std::shared_ptr<State>& st,
                                       const TreeEstimate& guess,
                                       sre::Epoch epoch,
                                       std::uint32_t estimate_index) {
  std::scoped_lock lk(st->mu);
  // A builder that lost the race to its epoch's rollback (or to a newer
  // epoch's builder) must not replace the live chain.
  if (st->stage->stale(epoch)) return;
  Chain chain;
  chain.epoch = epoch;
  chain.table = guess.table;
  chain.offsets = std::make_shared<std::vector<std::uint64_t>>(st->n_blocks, 0);
  chain.arena = st->rt.make_epoch_arenas(epoch);
  // Cover everything counted so far, not just the estimate's prefix: more
  // reduces may have completed while the prediction task was in flight.
  chain.counted_blocks = std::max(
      std::min(static_cast<std::size_t>(estimate_index) *
                   st->cfg.ratios.reduce_ratio,
               st->n_blocks),
      st->counted_blocks);
  st->chain = std::move(chain);
  extend_chain_locked(st);
}

/// Wires the live chain's offset groups (and their encodes) as far as the
/// counted prefix reaches. Caller holds st->mu.
void HuffmanPipeline::extend_chain_locked(const std::shared_ptr<State>& st) {
  Chain& chain = *st->chain;
  const std::size_t G = st->cfg.ratios.offset_group;

  while (chain.next_group * G < st->n_blocks &&
         st->group_end(chain.next_group) <= chain.counted_blocks) {
    const std::size_t g = chain.next_group++;
    const std::size_t begin = st->group_begin(g);
    const std::size_t end = st->group_end(g);
    const sre::Epoch epoch = chain.epoch;
    auto table = chain.table;
    auto offsets = chain.offsets;
    auto prev_end = chain.prev_end;
    auto group_end_slot = sre::make_slot<std::uint64_t>();

    auto offset_task = st->rt.make_task(
        "spec-offset[" + std::to_string(g) + ",e" + std::to_string(epoch) + "]",
        sre::TaskClass::Speculative, epoch, /*depth=*/4,
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
          "spec-encode[" + std::to_string(b) + ",e" + std::to_string(epoch) +
              "]",
          sre::TaskClass::Speculative, epoch, /*depth=*/5,
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
            st->second_pass->publish_value<BlockDoneMsg>("block-done",
                                                         {b, true}, done_us);
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
    // second pass can be laid out at once: serial offset chain, parallel
    // encodes.
    auto table = *table_cell;
    {
      std::scoped_lock lk(st->mu);
      st->natural_lengths = table->lengths();
    }
    const std::size_t G = st->cfg.ratios.offset_group;
    const std::size_t n_groups = (st->n_blocks + G - 1) / G;
    auto offsets = std::make_shared<std::vector<std::uint64_t>>(st->n_blocks, 0);
    // Natural-path arenas: same wholesale-reclamation story, keyed to the
    // run instead of a speculative epoch — freed when the last committed
    // result is released.
    auto arena = st->rt.make_epoch_arenas(sre::kNaturalEpoch);
    sre::TaskPtr prev_offset;
    std::shared_ptr<sre::Slot<std::uint64_t>> prev_end;

    for (std::size_t g = 0; g < n_groups; ++g) {
      const std::size_t begin = st->group_begin(g);
      const std::size_t end = st->group_end(g);
      auto group_end_slot = sre::make_slot<std::uint64_t>();
      auto prev_end_cap = prev_end;
      auto offset_task = st->rt.make_task(
          "offset[" + std::to_string(g) + "]", sre::TaskClass::Natural,
          sre::kNaturalEpoch, /*depth=*/4, st->cost(TaskKind::Offset, end - begin),
          [st, begin, end, table, offsets, prev_end_cap, group_end_slot](
              sre::TaskContext&) {
            const std::uint64_t start = prev_end_cap ? prev_end_cap->get() : 0;
            const huff::OffsetGroup og = huff::compute_offsets(
                st->block_hists.range(begin, end), *table, start);
            for (std::size_t b = begin; b < end; ++b) {
              (*offsets)[b] = og.block_offsets[b - begin];
            }
            group_end_slot->set(og.end_offset);
          },
          st->cfg.stream_id);
      offset_task->set_mem_bytes((end - begin) * sizeof(huff::Histogram));
      if (prev_offset) st->rt.add_dependency(prev_offset, offset_task);
      prev_offset = offset_task;
      prev_end = group_end_slot;
      st->rt.submit(offset_task);

      for (std::size_t b = begin; b < end; ++b) {
        auto enc = std::make_shared<huff::EncodedBlock>();
        auto encode_task = st->rt.make_task(
            "encode[" + std::to_string(b) + "]", sre::TaskClass::Natural,
            sre::kNaturalEpoch, /*depth=*/5, st->cost(TaskKind::Encode),
            [st, b, table, enc, arena](sre::TaskContext& ctx) {
              *enc = encode_into_lane(st->src.block(b), st->block_hists[b],
                                      *table, arena, ctx.worker);
            },
            st->cfg.stream_id);
        encode_task->set_mem_bytes(3 * st->src.block_size() +
                                   sizeof(huff::CodeTable));
        encode_task->add_completion_hook(
            [st, b, enc, offsets](sre::Task&, std::uint64_t done_us) {
              st->stage->deliver(sre::kNaturalEpoch, b,
                                 BlockResult{std::move(*enc), (*offsets)[b]},
                                 done_us);
              st->second_pass->publish_value<BlockDoneMsg>(
                  "block-done", {b, false}, done_us);
            });
        st->rt.add_dependency(offset_task, encode_task);
        st->rt.submit(encode_task);
      }
    }
  });
  st->rt.submit(tree_task);
}

const stats::BlockTrace& HuffmanPipeline::trace() const {
  return st_->stage->trace();
}

sre::SuperTask& HuffmanPipeline::root_supertask() { return st_->root; }

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

// The Speculator's own mutex orders a retune against estimates and
// verdicts; the stage creates it once at construction.
bool HuffmanPipeline::retune_spec(const tvs::SpecConfig& next) {
  auto* spec = st_->stage->speculator();
  if (spec) spec->retune(next);
  return spec != nullptr;
}

tvs::SpecConfig HuffmanPipeline::spec_config() const {
  const auto* spec = st_->stage->speculator();
  return spec ? spec->config() : st_->cfg.spec;
}

std::uint64_t HuffmanPipeline::spec_retunes() const {
  const auto* spec = st_->stage->speculator();
  return spec ? spec->retunes() : 0;
}

stats::PredictorScoreboard HuffmanPipeline::predictor_scoreboard() const {
  return st_->bank ? st_->bank->scoreboard() : stats::PredictorScoreboard{};
}

std::uint64_t HuffmanPipeline::gate_denials() const {
  const auto* spec = st_->stage->speculator();
  return spec ? spec->gate_denials() : 0;
}

std::string HuffmanPipeline::best_predictor() const {
  return st_->bank ? st_->bank->best_name() : std::string{};
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
