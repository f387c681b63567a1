#include "flight/observer.h"

#include <bit>
#include <string>

namespace flight {
namespace {

/// Task names are "stem[instance]" ("tree[41]", "count[41.3]"); interning
/// the stem keeps the name table bounded by the pipeline's stage count, not
/// the run length.
std::string_view stem_of(std::string_view name) {
  const auto bracket = name.find('[');
  return bracket == std::string_view::npos ? name : name.substr(0, bracket);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

std::uint64_t FlightObserver::advance_clock(std::uint64_t now_us) {
  if (now_us == 0) return approx_now_.load(std::memory_order_relaxed);
  std::uint64_t cur = approx_now_.load(std::memory_order_relaxed);
  while (cur < now_us && !approx_now_.compare_exchange_weak(
                             cur, now_us, std::memory_order_relaxed)) {
  }
  return now_us;
}

void FlightObserver::session_state(std::uint64_t session,
                                   std::string_view state,
                                   std::uint64_t t_us) {
  Record r;
  r.kind = Kind::SessionState;
  r.t_us = advance_clock(t_us);
  r.stream = session;
  r.name = rec_.intern(state);
  rec_.emit(r);
}

void FlightObserver::attribution(std::uint64_t session,
                                 std::string_view component, std::uint64_t us,
                                 std::uint64_t t_us) {
  Record r;
  r.kind = Kind::Attribution;
  r.t_us = advance_clock(t_us);
  r.stream = session;
  r.name = rec_.intern(component);
  r.a = us;
  rec_.emit(r);
}

void FlightObserver::on_task_created(const sre::TaskInfo& task) {
  Record r;
  r.kind = Kind::TaskCreated;
  r.t_us = approx_now_.load(std::memory_order_relaxed);
  r.task = task.id;
  r.stream = task.stream;
  r.epoch = task.epoch;
  r.name = rec_.intern(stem_of(task.name));
  r.a = static_cast<std::uint64_t>(task.depth < 0 ? 0 : task.depth);
  r.b = task.cost_us;
  r.flags = static_cast<std::uint32_t>(task.cls);
  rec_.emit(r);
}

void FlightObserver::on_edge(sre::TaskId producer, sre::TaskId consumer) {
  Record r;
  r.kind = Kind::Edge;
  r.t_us = approx_now_.load(std::memory_order_relaxed);
  r.task = consumer;
  r.a = producer;
  rec_.emit(r);
}

void FlightObserver::on_dispatched(sre::TaskId task, std::uint64_t now_us,
                                   unsigned cpu) {
  Record r;
  r.kind = Kind::TaskDispatched;
  r.t_us = advance_clock(now_us);
  r.task = task;
  r.cpu = static_cast<std::uint16_t>(cpu);
  rec_.emit(r);
}

void FlightObserver::on_finished(sre::TaskId task, std::uint64_t now_us,
                                 bool aborted) {
  Record r;
  r.kind = Kind::TaskFinished;
  r.t_us = advance_clock(now_us);
  r.task = task;
  if (aborted) r.flags |= kFlagAborted;
  rec_.emit(r);
}

void FlightObserver::on_epoch_opened(sre::Epoch epoch) {
  Record r;
  r.kind = Kind::EpochOpened;
  r.t_us = approx_now_.load(std::memory_order_relaxed);
  r.epoch = epoch;
  rec_.emit(r);
}

void FlightObserver::on_epoch_committed(sre::Epoch epoch) {
  Record r;
  r.kind = Kind::EpochCommitted;
  r.t_us = approx_now_.load(std::memory_order_relaxed);
  r.epoch = epoch;
  rec_.emit(r);
}

void FlightObserver::on_epoch_aborted(sre::Epoch epoch) {
  Record r;
  r.kind = Kind::EpochAborted;
  r.t_us = approx_now_.load(std::memory_order_relaxed);
  r.epoch = epoch;
  rec_.emit(r);
}

void FlightObserver::on_rollback_cascade(sre::Epoch epoch,
                                         std::size_t tasks_destroyed) {
  Record r;
  r.kind = Kind::RollbackCascade;
  r.t_us = approx_now_.load(std::memory_order_relaxed);
  r.epoch = epoch;
  r.a = tasks_destroyed;
  rec_.emit(r);
}

void FlightObserver::on_check_verdict(sre::Epoch epoch, bool within,
                                      bool is_final, double margin) {
  Record r;
  r.kind = Kind::CheckVerdict;
  r.t_us = approx_now_.load(std::memory_order_relaxed);
  r.epoch = epoch;
  if (within) r.flags |= kFlagWithin;
  if (is_final) r.flags |= kFlagFinal;
  r.a = bits(margin);
  rec_.emit(r);
}

void FlightObserver::on_prediction_scored(const std::string& predictor,
                                          bool hit, double rel_error) {
  Record r;
  r.kind = Kind::PredictionScored;
  r.t_us = approx_now_.load(std::memory_order_relaxed);
  r.name = rec_.intern(predictor);
  if (hit) r.flags |= kFlagHit;
  r.a = bits(rel_error);
  rec_.emit(r);
}

void FlightObserver::on_predictor_charged(const std::string& predictor) {
  Record r;
  r.kind = Kind::PredictorCharged;
  r.t_us = approx_now_.load(std::memory_order_relaxed);
  r.name = rec_.intern(predictor);
  rec_.emit(r);
}

void FlightObserver::on_speculation_gated(std::uint32_t estimate_index,
                                          double confidence) {
  Record r;
  r.kind = Kind::SpeculationGated;
  r.t_us = approx_now_.load(std::memory_order_relaxed);
  r.a = estimate_index;
  r.b = bits(confidence);
  rec_.emit(r);
}

void FlightObserver::on_fault_injected(sre::TaskId task, bool failed,
                                       std::uint64_t delay_us) {
  Record r;
  r.kind = Kind::FaultInjected;
  r.t_us = approx_now_.load(std::memory_order_relaxed);
  r.task = task;
  if (failed) r.flags |= kFlagFailed;
  r.a = delay_us;
  rec_.emit(r);
}

}  // namespace flight
