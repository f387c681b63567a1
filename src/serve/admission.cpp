#include "serve/admission.h"

namespace serve {

AdmissionController::AdmissionController(ShedPolicy policy)
    : policy_(std::move(policy)) {}

AdmissionController::Offer AdmissionController::offer(const SessionPtr& s) {
  std::scoped_lock lk(mu_);
  if (closed_) {
    return {false, "shutdown"};
  }
  const auto ix = static_cast<std::size_t>(s->cfg.priority);
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.size();
  const auto verdict =
      policy_.at_submit(s->cfg.priority, queues_[ix].size(), total);
  if (verdict.shed) {
    return {false, verdict.reason};
  }
  queues_[ix].push_back(s);
  return {true, ""};
}

bool AdmissionController::expired_locked(const Session& s,
                                         std::uint64_t now_us) const {
  const std::uint64_t waited =
      now_us > s.stats.submitted_us ? now_us - s.stats.submitted_us : 0;
  return policy_.expired(s, waited);
}

SessionPtr AdmissionController::next(std::uint64_t now_us,
                                     std::vector<SessionPtr>& shed_out) {
  std::scoped_lock lk(mu_);
  for (auto& q : queues_) {
    while (!q.empty()) {
      SessionPtr s = q.front();
      q.pop_front();
      if (expired_locked(*s, now_us)) {
        shed_out.push_back(std::move(s));
        continue;
      }
      return s;
    }
  }
  return nullptr;
}

std::size_t AdmissionController::purge_expired(
    std::uint64_t now_us, std::vector<SessionPtr>& shed_out) {
  std::scoped_lock lk(mu_);
  std::size_t removed = 0;
  for (auto& q : queues_) {
    for (auto it = q.begin(); it != q.end();) {
      if (expired_locked(**it, now_us)) {
        shed_out.push_back(std::move(*it));
        it = q.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
  }
  return removed;
}

void AdmissionController::close() {
  std::scoped_lock lk(mu_);
  closed_ = true;
}

bool AdmissionController::closed() const {
  std::scoped_lock lk(mu_);
  return closed_;
}

std::size_t AdmissionController::queued() const {
  std::scoped_lock lk(mu_);
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.size();
  return total;
}

ShedPolicy::Config AdmissionController::shed_config() const {
  return policy_.config();
}

std::array<std::size_t, kPriorities> AdmissionController::depths() const {
  std::scoped_lock lk(mu_);
  std::array<std::size_t, kPriorities> out{};
  for (std::size_t i = 0; i < kPriorities; ++i) out[i] = queues_[i].size();
  return out;
}

}  // namespace serve
