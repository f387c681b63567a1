// LoadSnapshot: one cheap, consistent picture of a serving instance's
// occupancy — what a routing layer needs to place work, and what an exit
// summary needs to say how a run went.
//
// Depths and the running count are instantaneous; done/shed/failed are
// cumulative since the manager started. Capacities are the shed-policy
// limits, so a remote consumer can evaluate "would this node shed a submit
// of priority p?" the same way the node itself will: depth[p] >= capacity[p].
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "serve/session.h"

namespace serve {

struct LoadSnapshot {
  /// Admission-queue depth per priority class.
  std::array<std::size_t, kPriorities> queued{};
  /// Queue capacity per class under the service's shed config.
  std::array<std::size_t, kPriorities> queue_capacity{};
  std::size_t running = 0;         ///< sessions in Running/Draining
  std::size_t max_concurrent = 0;  ///< concurrency window
  std::uint64_t done = 0;          ///< cumulative terminal counts
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] std::size_t total_queued() const {
    std::size_t n = 0;
    for (const std::size_t d : queued) n += d;
    return n;
  }

  /// Would a submit of priority `p` be shed right now? Mirrors
  /// ShedPolicy::at_submit's capacity clause — the signal the router uses
  /// to spill Bulk/Batch to another node *before* the shed happens.
  [[nodiscard]] bool would_shed(Priority p) const {
    const auto ix = static_cast<std::size_t>(p);
    return queued[ix] >= queue_capacity[ix];
  }

  /// Occupancy score for least-load placement: queued + running work,
  /// normalized by the concurrency window so heterogeneous nodes compare.
  [[nodiscard]] double load_score() const {
    const double slots = max_concurrent > 0
                             ? static_cast<double>(max_concurrent)
                             : 1.0;
    return (static_cast<double>(running) +
            static_cast<double>(total_queued())) /
           slots;
  }
};

}  // namespace serve
