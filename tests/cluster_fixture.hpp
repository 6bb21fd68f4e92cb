// Shared test invariants over a simulated Leopard cluster
// (harness::SimCluster): confirmed-log agreement and the executed horizon
// of the honest replicas.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "harness/sim_cluster.hpp"

namespace leopard::test {

inline bool is_in(std::uint32_t id, const std::vector<std::uint32_t>& ids) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

/// Theorem 1 invariant: all honest replicas' confirmed logs agree
/// position-wise (honest = not in `byzantine_ids`).
inline bool logs_consistent(const harness::SimCluster& cluster,
                            const std::vector<std::uint32_t>& byzantine_ids = {}) {
  for (std::uint32_t a = 0; a < cluster.n(); ++a) {
    if (is_in(a, byzantine_ids)) continue;
    const auto& log_a = cluster.replica(a).confirmed_log();
    for (std::uint32_t b = a + 1; b < cluster.n(); ++b) {
      if (is_in(b, byzantine_ids)) continue;
      const auto& log_b = cluster.replica(b).confirmed_log();
      for (const auto& [sn, digest] : log_a) {
        const auto it = log_b.find(sn);
        if (it != log_b.end() && it->second != digest) return false;
      }
    }
  }
  return true;
}

/// Smallest executed_through() among honest replicas.
inline proto::SeqNum min_executed(const harness::SimCluster& cluster,
                                  const std::vector<std::uint32_t>& byzantine_ids = {}) {
  proto::SeqNum lo = std::numeric_limits<proto::SeqNum>::max();
  for (std::uint32_t id = 0; id < cluster.n(); ++id) {
    if (is_in(id, byzantine_ids)) continue;
    lo = std::min(lo, cluster.replica(id).executed_through());
  }
  return lo;
}

}  // namespace leopard::test
