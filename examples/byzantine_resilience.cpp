// Byzantine resilience walkthrough: a 7-replica cluster (f = 2) is pushed
// through the paper's two fault scenarios back to back.
//
//   Phase 1 — selective attack (§IV, §VI-D1): a faulty replica multicasts
//   its datablocks to only the leader and one accomplice; honest replicas
//   discover the gap when a BFTblock links the withheld datablock and
//   recover it from a committee via erasure-coded chunks.
//
//   Phase 2 — leader failure (§VI-D2): the leader goes silent; progress
//   timers fire, timeouts aggregate, and a PBFT-style view-change installs
//   replica 2 as the new leader. Clients re-submit and confirmation resumes.
//
// Watch the printed timeline: liveness dips, the protocol heals, and safety
// (identical logs) holds throughout.
#include <cstdio>
#include <vector>

#include "harness/sim_cluster.hpp"

using namespace leopard;

int main() {
  constexpr std::uint32_t kReplicas = 7;  // f = 2

  core::LeopardConfig cfg;
  cfg.n = kReplicas;
  cfg.datablock_requests = 100;
  cfg.bftblock_links = 2;
  cfg.view_timeout = 2 * sim::kSecond;

  std::vector<core::ByzantineSpec> byzantine(kReplicas);
  // s = 2f: blocks link, f replicas must retrieve...
  byzantine[5].selective_recipients = 4;
  byzantine[5].ignore_queries = true;  // ...and it refuses to help retrieval
  byzantine[1].crash_at = 4 * sim::kSecond;  // phase 2: view-1 leader goes silent

  core::ClientConfig client_cfg;
  client_cfg.request_rate = 2000;
  client_cfg.resubmit_timeout = 2 * sim::kSecond;  // re-route around faults

  harness::SimClusterConfig cluster_cfg;
  cluster_cfg.spec.config = cfg;
  cluster_cfg.mutate_spec = harness::byzantine_replicas(byzantine);
  cluster_cfg.seed = 3;
  cluster_cfg.clients = harness::groups_per_replica(kReplicas, /*leader=*/1, client_cfg,
                                                    /*seed_base=*/500);
  harness::SimCluster cluster(cluster_cfg);
  const auto& metrics = cluster.metrics();
  const auto& observer = cluster.replica(0);

  std::printf("t(s)  confirmed  recovered  view@r0  leader-status\n");
  std::uint64_t last_confirmed = 0;
  for (int second = 1; second <= 12; ++second) {
    cluster.run_until(second * sim::kSecond);
    const auto confirmed = metrics.executed_requests;
    const char* status = second < 4             ? "honest (selective attacker active)"
                         : observer.view() == 1 ? "CRASHED - timers running"
                                                : "replaced via view-change";
    std::printf("%4d  %9llu  %9llu  %7u  %s\n", second,
                static_cast<unsigned long long>(confirmed - last_confirmed),
                static_cast<unsigned long long>(metrics.datablocks_recovered),
                observer.view(), status);
    last_confirmed = confirmed;
  }

  std::printf("\nOutcome:\n");
  std::printf("  view-changes completed : %u\n", metrics.view_changes_completed);
  std::printf("  datablocks recovered   : %llu\n",
              static_cast<unsigned long long>(metrics.datablocks_recovered));
  std::printf("  total confirmed        : %llu requests\n",
              static_cast<unsigned long long>(metrics.executed_requests));

  // Safety across the faults: position-wise log agreement among honest
  // replicas (1 crashed, 5 is the attacker).
  bool consistent = true;
  const auto reference = observer.confirmed_log();
  for (std::uint32_t id : {2u, 3u, 4u, 6u}) {
    for (const auto& [sn, digest] : cluster.replica(id).confirmed_log()) {
      const auto it = reference.find(sn);
      if (it != reference.end() && it->second != digest) consistent = false;
    }
  }
  std::printf("  safety (logs agree)    : %s\n", consistent ? "yes" : "NO (bug!)");
  std::printf("  new leader             : replica %u (view %u)\n",
              observer.view() % kReplicas, observer.view());
  return consistent && metrics.view_changes_completed >= 1 ? 0 : 1;
}
