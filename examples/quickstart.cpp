// Quickstart: the smallest possible Leopard deployment — a 4-replica cluster
// (f = 1), three client groups, two seconds of simulated traffic. Shows how
// to wire the public API together and what the protocol produces: a growing
// log of confirmed BFTblocks, consistent across replicas, with client acks.
//
// Build & run:   cmake --build build && ./build/example_quickstart
#include <cstdio>

#include "harness/sim_cluster.hpp"

using namespace leopard;

int main() {
  constexpr std::uint32_t kReplicas = 4;  // n = 3f + 1 with f = 1

  // 1. The protocol: four Leopard replicas (sans-I/O protocol cores, each
  //    hosted by a SimEnv adapter), 2f+1 = 3 of 4 threshold signatures.
  core::LeopardConfig cfg;
  cfg.n = kReplicas;
  cfg.datablock_requests = 100;  // small batches: this is a demo, not a bench
  cfg.bftblock_links = 2;
  harness::SimClusterConfig cluster_cfg;
  cluster_cfg.spec.config = cfg;
  cluster_cfg.seed = 42;  // threshold-signature setup

  // 2. Clients submit to non-leader replicas (view 1's leader is replica 1).
  core::ClientConfig client_cfg;
  client_cfg.request_rate = 5000;  // requests/s to each replica
  client_cfg.payload_size = 128;
  cluster_cfg.clients = harness::groups_per_replica(kReplicas, /*leader=*/1, client_cfg,
                                                    /*seed_base=*/100);

  // 3. The simulation substrate (event clock + network with NIC/CPU models,
  //    defaults: 9.8 Gbps NICs, 250 us propagation) and a shared metrics sink.
  harness::SimCluster cluster(cluster_cfg);

  // 4. Run two seconds of cluster time.
  cluster.run_until(2 * sim::kSecond);
  const auto& metrics = cluster.metrics();

  // 5. What happened?
  std::printf("Leopard quickstart (n = %u, f = 1)\n", kReplicas);
  std::printf("  simulated time        : %.2f s\n", sim::to_seconds(cluster.sim().now()));
  std::printf("  requests confirmed    : %llu\n",
              static_cast<unsigned long long>(metrics.executed_requests));
  std::printf("  requests acknowledged : %llu\n",
              static_cast<unsigned long long>(metrics.acked_requests));
  std::printf("  mean latency          : %.1f ms\n", metrics.mean_latency_sec() * 1e3);

  std::printf("\nPer-replica view of the log:\n");
  for (std::uint32_t id = 0; id < kReplicas; ++id) {
    const auto& replica = cluster.replica(id);
    std::printf("  replica %u: executed through sn=%llu, state digest %s\n",
                replica.id(),
                static_cast<unsigned long long>(replica.executed_through()),
                replica.state_digest().short_hex().c_str());
  }

  // Safety check: every pair of replicas agrees on every confirmed position.
  const auto& reference = cluster.replica(0).confirmed_log();
  bool consistent = true;
  for (std::uint32_t id = 0; id < kReplicas; ++id) {
    for (const auto& [sn, digest] : cluster.replica(id).confirmed_log()) {
      const auto it = reference.find(sn);
      if (it != reference.end() && it->second != digest) consistent = false;
    }
  }
  std::printf("\nlogs consistent across replicas: %s\n", consistent ? "yes" : "NO (bug!)");
  return consistent ? 0 : 1;
}
