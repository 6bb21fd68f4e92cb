// SimCluster builds every simulated cluster: n physical replica
// machines, each hosting one core per shard (shard::ShardedSimNode, ids
// rotated so each shard's leader lands on a different machine), per-shard
// threshold schemes with domain-separated seeds, client groups split across
// shards by request index, and per-node sequencers merging the shard commit
// streams. An unsharded cluster is the one-shard case: its network sees one
// node per replica and per client group, registered in that order, with a
// single CPU lane each.
//
// run_experiment, bench_shard, the test suites and the examples all build
// their clusters here, so the numbers they report describe one system.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "chaos/oracles.hpp"
#include "core/replica.hpp"
#include "protocol/factory.hpp"
#include "shard/sim_shard.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace leopard::harness {

/// Standing client backlog that pins a Leopard mempool at capacity from
/// t = 0, so every datablock fills to α; the saturation runs size their
/// mempools to it too.
[[nodiscard]] std::uint32_t saturation_backlog(std::uint32_t datablock_requests);

/// One client group: a LeopardClient core submitting to core-level replica
/// `target`, re-submitting around `avoid` (the initial leader).
struct ClientGroup {
  core::ClientConfig cfg;
  sim::NodeId target = 0;
  sim::NodeId avoid = 0;
  std::uint64_t seed = 0;
};

/// One group per replica but `leader`, each running `cfg` against its own
/// replica with seed `seed_base + replica` (clients submit to non-leaders).
[[nodiscard]] std::vector<ClientGroup> groups_per_replica(std::uint32_t n, sim::NodeId leader,
                                                          const core::ClientConfig& cfg,
                                                          std::uint64_t seed_base);

struct SimClusterConfig {
  /// Every core's spec; n comes from it.
  protocol::ProtocolSpec spec;
  /// Per-core hook: adjust the spec of core (replica machine, shard), e.g.
  /// make a node byzantine in every shard, or in one.
  std::function<void(protocol::ProtocolSpec& spec, sim::NodeId replica, std::uint32_t shard)>
      mutate_spec;
  std::uint32_t shards = 1;
  sim::NetworkConfig net;
  /// Threshold-scheme seed, split per shard by shard::shard_schemes.
  std::uint64_t seed = 1;
  /// Registered after the replicas, in order.
  std::vector<ClientGroup> clients;
  /// Record every hosted core's Trace and each replica's merged stream.
  bool record = false;
};

/// A mutate_spec hook giving replica i the behaviour `byzantine[i]` in every
/// shard; replicas past the end of the list stay honest.
[[nodiscard]] std::function<void(protocol::ProtocolSpec&, sim::NodeId, std::uint32_t)>
byzantine_replicas(std::vector<core::ByzantineSpec> byzantine);

class SimCluster {
 public:
  explicit SimCluster(SimClusterConfig cfg);

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  /// Advances simulated time to `t` / by `seconds` (starts all nodes on
  /// the first call, so nodes added to net() before then start too).
  void run_until(sim::SimTime t);
  void run_for(double seconds);

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] sim::Network& net() { return net_; }
  [[nodiscard]] core::ProtocolMetrics& metrics() { return metrics_; }
  [[nodiscard]] const SimClusterConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint32_t n() const { return n_; }
  /// Shard 0's threshold scheme.
  [[nodiscard]] const crypto::ThresholdScheme& scheme() const { return schemes_.front(); }

  [[nodiscard]] shard::ShardedSimNode& node(std::uint32_t i) const { return *nodes_.at(i); }
  /// Typed access to replica `i`'s core of `shard`; aborts on a type mismatch.
  template <typename T = core::LeopardReplica>
  [[nodiscard]] T& replica(std::uint32_t i, std::uint32_t shard = 0) const {
    return node(i).core_as<T>(shard);
  }
  /// Replica `i`'s recorded trace of `shard` (requires `record`).
  [[nodiscard]] const protocol::Trace& trace(std::uint32_t i, std::uint32_t shard = 0) const {
    return node(i).trace(shard);
  }
  [[nodiscard]] shard::ShardedSimClient& client(std::size_t i) const { return *clients_.at(i); }
  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
  [[nodiscard]] std::uint64_t client_acked() const;

  /// The sharded safety oracle (requires `record`): per-node the merged
  /// stream must equal the reference re-merge of its shard streams; per
  /// shard every stream must be monotonic; across replicas the merged
  /// streams must be monotonic and conflict-free at shared global
  /// coordinates.
  [[nodiscard]] chaos::OracleResult check_sharded_invariants() const;

 private:
  SimClusterConfig cfg_;
  std::uint32_t n_;
  sim::Simulator sim_;
  sim::Network net_;
  std::vector<crypto::ThresholdScheme> schemes_;  // one per shard
  core::ProtocolMetrics metrics_;
  std::vector<std::unique_ptr<shard::ShardedSimNode>> nodes_;
  std::vector<std::unique_ptr<shard::ShardedSimClient>> clients_;
  bool started_ = false;
};

}  // namespace leopard::harness
