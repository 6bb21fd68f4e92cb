#include "harness/sim_cluster.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace leopard::harness {

std::uint32_t saturation_backlog(std::uint32_t datablock_requests) {
  return std::max<std::uint32_t>(3 * datablock_requests, 4000);
}

std::vector<ClientGroup> groups_per_replica(std::uint32_t n, sim::NodeId leader,
                                            const core::ClientConfig& cfg,
                                            std::uint64_t seed_base) {
  std::vector<ClientGroup> groups;
  for (std::uint32_t id = 0; id < n; ++id) {
    if (id != leader) groups.push_back(ClientGroup{cfg, id, leader, seed_base + id});
  }
  return groups;
}

std::function<void(protocol::ProtocolSpec&, sim::NodeId, std::uint32_t)> byzantine_replicas(
    std::vector<core::ByzantineSpec> byzantine) {
  return [byzantine = std::move(byzantine)](protocol::ProtocolSpec& spec, sim::NodeId id,
                                            std::uint32_t) {
    if (id < byzantine.size()) spec.byzantine = byzantine[id];
  };
}

SimCluster::SimCluster(SimClusterConfig cfg)
    : cfg_(std::move(cfg)), n_(cfg_.spec.n()), net_(sim_, cfg_.net) {
  util::expects(n_ >= 4, "simulated clusters require n >= 4");
  util::expects(cfg_.shards >= 1 && cfg_.shards <= shard::kMaxShards, "bad shard count");

  const std::uint32_t f = (n_ - 1) / 3;
  schemes_.reserve(cfg_.shards);
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    schemes_.emplace_back(n_, 2 * f + 1, cfg_.seed + s);
  }

  // --- Replica machines (node ids 0..n-1, in registration order) -----------
  for (std::uint32_t phys = 0; phys < n_; ++phys) {
    auto spec_for = [&, phys](std::uint32_t s) {
      auto spec = cfg_.spec;
      if (cfg_.mutate_spec) cfg_.mutate_spec(spec, phys, s);
      return spec;
    };
    auto node = std::make_unique<shard::ShardedSimNode>(net_, metrics_, spec_for, schemes_,
                                                        cfg_.shards, phys);
    if (cfg_.record) node->record();
    const auto id = net_.add_node(node.get());
    util::ensures(id == phys, "replica node ids must equal replica ids");
    if (cfg_.shards > 1) {
      // One CPU lane per hosted core (the machine runs one instance per
      // hardware core, like the threaded SocketEnv deployment); envelopes
      // demux to their shard's lane, bare payloads to shard 0's.
      net_.set_cpu_lanes(id, cfg_.shards, [](const sim::Payload& p) {
        const auto* env = dynamic_cast<const protocol::ShardEnvelope*>(&p);
        return env ? env->shard : 0u;
      });
    }
    nodes_.push_back(std::move(node));
  }

  // --- Client groups (unmetered aggregate sources) --------------------------
  for (const auto& g : cfg_.clients) {
    auto client = std::make_unique<shard::ShardedSimClient>(net_, metrics_, g.cfg, g.target, n_,
                                                            g.avoid, cfg_.shards, g.seed);
    if (cfg_.record) client->record();
    client->set_self_id(net_.add_node(client.get(), /*metered=*/false));
    clients_.push_back(std::move(client));
  }
}

void SimCluster::run_until(sim::SimTime t) {
  if (!started_) {
    net_.start_all();
    started_ = true;
  }
  sim_.run_until(t);
}

void SimCluster::run_for(double seconds) { run_until(sim_.now() + sim::from_seconds(seconds)); }

std::uint64_t SimCluster::client_acked() const {
  std::uint64_t sum = 0;
  for (const auto& c : clients_) sum += c->acked();
  return sum;
}

chaos::OracleResult SimCluster::check_sharded_invariants() const {
  chaos::OracleResult out;
  std::vector<std::vector<chaos::ExecRecord>> merged_streams;
  merged_streams.reserve(nodes_.size());
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const auto& node = *nodes_[i];
    const auto label = "replica " + std::to_string(i);
    const auto shard_streams = node.shard_streams();
    for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
      out.merge(chaos::check_monotonic_commit(shard_streams[s],
                                              label + " shard " + std::to_string(s)));
    }
    if (shard::reference_merge(shard_streams) != node.merged()) {
      out.violations.push_back(label +
                               ": merged stream diverges from the reference re-merge "
                               "of its shard streams");
    }
    merged_streams.push_back(node.merged());
  }
  out.merge(chaos::check_cross_replica_consistency(merged_streams));
  return out;
}

}  // namespace leopard::harness
