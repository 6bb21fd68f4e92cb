// Cluster manifest: one small text file describing a real-wire deployment —
// which protocol core to run, its parameters, and every replica's listen
// address. The `leopard_node` daemon parses it (docs/DEPLOY.md documents the
// format); node::LoopbackCluster and the wire tests fill one in code.
//
//   # comments and blank lines are ignored
//   protocol leopard            # leopard | hotstuff | pbft
//   n 4
//   seed 7
//   payload_size 128
//   datablock_requests 2000     # Leopard α (requests)
//   bftblock_links 100          # Leopard τ
//   max_parallel_instances 100  # Leopard k
//   datablock_max_wait_ms 500
//   proposal_max_wait_ms 50
//   retrieval_timeout_ms 10
//   view_timeout_ms 4000
//   mempool_capacity 12000
//   batch_size 800              # baselines: requests per block
//   node 0 127.0.0.1:4100       # one line per replica id 0..n-1
//   node 1 127.0.0.1:4101
//   ...
//   proxy 3 127.0.0.1:5103      # optional: dial replica 3 via this address
//   peer_buffer_bytes 67108864  # optional: per-peer outbound buffer cap
//   shards 2                    # optional: parallel protocol instances
//   encode_workers 4            # optional: erasure-encode worker threads
//
// Unknown keys are rejected (a typo must not silently fall back to a
// default). Parsing throws util::ContractViolation with a line diagnostic.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "net/socket_env.hpp"
#include "protocol/factory.hpp"

namespace leopard::net {

struct Manifest {
  std::string protocol = "leopard";
  std::uint32_t n = 4;
  std::uint64_t seed = 7;
  std::uint32_t payload_size = 128;

  // Leopard parameters (§IV; defaults mirror core::LeopardConfig).
  std::uint32_t datablock_requests = 2000;
  std::uint32_t bftblock_links = 100;
  std::uint32_t max_parallel_instances = 100;
  sim::SimTime datablock_max_wait = 500 * sim::kMillisecond;
  sim::SimTime proposal_max_wait = 50 * sim::kMillisecond;
  sim::SimTime retrieval_timeout = 10 * sim::kMillisecond;
  sim::SimTime view_timeout = 4 * sim::kSecond;
  std::uint32_t mempool_capacity = 12000;

  // Baseline parameters.
  std::uint32_t batch_size = 800;

  /// Replica listen addresses, keyed by replica id (must cover 0..n-1).
  std::map<sim::NodeId, PeerAddr> nodes;

  /// Dial-address overrides: `proxy <id> <host:port>` makes THIS node reach
  /// replica <id> through that address (a chaos proxy / NAT hop) instead of
  /// its listen address. Listen addresses are unaffected, so per-node
  /// manifests can interpose a proxy on selected links only.
  std::map<sim::NodeId, PeerAddr> proxies;

  /// Per-peer outbound buffer cap (SocketEnvOptions::peer_buffer_limit).
  /// Lower it to make shedding observable under chaos-proxy bandwidth caps.
  std::uint64_t peer_buffer_bytes = 64u << 20;

  /// Parallel protocol instances multiplexed over the same connections
  /// (shard s rotates replica ids by s; see src/shard/). 1 = classic
  /// single-instance deployment, byte-compatible on the wire.
  std::uint32_t shards = 1;

  /// Worker threads for leader-side erasure-encode bursts and retrieval
  /// share encoding (0 = derive from hardware_concurrency, 1 = serial).
  std::uint32_t encode_workers = 1;

  /// Parses manifest text / a manifest file; throws util::ContractViolation
  /// with a line diagnostic on malformed or incomplete input.
  static Manifest parse(std::string_view text);
  static Manifest parse_file(const std::string& path);

  /// Threshold for the shared ThresholdScheme: 2f + 1.
  [[nodiscard]] std::uint32_t quorum() const { return 2 * ((n - 1) / 3) + 1; }

  /// The ProtocolSpec this manifest names (honest replicas only — byzantine
  /// behaviour is a simulation harness feature).
  [[nodiscard]] protocol::ProtocolSpec spec() const;

  /// SocketEnv options for replica `id`: listen on its manifest address and
  /// dial every lower-id replica (each pair shares one connection; the
  /// higher id dials, so a restarted replica re-establishes its own links).
  [[nodiscard]] SocketEnvOptions replica_env_options(sim::NodeId id) const;

  /// SocketEnv options for a client with transport id `self` (>= n): no
  /// listener, dial every replica.
  [[nodiscard]] SocketEnvOptions client_env_options(sim::NodeId self) const;

  /// The initial leader's replica id (view 1 for Leopard, fixed 0 for the
  /// baselines) — clients avoid it (Leopard) or must target it (baselines).
  [[nodiscard]] sim::NodeId initial_leader() const {
    return protocol == "leopard" ? 1 % n : 0;
  }

 private:
  /// The address this node should dial to reach `id` (proxy override or the
  /// replica's listen address).
  [[nodiscard]] const PeerAddr& dial_addr(sim::NodeId id) const;
};

}  // namespace leopard::net
