// Generic protocol construction: one spec type covering every state machine
// in the repo, so harnesses, fixtures, and examples build clusters without
// naming concrete replica classes — adding a protocol (or a transport) no
// longer touches the simulator or the experiment drivers.
#pragma once

#include <memory>
#include <variant>

#include "baselines/hotstuff.hpp"
#include "baselines/pbft.hpp"
#include "core/byzantine.hpp"
#include "core/client.hpp"
#include "core/config.hpp"
#include "core/replica.hpp"
#include "protocol/sim_env.hpp"

namespace leopard::protocol {

/// Which core `make_protocol` builds, with its per-protocol configuration.
struct ProtocolSpec {
  std::variant<core::LeopardConfig, baselines::HotStuffConfig, baselines::PbftConfig> config;
  core::ByzantineSpec byzantine;  // honoured by Leopard; baselines are honest-only

  [[nodiscard]] std::uint32_t n() const;
};

/// Builds the protocol core named by `spec` for replica `id`.
std::unique_ptr<Protocol> make_protocol(const ProtocolSpec& spec,
                                        const crypto::ThresholdScheme& ts,
                                        proto::ReplicaId id);

/// A protocol core bound to its simulator adapter, for code that wires a
/// network by hand (clusters come from harness::SimCluster). Construction
/// order matters for the network-id invariant (replica ids == node ids), so
/// use make_sim_replica instead of wiring the pieces by hand.
struct SimReplica {
  std::unique_ptr<Protocol> core;
  std::unique_ptr<SimEnv> env;

  /// Typed access for tests that inspect protocol state; aborts on mismatch.
  template <typename T>
  [[nodiscard]] T& as() const {
    return dynamic_cast<T&>(*core);
  }
};

/// Builds the core, wraps it in a SimEnv, and registers it with `net`
/// (asserting the node id equals the replica id).
SimReplica make_sim_replica(sim::Network& net, core::ProtocolMetrics& metrics,
                            const ProtocolSpec& spec, const crypto::ThresholdScheme& ts,
                            proto::ReplicaId id);

/// A client core bound to its simulator adapter (clients are unmetered nodes
/// whose env-level id is assigned by the network at registration), for a
/// client driven against stand-in replicas.
struct SimClient {
  std::unique_ptr<core::LeopardClient> core;
  std::unique_ptr<SimEnv> env;
};

/// Builds a LeopardClient core, wraps it in a SimEnv, registers it with
/// `net` as an unmetered node, and wires the assigned node id into the core.
SimClient make_sim_client(sim::Network& net, core::ProtocolMetrics& metrics,
                          const core::ClientConfig& cfg, sim::NodeId target,
                          std::uint32_t replica_count, sim::NodeId avoid,
                          std::uint64_t seed);

}  // namespace leopard::protocol
