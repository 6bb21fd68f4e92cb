// Sharded simulation hosting: S unmodified sans-I/O cores per physical sim
// node, multiplexed over the node's single metered NIC with one CPU lane
// per core (the machine runs one instance per hardware core) — the
// simulator twin of the SocketEnv instance registry and its per-instance
// threads. Every hosted core sits behind its own protocol::SimEnv, which
// applies the shard's id rotation, envelope wrap and lane pinning (see
// sim_env.hpp); the host only demuxes inbound envelopes to the right env.
// An unsharded node is the one-shard case.
//
// Ordering. Each replica node feeds its S per-shard Execute streams through
// a shard::Sequencer; the merged global stream (and its fold digest) is
// what reports, durability, and cross-replica oracles consume. The
// Sequencer decides when the merge needs a filler and builds it; the node
// only runs the stall tick and injects that filler into its local core of
// the shard the Sequencer names (see sequencer.hpp for the liveness
// argument).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "chaos/oracles.hpp"
#include "core/client.hpp"
#include "core/metrics.hpp"
#include "protocol/factory.hpp"
#include "protocol/replay.hpp"
#include "shard/sequencer.hpp"
#include "sim/network.hpp"

namespace leopard::shard {

/// Deterministic reference re-merge of per-shard Execute streams into the
/// global stream — an independent reimplementation of the Sequencer rule
/// (round-robin by sseq, slot closed by proof sseq > q, incremental
/// emission at the parked cursor) used as the merge oracle: Sequencer
/// output and this function must agree record-for-record.
[[nodiscard]] std::vector<chaos::ExecRecord> reference_merge(
    const std::vector<std::vector<chaos::ExecRecord>>& shard_streams);

/// One physical sim machine hosting one core per shard, each behind its own
/// SimEnv. Envelopes demux to their shard's env, bare payloads to shard 0's.
class SimHost : public sim::Node {
 public:
  // -- sim::Node -------------------------------------------------------------
  void start() override;
  void on_message(sim::NodeId from, const sim::PayloadPtr& msg) override;

  /// Records every hosted core's events and actions into its own Trace.
  /// Call before the simulation starts.
  void record();
  /// The recorded trace of the shard-s core (requires record()).
  [[nodiscard]] const protocol::Trace& trace(std::uint32_t shard) const;

 protected:
  explicit SimHost(std::uint32_t shards);
  [[nodiscard]] bool recording() const { return !traces_.empty(); }

  /// Envs and cores by shard; a client host leaves an idle shard's null.
  std::vector<std::unique_ptr<protocol::SimEnv>> envs_;
  std::vector<std::unique_ptr<protocol::Protocol>> cores_;

 private:
  std::vector<protocol::Trace> traces_;  // by shard, once recording
};

/// One physical replica machine hosting core (phys - s) mod n of every
/// shard s, plus the sequencer merging their commit streams.
class ShardedSimNode final : public SimHost {
 public:
  /// `spec_for(shard)` builds the per-shard core spec (byzantine hooks for
  /// chaos live here); `schemes[shard]` is that shard's threshold scheme.
  ShardedSimNode(sim::Network& net, core::ProtocolMetrics& metrics,
                 const std::function<protocol::ProtocolSpec(std::uint32_t shard)>& spec_for,
                 const std::vector<crypto::ThresholdScheme>& schemes, std::uint32_t shards,
                 sim::NodeId phys_id);

  void start() override;

  /// Merged global Execute stream (chaos-oracle form: exec.seq/ordinal are
  /// the global coordinates). Kept only while recording.
  [[nodiscard]] const std::vector<chaos::ExecRecord>& merged() const { return merged_; }
  /// Shard-local Execute streams, read off the recorded traces, for the
  /// merge oracle (recomputing the global stream from these must reproduce
  /// `merged()` exactly).
  [[nodiscard]] std::vector<std::vector<chaos::ExecRecord>> shard_streams() const;
  [[nodiscard]] std::uint64_t noops_injected() const { return sequencer_.noops_injected(); }

  /// Typed access to the shard-s core.
  template <typename T>
  [[nodiscard]] T& core_as(std::uint32_t shard) const {
    return dynamic_cast<T&>(*cores_.at(shard));
  }

  /// Injects one request straight into the shard-s core on this machine
  /// (tests and chaos scenarios drive one shard without a client). The
  /// request must use a no-op pseudo-client id so its acks die at the env
  /// boundary instead of targeting a nonexistent sim node.
  void inject_local_request(std::uint32_t shard, proto::Request req);

 private:
  void stall_tick();

  sim::Network& net_;
  sim::NodeId phys_;
  std::uint32_t shards_;
  Sequencer sequencer_;
  std::vector<chaos::ExecRecord> merged_;
  sim::EventHandle stall_event_;
};

/// One client group split into sub-clients (split_client) sharing the
/// group's node id, so the offered load hash-partitions across shards
/// exactly like the TCP client. Acks demux by envelope shard, so per-shard
/// seq spaces may overlap without protocol-level collision.
class ShardedSimClient final : public SimHost {
 public:
  /// `cfg` describes the WHOLE group. `target` is the core-level replica the
  /// group submits to (rotation spreads the physical destination per shard).
  ShardedSimClient(sim::Network& net, core::ProtocolMetrics& metrics,
                   const core::ClientConfig& cfg, sim::NodeId target,
                   std::uint32_t replica_count, sim::NodeId avoid, std::uint32_t shards,
                   std::uint64_t seed);

  /// Group node id (assigned by Network::add_node) — the client_id every
  /// sub-client stamps on its requests.
  void set_self_id(sim::NodeId id);

  [[nodiscard]] std::uint64_t submitted() const;
  [[nodiscard]] std::uint64_t acked() const;
  [[nodiscard]] bool done() const;

 private:
  std::vector<core::LeopardClient*> subs_;  // the hosted cores, active shards only
};

}  // namespace leopard::shard
