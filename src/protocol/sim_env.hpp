// SimEnv: the discrete-event-simulator adapter for sans-I/O protocol cores,
// and the simulator's only `protocol::Env`.
//
// Implements `sim::Node` on the network side and `protocol::Env` on the core
// side: deliveries/timers become typed events into the attached Protocol, and
// the core's actions translate back into the metered network and event queue
// (`Network::send`/`multicast`/`charge_cpu`).
//
// Placement. An env hosts the core of shard `shard` of `shards` on the
// physical node set by `set_node_id`. Shard s rotates the replica-id space by
// s: core-level replica c lives on physical node (c + s) mod n, so every
// shard sees a full n-replica cluster while each shard's leader (core id 1
// mod n) lands on a different machine. Ids >= n (clients) pass through
// unrotated; sends to no-op pseudo-clients (>= shard::kNoopClientBase) are
// dropped here, since the simulator aborts on unknown destinations and
// their acks have no consumer. Shard s > 0 traffic rides a ShardEnvelope;
// shard 0 travels bare. Timer and injection entries pin the core's CPU lane
// (lane = shard). Shard 0 of 1, the default, is the identity on all of this:
// a standalone SimEnv registered with `add_node` is an unsharded replica.
//
// Optionally records the full event/action stream into a `Trace`
// (replay.hpp) for determinism checks and offline replay.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/metrics.hpp"
#include "protocol/protocol.hpp"
#include "sim/network.hpp"

namespace leopard::protocol {

class Trace;

/// Applies one MetricsUpdate to the shared metrics object, honouring the
/// per-metric semantics documented on `Metric`.
void apply_metrics_update(core::ProtocolMetrics& metrics, const MetricsUpdate& update);

/// Sim twin of the kShardFrame wire envelope: tags an inner payload with the
/// shard (instance) id it is addressed to. Bandwidth accounting delegates
/// to the inner payload so Table-III component breakdowns stay honest.
struct ShardEnvelope final : sim::Payload {
  std::uint32_t shard = 0;
  sim::PayloadPtr inner;

  ShardEnvelope(std::uint32_t s, sim::PayloadPtr p) : shard(s), inner(std::move(p)) {}
  [[nodiscard]] std::size_t wire_size() const override { return inner->wire_size() + 4; }
  [[nodiscard]] sim::Component component() const override { return inner->component(); }
};

class SimEnv final : public Env, public sim::Node {
 public:
  /// `n_replicas` defines the Broadcast target set (replica ids 0..n-1).
  SimEnv(sim::Network& net, core::ProtocolMetrics& metrics, std::uint32_t n_replicas,
         std::uint32_t shard = 0, std::uint32_t shards = 1);

  /// Binds the protocol core this env hosts. Must be called before the
  /// simulation starts; the env does not own the core.
  void attach(Protocol& protocol);

  /// Physical network node id of this core; must be set right after add_node.
  void set_node_id(NodeId id) { id_ = id; }

  /// Application observer for Execute actions (e.g. a replicated KV store).
  using ExecuteObserver = std::function<void(const Execute&)>;
  void set_execute_observer(ExecuteObserver obs) { execute_observer_ = std::move(obs); }

  /// Starts (or stops, with nullptr) recording events and actions into
  /// `trace`. The recorder must outlive the run.
  void set_recorder(Trace* trace) { trace_ = trace; }

  /// Hands a client request straight to the core, outside network dispatch
  /// (a host's local no-op injection). `from` is a core-level id.
  void inject_request(NodeId from, std::shared_ptr<const proto::ClientRequestMsg> msg);

  // -- Env ------------------------------------------------------------------
  [[nodiscard]] sim::SimTime now() const override { return net_.sim().now(); }
  [[nodiscard]] const sim::CostModel& costs() const override { return net_.costs(); }
  void apply(Action action) override;

  // -- sim::Node ------------------------------------------------------------
  void start() override;
  /// One inbound payload from physical node `from`, already unwrapped.
  void on_message(sim::NodeId from, const sim::PayloadPtr& msg) override;

 private:
  void fire_timer(TimerToken token);
  void deliver_request(NodeId from, std::shared_ptr<const proto::ClientRequestMsg> msg);
  void begin_step(Event event);
  void record_action(const Action& action);
  [[nodiscard]] NodeId rotate_out(NodeId core_id) const;
  [[nodiscard]] NodeId rotate_in(NodeId phys_id) const;
  [[nodiscard]] sim::PayloadPtr wrap(sim::PayloadPtr payload) const;

  sim::Network& net_;
  core::ProtocolMetrics& metrics_;
  Protocol* protocol_ = nullptr;
  NodeId id_ = 0;
  std::uint32_t n_;
  std::uint32_t shard_;
  std::vector<NodeId> replica_ids_;  // 0..n-1, the Broadcast target set
  std::unordered_map<TimerToken, sim::EventHandle> timers_;
  ExecuteObserver execute_observer_;
  Trace* trace_ = nullptr;
};

}  // namespace leopard::protocol
