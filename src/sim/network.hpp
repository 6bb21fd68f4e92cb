// Simulated point-to-point authenticated network with per-node NIC and CPU
// queues. This is the substitution for the paper's EC2 datacenter deployment
// (see DESIGN.md §2): throughput emerges from which resource saturates first.
//
// Message pipeline (metered sender/receiver):
//   sender CPU (serialize)  → egress NIC (size / out_bps)
//   → propagation (+ adversarial pre-GST extra delay)
//   → ingress NIC (size / in_bps) → receiver CPU → Node::on_message
//
// A lane dispatches one message at a time. When a message reaches the head
// of its lane's inbox it reserves its receive-CPU slot at once, from
// max(now, ingress done, lane busy-until), and its handler is one event at
// the slot's end. Work charged on the lane after that (a timer's, a local
// injection's) queues behind the reserved slot, even while the message's
// ingress is still in flight.
//
// All queues are FIFO single-server timelines ("busy-until" clocks). With
// shared-duplex NICs (the NetEm-throttled configuration of Fig. 10) egress
// and ingress serialize on a single link timeline, matching §V's accounting
// of send+receive against one capacity C.
//
// CPU lanes. A node defaults to ONE CPU timeline (a single-core machine —
// the paper's per-replica accounting). A multi-core machine hosting several
// protocol cores (sharding: one instance per hardware core, like the
// threaded SocketEnv instances) registers N lanes via set_cpu_lanes: each
// lane is an independent busy-until timeline with its own dispatch FIFO,
// while the NIC timelines stay shared — cores parallelize compute, not the
// wire. A per-node selector routes each arriving payload to its lane;
// handler charges (charge_cpu) and sender-side serialization costs go to
// the node's *active* lane, pinned automatically during message dispatch
// and explicitly (set_active_lane) by timer/injection entry points.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/message.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"

namespace leopard::sim {

/// A protocol participant. Implementations register with the Network and
/// receive messages through on_message; timers are plain Simulator events.
class Node {
 public:
  virtual ~Node() = default;

  /// Called once when the simulation starts (after all nodes registered).
  virtual void start() {}

  /// Delivery of a message from `from`. The network guarantees authenticated,
  /// reliable, FIFO-per-link delivery (§III-A model).
  virtual void on_message(NodeId from, const PayloadPtr& msg) = 0;
};

struct NetworkConfig {
  double default_out_bps = 9.8e9;  // c5.xlarge TCP bandwidth (paper §VI)
  double default_in_bps = 9.8e9;
  bool shared_duplex = false;      // true under NetEm-style throttling
  SimTime propagation_delay = 250 * kMicrosecond;  // intra-datacenter RTT/2
  std::size_t frame_overhead_bytes = 66;           // Ethernet + IP + TCP
  CostModel costs;

  /// Global stabilization time: before `gst`, `pre_gst_extra_delay` (if set)
  /// adds adversarial delay to every link. After GST, delays are bounded by
  /// propagation + queueing, matching the partial-synchrony model.
  SimTime gst = 0;
  std::function<SimTime(NodeId from, NodeId to, SimTime now)> pre_gst_extra_delay;
};

class Network {
 public:
  Network(Simulator& sim, NetworkConfig cfg);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node; `metered = false` for aggregate client sources whose
  /// own NIC/CPU are not modelled (their traffic still meters the peer side).
  NodeId add_node(Node* node, bool metered = true);

  /// Overrides the NIC of one node (e.g., a throttled replica).
  void set_nic(NodeId id, double out_bps, double in_bps, bool shared_duplex);

  /// Routes an arriving payload to the CPU lane (core) that handles it.
  /// Return values clamp to the node's lane count.
  using LaneSelector = std::function<std::uint32_t(const Payload&)>;

  /// Models `id` as a multi-core machine: `lanes` independent CPU timelines
  /// behind the shared NIC, one per hosted protocol core. Call before the
  /// simulation starts; without it a node has one lane and behaves exactly
  /// like the original single-CPU model.
  void set_cpu_lanes(NodeId id, std::uint32_t lanes, LaneSelector selector);

  /// Pins subsequent CPU charges at `id` (charge_cpu, sender-side send
  /// costs) to `lane`. Message dispatch pins the receiving lane
  /// automatically; code entering a core from OUTSIDE dispatch — timers,
  /// local request injection — must pin its core's lane first.
  void set_active_lane(NodeId id, std::uint32_t lane);

  /// Calls start() on every registered node.
  void start_all();

  /// Sends `msg` from `from` to `to` through the full pipeline.
  void send(NodeId from, NodeId to, PayloadPtr msg);

  /// Sends to every id in `targets` except `from` (the paper's "multicast to
  /// all other replicas"): the sender pays one CPU+egress serialization per
  /// copy, which is exactly the leader-bottleneck effect under study.
  void multicast(NodeId from, std::span<const NodeId> targets, const PayloadPtr& msg);

  /// Extends `id`'s active CPU lane (crypto, execution, bookkeeping).
  void charge_cpu(NodeId id, SimTime cost);

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] TrafficAccountant& traffic() { return traffic_; }
  [[nodiscard]] const TrafficAccountant& traffic() const { return traffic_; }
  [[nodiscard]] const NetworkConfig& config() const { return cfg_; }
  [[nodiscard]] const CostModel& costs() const { return cfg_.costs; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Test hook: return false to drop a message (models scripted partitions;
  /// honest-path code never uses this).
  using LinkFilter = std::function<bool(NodeId from, NodeId to, const Payload&)>;
  void set_link_filter(LinkFilter filter) { filter_ = std::move(filter); }

 private:
  struct PendingDelivery {
    NodeId from = 0;
    PayloadPtr msg;
    SimTime ready_at = 0;  // ingress serialization finished
    std::size_t size = 0;
  };

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;

  /// One core's compute timeline plus its receiver-side dispatch queue:
  /// handlers on a lane run strictly one at a time, and costs charged by a
  /// handler (charge_cpu) delay everything behind it ON THAT LANE only.
  /// The FIFO is an intrusive list of slots in the network-wide inbox slab
  /// (EventQueue's slab/free-list pattern): per-node std::deques cycled a
  /// chunk allocation/free per ~64 messages each at steady state, which at
  /// n=600 is pure allocator churn — the slab grows to the high-water mark
  /// once and then recycles.
  struct CpuLane {
    SimTime cpu_busy_until = 0;
    std::uint32_t inbox_head = kNilSlot;
    std::uint32_t inbox_tail = kNilSlot;
    bool dispatch_busy = false;  // a popped message's handler is scheduled
  };

  struct NodeState {
    Node* node = nullptr;
    bool metered = true;
    double out_bps = 0;
    double in_bps = 0;
    bool shared_duplex = false;
    SimTime tx_busy_until = 0;
    SimTime rx_busy_until = 0;  // aliases tx under shared duplex
    std::vector<CpuLane> lanes = std::vector<CpuLane>(1);
    std::uint32_t active_lane = 0;
    LaneSelector lane_selector;
  };

  /// One slab slot: a pending delivery plus its FIFO link. Free slots chain
  /// through `next` from free_head_.
  struct InboxSlot {
    PendingDelivery d;
    std::uint32_t next = kNilSlot;
  };

  void inbox_push(CpuLane& lane, PendingDelivery&& d);
  PendingDelivery inbox_pop(CpuLane& lane);
  [[nodiscard]] static bool inbox_empty(const CpuLane& lane) {
    return lane.inbox_head == kNilSlot;
  }

  void arrive(NodeId from, NodeId to, const PayloadPtr& msg, std::size_t size);
  /// Pops the lane's inbox head (when no handler runs there), reserves its
  /// receive CPU and schedules its handler: one heap event per receive.
  void maybe_dispatch(NodeId to, std::uint32_t lane_idx);
  [[nodiscard]] SimTime extra_delay(NodeId from, NodeId to) const;

  Simulator& sim_;
  NetworkConfig cfg_;
  std::vector<NodeState> states_;
  std::vector<Node*> nodes_;
  std::vector<InboxSlot> inbox_slab_;     // shared by every node's FIFO
  std::uint32_t inbox_free_ = kNilSlot;   // head of the free-slot chain
  TrafficAccountant traffic_;
  LinkFilter filter_;
};

}  // namespace leopard::sim
