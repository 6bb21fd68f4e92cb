#include "sim/network.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace leopard::sim {

Network::Network(Simulator& sim, NetworkConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)), traffic_(0) {}

NodeId Network::add_node(Node* node, bool metered) {
  util::expects(node != nullptr, "add_node: null node");
  const auto id = static_cast<NodeId>(states_.size());
  NodeState st;
  st.node = node;
  st.metered = metered;
  st.out_bps = cfg_.default_out_bps;
  st.in_bps = cfg_.default_in_bps;
  st.shared_duplex = cfg_.shared_duplex;
  states_.push_back(st);
  nodes_.push_back(node);
  traffic_ = TrafficAccountant(states_.size());
  return id;
}

void Network::set_nic(NodeId id, double out_bps, double in_bps, bool shared_duplex) {
  util::expects(id < states_.size(), "set_nic: bad node id");
  util::expects(out_bps > 0 && in_bps > 0, "set_nic: capacities must be positive");
  states_[id].out_bps = out_bps;
  states_[id].in_bps = in_bps;
  states_[id].shared_duplex = shared_duplex;
}

void Network::set_cpu_lanes(NodeId id, std::uint32_t lanes, LaneSelector selector) {
  util::expects(id < states_.size(), "set_cpu_lanes: bad node id");
  util::expects(lanes >= 1, "set_cpu_lanes: need at least one lane");
  auto& st = states_[id];
  for (const auto& lane : st.lanes) {
    util::expects(inbox_empty(lane) && !lane.dispatch_busy,
                  "set_cpu_lanes: reshaping a node with traffic in flight");
  }
  st.lanes.assign(lanes, CpuLane{});
  st.active_lane = 0;
  st.lane_selector = std::move(selector);
}

void Network::set_active_lane(NodeId id, std::uint32_t lane) {
  util::expects(id < states_.size(), "set_active_lane: bad node id");
  auto& st = states_[id];
  st.active_lane = std::min<std::uint32_t>(lane, static_cast<std::uint32_t>(st.lanes.size()) - 1);
}

void Network::start_all() {
  for (auto* n : nodes_) n->start();
}

SimTime Network::extra_delay(NodeId from, NodeId to) const {
  if (sim_.now() >= cfg_.gst || !cfg_.pre_gst_extra_delay) return 0;
  return std::max<SimTime>(0, cfg_.pre_gst_extra_delay(from, to, sim_.now()));
}

void Network::send(NodeId from, NodeId to, PayloadPtr msg) {
  util::expects(from < states_.size() && to < states_.size(), "send: bad node id");
  util::expects(msg != nullptr, "send: null payload");
  util::expects(from != to, "send: self-delivery not modelled");

  if (filter_ && !filter_(from, to, *msg)) return;  // scripted drop (tests)

  const std::size_t size = msg->wire_size() + cfg_.frame_overhead_bytes;
  auto& s = states_[from];
  SimTime depart = sim_.now();

  if (s.metered) {
    traffic_.record(from, Direction::kSend, msg->component(), size);
    // Sender CPU: serialize/syscall, on the sending core's lane.
    const SimTime cpu_cost =
        cfg_.costs.send_per_msg + cfg_.costs.per_bytes(cfg_.costs.send_per_byte_ns, size);
    auto& lane = s.lanes[s.active_lane];
    lane.cpu_busy_until = std::max(lane.cpu_busy_until, sim_.now()) + cpu_cost;
    // Egress NIC serialization (shared duplex uses the tx timeline for both
    // directions).
    auto& link_busy = s.tx_busy_until;
    const SimTime tx_start = std::max(lane.cpu_busy_until, link_busy);
    link_busy = tx_start + transmission_delay(size, s.out_bps);
    if (s.shared_duplex) s.rx_busy_until = link_busy;
    depart = link_busy;
  }

  const SimTime arrival = depart + cfg_.propagation_delay + extra_delay(from, to);
  auto deliver = [this, from, to, msg = std::move(msg), size] { arrive(from, to, msg, size); };
  // The hop must stay allocation-free: the delivery closure has to fit the
  // event queue's inline callback storage.
  static_assert(sizeof(deliver) <= EventCallback::kInlineCapacity);
  sim_.schedule_at(arrival, std::move(deliver));
}

void Network::arrive(NodeId from, NodeId to, const PayloadPtr& msg, std::size_t size) {
  auto& r = states_[to];
  if (!r.metered) {
    // Aggregate client endpoints: no NIC/CPU model, deliver directly.
    sim_.schedule_at(sim_.now(), [this, from, to, msg] { nodes_[to]->on_message(from, msg); });
    return;
  }

  traffic_.record(to, Direction::kReceive, msg->component(), size);

  // Ingress NIC serialization.
  auto& link_busy = r.shared_duplex ? r.tx_busy_until : r.rx_busy_until;
  const SimTime rx_start = std::max(sim_.now(), link_busy);
  link_busy = rx_start + transmission_delay(size, r.in_bps);
  if (r.shared_duplex) r.rx_busy_until = link_busy;
  const SimTime rx_done = link_busy;

  // Demux to the receiving core's lane (single-lane nodes skip the selector).
  const auto lane_idx =
      r.lane_selector ? std::min<std::uint32_t>(
                            r.lane_selector(*msg),
                            static_cast<std::uint32_t>(r.lanes.size()) - 1)
                      : 0;
  inbox_push(r.lanes[lane_idx], PendingDelivery{from, msg, rx_done, size});
  maybe_dispatch(to, lane_idx);
}

void Network::inbox_push(CpuLane& st, PendingDelivery&& d) {
  std::uint32_t idx;
  if (inbox_free_ != kNilSlot) {
    idx = inbox_free_;
    inbox_free_ = inbox_slab_[idx].next;
  } else {
    idx = static_cast<std::uint32_t>(inbox_slab_.size());
    inbox_slab_.emplace_back();  // grows to the high-water mark, then recycles
  }
  auto& slot = inbox_slab_[idx];
  slot.d = std::move(d);
  slot.next = kNilSlot;
  if (st.inbox_tail == kNilSlot) {
    st.inbox_head = idx;
  } else {
    inbox_slab_[st.inbox_tail].next = idx;
  }
  st.inbox_tail = idx;
}

Network::PendingDelivery Network::inbox_pop(CpuLane& st) {
  util::expects(st.inbox_head != kNilSlot, "dispatch with empty inbox");
  const std::uint32_t idx = st.inbox_head;
  auto& slot = inbox_slab_[idx];
  st.inbox_head = slot.next;
  if (st.inbox_head == kNilSlot) st.inbox_tail = kNilSlot;
  PendingDelivery d = std::move(slot.d);
  slot.d.msg.reset();  // drop the payload ref while the slot idles in the free list
  slot.next = inbox_free_;
  inbox_free_ = idx;
  return d;
}

void Network::maybe_dispatch(NodeId to, std::uint32_t lane_idx) {
  auto& lane = states_[to].lanes[lane_idx];
  if (lane.dispatch_busy || inbox_empty(lane)) return;
  lane.dispatch_busy = true;
  PendingDelivery d = inbox_pop(lane);

  // Receiver CPU: deserialize + dispatch, reserved on the lane as soon as
  // the message heads its inbox. Additional handler costs (crypto,
  // bookkeeping) are charged by the handler via charge_cpu and delay the
  // dispatch of everything still queued behind it on this lane.
  const SimTime cpu_cost =
      cfg_.costs.recv_per_msg + cfg_.costs.per_bytes(cfg_.costs.recv_per_byte_ns, d.size);
  lane.cpu_busy_until = std::max({sim_.now(), d.ready_at, lane.cpu_busy_until}) + cpu_cost;

  auto dispatch = [this, to, lane_idx, from = d.from, msg = std::move(d.msg)] {
    // Pin the lane so handler charges and sends bill the dispatching core.
    states_[to].active_lane = lane_idx;
    nodes_[to]->on_message(from, msg);
    states_[to].lanes[lane_idx].dispatch_busy = false;
    maybe_dispatch(to, lane_idx);
  };
  static_assert(sizeof(dispatch) <= EventCallback::kInlineCapacity);
  sim_.schedule_at(lane.cpu_busy_until, std::move(dispatch));
}

void Network::multicast(NodeId from, std::span<const NodeId> targets, const PayloadPtr& msg) {
  for (const auto to : targets) {
    if (to == from) continue;
    send(from, to, msg);
  }
}

void Network::charge_cpu(NodeId id, SimTime cost) {
  util::expects(id < states_.size(), "charge_cpu: bad node id");
  auto& s = states_[id];
  if (!s.metered || cost <= 0) return;
  auto& lane = s.lanes[s.active_lane];
  lane.cpu_busy_until = std::max(lane.cpu_busy_until, sim_.now()) + cost;
}

}  // namespace leopard::sim
