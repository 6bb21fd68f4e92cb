// Simulator substrate: event ordering, cancellation, NIC serialization math,
// shared-duplex coupling, CPU queueing, GST delays, traffic accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

namespace ls = leopard::sim;

namespace {

/// Minimal payload with a fixed size.
struct TestPayload final : ls::Payload {
  std::size_t size;
  ls::Component comp;
  explicit TestPayload(std::size_t s, ls::Component c = ls::Component::kMisc)
      : size(s), comp(c) {}
  [[nodiscard]] std::size_t wire_size() const override { return size; }
  [[nodiscard]] ls::Component component() const override { return comp; }
};

/// Node that records delivery times.
struct RecordingNode final : ls::Node {
  std::vector<std::pair<ls::NodeId, ls::SimTime>> deliveries;
  ls::Simulator* sim = nullptr;
  void on_message(ls::NodeId from, const ls::PayloadPtr&) override {
    deliveries.emplace_back(from, sim->now());
  }
};

}  // namespace

TEST(EventQueue, RunsInTimeOrder) {
  ls::EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (q.run_next(100)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  ls::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (q.run_next(100)) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelledEventsDoNotRun) {
  ls::EventQueue q;
  bool ran = false;
  auto handle = q.schedule(10, [&] { ran = true; });
  handle.cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.run_next(100).has_value());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, RespectsLimit) {
  ls::EventQueue q;
  q.schedule(50, [] {});
  EXPECT_FALSE(q.run_next(49).has_value());
  EXPECT_TRUE(q.run_next(50).has_value());
}

TEST(EventQueue, CallbackMayScheduleMoreEvents) {
  ls::EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule(count * 10, chain);
  };
  q.schedule(0, chain);
  while (q.run_next(1000)) {
  }
  EXPECT_EQ(count, 5);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  ls::Simulator sim;
  ls::SimTime seen = -1;
  sim.schedule_after(500, [&] { seen = sim.now(); });
  sim.run_until(1000);
  EXPECT_EQ(seen, 500);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  ls::Simulator sim;
  sim.run_until(100);
  ls::SimTime seen = -1;
  sim.schedule_at(5, [&] { seen = sim.now(); });  // in the past
  sim.run_until(200);
  EXPECT_EQ(seen, 100);
}

TEST(Simulator, RunToCompletionDrains) {
  ls::Simulator sim;
  int fired = 0;
  sim.schedule_after(10, [&] { ++fired; });
  sim.schedule_after(20, [&] { ++fired; });
  EXPECT_EQ(sim.run_to_completion(), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(TransmissionDelay, MatchesArithmetic) {
  // 1250 bytes at 1 Gbps = 10 us.
  EXPECT_EQ(ls::transmission_delay(1250, 1e9), 10 * ls::kMicrosecond);
  // 9.8 Gbps NIC: 128 B in ~104 ns.
  EXPECT_NEAR(static_cast<double>(ls::transmission_delay(128, 9.8e9)), 104.5, 1.0);
}

namespace {
ls::NetworkConfig fast_costs_config() {
  ls::NetworkConfig cfg;
  cfg.propagation_delay = 1 * ls::kMillisecond;
  cfg.frame_overhead_bytes = 0;
  cfg.costs = ls::CostModel{};
  cfg.costs.send_per_msg = 0;
  cfg.costs.send_per_byte_ns = 0;
  cfg.costs.recv_per_msg = 0;
  cfg.costs.recv_per_byte_ns = 0;
  return cfg;
}
}  // namespace

TEST(Network, DeliveryIncludesSerializationAndPropagation) {
  ls::Simulator sim;
  auto cfg = fast_costs_config();
  cfg.default_out_bps = 1e6;  // 1 Mbps: 1000 bytes = 8 ms
  cfg.default_in_bps = 1e6;
  ls::Network net(sim, cfg);

  RecordingNode a;
  RecordingNode b;
  a.sim = &sim;
  b.sim = &sim;
  const auto ida = net.add_node(&a);
  const auto idb = net.add_node(&b);

  net.send(ida, idb, std::make_shared<TestPayload>(1000));
  sim.run_until(ls::kSecond);

  ASSERT_EQ(b.deliveries.size(), 1u);
  // 8 ms egress + 1 ms propagation + 8 ms ingress = 17 ms.
  EXPECT_EQ(b.deliveries[0].second, 17 * ls::kMillisecond);
}

TEST(Network, SenderSerializesMulticastCopies) {
  ls::Simulator sim;
  auto cfg = fast_costs_config();
  cfg.default_out_bps = 1e6;
  cfg.default_in_bps = 1e9;  // receive side negligible
  ls::Network net(sim, cfg);

  RecordingNode sender;
  sender.sim = &sim;
  std::vector<RecordingNode> receivers(3);
  std::vector<ls::NodeId> ids{net.add_node(&sender)};
  for (auto& r : receivers) {
    r.sim = &sim;
    ids.push_back(net.add_node(&r));
  }

  // 1000-byte message to 3 receivers: copies leave at 8, 16, 24 ms — the
  // leader-bottleneck effect in miniature.
  net.multicast(ids[0], ids, std::make_shared<TestPayload>(1000));
  sim.run_until(ls::kSecond);

  std::vector<ls::SimTime> arrival_times;
  for (auto& r : receivers) {
    ASSERT_EQ(r.deliveries.size(), 1u);
    arrival_times.push_back(r.deliveries[0].second);
  }
  std::sort(arrival_times.begin(), arrival_times.end());
  EXPECT_NEAR(static_cast<double>(arrival_times[0]), 8e6 + 1e6 + 8e3, 1e4);
  EXPECT_NEAR(static_cast<double>(arrival_times[1]), 16e6 + 1e6 + 8e3, 1e4);
  EXPECT_NEAR(static_cast<double>(arrival_times[2]), 24e6 + 1e6 + 8e3, 1e4);
}

TEST(Network, SharedDuplexCouplesDirections) {
  ls::Simulator sim;
  auto cfg = fast_costs_config();
  cfg.default_out_bps = 1e6;
  cfg.default_in_bps = 1e6;
  cfg.shared_duplex = true;
  ls::Network net(sim, cfg);

  RecordingNode a;
  RecordingNode b;
  RecordingNode c;
  a.sim = &sim;
  b.sim = &sim;
  c.sim = &sim;
  const auto ida = net.add_node(&a);
  const auto idb = net.add_node(&b);
  const auto idc = net.add_node(&c);

  // b simultaneously sends to c and receives from a: with a shared link both
  // 1000-byte transfers serialize on b's single 1 Mbps timeline.
  net.send(idb, idc, std::make_shared<TestPayload>(1000));
  net.send(ida, idb, std::make_shared<TestPayload>(1000));
  sim.run_until(ls::kSecond);

  ASSERT_EQ(b.deliveries.size(), 1u);
  // a's egress 8ms + prop 1ms; then b's ingress waits for b's own egress
  // (which finishes at 8ms) before its 8ms ingress: delivery ≥ 17ms.
  EXPECT_GE(b.deliveries[0].second, 16 * ls::kMillisecond);
}

TEST(Network, ChargeCpuDelaysSubsequentDeliveries) {
  ls::Simulator sim;
  auto cfg = fast_costs_config();
  cfg.default_out_bps = 1e9;
  cfg.default_in_bps = 1e9;
  ls::Network net(sim, cfg);

  struct BusyNode final : ls::Node {
    ls::Network* net = nullptr;
    ls::Simulator* sim = nullptr;
    std::vector<ls::SimTime> times;
    ls::NodeId self = 0;
    void on_message(ls::NodeId, const ls::PayloadPtr&) override {
      times.push_back(sim->now());
      net->charge_cpu(self, 10 * ls::kMillisecond);  // heavy handler
    }
  };

  RecordingNode sender;
  sender.sim = &sim;
  BusyNode busy;
  busy.net = &net;
  busy.sim = &sim;
  const auto ids = net.add_node(&sender);
  busy.self = net.add_node(&busy);

  net.send(ids, busy.self, std::make_shared<TestPayload>(10));
  net.send(ids, busy.self, std::make_shared<TestPayload>(10));
  sim.run_until(ls::kSecond);

  ASSERT_EQ(busy.times.size(), 2u);
  // Second delivery waits out the first handler's charged CPU time.
  EXPECT_GE(busy.times[1] - busy.times[0], 10 * ls::kMillisecond);
}

TEST(Network, HandlersWaitForIngressAndEarlierLaneWork) {
  // A slow receiving NIC, a receive cost, handlers that charge CPU, and
  // lane work charged outside dispatch (as a timer's is): no handler starts
  // before its message's ingress ends or before the lane's earlier work
  // ends, plus its receive cost, and the lane never idles past that point.
  ls::Simulator sim;
  auto cfg = fast_costs_config();
  cfg.default_out_bps = 1e9;
  cfg.default_in_bps = 1e6;
  cfg.costs.recv_per_msg = 1 * ls::kMillisecond;
  ls::Network net(sim, cfg);

  const std::vector<std::size_t> sizes{100, 1000, 300, 50, 2000, 10};
  const std::vector<ls::SimTime> charges{20 * ls::kMillisecond, 0, 0, 3 * ls::kMillisecond, 0,
                                         0};
  struct ChargingNode final : ls::Node {
    ls::Network* net = nullptr;
    ls::Simulator* sim = nullptr;
    ls::NodeId self = 0;
    const std::vector<ls::SimTime>* charges = nullptr;
    std::vector<ls::SimTime> started;
    void on_message(ls::NodeId, const ls::PayloadPtr&) override {
      net->charge_cpu(self, (*charges)[started.size()]);
      started.push_back(sim->now());
    }
  };
  RecordingNode sender;
  sender.sim = &sim;
  ChargingNode rx;
  rx.net = &net;
  rx.sim = &sim;
  rx.charges = &charges;
  const auto from = net.add_node(&sender);
  rx.self = net.add_node(&rx);

  const ls::SimTime lane_work = 4 * ls::kMillisecond;
  sim.schedule_at(0, [&] { net.charge_cpu(rx.self, lane_work); });
  sim.schedule_at(0, [&] {
    for (const auto size : sizes) net.send(from, rx.self, std::make_shared<TestPayload>(size));
  });
  sim.run_until(ls::kSecond);

  ASSERT_EQ(rx.started.size(), sizes.size());
  ls::SimTime departed = 0;
  ls::SimTime ingress_end = 0;
  ls::SimTime lane_free = lane_work;
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    departed += ls::transmission_delay(sizes[k], cfg.default_out_bps);
    ingress_end = std::max(ingress_end, departed + cfg.propagation_delay) +
                  ls::transmission_delay(sizes[k], cfg.default_in_bps);
    EXPECT_GE(rx.started[k], ingress_end + cfg.costs.recv_per_msg) << "message " << k;
    EXPECT_GE(rx.started[k], lane_free + cfg.costs.recv_per_msg) << "message " << k;
    EXPECT_EQ(rx.started[k], std::max(ingress_end, lane_free) + cfg.costs.recv_per_msg)
        << "message " << k;
    lane_free = rx.started[k] + charges[k];
  }
}

TEST(Network, PreGstDelayAppliesOnlyBeforeGst) {
  ls::Simulator sim;
  auto cfg = fast_costs_config();
  cfg.default_out_bps = 1e9;
  cfg.default_in_bps = 1e9;
  cfg.gst = 100 * ls::kMillisecond;
  cfg.pre_gst_extra_delay = [](ls::NodeId, ls::NodeId, ls::SimTime) {
    return 50 * ls::kMillisecond;
  };
  ls::Network net(sim, cfg);

  RecordingNode a;
  RecordingNode b;
  a.sim = &sim;
  b.sim = &sim;
  const auto ida = net.add_node(&a);
  const auto idb = net.add_node(&b);

  net.send(ida, idb, std::make_shared<TestPayload>(10));  // before GST
  sim.run_until(200 * ls::kMillisecond);
  net.send(ida, idb, std::make_shared<TestPayload>(10));  // after GST
  sim.run_until(ls::kSecond);

  ASSERT_EQ(b.deliveries.size(), 2u);
  EXPECT_GE(b.deliveries[0].second, 51 * ls::kMillisecond);  // delayed
  EXPECT_LE(b.deliveries[1].second - 200 * ls::kMillisecond,
            2 * ls::kMillisecond);  // prompt
}

TEST(Network, LinkFilterDropsMessages) {
  ls::Simulator sim;
  ls::Network net(sim, fast_costs_config());
  RecordingNode a;
  RecordingNode b;
  a.sim = &sim;
  b.sim = &sim;
  const auto ida = net.add_node(&a);
  const auto idb = net.add_node(&b);
  net.set_link_filter([](ls::NodeId, ls::NodeId, const ls::Payload&) { return false; });
  net.send(ida, idb, std::make_shared<TestPayload>(10));
  sim.run_until(ls::kSecond);
  EXPECT_TRUE(b.deliveries.empty());
}

TEST(Network, SelfSendRejected) {
  ls::Simulator sim;
  ls::Network net(sim, fast_costs_config());
  RecordingNode a;
  a.sim = &sim;
  const auto ida = net.add_node(&a);
  EXPECT_THROW(net.send(ida, ida, std::make_shared<TestPayload>(1)),
               leopard::util::ContractViolation);
}

TEST(Traffic, AccountsBothDirectionsPerComponent) {
  ls::Simulator sim;
  auto cfg = fast_costs_config();
  cfg.frame_overhead_bytes = 10;
  ls::Network net(sim, cfg);
  RecordingNode a;
  RecordingNode b;
  a.sim = &sim;
  b.sim = &sim;
  const auto ida = net.add_node(&a);
  const auto idb = net.add_node(&b);

  net.send(ida, idb, std::make_shared<TestPayload>(90, ls::Component::kVote));
  sim.run_until(ls::kSecond);

  EXPECT_EQ(net.traffic().bytes(ida, ls::Direction::kSend, ls::Component::kVote), 100u);
  EXPECT_EQ(net.traffic().bytes(idb, ls::Direction::kReceive, ls::Component::kVote), 100u);
  EXPECT_EQ(net.traffic().messages(ida, ls::Direction::kSend, ls::Component::kVote), 1u);
  EXPECT_EQ(net.traffic().bytes(ida, ls::Direction::kSend, ls::Component::kDatablock), 0u);
}

TEST(Traffic, MeasurementMarkExcludesWarmup) {
  ls::Simulator sim;
  ls::Network net(sim, fast_costs_config());
  RecordingNode a;
  RecordingNode b;
  a.sim = &sim;
  b.sim = &sim;
  const auto ida = net.add_node(&a);
  const auto idb = net.add_node(&b);

  net.send(ida, idb, std::make_shared<TestPayload>(100));
  sim.run_until(100 * ls::kMillisecond);
  net.traffic().mark_measurement_start(sim.now());
  EXPECT_EQ(net.traffic().total_bytes(ida, ls::Direction::kSend), 0u);

  net.send(ida, idb, std::make_shared<TestPayload>(100));
  sim.run_until(ls::kSecond);
  EXPECT_EQ(net.traffic().total_bytes(ida, ls::Direction::kSend), 100u);
}

TEST(Traffic, UnmeteredNodesSkipOwnAccounting) {
  ls::Simulator sim;
  ls::Network net(sim, fast_costs_config());
  RecordingNode client;
  RecordingNode replica;
  client.sim = &sim;
  replica.sim = &sim;
  const auto idc = net.add_node(&client, /*metered=*/false);
  const auto idr = net.add_node(&replica);

  net.send(idc, idr, std::make_shared<TestPayload>(100, ls::Component::kClientRequest));
  sim.run_until(ls::kSecond);

  EXPECT_EQ(net.traffic().total_bytes(idc, ls::Direction::kSend), 0u);
  EXPECT_EQ(net.traffic().bytes(idr, ls::Direction::kReceive, ls::Component::kClientRequest),
            100u);
  ASSERT_EQ(replica.deliveries.size(), 1u);
}
