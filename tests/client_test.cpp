// LeopardClient behaviour: open-loop pacing, burst batching, backlog
// injection, ack bookkeeping, latency accounting, and re-submission rotation.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/client.hpp"
#include "proto/messages.hpp"
#include "protocol/factory.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

using namespace leopard;

namespace {

/// Replica stand-in that records received requests and can ack on command.
struct RecordingReplica final : sim::Node {
  sim::Network* net = nullptr;
  sim::NodeId self = 0;
  std::vector<proto::Request> received;
  bool auto_ack = false;

  void on_message(sim::NodeId from, const sim::PayloadPtr& msg) override {
    const auto batch = std::dynamic_pointer_cast<const proto::ClientRequestMsg>(msg);
    if (!batch) return;
    for (const auto& r : batch->requests) received.push_back(r);
    if (auto_ack) {
      auto ack = std::make_shared<proto::AckMsg>();
      ack->client_id = batch->requests.front().client_id;
      for (const auto& r : batch->requests) ack->seqs.push_back(r.seq);
      net->send(self, from, std::move(ack));
    }
  }
};

struct ClientHarness {
  sim::Simulator sim;
  sim::Network net;
  core::ProtocolMetrics metrics;
  std::vector<std::unique_ptr<RecordingReplica>> replicas;
  protocol::SimClient handle;
  core::LeopardClient* client = nullptr;

  explicit ClientHarness(core::ClientConfig cfg, std::uint32_t replica_count = 4)
      : net(sim, sim::NetworkConfig{}) {
    for (std::uint32_t i = 0; i < replica_count; ++i) {
      auto r = std::make_unique<RecordingReplica>();
      r->net = &net;
      r->self = net.add_node(r.get());
      replicas.push_back(std::move(r));
    }
    handle = protocol::make_sim_client(net, metrics, cfg, /*target=*/0, replica_count,
                                       /*avoid=*/1, /*seed=*/5);
    client = handle.core.get();
  }

  void run(double seconds) {
    net.start_all();
    sim.run_until(sim::from_seconds(seconds));
  }
};

}  // namespace

TEST(Client, SubmitsAtApproximatelyConfiguredRate) {
  core::ClientConfig cfg;
  cfg.request_rate = 5000;
  ClientHarness h(cfg);
  h.run(2.0);
  const auto received = h.replicas[0]->received.size();
  EXPECT_GT(received, 8000u);
  EXPECT_LT(received, 12000u);
}

TEST(Client, BacklogArrivesUpFront) {
  core::ClientConfig cfg;
  cfg.request_rate = 0;  // backlog only
  cfg.initial_backlog = 777;
  ClientHarness h(cfg);
  h.run(1.0);
  EXPECT_EQ(h.replicas[0]->received.size(), 777u);
}

TEST(Client, SequencesAreUniqueAndDense) {
  core::ClientConfig cfg;
  cfg.request_rate = 3000;
  cfg.initial_backlog = 100;
  ClientHarness h(cfg);
  h.run(1.0);
  std::set<std::uint64_t> seqs;
  for (const auto& r : h.replicas[0]->received) seqs.insert(r.seq);
  EXPECT_EQ(seqs.size(), h.replicas[0]->received.size());  // no duplicates
  EXPECT_EQ(*seqs.begin(), 0u);
  EXPECT_EQ(*seqs.rbegin(), seqs.size() - 1);  // dense range
}

TEST(Client, AcksProduceLatencySamples) {
  core::ClientConfig cfg;
  cfg.request_rate = 2000;
  ClientHarness h(cfg);
  h.replicas[0]->auto_ack = true;
  h.run(1.0);
  EXPECT_GT(h.metrics.acked_requests, 1000u);
  EXPECT_GT(h.metrics.mean_latency_sec(), 0.0);
  EXPECT_LT(h.metrics.mean_latency_sec(), 0.1);  // prompt acks, low latency
  EXPECT_EQ(h.client->acked(), h.metrics.acked_requests);
}

TEST(Client, DuplicateAcksCountOnce) {
  core::ClientConfig cfg;
  cfg.initial_backlog = 10;
  ClientHarness h(cfg);
  h.replicas[0]->auto_ack = true;
  h.run(0.5);
  const auto first = h.metrics.acked_requests;
  // Re-deliver the same acks manually.
  auto ack = std::make_shared<proto::AckMsg>();
  for (std::uint64_t s = 0; s < 10; ++s) ack->seqs.push_back(s);
  h.net.send(0, h.replicas.size(), std::move(ack));  // client node id = replica_count
  h.sim.run_until(h.sim.now() + sim::kSecond);
  EXPECT_EQ(h.metrics.acked_requests, first);
}

TEST(Client, ResubmitsToNextReplicaOnTimeout) {
  core::ClientConfig cfg;
  cfg.request_rate = 500;
  cfg.resubmit_timeout = 500 * sim::kMillisecond;
  ClientHarness h(cfg);  // replica 0 never acks
  h.run(3.0);
  // Rotation skips replica 1 (the configured leader): traffic lands on 2.
  EXPECT_GT(h.replicas[2]->received.size(), 0u);
  for (const auto& r : h.replicas[1]->received) {
    (void)r;
    FAIL() << "avoided replica must not receive re-submissions";
  }
}

TEST(Client, ResubmittedRequestIsByteIdentical) {
  // A resend is the same request: with real payload bytes, every copy of a
  // (client_id, seq) must carry the first send's digest, or replicas would
  // order it as a new request.
  core::ClientConfig cfg;
  cfg.real_payload = true;
  cfg.payload_size = 64;
  cfg.closed_loop_window = 4;
  cfg.total_requests = 4;
  cfg.resubmit_timeout = 100 * sim::kMillisecond;
  ClientHarness h(cfg);  // nobody acks: every request is resent
  h.run(1.0);
  // The first sends reach replica 0 before any resend; resends rotate
  // through 2, 3, 0, ...
  std::map<std::uint64_t, crypto::Digest> first;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& r = h.replicas[0]->received.at(i);
    ASSERT_EQ(r.payload.size(), 64u);
    first.emplace(r.seq, r.digest());
  }
  ASSERT_EQ(first.size(), 4u);
  std::size_t copies = 0;
  for (const auto& replica : h.replicas) {
    for (const auto& r : replica->received) {
      ASSERT_TRUE(first.contains(r.seq));
      EXPECT_EQ(r.digest(), first.at(r.seq)) << "seq " << r.seq;
      ++copies;
    }
  }
  EXPECT_GE(copies, 3 * 4u) << "every request must have been resent at least twice";
}

TEST(Client, StopsAtConfiguredTime) {
  core::ClientConfig cfg;
  cfg.request_rate = 4000;
  cfg.stop_at = 500 * sim::kMillisecond;
  ClientHarness h(cfg);
  h.run(2.0);
  const auto received = h.replicas[0]->received.size();
  EXPECT_GT(received, 1000u);
  EXPECT_LT(received, 3000u);  // ~2000 expected in half a second
}

TEST(Client, ClosedLoopKeepsWindowFullUntilTotal) {
  core::ClientConfig cfg;
  cfg.closed_loop_window = 16;
  cfg.total_requests = 200;
  ClientHarness h(cfg);
  h.replicas[0]->auto_ack = true;
  h.run(2.0);
  EXPECT_TRUE(h.client->done());
  EXPECT_EQ(h.client->submitted(), 200u);
  EXPECT_EQ(h.client->acked(), 200u);
  EXPECT_EQ(h.client->outstanding(), 0u);
  // Closed loop never over-submits: the replica saw exactly the total.
  EXPECT_EQ(h.replicas[0]->received.size(), 200u);
}

TEST(Client, ClosedLoopWindowBoundsInflight) {
  core::ClientConfig cfg;
  cfg.closed_loop_window = 8;
  cfg.total_requests = 100;
  ClientHarness h(cfg);  // nobody acks: the window fills and stays put
  h.run(1.0);
  EXPECT_EQ(h.client->submitted(), 8u);
  EXPECT_EQ(h.client->outstanding(), 8u);
  EXPECT_FALSE(h.client->done());
}

TEST(Client, BurstBatchingPreservesTotalRate) {
  core::ClientConfig cfg;
  cfg.request_rate = 60000;  // auto-burst kicks in above 25k/s
  ClientHarness h(cfg);
  h.run(1.0);
  const auto received = h.replicas[0]->received.size();
  EXPECT_GT(received, 45000u);
  EXPECT_LT(received, 75000u);
}
