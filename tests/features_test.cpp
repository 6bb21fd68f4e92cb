// Optional protocol features from §IV: the verify(·) request predicate, the
// deterministic µ(req) assignment, and multi-replica client submission
// (f+1 copies: lower latency for more dissemination).
#include <gtest/gtest.h>

#include "cluster_fixture.hpp"

using namespace leopard;
using test::logs_consistent;

namespace {
/// Four replicas with light batches; client groups at `rate` req/s each
/// submitting real 64-byte payloads.
harness::SimClusterConfig feature_opts(double rate = 2000) {
  core::LeopardConfig protocol;
  protocol.n = 4;
  protocol.datablock_requests = 50;
  protocol.bftblock_links = 2;
  protocol.datablock_max_wait = 100 * sim::kMillisecond;
  protocol.proposal_max_wait = 50 * sim::kMillisecond;
  protocol.view_timeout = 30 * sim::kSecond;
  protocol.payload_size = 64;
  core::ClientConfig client;
  client.request_rate = rate;
  client.payload_size = 64;
  client.real_payload = true;
  client.burst = 1;
  harness::SimClusterConfig o;
  o.spec.config = protocol;
  o.net.propagation_delay = 100 * sim::kMicrosecond;  // tight for fast tests
  o.seed = 7;
  o.clients = harness::groups_per_replica(4, 1, client, o.seed + 100);
  return o;
}
}  // namespace

// --- verify(·) ---------------------------------------------------------------

TEST(RequestValidator, InvalidRequestsAreFilteredAtIngress) {
  auto opts = feature_opts();
  harness::SimCluster cluster(opts);
  // Reject every request whose first payload byte is below 0x80 (~half).
  for (std::uint32_t id = 0; id < 4; ++id) {
    cluster.replica(id).set_request_validator(
        [](const proto::Request& r) { return !r.payload.empty() && r.payload[0] >= 0x80; });
  }
  std::uint64_t executed_invalid = 0;
  std::uint64_t executed_valid = 0;
  cluster.replica(0).set_execution_handler([&](const proto::Request& r) {
    if (!r.payload.empty() && r.payload[0] >= 0x80) {
      ++executed_valid;
    } else {
      ++executed_invalid;
    }
  });
  cluster.run_for(3.0);

  EXPECT_GT(executed_valid, 500u);
  EXPECT_EQ(executed_invalid, 0u);  // nothing invalid ever commits
  EXPECT_TRUE(logs_consistent(cluster));
}

TEST(RequestValidator, AcceptAllValidatorChangesNothing) {
  auto opts = feature_opts();
  harness::SimCluster cluster(opts);
  for (std::uint32_t id = 0; id < 4; ++id) {
    cluster.replica(id).set_request_validator([](const proto::Request&) { return true; });
  }
  cluster.run_for(2.0);
  EXPECT_GT(cluster.metrics().executed_requests, 1000u);
}

// --- µ(req) assignment ----------------------------------------------------------

TEST(MuAssignment, DeterministicAndNeverTheLeader) {
  proto::Request r;
  r.client_id = 42;
  r.seq = 7;
  const auto a = core::assign_replica(r, 16, 1);
  EXPECT_EQ(a, core::assign_replica(r, 16, 1));  // deterministic
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    r.seq = seq;
    const auto id = core::assign_replica(r, 16, 1);
    EXPECT_LT(id, 16u);
    EXPECT_NE(id, 1u);  // the leader never serves client ingress
  }
}

TEST(MuAssignment, BalancesUniformly) {
  proto::Request r;
  r.client_id = 9;
  std::vector<int> hits(16, 0);
  constexpr int kSamples = 8000;
  for (std::uint64_t seq = 0; seq < kSamples; ++seq) {
    r.seq = seq;
    ++hits[core::assign_replica(r, 16, 1)];
  }
  const double expected = kSamples / 15.0;
  for (std::uint32_t id = 0; id < 16; ++id) {
    if (id == 1) {
      EXPECT_EQ(hits[id], 0);
      continue;
    }
    EXPECT_NEAR(hits[id], expected, 0.25 * expected) << "replica " << id;
  }
}

TEST(MuAssignment, DifferentRequestsSpread) {
  // Two distinct requests rarely collide on the same replica at n = 64.
  int collisions = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    proto::Request a;
    a.client_id = i;
    a.seq = 1;
    proto::Request b;
    b.client_id = i;
    b.seq = 2;
    if (core::assign_replica(a, 64, 1) == core::assign_replica(b, 64, 1)) ++collisions;
  }
  EXPECT_LT(collisions, 30);
}

// --- multi-replica submission -----------------------------------------------------

TEST(MultiSubmit, CopiesReduceLatency) {
  // Two clusters differing only in submit_copies.
  auto measure = [](std::uint32_t copies) {
    auto opts = feature_opts(300);
    std::get<core::LeopardConfig>(opts.spec.config).datablock_max_wait = 400 * sim::kMillisecond;
    for (auto& g : opts.clients) {
      g.cfg.real_payload = false;
      g.cfg.submit_copies = copies;
    }
    harness::SimCluster cluster(opts);
    cluster.run_for(5.0);
    EXPECT_GT(cluster.metrics().acked_requests, 100u) << "copies=" << copies;
    return cluster.metrics().mean_latency_sec();
  };
  const double lat1 = measure(1);
  const double lat3 = measure(3);
  // With three submission points a request joins whichever datablock fills
  // first: latency must not get worse, and typically improves.
  EXPECT_LE(lat3, lat1 * 1.05);
}

TEST(MultiSubmit, DuplicatesAckOnce) {
  auto opts = feature_opts(500);
  for (auto& g : opts.clients) g.cfg.submit_copies = 3;
  harness::SimCluster cluster(opts);
  cluster.run_for(3.0);
  // Executed counts duplicates (each copy commits via its own datablock) but
  // every request is acknowledged exactly once at the client.
  std::uint64_t submitted = 0;
  for (std::size_t i = 0; i < cluster.client_count(); ++i) {
    submitted += cluster.client(i).submitted();
  }
  EXPECT_LE(cluster.metrics().acked_requests, submitted);
  EXPECT_GT(cluster.metrics().acked_requests, submitted / 2);
}
