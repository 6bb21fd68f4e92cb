// Baseline protocols (HotStuff, PBFT): commit progress, chain consistency,
// and the leader-dissemination traffic pattern that motivates Leopard.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/hotstuff.hpp"
#include "baselines/pbft.hpp"
#include "harness/sim_cluster.hpp"

using namespace leopard;

namespace {

using baselines::HotStuffReplica;
using baselines::PbftReplica;

/// n replicas running `cfg`, one client group offering `rate` req/s to the
/// leader (replica 0).
template <typename Config>
harness::SimClusterConfig baseline_opts(const Config& cfg, double rate) {
  core::ClientConfig client;
  client.request_rate = rate;
  client.payload_size = cfg.payload_size;
  client.initial_backlog = 2 * cfg.batch_size;
  harness::SimClusterConfig o;
  o.spec.config = cfg;
  o.net.propagation_delay = 100 * sim::kMicrosecond;
  o.seed = 11;
  o.clients = {harness::ClientGroup{client, /*target=*/0, /*avoid: none*/ cfg.n, 77}};
  return o;
}

}  // namespace

TEST(HotStuff, CommitsAndExecutes) {
  baselines::HotStuffConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 100;
  harness::SimCluster cluster(baseline_opts(cfg, 20000));
  cluster.run_for(2.0);

  EXPECT_GT(cluster.metrics().executed_requests, 5000u);
  EXPECT_GT(cluster.metrics().acked_requests, 5000u);
  for (std::uint32_t id = 0; id < cfg.n; ++id) {
    EXPECT_GT(cluster.replica<HotStuffReplica>(id).committed_height(), 3u);
  }
}

TEST(HotStuff, ReplicasCommitSameChain) {
  baselines::HotStuffConfig cfg;
  cfg.n = 7;
  cfg.batch_size = 100;
  harness::SimCluster cluster(baseline_opts(cfg, 20000));
  cluster.run_for(2.0);

  // Compare a recent committed height present at all replicas.
  proto::SeqNum h = cluster.replica<HotStuffReplica>(0).committed_height();
  for (std::uint32_t id = 0; id < cfg.n; ++id) {
    h = std::min(h, cluster.replica<HotStuffReplica>(id).committed_height());
  }
  ASSERT_GT(h, 1u);
  const auto want = cluster.replica<HotStuffReplica>(0).committed_digest(h);
  ASSERT_TRUE(want.has_value());
  for (std::uint32_t id = 0; id < cfg.n; ++id) {
    const auto got = cluster.replica<HotStuffReplica>(id).committed_digest(h);
    if (got.has_value()) {
      EXPECT_EQ(*got, *want);
    }
  }
}

TEST(HotStuff, ThroughputGrowsWithBatchSizeThenSaturates) {
  auto run = [](std::uint32_t batch) {
    baselines::HotStuffConfig cfg;
    cfg.n = 7;
    cfg.batch_size = batch;
    harness::SimCluster cluster(baseline_opts(cfg, 300000));
    cluster.run_for(2.0);
    return cluster.metrics().executed_requests;
  };
  const auto t_small = run(10);
  const auto t_large = run(400);
  EXPECT_GT(t_large, 2 * t_small);  // Fig. 6's rising region
}

TEST(HotStuff, LeaderSendsEveryRequestToAllReplicas) {
  baselines::HotStuffConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 100;
  harness::SimCluster cluster(baseline_opts(cfg, 20000));
  cluster.run_for(2.0);

  const auto leader_sent =
      cluster.net().traffic().bytes(0, sim::Direction::kSend, sim::Component::kDatablock);
  const auto executed = cluster.metrics().executed_requests;
  // Eq. (1): ≈ executed × payload × (n−1) bytes, plus headers/partial blocks.
  const double expected = static_cast<double>(executed) * cfg.payload_size * 3;
  EXPECT_GT(static_cast<double>(leader_sent), 0.9 * expected);
}

TEST(Pbft, CommitsAndExecutes) {
  baselines::PbftConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 100;
  harness::SimCluster cluster(baseline_opts(cfg, 20000));
  cluster.run_for(2.0);

  EXPECT_GT(cluster.metrics().executed_requests, 5000u);
  for (std::uint32_t id = 0; id < cfg.n; ++id) {
    EXPECT_GT(cluster.replica<PbftReplica>(id).executed_through(), 3u);
  }
}

TEST(Pbft, VoteTrafficIsAllToAll) {
  baselines::PbftConfig cfg;
  cfg.n = 7;
  cfg.batch_size = 200;
  harness::SimCluster cluster(baseline_opts(cfg, 20000));
  cluster.run_for(2.0);

  // Every replica multicasts prepare+commit votes: each non-leader's vote
  // send traffic is ≈ 2(n−1) votes per block — far more than one share.
  const auto votes_sent =
      cluster.net().traffic().messages(2, sim::Direction::kSend, sim::Component::kVote);
  const auto blocks = cluster.replica<PbftReplica>(2).executed_through();
  ASSERT_GT(blocks, 0u);
  EXPECT_GE(votes_sent, blocks * 2 * (cfg.n - 1) / 2);  // ≥ half (windowing slack)
}

TEST(Pbft, ParallelInstancesRespectWindow) {
  baselines::PbftConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 50;
  cfg.max_parallel_instances = 3;
  harness::SimCluster cluster(baseline_opts(cfg, 50000));
  cluster.run_for(1.0);
  EXPECT_GT(cluster.metrics().executed_requests, 1000u);
}
