// Baseline protocols (HotStuff, PBFT): commit progress, chain consistency,
// and the leader-dissemination traffic pattern that motivates Leopard.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/hotstuff.hpp"
#include "baselines/pbft.hpp"
#include "harness/sim_cluster.hpp"
#include "protocol/replay.hpp"

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

/// A HotStuff proposal at `height` extending `parent`, whose justify QC is
/// signed by replicas 0..2 of `ts` over `parent`.
std::shared_ptr<proto::BaselineBlockMsg> hotstuff_block(const crypto::ThresholdScheme& ts,
                                                        proto::SeqNum height,
                                                        const crypto::Digest& parent) {
  auto block = std::make_shared<proto::BaselineBlockMsg>();
  block->view = 1;
  block->height = height;
  block->parent = parent;
  block->justify_target = parent;
  if (height > 1) {
    std::vector<crypto::SignatureShare> shares;
    for (std::uint32_t i = 0; i < 3; ++i) shares.push_back(ts.sign_share(i, parent));
    block->justify_sig = *ts.combine(parent, shares);
  }
  block->batch.resize(2);
  block->cached_digest = block->compute_digest();
  return block;
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

TEST(HotStuff, BlockDigestBindsTheChain) {
  const crypto::ThresholdScheme ts(4, 3, 5);
  const auto a = hotstuff_block(ts, 2, crypto::Digest::of_string("parent a"));
  const auto b = hotstuff_block(ts, 2, crypto::Digest::of_string("parent b"));
  EXPECT_NE(a->cached_digest, b->cached_digest);

  // Each chain field on its own changes the digest.
  auto c = *a;
  c.view = 2;
  EXPECT_NE(c.compute_digest(), a->cached_digest);
  c = *a;
  c.justify_target = crypto::Digest::of_string("other");
  EXPECT_NE(c.compute_digest(), a->cached_digest);
  c = *a;
  c.justify_sig = b->justify_sig;
  EXPECT_NE(c.compute_digest(), a->cached_digest);
}

TEST(HotStuff, VotesOnlyForBlocksExtendingItsChain) {
  // A follower gets height 1, then a height-2 block whose parent (with a
  // valid QC over it) is not its own height-1 block, then the honest
  // height-2 block. Only the first and the last get its vote.
  baselines::HotStuffConfig cfg;
  const crypto::ThresholdScheme ts(cfg.n, cfg.quorum(), 5);
  const auto first = hotstuff_block(ts, 1, {});
  const auto forked = hotstuff_block(ts, 2, crypto::Digest::of_string("not my block"));
  const auto honest = hotstuff_block(ts, 2, first->cached_digest);

  protocol::Trace script;
  for (const auto& block : {first, forked, honest}) {
    script.steps.push_back({0, protocol::MessageIn{0, block}, {}});
  }
  HotStuffReplica follower(cfg, ts, 1);
  protocol::ReplayEnv env;
  const auto out = env.replay(follower, script);
  ASSERT_EQ(out.steps.size(), 3u);

  const auto vote_of = [](const protocol::TraceStep& step) -> const proto::BaselineVoteMsg* {
    for (const auto& action : step.actions) {
      const auto* send = std::get_if<protocol::Send>(&action);
      if (send == nullptr) continue;
      if (const auto* v = dynamic_cast<const proto::BaselineVoteMsg*>(send->payload.get())) {
        return v;
      }
    }
    return nullptr;
  };
  ASSERT_NE(vote_of(out.steps[0]), nullptr);
  EXPECT_EQ(vote_of(out.steps[1]), nullptr) << "voted for a block off its chain";
  ASSERT_NE(vote_of(out.steps[2]), nullptr);
  EXPECT_EQ(vote_of(out.steps[2])->block_digest, honest->cached_digest);
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
