// Cross-module integration: parameterized fault-injection sweeps asserting
// the paper's safety (Theorem 1) and liveness (Theorem 2) properties across
// cluster sizes and attack combinations, plus partial-synchrony behaviour.
#include <gtest/gtest.h>

#include <tuple>

#include "cluster_fixture.hpp"

using namespace leopard;
using test::logs_consistent;

namespace {
/// n replicas with light batches and a 2 s view timeout; 8000 req/s spread
/// over the non-leader replicas' client groups, which re-submit after 2 s.
harness::SimClusterConfig base_opts(std::uint32_t n) {
  core::LeopardConfig protocol;
  protocol.n = n;
  protocol.datablock_requests = 50;
  protocol.bftblock_links = 2;
  protocol.datablock_max_wait = 100 * sim::kMillisecond;
  protocol.proposal_max_wait = 50 * sim::kMillisecond;
  protocol.view_timeout = 2 * sim::kSecond;
  protocol.payload_size = 64;
  core::ClientConfig client;
  client.request_rate = 8000.0 / (n - 1);
  client.payload_size = 64;
  client.resubmit_timeout = 2 * sim::kSecond;
  client.burst = 1;
  harness::SimClusterConfig o;
  o.spec.config = protocol;
  o.net.propagation_delay = 100 * sim::kMicrosecond;  // tight for fast tests
  o.seed = 7;
  o.clients = harness::groups_per_replica(n, 1, client, o.seed + 100);
  return o;
}

core::LeopardConfig& protocol_of(harness::SimClusterConfig& o) {
  return std::get<core::LeopardConfig>(o.spec.config);
}
}  // namespace

// --- Fault matrix sweep -----------------------------------------------------
// Scenario x cluster size: every combination must preserve safety, and all
// except "crashed leader mid-run" must also keep confirming throughout.
enum class Fault {
  kNone,
  kSelective,          // selective dissemination by f replicas
  kSelectiveNoHelp,    // selective + refuse retrieval queries
  kWithholdVotes,      // f silent voters
  kDropForeign,        // f replicas ignore others' datablocks
  kCrashNonLeaders,    // f replicas crash outright mid-run
};

class FaultSweep : public ::testing::TestWithParam<std::tuple<std::uint32_t, Fault>> {};

TEST_P(FaultSweep, SafetyAndLivenessHold) {
  const auto [n, fault] = GetParam();
  auto opts = base_opts(n);
  const std::uint32_t f = (n - 1) / 3;

  std::vector<std::uint32_t> byz_ids;
  std::vector<core::ByzantineSpec> byz(n);
  // Apply the fault to the LAST f replicas (never 0 = observer, 1 = leader).
  for (std::uint32_t i = n - f; i < n; ++i) {
    byz_ids.push_back(i);
    auto& spec = byz[i];
    switch (fault) {
      case Fault::kNone:
        byz_ids.pop_back();
        break;
      case Fault::kSelective:
        spec.selective_recipients = 2 * f;
        break;
      case Fault::kSelectiveNoHelp:
        spec.selective_recipients = 2 * f;
        spec.ignore_queries = true;
        break;
      case Fault::kWithholdVotes:
        spec.withhold_votes = true;
        break;
      case Fault::kDropForeign:
        spec.drop_foreign_datablocks = true;
        spec.vote_blindly = true;
        break;
      case Fault::kCrashNonLeaders:
        spec.crash_at = sim::from_seconds(1.0);
        break;
    }
  }

  opts.mutate_spec = harness::byzantine_replicas(byz);

  harness::SimCluster cluster(opts);
  cluster.run_for(5.0);

  EXPECT_TRUE(logs_consistent(cluster, byz_ids)) << "n=" << n;
  EXPECT_FALSE(cluster.metrics().safety_violation);
  EXPECT_GT(cluster.metrics().executed_requests, 500u) << "n=" << n;
  // Liveness: confirmations continue in the second half of the run.
  const auto mid = cluster.metrics().executed_requests;
  cluster.run_for(3.0);
  EXPECT_GT(cluster.metrics().executed_requests, mid) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    FaultMatrix, FaultSweep,
    ::testing::Combine(::testing::Values(4u, 7u, 13u),
                       ::testing::Values(Fault::kNone, Fault::kSelective,
                                         Fault::kSelectiveNoHelp, Fault::kWithholdVotes,
                                         Fault::kDropForeign, Fault::kCrashNonLeaders)));

// --- Combined worst case -----------------------------------------------------

TEST(Integration, SelectiveAttackersPlusLeaderCrash) {
  auto opts = base_opts(7);
  std::vector<core::ByzantineSpec> byz(7);
  byz[5].selective_recipients = 4;
  byz[5].ignore_queries = true;
  byz[1].crash_at = sim::from_seconds(2.0);  // leader dies too (f = 2 total)
  opts.mutate_spec = harness::byzantine_replicas(byz);
  harness::SimCluster cluster(opts);
  cluster.run_for(12.0);

  EXPECT_TRUE(logs_consistent(cluster, {1, 5}));
  EXPECT_FALSE(cluster.metrics().safety_violation);
  EXPECT_GE(cluster.metrics().view_changes_completed, 1u);
  const auto mid = cluster.metrics().executed_requests;
  cluster.run_for(4.0);
  EXPECT_GT(cluster.metrics().executed_requests, mid)
      << "liveness must be restored under the new leader";
}

TEST(Integration, CascadedLeaderCrashes) {
  // Leaders of views 1 and 2 both fail: the protocol must walk to view 3.
  auto opts = base_opts(7);
  std::vector<core::ByzantineSpec> byz(7);
  byz[1].crash_at = sim::from_seconds(1.0);
  byz[2].crash_at = sim::from_seconds(1.0);
  opts.mutate_spec = harness::byzantine_replicas(byz);
  harness::SimCluster cluster(opts);
  cluster.run_for(16.0);

  EXPECT_GE(cluster.replica(0).view(), 3u);
  EXPECT_TRUE(logs_consistent(cluster, {1, 2}));
  const auto mid = cluster.metrics().executed_requests;
  cluster.run_for(4.0);
  EXPECT_GT(cluster.metrics().executed_requests, mid);
}

TEST(Integration, StateTransferHealsLaggards) {
  // A replica that loses the retrieval race must catch up via the stable
  // checkpoint (state transfer) rather than stalling the cluster.
  auto opts = base_opts(7);
  protocol_of(opts).max_parallel_instances = 8;  // frequent checkpoints
  std::vector<core::ByzantineSpec> byz(7);
  byz[6].selective_recipients = 4;
  opts.mutate_spec = harness::byzantine_replicas(byz);
  harness::SimCluster cluster(opts);
  cluster.run_for(8.0);

  // All honest replicas within one checkpoint window of each other.
  proto::SeqNum lo = std::numeric_limits<proto::SeqNum>::max();
  proto::SeqNum hi = 0;
  for (std::uint32_t id = 0; id < 7; ++id) {
    if (id == 6) continue;
    lo = std::min(lo, cluster.replica(id).executed_through());
    hi = std::max(hi, cluster.replica(id).executed_through());
  }
  EXPECT_GT(lo, 0u);
  EXPECT_LE(hi - lo, 2u * protocol_of(opts).max_parallel_instances);
}

// --- Partial synchrony --------------------------------------------------------

TEST(Integration, ConfirmsAfterGstDespitePreGstChaos) {
  auto opts = base_opts(4);
  harness::SimCluster cluster(opts);
  // Reconfigure the network: heavy adversarial delay before GST at 2 s.
  // (The fixture's network is already built; emulate pre-GST chaos with a
  // link filter dropping most traffic until t = 2 s.)
  std::uint64_t counter = 0;
  cluster.net().set_link_filter(
      [&cluster, &counter](sim::NodeId, sim::NodeId, const sim::Payload&) {
        if (cluster.sim().now() >= 2 * sim::kSecond) return true;
        return (++counter % 4) == 0;  // deliver only a quarter of messages
      });
  cluster.run_for(8.0);

  EXPECT_GT(cluster.metrics().executed_requests, 500u);
  EXPECT_TRUE(logs_consistent(cluster));
  EXPECT_FALSE(cluster.metrics().safety_violation);
}

TEST(Integration, IdleClusterStaysInViewOne) {
  auto opts = base_opts(4);
  for (auto& g : opts.clients) g.cfg.request_rate = 0;  // no traffic at all
  harness::SimCluster cluster(opts);
  cluster.run_for(10.0);
  // No pending work -> no spurious view changes, no confirmations.
  EXPECT_EQ(cluster.replica(0).view(), 1u);
  EXPECT_EQ(cluster.metrics().executed_requests, 0u);
  EXPECT_EQ(cluster.metrics().view_changes_completed, 0u);
}

TEST(Integration, ChecksumChainMatchesAcrossReplicasAtEqualHeight) {
  auto opts = base_opts(7);
  harness::SimCluster cluster(opts);
  cluster.run_for(4.0);
  // Any two replicas with the same executed height share the state digest.
  for (std::uint32_t a = 0; a < 7; ++a) {
    for (std::uint32_t b = a + 1; b < 7; ++b) {
      if (cluster.replica(a).executed_through() == cluster.replica(b).executed_through()) {
        EXPECT_EQ(cluster.replica(a).state_digest().hex(),
                  cluster.replica(b).state_digest().hex())
            << a << " vs " << b;
      }
    }
  }
}
