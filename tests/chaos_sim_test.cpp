// Adversarial scenario engine, sim side: seeded coverage-guided trace
// mutation sweeps over every protocol core, with the chaos oracles asserting
// the ICDCS safety invariants on each mutated replay, plus known-bad
// self-tests proving the oracles actually detect violations.
//
// Sweep size and seed are runtime knobs so CI can turn the same binary into a
// long fuzz job and a failure is reproducible outside the sweep:
//
//   chaos_sim_test --chaos-seed N     (or env CHAOS_SEED)
//   chaos_sim_test --chaos-traces N   (or env CHAOS_TRACES; per protocol)
//
// Every oracle failure prints the sweep seed, the case seed, and the decoded
// mutation plan; re-running with --chaos-seed reproduces the exact sweep.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "baselines/hotstuff.hpp"
#include "baselines/pbft.hpp"
#include "chaos/mutator.hpp"
#include "chaos/oracles.hpp"
#include "harness/experiment.hpp"
#include "protocol/factory.hpp"
#include "protocol/replay.hpp"

using namespace leopard;

namespace {

std::uint64_t g_sweep_seed = 1;
std::uint64_t g_traces = 200;  // mutated traces per protocol

harness::SimClusterConfig leopard_opts() {
  core::LeopardConfig protocol;
  protocol.n = 4;
  protocol.datablock_requests = 50;
  protocol.bftblock_links = 2;
  protocol.datablock_max_wait = 100 * sim::kMillisecond;
  protocol.proposal_max_wait = 50 * sim::kMillisecond;
  protocol.view_timeout = 30 * sim::kSecond;
  protocol.payload_size = 64;
  core::ClientConfig client;
  client.request_rate = 2000;
  client.payload_size = 64;
  client.burst = 1;
  harness::SimClusterConfig o;
  o.spec.config = protocol;
  o.net.propagation_delay = 100 * sim::kMicrosecond;
  o.seed = 21;
  o.clients = harness::groups_per_replica(4, 1, client, o.seed + 100);
  o.record = true;
  return o;
}

/// A recorded baseline cluster: one client group offering `rate` req/s to
/// the leader (replica 0), as in baselines_test.
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
  o.record = true;
  return o;
}

/// One full mutation sweep against a recorded base trace. `make_fresh` builds
/// a core configured exactly like the recorded replica; `honest` is the
/// unmutated execute stream the no-conflict oracle joins against.
template <typename MakeFresh>
void run_sweep(const char* label, const protocol::Trace& base,
               const std::vector<chaos::ExecRecord>& honest, std::uint32_t n,
               MakeFresh make_fresh) {
  ASSERT_GT(base.steps.size(), 100u) << label << ": base trace is trivial";
  ASSERT_FALSE(honest.empty()) << label << ": honest run executed nothing";

  chaos::TraceMutator mutator(g_sweep_seed, n);
  std::array<std::uint64_t, chaos::kMutationClassCount> class_uses{};
  for (std::uint64_t case_seed = 1; case_seed <= g_traces; ++case_seed) {
    const auto plan = mutator.plan(case_seed, base);
    for (const auto& op : plan.ops) ++class_uses[static_cast<std::size_t>(op.cls)];

    const auto input = mutator.mutated_input(plan, base);
    protocol::ReplayEnv env;
    if (auto filter = mutator.make_filter(plan)) env.set_event_filter(std::move(filter));
    auto fresh = make_fresh();
    const auto replayed = env.replay(*fresh, input);

    const auto stream = chaos::execute_stream(replayed);
    auto verdict = chaos::check_monotonic_commit(stream, "mutated replica");
    verdict.merge(chaos::check_no_conflict(stream, "mutated replica", honest, "honest run"));
    ASSERT_TRUE(verdict.ok())
        << label << ": safety violation under mutation\n"
        << "  sweep seed " << g_sweep_seed << ", case seed " << case_seed << ", "
        << plan.describe() << "\n"
        << "  reproduce: chaos_sim_test --chaos-seed " << g_sweep_seed << "\n"
        << verdict.summary();
    mutator.record_coverage(plan, replayed);
  }

  // Coverage guidance must have engaged, and (on a full-size sweep) every
  // mutation class must have fired at least once.
  EXPECT_GT(mutator.feature_count(), 0u) << label;
  EXPECT_GE(mutator.corpus_size(), 1u) << label;
  if (g_traces >= 50) {
    for (std::uint32_t cls = 0; cls < chaos::kMutationClassCount; ++cls) {
      EXPECT_GT(class_uses[cls], 0u)
          << label << ": mutation class "
          << chaos::mutation_class_name(static_cast<chaos::MutationClass>(cls))
          << " never exercised";
    }
  }
}

}  // namespace

// --- oracle self-tests: seeded violations MUST be caught ---------------------

TEST(ChaosOracles, PassOnHonestCluster) {
  harness::SimCluster cluster(leopard_opts());
  cluster.run_for(1.0);
  ASSERT_GT(cluster.metrics().executed_requests, 100u);

  std::vector<std::vector<chaos::ExecRecord>> streams;
  std::vector<std::map<std::uint64_t, crypto::Digest>> logs;
  for (std::uint32_t id = 0; id < 4; ++id) {
    streams.push_back(chaos::execute_stream(cluster.trace(id)));
    EXPECT_FALSE(streams.back().empty()) << "replica " << id;
    std::map<std::uint64_t, crypto::Digest> log;
    for (const auto& [sn, digest] : cluster.replica(id).confirmed_log()) log.emplace(sn, digest);
    logs.push_back(std::move(log));
  }
  EXPECT_TRUE(chaos::check_cross_replica_consistency(streams).ok())
      << chaos::check_cross_replica_consistency(streams).summary();
  EXPECT_TRUE(chaos::check_confirmed_logs(logs).ok());

  // Identical streams fold to identical digests; a tampered one must not.
  const auto honest_fold = chaos::fold_digest(streams[0]);
  auto tampered = streams[0];
  tampered.back().fingerprint ^= 1;
  EXPECT_NE(chaos::fold_digest(tampered), honest_fold);
}

TEST(ChaosOracles, CatchForkedCommit) {
  // Known-bad input: two replicas execute the same coordinate with different
  // blocks. The no-conflict oracle must flag it — this is the self-test that
  // keeps the sweep's green light meaningful.
  harness::SimCluster cluster(leopard_opts());
  cluster.run_for(1.0);
  auto a = chaos::execute_stream(cluster.trace(0));
  ASSERT_GT(a.size(), 3u);
  auto b = a;
  b[b.size() / 2].fingerprint ^= 0xDEADBEEF;

  const auto verdict = chaos::check_no_conflict(a, "replica A", b, "replica B");
  EXPECT_FALSE(verdict.ok()) << "forked commit not detected";
  EXPECT_FALSE(chaos::check_cross_replica_consistency({a, b}).ok());

  // Divergent request counts at a shared coordinate are a fork too.
  auto c = a;
  c.front().requests += 1;
  EXPECT_FALSE(chaos::check_no_conflict(a, "replica A", c, "replica C").ok());
}

TEST(ChaosOracles, CatchNonMonotonicCommit) {
  harness::SimCluster cluster(leopard_opts());
  cluster.run_for(1.0);
  auto stream = chaos::execute_stream(cluster.trace(0));
  ASSERT_GT(stream.size(), 3u);
  EXPECT_TRUE(chaos::check_monotonic_commit(stream, "honest").ok());

  // Rollback: re-execute an earlier coordinate at the tail.
  auto rollback = stream;
  rollback.push_back(rollback.front());
  EXPECT_FALSE(chaos::check_monotonic_commit(rollback, "rollback").ok());

  // Duplicate: the same coordinate twice in a row.
  auto dup = stream;
  dup.insert(dup.begin() + 1, dup[1]);
  EXPECT_FALSE(chaos::check_monotonic_commit(dup, "duplicate").ok());
}

TEST(ChaosOracles, CatchConflictingConfirmedLogs) {
  harness::SimCluster cluster(leopard_opts());
  cluster.run_for(1.0);
  std::map<std::uint64_t, crypto::Digest> log_a;
  for (const auto& [sn, digest] : cluster.replica(0).confirmed_log()) log_a.emplace(sn, digest);
  ASSERT_GT(log_a.size(), 2u);

  auto log_b = log_a;
  const util::Bytes poison{0x66, 0x6F, 0x72, 0x6B};
  log_b.begin()->second = crypto::Digest::of(poison);
  EXPECT_TRUE(chaos::check_confirmed_logs({log_a, log_a}).ok());
  EXPECT_FALSE(chaos::check_confirmed_logs({log_a, log_b}).ok());
}

// --- mutation sweeps: >= g_traces mutated replays per protocol ---------------

TEST(ChaosSweep, LeopardSurvivesMutatedTraces) {
  harness::SimCluster cluster(leopard_opts());
  cluster.run_for(1.0);
  ASSERT_GT(cluster.metrics().executed_requests, 100u);

  const auto& base = cluster.trace(0);
  run_sweep("leopard", base, chaos::execute_stream(base), 4, [&] {
    return protocol::make_protocol(cluster.config().spec, cluster.scheme(), 0);
  });
}

TEST(ChaosSweep, HotStuffSurvivesMutatedTraces) {
  baselines::HotStuffConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 100;
  harness::SimCluster cluster(baseline_opts(cfg, 20000));
  cluster.run_for(1.0);
  ASSERT_GT(cluster.metrics().executed_requests, 1000u);

  const auto& base = cluster.trace(0);
  run_sweep("hotstuff", base, chaos::execute_stream(base), cfg.n, [&] {
    return protocol::make_protocol(cluster.config().spec, cluster.scheme(), 0);
  });
}

TEST(ChaosSweep, PbftSurvivesMutatedTraces) {
  baselines::PbftConfig cfg;
  cfg.n = 4;
  cfg.batch_size = 100;
  harness::SimCluster cluster(baseline_opts(cfg, 20000));
  cluster.run_for(1.0);
  ASSERT_GT(cluster.metrics().executed_requests, 1000u);

  const auto& base = cluster.trace(0);
  run_sweep("pbft", base, chaos::execute_stream(base), cfg.n, [&] {
    return protocol::make_protocol(cluster.config().spec, cluster.scheme(), 0);
  });
}

// --- sharded scenarios: S = 2 instances + the cross-shard merge oracle -------

TEST(ChaosSharded, ReferenceMergeOracleCatchesTampering) {
  // Self-test for the merge oracle itself (same ethos as ChaosOracles above):
  // synthetic shard-local streams whose reference re-merge is known, then
  // known-bad perturbations that MUST change the merged stream. A green
  // sharded sweep is only meaningful if this detector actually fires.
  std::vector<std::vector<chaos::ExecRecord>> streams(2);
  for (std::uint64_t q = 0; q < 4; ++q) {
    streams[0].push_back({q, 0, 1000 + q, 3});
    if (q != 2) streams[1].push_back({q, 0, 2000 + q, 5});  // gap round at sn 2
  }
  // Shard 0 exhausts after its sn-3 record with no proof beyond it, so the
  // merge parks there: shard 1's sn 3 stays buffered and 6 records emit.
  const auto honest = shard::reference_merge(streams);
  ASSERT_EQ(honest.size(), 6u);
  // Global coordinates carry the shard in the packed ordinal; round-robin
  // order within a round.
  EXPECT_EQ(shard::ordinal_shard(honest[0].ordinal), 0u);
  EXPECT_EQ(shard::ordinal_shard(honest[1].ordinal), 1u);
  EXPECT_TRUE(chaos::check_monotonic_commit(honest, "reference").ok());

  // A forked block in one shard stream changes the merge (and would trip the
  // cross-replica no-conflict join against an honest merge).
  auto forked = streams;
  forked[0][2].fingerprint ^= 0xDEADBEEF;
  EXPECT_NE(shard::reference_merge(forked), honest);
  EXPECT_FALSE(chaos::check_no_conflict(shard::reference_merge(forked), "forked", honest,
                                        "honest")
                   .ok());

  // Dropping a mid-stream record shifts every later slot of that shard.
  auto dropped = streams;
  dropped[1].erase(dropped[1].begin() + 1);
  EXPECT_NE(shard::reference_merge(dropped), honest);

  // Swapping two rounds inside one shard breaks shard-local monotonicity —
  // the per-shard oracle must catch it before the merge is even consulted.
  auto swapped = streams[0];
  std::swap(swapped[1], swapped[2]);
  EXPECT_FALSE(chaos::check_monotonic_commit(swapped, "swapped").ok());
}

TEST(ChaosSharded, MergeOracleHoldsWithByzantineNodeInEveryShard) {
  // Physical machine 3 attacks BOTH consensus instances it hosts — and by the
  // leader rotation those are different core roles: shard-0 core 3 mounts
  // the §V case-b selective multicast, shard-1 core 2 withholds every vote
  // (exactly f = 1 silent voter). Both shards stay quorate, so every shard
  // keeps committing and the cross-shard merge must stay deterministic on
  // every replica; the attacks here are execution-honest, so the oracle can
  // include the byzantine machine rather than just the honest set.
  harness::ExperimentConfig ec;
  ec.n = 4;
  ec.datablock_requests = 100;
  ec.bftblock_links = 4;
  ec.offered_load = 20000;
  ec.proposal_max_wait = 20 * sim::kMillisecond;
  ec.seed = 29;
  auto cfg = harness::experiment_cluster(ec);
  std::get<core::LeopardConfig>(cfg.spec.config).datablock_max_wait = 50 * sim::kMillisecond;
  cfg.shards = 2;
  cfg.record = true;
  cfg.mutate_spec = [](protocol::ProtocolSpec& spec, sim::NodeId phys, std::uint32_t shard) {
    if (phys != 3) return;
    if (shard == 0) {
      spec.byzantine.selective_recipients = 2;
    } else {
      spec.byzantine.withhold_votes = true;
    }
  };
  harness::SimCluster cluster(std::move(cfg));
  cluster.run_until(6 * sim::kSecond);

  // Both wounded instances keep committing on the honest replicas.
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto streams = cluster.node(i).shard_streams();
    for (std::uint32_t s = 0; s < streams.size(); ++s) {
      EXPECT_FALSE(streams[s].empty())
          << "replica " << i << " shard " << s << " committed nothing";
    }
    EXPECT_FALSE(cluster.node(i).merged().empty()) << "replica " << i;
  }
  EXPECT_GT(cluster.client_acked(), 0u);
  EXPECT_FALSE(cluster.metrics().safety_violation);

  // The sharded merge oracle: per-shard monotonicity, per-node reference
  // re-merge equality, cross-replica conflict-freedom on merged streams.
  const auto oracle = cluster.check_sharded_invariants();
  EXPECT_TRUE(oracle.ok()) << oracle.summary();

  // Under the selective attack a retrieval-starved replica may legitimately
  // adopt a checkpoint and SKIP coordinates, so honest merged streams need
  // not be prefix-equal (that stricter fault-free property lives in
  // shard_test): the honest-set guarantee under attack is the conflict-free
  // join — and the join must actually overlap, or the check is vacuous.
  const auto& a = cluster.node(0).merged();
  for (std::uint32_t i = 1; i < 3; ++i) {
    const auto& b = cluster.node(i).merged();
    const auto verdict = chaos::check_no_conflict(a, "replica 0", b,
                                                  "replica " + std::to_string(i));
    EXPECT_TRUE(verdict.ok()) << verdict.summary();

    std::set<std::pair<std::uint64_t, std::uint32_t>> coords;
    for (const auto& rec : a) coords.emplace(rec.seq, rec.ordinal);
    std::size_t shared = 0;
    for (const auto& rec : b) shared += coords.count({rec.seq, rec.ordinal});
    EXPECT_GT(shared, 100u) << "replica 0 vs " << i << ": join barely overlaps";
  }
}

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (const char* env = std::getenv("CHAOS_SEED")) g_sweep_seed = std::strtoull(env, nullptr, 10);
  if (const char* env = std::getenv("CHAOS_TRACES")) g_traces = std::strtoull(env, nullptr, 10);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--chaos-seed" && i + 1 < argc) {
      g_sweep_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--chaos-traces" && i + 1 < argc) {
      g_traces = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  if (g_traces == 0) g_traces = 1;
  std::printf("[chaos] sweep seed=%llu traces per protocol=%llu\n",
              static_cast<unsigned long long>(g_sweep_seed),
              static_cast<unsigned long long>(g_traces));
  return RUN_ALL_TESTS();
}
