// Sans-I/O protocol API: action-trace determinism, SimEnv equivalence (the
// recording layer must not perturb a run), offline replay fidelity, and
// fault injection at the API boundary (no network machinery required).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <variant>

#include "cluster_fixture.hpp"
#include "protocol/replay.hpp"

using namespace leopard;

namespace {

harness::SimClusterConfig trace_opts(bool record) {
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
  o.net.propagation_delay = 100 * sim::kMicrosecond;  // tight for fast tests
  o.seed = 21;
  o.clients = harness::groups_per_replica(4, 1, client, o.seed + 100);
  o.record = record;
  return o;
}

const core::LeopardConfig& protocol_of(const harness::SimCluster& cluster) {
  return std::get<core::LeopardConfig>(cluster.config().spec.config);
}

}  // namespace

TEST(ProtocolApi, ActionTracesAreDeterministicAcrossRuns) {
  // Same seed => byte-identical event/action traces at every replica. This is
  // the contract that makes a recorded trace a debugging artifact: any
  // divergence between two same-seed runs is a bug, and serialized traces
  // pinpoint the first divergent step.
  harness::SimCluster a(trace_opts(true));
  harness::SimCluster b(trace_opts(true));
  a.run_for(2.0);
  b.run_for(2.0);

  ASSERT_GT(a.metrics().executed_requests, 1000u);
  for (std::uint32_t id = 0; id < 4; ++id) {
    const auto& ta = a.trace(id);
    const auto& tb = b.trace(id);
    EXPECT_GT(ta.steps.size(), 100u) << "replica " << id << " trace is trivial";
    EXPECT_GT(ta.action_count(), 100u);
    ASSERT_EQ(ta.steps.size(), tb.steps.size()) << "replica " << id;
    EXPECT_EQ(ta.digest(), tb.digest()) << "replica " << id;
  }
}

TEST(ProtocolApi, RecordingEnvMatchesDirectRun) {
  // SimEnv-vs-direct equivalence: turning the recorder on must not change
  // protocol behaviour — confirmed logs and execution horizons are identical.
  harness::SimCluster recorded(trace_opts(true));
  harness::SimCluster direct(trace_opts(false));
  recorded.run_for(2.0);
  direct.run_for(2.0);

  ASSERT_GT(direct.metrics().executed_requests, 1000u);
  EXPECT_EQ(recorded.metrics().executed_requests, direct.metrics().executed_requests);
  for (std::uint32_t id = 0; id < 4; ++id) {
    EXPECT_EQ(recorded.replica(id).executed_through(), direct.replica(id).executed_through())
        << "replica " << id;
    EXPECT_EQ(recorded.replica(id).confirmed_log(), direct.replica(id).confirmed_log())
        << "replica " << id;
  }
  EXPECT_TRUE(test::logs_consistent(recorded));
}

TEST(ProtocolApi, ReplayReproducesRecordedBehaviour) {
  // A fresh core driven by ReplayEnv from a recorded event stream — no
  // simulator, no network — must emit the exact action trace the original
  // produced and land in the same confirmed state. Exercised for both a
  // follower (id 0, the observer) and the leader (id 1).
  harness::SimCluster cluster(trace_opts(true));
  cluster.run_for(2.0);
  ASSERT_GT(cluster.metrics().executed_requests, 1000u);

  for (const std::uint32_t id : {0u, 1u}) {
    core::LeopardReplica fresh(protocol_of(cluster), cluster.scheme(), id);
    protocol::ReplayEnv env;
    const auto replayed = env.replay(fresh, cluster.trace(id));
    EXPECT_EQ(replayed.digest(), cluster.trace(id).digest()) << "replica " << id;
    EXPECT_EQ(fresh.confirmed_log(), cluster.replica(id).confirmed_log()) << "replica " << id;
    EXPECT_EQ(fresh.executed_through(), cluster.replica(id).executed_through())
        << "replica " << id;
    EXPECT_EQ(fresh.state_digest(), cluster.replica(id).state_digest()) << "replica " << id;
  }
}

TEST(ProtocolApi, ReplayFaultInjectionDropsConfirmationsSafely) {
  // Byzantine/fuzz injection at the API boundary: drop every round-2 proof
  // delivered to the follower and replay. The core must stay well-behaved —
  // no crash, and its (reduced) confirmed log stays a subset of the
  // original's, never a conflicting entry.
  harness::SimCluster cluster(trace_opts(true));
  cluster.run_for(2.0);
  ASSERT_GT(cluster.replica(0).executed_through(), 10u);

  core::LeopardReplica fresh(protocol_of(cluster), cluster.scheme(), 0);
  protocol::ReplayEnv env;
  std::size_t dropped = 0;
  env.set_event_filter([&](protocol::TraceStep& step) {
    const auto* in = std::get_if<protocol::MessageIn>(&step.event);
    if (in == nullptr) return true;
    const auto* proof = dynamic_cast<const proto::ProofMsg*>(in->payload.get());
    if (proof != nullptr && proof->round == 2) {
      ++dropped;
      return false;
    }
    return true;
  });
  (void)env.replay(fresh, cluster.trace(0));

  EXPECT_GT(dropped, 10u);
  EXPECT_LT(fresh.confirmed_log().size(), cluster.replica(0).confirmed_log().size());
  const auto& original = cluster.replica(0).confirmed_log();
  for (const auto& [sn, digest] : fresh.confirmed_log()) {
    const auto it = original.find(sn);
    if (it != original.end()) EXPECT_EQ(it->second, digest) << "sn " << sn;
  }
}

TEST(ProtocolApi, TraceSerializationDetectsDivergence) {
  // The serialized form must distinguish traces that differ in one payload
  // field or one dropped step — otherwise determinism checks are vacuous.
  // (Wire.FingerprintSeesEveryWiredField covers every field of every type.)
  harness::SimCluster cluster(trace_opts(true));
  cluster.run_for(1.0);

  const auto original_digest = cluster.trace(0).digest();
  protocol::Trace copy = cluster.trace(0);
  ASSERT_GT(copy.steps.size(), 2u);
  copy.steps.pop_back();
  EXPECT_NE(copy.digest(), original_digest);

  copy = cluster.trace(0);
  const auto it = std::find_if(copy.steps.begin(), copy.steps.end(), [](const auto& step) {
    return std::holds_alternative<protocol::ClientRequest>(step.event);
  });
  ASSERT_NE(it, copy.steps.end());
  auto& in = std::get<protocol::ClientRequest>(it->event);
  auto edited = std::make_shared<proto::ClientRequestMsg>(*in.request);
  edited->requests[0].payload_size ^= 1;
  in.request = std::move(edited);
  EXPECT_NE(copy.digest(), original_digest);
}
