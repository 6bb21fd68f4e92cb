// Unit tests of the open-loop generator: the schedule is a pure function of
// the seed, late wake-ups catch up on missed slots, and a stalled server's
// requests are charged latency from their due time, not from when they were
// finally sent or answered.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "open_loop.hpp"
#include "proto/messages.hpp"
#include "stats.hpp"

namespace {

namespace lp = leopard;
using perfbench::OpenLoopClient;
using perfbench::OpenLoopConfig;
using perfbench::Schedule;
using perfbench::SimTime;
constexpr SimTime kMs = lp::sim::kMillisecond;

/// A hand-cranked Env: the test owns the clock and delivers timers itself.
class FakeEnv final : public lp::protocol::Env {
 public:
  [[nodiscard]] SimTime now() const override { return now_; }
  [[nodiscard]] const lp::sim::CostModel& costs() const override { return costs_; }
  void apply(lp::protocol::Action action) override {
    if (auto* send = std::get_if<lp::protocol::Send>(&action)) {
      const auto msg = std::dynamic_pointer_cast<const lp::proto::ClientRequestMsg>(send->payload);
      for (const auto& r : msg->requests) sent.push_back({send->to, r.seq, now_, r.payload});
    } else if (auto* timer = std::get_if<lp::protocol::SetTimer>(&action)) {
      timer_at = now_ + timer->delay;
    }
  }

  struct Sent {
    lp::protocol::NodeId to;
    std::uint64_t seq;
    SimTime at;
    lp::util::Bytes payload;
  };
  std::vector<Sent> sent;
  SimTime now_ = 0;
  SimTime timer_at = -1;

 private:
  lp::sim::CostModel costs_;
};

void ack(OpenLoopClient& client, FakeEnv& env, const std::vector<std::uint64_t>& seqs) {
  auto msg = std::make_shared<lp::proto::AckMsg>();
  msg->seqs = seqs;
  client.on_message(env, 0, msg);
}

/// Runs the client's tick timer up to `until`, firing it only at the times
/// the env would (so the test controls generator stalls by skipping ahead).
void run_ticks(OpenLoopClient& client, FakeEnv& env, SimTime until) {
  while (env.timer_at >= 0 && env.timer_at <= until && !client.done()) {
    env.now_ = env.timer_at;
    client.on_timer(env, 1);
  }
  env.now_ = std::max(env.now_, until);
}

/// Starts a client and answers its probes at t = 0, so the schedule origin
/// is t = 0.
OpenLoopClient started_client(FakeEnv& env, OpenLoopConfig cfg) {
  OpenLoopClient client(cfg, 100);
  client.on_start(env);
  std::vector<std::uint64_t> probes;
  for (const auto& s : env.sent) probes.push_back(s.seq);
  env.sent.clear();
  ack(client, env, probes);
  EXPECT_EQ(client.phase(), OpenLoopClient::Phase::kWarmup);
  return client;
}

OpenLoopConfig small_config() {
  OpenLoopConfig cfg;
  cfg.rate = 1000;  // one request per ms
  cfg.n = 4;
  cfg.leader = 1;
  cfg.warmup = 0;
  cfg.window = 200 * kMs;
  cfg.drain_timeout = 1000 * kMs;
  cfg.resubmit_after = 0;
  cfg.payload = 16;
  return cfg;
}

TEST(Schedule, SeededStrictlyIncreasingAndCountConsistent) {
  const Schedule a(7, 150000);
  const Schedule b(7, 150000);
  const Schedule c(8, 150000);
  bool differs = false;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_EQ(a.due(i), b.due(i));
    differs |= a.due(i) != c.due(i);
    if (i > 0) {
      EXPECT_LT(a.due(i - 1), a.due(i));
    }
    EXPECT_EQ(a.count_before(a.due(i)), i);
    EXPECT_EQ(a.count_before(a.due(i) + 1), i + 1);
  }
  EXPECT_TRUE(differs);
  // The mean rate is the configured one.
  EXPECT_NEAR(static_cast<double>(a.count_before(lp::sim::kSecond)), 150000.0, 2.0);
}

TEST(OpenLoop, StalledServerChargesLatencyFromDueTime) {
  FakeEnv env;
  auto client = started_client(env, small_config());
  // The server answers nothing for the first 100 ms; the generator keeps
  // sending on schedule regardless (open loop).
  run_ticks(client, env, 100 * kMs);
  const auto sent_during_stall = env.sent.size();
  EXPECT_GE(sent_during_stall, 99u);
  // At t = 100 ms the server recovers and acks everything sent so far.
  std::vector<std::uint64_t> seqs;
  for (const auto& s : env.sent) seqs.push_back(s.seq);
  ack(client, env, seqs);
  // From then on it answers each request the moment it is sent.
  while (!client.done()) {
    const auto before = env.sent.size();
    run_ticks(client, env, env.timer_at);
    seqs.clear();
    for (auto i = before; i < env.sent.size(); ++i) seqs.push_back(env.sent[i].seq);
    if (!seqs.empty()) ack(client, env, seqs);
  }

  auto r = client.finish(env.now_);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.acked, r.attempted);
  auto latency = r.latency_ns;
  ASSERT_EQ(latency.size(), r.window_requests);
  // Request 0 was due within its first ms and waited out the whole stall;
  // request 50 waited about half of it. A closed-loop client would have
  // sent only one request during the stall and hidden the other 99 waits.
  const Schedule schedule(small_config().seed, small_config().rate);
  std::vector<std::int64_t> stalled;
  for (std::uint64_t i = 0; i < sent_during_stall; ++i) {
    stalled.push_back(100 * kMs - schedule.due(i));
  }
  std::sort(stalled.begin(), stalled.end());
  std::vector<std::int64_t> measured(
      latency.begin(), latency.begin() + static_cast<std::ptrdiff_t>(sent_during_stall));
  std::sort(measured.begin(), measured.end());
  EXPECT_EQ(measured, stalled);
  EXPECT_GT(perfbench::percentile(latency, 0.99), 90 * kMs);
  EXPECT_GT(perfbench::percentile(latency, 0.75), 40 * kMs);
}

TEST(OpenLoop, LateGeneratorCatchesUpAndReportsLag) {
  FakeEnv env;
  auto client = started_client(env, small_config());
  // The generator's timer is not serviced for 40 ms (a descheduled client).
  env.now_ = 40 * kMs;
  client.on_timer(env, 1);
  // Every slot due by then left in that one catch-up burst.
  const Schedule schedule(small_config().seed, small_config().rate);
  EXPECT_EQ(env.sent.size(), schedule.count_before(40 * kMs + 1));
  for (const auto& s : env.sent) EXPECT_EQ(s.at, 40 * kMs);
  // An instant server: ack at send time. Latency still counts the
  // generator's lateness, from each request's due time.
  std::vector<std::uint64_t> seqs;
  for (const auto& s : env.sent) seqs.push_back(s.seq);
  ack(client, env, seqs);
  while (!client.done()) {
    const auto before = env.sent.size();
    run_ticks(client, env, env.timer_at);
    seqs.clear();
    for (auto i = before; i < env.sent.size(); ++i) seqs.push_back(env.sent[i].seq);
    if (!seqs.empty()) ack(client, env, seqs);
  }
  auto r = client.finish(env.now_);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.lag_ns.size(), r.window_requests);
  std::vector<std::int64_t> lag = r.lag_ns;
  EXPECT_GT(perfbench::percentile(lag, 1.0), 39 * kMs);
  const auto latency = r.latency_ns;
  EXPECT_EQ(*std::max_element(latency.begin(), latency.end()),
            *std::max_element(r.lag_ns.begin(), r.lag_ns.end()));
}

TEST(OpenLoop, UnansweredRequestsFailAndMissEveryLimit) {
  FakeEnv env;
  auto cfg = small_config();
  cfg.drain_timeout = 50 * kMs;
  auto client = started_client(env, cfg);
  run_ticks(client, env, 10'000 * kMs);  // nothing is ever acked
  ASSERT_TRUE(client.done());
  auto r = client.finish(env.now_);
  EXPECT_EQ(r.acked, 0u);
  EXPECT_EQ(r.failed, r.attempted);
  auto latency = r.latency_ns;
  EXPECT_EQ(latency.size(), r.window_requests);
  // Each failed request is charged at least the time it waited until the
  // run gave up on it.
  EXPECT_GE(perfbench::percentile(latency, 0.0), 50 * kMs);
}

TEST(OpenLoop, SlicesPartitionTheWindow) {
  FakeEnv env;
  auto cfg = small_config();
  cfg.warmup = 20 * kMs;
  cfg.slices = 4;  // 50 ms each
  OpenLoopClient client(cfg, 100);
  std::vector<std::pair<std::uint32_t, SimTime>> edges;
  client.set_edge_hook([&](std::uint32_t k) { edges.emplace_back(k, env.now_); });
  client.on_start(env);
  std::vector<std::uint64_t> seqs;
  for (const auto& s : env.sent) seqs.push_back(s.seq);
  env.sent.clear();
  ack(client, env, seqs);
  while (!client.done()) {  // an instant server
    const auto before = env.sent.size();
    run_ticks(client, env, env.timer_at);
    seqs.clear();
    for (auto i = before; i < env.sent.size(); ++i) seqs.push_back(env.sent[i].seq);
    if (!seqs.empty()) ack(client, env, seqs);
  }
  ASSERT_EQ(edges.size(), 5u);
  for (std::uint32_t k = 0; k < edges.size(); ++k) {
    EXPECT_EQ(edges[k].first, k);
    EXPECT_EQ(edges[k].second, cfg.warmup + k * 50 * kMs);  // ticks land on whole ms
  }
  auto r = client.finish(env.now_);
  const Schedule schedule(cfg.seed, cfg.rate);
  EXPECT_EQ(r.window_requests,
            schedule.count_before(cfg.warmup + 200 * kMs) - schedule.count_before(cfg.warmup));
  EXPECT_EQ(r.latency_ns.size(), r.window_requests);
  // Instant acks land in the window, except for the last slot, which may
  // only leave at the closing edge.
  EXPECT_LE(r.window_requests - r.window_acks, 1u);
}

TEST(OpenLoop, ResubmitsRotateAwayFromTheLeaderAndResendTheSameRequest) {
  FakeEnv env;
  auto cfg = small_config();
  cfg.window = 5 * kMs;
  cfg.resubmit_after = 20 * kMs;
  auto client = started_client(env, cfg);
  run_ticks(client, env, 60 * kMs);
  auto r = client.finish(env.now_);
  EXPECT_GT(r.resubmits, 0u);
  std::map<std::uint64_t, std::vector<lp::protocol::NodeId>> route;
  std::map<std::uint64_t, lp::util::Bytes> payload;
  for (const auto& s : env.sent) {
    route[s.seq].push_back(s.to);
    const auto it = payload.emplace(s.seq, s.payload).first;
    EXPECT_EQ(it->second, s.payload) << "seq " << s.seq;  // inputs: f(seed, seq)
    EXPECT_EQ(s.payload.size(), cfg.payload);
  }
  for (const auto& [seq, tos] : route) {
    for (const auto to : tos) EXPECT_NE(to, cfg.leader) << "seq " << seq;
    for (std::size_t i = 1; i < tos.size(); ++i) EXPECT_NE(tos[i], tos[i - 1]);
  }
}

}  // namespace
