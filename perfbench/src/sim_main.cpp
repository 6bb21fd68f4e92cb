// perfbench_sim: the seeded large-n simulation workload.
//
//   perfbench_sim --seed N --seconds WALL [--trace 0|1]
//
// The workload's parameters are the constants below. One in-process,
// single-threaded n-replica Leopard cluster on sim::Network:
// replicas from protocol::make_sim_replica, one open-loop client group per
// non-leader replica submitting at rate/(n-1) with no standing backlog, and
// replica n-1 running the selective attack (its datablocks reach only the
// leader and 2f-1 others, so f replicas must retrieve every one of them).
// The clients stop at the end of the measured window and the cluster drains,
// after which every honest replica must have executed the same prefix with
// the same state digest.
//
// The simulated metrics (throughput, latency) are a pure function of the
// seed. The run repeats the whole experiment until WALL seconds of wall time
// are used (at least once), checks every repetition reproduces the first bit
// for bit, and reports the wall-clock costs: set-up time (see main) and the
// CPU per request of the least disturbed reading of each slice of the window
// (see cpu_us_per_req). --trace 1 also wraps every replica in a timing
// interposer and reports per-layer figures; its CPU cost is reported beside
// the untraced one so the tracing overhead is visible.
//
// Prints one "result {json}" line; exits 1 if a correctness check failed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/replica.hpp"
#include "crypto/threshold_sig.hpp"
#include "obs/json.hpp"
#include "protocol/factory.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"

namespace {

namespace lp = leopard;
using lp::sim::SimTime;
using Clock = std::chrono::steady_clock;

// The workload. n=64 runs the large-n paths (43-share combine, ready
// fan-in at the leader, RS(22, 64) retrieval) while one repetition stays
// within a few seconds of wall time; n=256 takes minutes. At 60 kreq/s over
// 63 makers each datablock closes on the 50 ms timer with ~60 requests,
// well below the simulated cluster's knee, so there is no standing
// backlog. Times are simulated.
constexpr std::uint32_t kN = 64;
constexpr double kRate = 60000;  // requests per simulated second, all clients
constexpr std::uint32_t kPayload = 128;
constexpr std::uint32_t kAlpha = 500;  // datablock_requests
constexpr std::uint32_t kTau = 20;     // bftblock_links
constexpr SimTime kDatablockWait = 50 * lp::sim::kMillisecond;
constexpr SimTime kWarmup = 1 * lp::sim::kSecond;
constexpr SimTime kMeasure = 3 * lp::sim::kSecond;
constexpr SimTime kDrain = 2 * lp::sim::kSecond;
/// The measured window is timed in this many equal slices of simulated time
/// (20 ms each); see cpu_us_per_req.
constexpr std::uint32_t kCpuSlices = 150;

struct Options {
  std::uint64_t seed = 1;
  double wall_seconds = 10;
  bool trace = false;
};

/// The paper's client re-submits to the next replica when a request stays
/// unacked (§IV-1); this is its timeout.
constexpr SimTime kResubmitAfter = 500 * lp::sim::kMillisecond;
/// Set-ups timed in a block before each repetition (see main).
constexpr std::uint32_t kSetupsPerBlock = 5;
/// The replica whose Execute stream counts throughput (the library's
/// designated observer, see LeopardReplica::execute_block).
constexpr std::uint32_t kObserver = 0;

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Tap: a Protocol wrapper in the style of chaos::ByzantineInterposer. The
// wrapped core sees a shim Env that forwards every action unchanged; the tap
// only observes. With timing on it also records the wall time of every
// handler call by message kind.
// ---------------------------------------------------------------------------

enum Kind : std::size_t {
  kClient, kDatablock, kReady, kProposal, kVote, kProof, kQuery, kResponse, kTimer, kOther,
  kKinds
};
constexpr const char* kKindNames[kKinds] = {"client", "datablock", "ready",    "proposal",
                                            "vote",   "proof",     "query",    "response",
                                            "timer",  "other"};

Kind kind_of(const lp::sim::Payload& p) {
  if (dynamic_cast<const lp::proto::ClientRequestMsg*>(&p)) return kClient;
  if (dynamic_cast<const lp::proto::DatablockMsg*>(&p)) return kDatablock;
  if (dynamic_cast<const lp::proto::ReadyMsg*>(&p)) return kReady;
  if (dynamic_cast<const lp::proto::BftBlockMsg*>(&p)) return kProposal;
  if (dynamic_cast<const lp::proto::VoteMsg*>(&p)) return kVote;
  if (dynamic_cast<const lp::proto::ProofMsg*>(&p)) return kProof;
  if (dynamic_cast<const lp::proto::QueryMsg*>(&p)) return kQuery;
  if (dynamic_cast<const lp::proto::ChunkResponseMsg*>(&p)) return kResponse;
  return kOther;
}

/// What the taps observed, shared by every tapped node of one cluster.
struct Book {
  SimTime window_start = 0;
  SimTime window_end = 0;
  std::vector<double> ack_latency_s;  // acks arriving in the window
  std::vector<double> recover_s;      // retrievals completed in the window
  std::uint64_t window_blocks = 0;    // datablocks executed by the observer
  std::uint64_t window_requests = 0;
  std::uint64_t shares = 0;           // signature shares delivered (window)
  std::uint64_t client_requests_sent = 0;  // incl. re-submissions (whole run)
  std::uint64_t handle_ns[kKinds] = {};
  std::vector<std::uint64_t> node_ns;  // handler wall time per replica (window)

  [[nodiscard]] bool in_window(SimTime t) const { return t >= window_start && t < window_end; }
};

class Tap final : public lp::protocol::Protocol {
 public:
  /// `timed` taps (replicas of a traced run) also time their handlers.
  Tap(std::unique_ptr<lp::protocol::Protocol> core, Book& book, bool timed)
      : core_(std::move(core)), book_(book), timed_(timed) {}

  [[nodiscard]] lp::proto::ReplicaId id() const override { return core_->id(); }
  [[nodiscard]] lp::protocol::Protocol& inner() { return *core_; }

  void on_start(lp::protocol::Env& env) override {
    run(env, kOther, [&](lp::protocol::Env& shim) { core_->on_start(shim); });
  }
  void on_message(lp::protocol::Env& env, lp::protocol::NodeId from,
                  const lp::sim::PayloadPtr& payload) override {
    const Kind kind = timed_ ? kind_of(*payload) : kOther;
    if (timed_ && book_.in_window(env.now()) &&
        (kind == kVote || kind == kProposal ||
         dynamic_cast<const lp::proto::CheckpointMsg*>(payload.get()) != nullptr)) {
      ++book_.shares;
    }
    run(env, kind, [&](lp::protocol::Env& shim) { core_->on_message(shim, from, payload); });
  }
  void on_timer(lp::protocol::Env& env, lp::protocol::TimerToken token) override {
    run(env, kTimer, [&](lp::protocol::Env& shim) { core_->on_timer(shim, token); });
  }
  void on_client_request(lp::protocol::Env& env, lp::protocol::NodeId from,
                         const std::shared_ptr<const lp::proto::ClientRequestMsg>& msg) override {
    run(env, kClient,
        [&](lp::protocol::Env& shim) { core_->on_client_request(shim, from, msg); });
  }

 private:
  class Shim final : public lp::protocol::Env {
   public:
    Shim(Tap& tap, lp::protocol::Env& inner) : tap_(tap), inner_(inner) {}
    [[nodiscard]] SimTime now() const override { return inner_.now(); }
    [[nodiscard]] const lp::sim::CostModel& costs() const override { return inner_.costs(); }
    void apply(lp::protocol::Action action) override {
      tap_.observe(action, inner_.now());
      inner_.apply(std::move(action));
    }

   private:
    Tap& tap_;
    lp::protocol::Env& inner_;
  };

  template <typename F>
  void run(lp::protocol::Env& env, Kind kind, F&& handler) {
    Shim shim(*this, env);
    if (!timed_) {
      handler(shim);
      return;
    }
    const auto t0 = Clock::now();
    handler(shim);
    if (!book_.in_window(env.now())) return;
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
    book_.handle_ns[kind] += ns;
    book_.node_ns[core_->id()] += ns;
  }

  void observe(const lp::protocol::Action& action, SimTime now) {
    if (const auto* send = std::get_if<lp::protocol::Send>(&action)) {
      if (const auto* req =
              dynamic_cast<const lp::proto::ClientRequestMsg*>(send->payload.get())) {
        book_.client_requests_sent += req->requests.size();
      }
      return;
    }
    if (!book_.in_window(now)) return;
    if (const auto* m = std::get_if<lp::protocol::MetricsUpdate>(&action)) {
      if (m->metric == lp::protocol::Metric::kAckLatencySample) {
        book_.ack_latency_s.push_back(m->value);
      } else if (m->metric == lp::protocol::Metric::kRecoveryTimeSumSec) {
        book_.recover_s.push_back(m->value);
      }
    } else if (const auto* e = std::get_if<lp::protocol::Execute>(&action)) {
      if (core_->id() == kObserver) {
        ++book_.window_blocks;
        book_.window_requests += e->requests;
      }
    }
  }

  std::unique_ptr<lp::protocol::Protocol> core_;
  Book& book_;
  bool timed_;
};

// ---------------------------------------------------------------------------
// One cluster: construction is the timed set-up.
// ---------------------------------------------------------------------------

struct StageSamples {
  std::vector<double> generation_s, dissemination_s, agreement_s;
};

struct Cluster {
  lp::sim::Simulator sim;
  lp::sim::Network net;
  lp::crypto::ThresholdScheme ts;
  lp::core::ProtocolMetrics metrics;
  Book book;
  StageSamples stages;
  std::vector<lp::protocol::SimReplica> replicas;
  std::vector<lp::core::LeopardReplica*> cores;  // inner cores, by replica id
  std::vector<std::unique_ptr<Tap>> taps;
  std::vector<std::unique_ptr<lp::protocol::SimEnv>> tap_envs;
  std::vector<lp::core::LeopardClient*> clients;
  std::uint32_t leader = 1;
  std::uint32_t attacker = 0;

  Cluster(const Options& o, std::uint32_t f)
      : net(sim, lp::sim::NetworkConfig{}), ts(kN, 2 * f + 1, o.seed) {}
};

std::unique_ptr<Cluster> build_cluster(const Options& o, bool tap_replicas) {
  const std::uint32_t f = (kN - 1) / 3;
  auto c = std::make_unique<Cluster>(o, f);
  c->leader = 1 % kN;
  c->attacker = kN - 1;  // neither the leader nor the observer (replica 0)
  c->book.window_start = kWarmup;
  c->book.window_end = kWarmup + kMeasure;
  c->book.node_ns.assign(kN, 0);

  lp::core::LeopardConfig cfg;
  cfg.n = kN;
  cfg.datablock_requests = kAlpha;
  cfg.bftblock_links = kTau;
  cfg.payload_size = kPayload;
  cfg.datablock_max_wait = kDatablockWait;
  cfg.mempool_capacity = std::max<std::uint32_t>(3 * kAlpha, 4000);
  cfg.view_timeout = 3600 * lp::sim::kSecond;  // the run measures no view change

  c->cores.assign(kN, nullptr);
  for (std::uint32_t id = 0; id < kN; ++id) {
    lp::protocol::ProtocolSpec spec;
    spec.config = cfg;
    if (id == c->attacker) spec.byzantine.selective_recipients = 2 * f;
    if (!tap_replicas) {
      c->replicas.push_back(lp::protocol::make_sim_replica(c->net, c->metrics, spec, c->ts, id));
      c->cores[id] = &c->replicas.back().as<lp::core::LeopardReplica>();
      continue;
    }
    // Traced: the same core, wrapped in a tap before it meets its SimEnv.
    auto tap = std::make_unique<Tap>(lp::protocol::make_protocol(spec, c->ts, id), c->book,
                                     /*timed=*/true);
    auto* core = &dynamic_cast<lp::core::LeopardReplica&>(tap->inner());
    auto env = std::make_unique<lp::protocol::SimEnv>(c->net, c->metrics, kN);
    env->attach(*tap);
    const auto node = c->net.add_node(env.get());
    if (node != id) throw std::runtime_error("replica node ids must equal replica ids");
    env->set_node_id(node);
    Book* book = &c->book;
    StageSamples* st = &c->stages;
    core->set_stage_hooks(
        [book, st](std::uint64_t, std::uint64_t, SimTime ingress, SimTime created) {
          if (book->in_window(created)) {
            st->generation_s.push_back(lp::sim::to_seconds(created - ingress));
          }
        },
        [book, st](std::uint64_t, std::uint64_t, SimTime created, SimTime linked,
                   SimTime executed) {
          if (!book->in_window(executed)) return;
          st->dissemination_s.push_back(lp::sim::to_seconds(linked - created));
          st->agreement_s.push_back(lp::sim::to_seconds(executed - linked));
        });
    c->cores[id] = core;
    c->taps.push_back(std::move(tap));
    c->tap_envs.push_back(std::move(env));
  }

  // Open-loop client groups, one per non-leader replica. Each is tapped so
  // every ack latency is kept exactly (the shared histogram buckets them).
  const double per_group = kRate / static_cast<double>(kN - 1);
  for (std::uint32_t target = 0; target < kN; ++target) {
    if (target == c->leader) continue;
    lp::core::ClientConfig ccfg;
    ccfg.request_rate = per_group;
    ccfg.payload_size = kPayload;
    ccfg.stop_at = c->book.window_end;
    // Under the selective attack some makers never ack a few of their own
    // requests (see README.md), so the re-submission path is exercised.
    ccfg.resubmit_timeout = kResubmitAfter;
    auto client = std::make_unique<lp::core::LeopardClient>(ccfg, target, kN, c->leader,
                                                            o.seed * 1000003ull + target);
    auto* raw = client.get();
    c->clients.push_back(raw);
    auto tap = std::make_unique<Tap>(std::move(client), c->book, /*timed=*/false);
    auto env = std::make_unique<lp::protocol::SimEnv>(c->net, c->metrics, kN);
    env->attach(*tap);
    const auto node = c->net.add_node(env.get(), /*metered=*/false);
    raw->set_self_id(node);
    env->set_node_id(node);
    c->taps.push_back(std::move(tap));
    c->tap_envs.push_back(std::move(env));
  }
  return c;
}

// ---------------------------------------------------------------------------
// One repetition: build, run warmup + window + drain, check, measure.
// ---------------------------------------------------------------------------

struct Rep {
  // Simulated (bit-identical for one seed).
  std::uint64_t executed = 0;     // requests executed in the window
  std::vector<double> latency_s;  // acks in the window
  double throughput_kreqs = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t submitted = 0;
  std::uint64_t acked = 0;
  std::uint64_t resubmits = 0;
  std::string digest;  // honest replicas' common state digest
  std::uint64_t executed_through = 0;
  // Wall clock.
  double user_s = 0;
  double sys_s = 0;
  double window_wall_s = 0;
  std::vector<double> slice_cpu_s;  // process CPU of each window slice
  std::uint64_t events = 0;
  // Correctness.
  bool correct = true;
  std::string violation;
  // Traced repetitions only.
  std::map<std::string, double> layers;
};

double ms_pct(std::vector<double> v, double p) { return perfbench::percentile(v, p) * 1e3; }

Rep run_rep(const Options& o, bool traced) {
  Rep r;
  auto c = build_cluster(o, traced);

  const SimTime window_end = kWarmup + kMeasure;
  c->net.start_all();
  c->sim.run_until(kWarmup);
  c->net.traffic().mark_measurement_start(c->sim.now());
  const auto executed0 = c->metrics.executed_requests;
  const auto recovered0 = c->metrics.datablocks_recovered;
  const auto cpu0 = perfbench::process_cpu();
  const auto wall0 = Clock::now();
  double slice_start = perfbench::process_cpu_seconds();
  for (std::uint32_t k = 1; k <= kCpuSlices; ++k) {
    r.events += c->sim.run_until(kWarmup + kMeasure * k / kCpuSlices);
    const double t = perfbench::process_cpu_seconds();
    r.slice_cpu_s.push_back(t - slice_start);
    slice_start = t;
  }
  r.window_wall_s = elapsed_s(wall0);
  const auto cpu1 = perfbench::process_cpu();
  r.user_s = cpu1.user - cpu0.user;
  r.sys_s = cpu1.sys - cpu0.sys;
  r.executed = c->metrics.executed_requests - executed0;
  const auto recovered = c->metrics.datablocks_recovered - recovered0;
  const auto& traffic = c->net.traffic();
  std::uint64_t msgs = 0;
  for (std::uint32_t id = 0; id < kN; ++id) {
    for (std::size_t comp = 0; comp < static_cast<std::size_t>(lp::sim::Component::kCount);
         ++comp) {
      msgs += traffic.messages(id, lp::sim::Direction::kSend,
                               static_cast<lp::sim::Component>(comp));
    }
  }
  const double leader_send_bps =
      traffic.bandwidth_bps(c->leader, lp::sim::Direction::kSend, c->sim.now());

  // Drain: the clients stopped at the window's end; let every block execute.
  c->sim.run_until(window_end + kDrain);

  r.latency_s = c->book.ack_latency_s;
  r.throughput_kreqs = static_cast<double>(r.executed) / lp::sim::to_seconds(kMeasure) / 1e3;
  r.p50_ms = ms_pct(r.latency_s, 0.50);
  r.p99_ms = ms_pct(r.latency_s, 0.99);
  for (const auto* client : c->clients) {
    r.submitted += client->submitted();
    r.acked += client->acked();
  }
  r.resubmits = c->book.client_requests_sent - r.submitted;

  const auto fail = [&r](std::string why) {
    if (r.correct) r.violation = std::move(why);
    r.correct = false;
  };
  if (c->metrics.safety_violation) fail("safety violation reported by a replica");
  const lp::core::LeopardReplica* ref = c->cores[kObserver];
  r.executed_through = ref->executed_through();
  r.digest = ref->state_digest().hex();
  for (std::uint32_t id = 0; id < kN; ++id) {
    if (id == c->attacker) continue;
    const auto* core = c->cores[id];
    if (core->executed_through() != ref->executed_through() ||
        core->state_digest() != ref->state_digest()) {
      fail("honest replicas " + std::to_string(id) + " and 0 disagree after the drain");
    }
  }
  if (r.acked != r.submitted) fail("requests left unacked after the drain");
  if (r.executed == 0 || r.latency_s.empty()) fail("nothing committed in the window");

  if (traced) {
    const double reqs = static_cast<double>(std::max<std::uint64_t>(r.executed, 1));
    auto& layer = r.layers;
    for (std::size_t k = 0; k < kKinds; ++k) {
      layer[std::string("core.handle_ns_per_req.") + kKindNames[k]] =
          static_cast<double>(c->book.handle_ns[k]) / reqs;
    }
    double busy = 0;
    for (const auto ns : c->book.node_ns) busy += static_cast<double>(ns);
    layer["proc.leader_cpu_share"] =
        busy > 0 ? static_cast<double>(c->book.node_ns[c->leader]) / busy : 0;
    layer["crypto.shares_verified_per_req"] = static_cast<double>(c->book.shares) / reqs;
    layer["erasure.datablocks_recovered"] = static_cast<double>(recovered);
    layer["erasure.recover_ms_p50"] = ms_pct(c->book.recover_s, 0.50);
    layer["sim.events_per_req"] = static_cast<double>(r.events) / reqs;
    layer["sim.ns_per_event"] =
        r.window_wall_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(r.events, 1));
    layer["sim.msgs_per_req"] = static_cast<double>(msgs) / reqs;
    layer["sim.leader_send_mbps"] = leader_send_bps / 1e6;
    layer["core.requests_per_datablock"] =
        c->book.window_blocks > 0 ? static_cast<double>(c->book.window_requests) /
                                        static_cast<double>(c->book.window_blocks)
                                  : 0;
    const auto& st = c->stages;
    layer["core.generation_ms_p50"] = ms_pct(st.generation_s, 0.50);
    layer["core.generation_ms_p99"] = ms_pct(st.generation_s, 0.99);
    layer["core.dissemination_ms_p50"] = ms_pct(st.dissemination_s, 0.50);
    layer["core.dissemination_ms_p99"] = ms_pct(st.dissemination_s, 0.99);
    layer["core.agreement_ms_p50"] = ms_pct(st.agreement_s, 0.50);
    layer["core.agreement_ms_p99"] = ms_pct(st.agreement_s, 0.99);
    layer["proc.user_cpu_us_per_req"] = r.user_s * 1e6 / reqs;
    layer["proc.sys_cpu_us_per_req"] = r.sys_s * 1e6 / reqs;
  }
  return r;
}

double median(std::vector<double> v) { return perfbench::percentile(v, 0.5); }

/// CPU per executed request, from the least disturbed reading of each slice
/// of the window. Every repetition of one seed runs the identical event
/// sequence (checked below), so slice k does the same work in every
/// repetition and its readings differ only in what the host did meanwhile.
/// Host disturbances here come and go within a second (one repetition's
/// slices vary by tens of percent), so the minimum per slice removes them
/// where the minimum per repetition would keep every one that hit it.
double cpu_us_per_req(const std::vector<Rep>& reps) {
  double cpu_s = 0;
  for (std::uint32_t k = 0; k < kCpuSlices; ++k) {
    double best = reps.front().slice_cpu_s[k];
    for (const auto& r : reps) best = std::min(best, r.slice_cpu_s[k]);
    cpu_s += best;
  }
  return cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(reps.front().executed, 1));
}

Options parse(int argc, char** argv) {
  Options o;
  if ((argc - 1) % 2 != 0) {
    std::fprintf(stderr, "usage: perfbench_sim --seed N --seconds WALL [--trace 0|1]\n");
    std::exit(2);
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const char* v = argv[i + 1];
    if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.wall_seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strtoul(v, nullptr, 10) != 0;
    } else {
      std::fprintf(stderr, "perfbench_sim: unknown argument %s\n", a.c_str());
      std::exit(2);
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const auto t_start = Clock::now();

  // Whole repetitions until the wall budget is spent. A traced run
  // alternates untraced and traced repetitions so both CPU costs come from
  // the same process and machine state. Before every repetition, a block
  // of set-ups alone (threshold keys plus cluster construction) is timed;
  // setup_s reports the fastest set-up of the run. Every set-up does the
  // same work, but on a shared host some are slowed by other tenants
  // (set-up times here fall into a fast and a slow group, so a median
  // would depend on which group most blocks land in), and the fastest is
  // the one that was not. The blocks spread over the whole run rather than one instant
  // of it.
  double setup_s = 0;
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  double rss_mb = 0;
  do {
    for (std::uint32_t i = 0; i < kSetupsPerBlock; ++i) {
      const auto t0 = Clock::now();
      auto c = build_cluster(o, false);
      const double s = elapsed_s(t0);
      if (setup_s == 0 || s < setup_s) setup_s = s;
    }
    plain.push_back(run_rep(o, false));
    // Peak memory of one experiment: later repetitions only add allocator
    // churn, and how many fit in the budget depends on the host's speed.
    if (plain.size() == 1) rss_mb = perfbench::peak_rss_mb();
    if (o.trace) traced.push_back(run_rep(o, true));
  } while (elapsed_s(t_start) < o.wall_seconds);

  // Every repetition of one seed must reproduce the first exactly.
  const Rep& first = plain.front();
  bool correct = true;
  std::string violation;
  const auto check = [&](const Rep& r) {
    if (!r.correct) {
      correct = false;
      if (violation.empty()) violation = r.violation;
    }
    if (r.executed != first.executed || r.events != first.events ||
        r.latency_s != first.latency_s ||
        r.digest != first.digest || r.submitted != first.submitted ||
        r.resubmits != first.resubmits) {
      correct = false;
      if (violation.empty()) violation = "a repetition diverged from the first (same seed)";
    }
  };
  for (const auto& r : plain) check(r);
  for (const auto& r : traced) check(r);

  lp::obs::JsonWriter out;
  out.object_begin()
      .key("correct").value(correct)
      .key("violation").value(violation)
      .key("n").value(kN)
      .key("payload").value(kPayload)
      .key("alpha").value(kAlpha)
      .key("attempted").value(first.submitted)
      .key("failed").value(first.submitted - first.acked)
      .key("resubmits").value(first.resubmits)
      .key("repetitions").value(static_cast<std::uint64_t>(plain.size()))
      .key("latency_samples").value(static_cast<std::uint64_t>(first.latency_s.size()))
      .key("window_requests").value(first.executed)
      .key("executed_through").value(first.executed_through)
      .key("state_digest").value(first.digest)
      .key("throughput_kreqs").value(first.throughput_kreqs)
      .key("latency_p50_ms").value(first.p50_ms)
      .key("latency_p99_ms").value(first.p99_ms)
      .key("cpu_us_per_req").value(cpu_us_per_req(plain))
      .key("setup_s").value(setup_s)
      .key("rss_mb").value(rss_mb);
  if (o.trace) {
    // Per-layer figures: medians over the traced repetitions.
    std::map<std::string, std::vector<double>> layers;
    for (const auto& r : traced) {
      for (const auto& [k, v] : r.layers) layers[k].push_back(v);
    }
    for (auto& [k, v] : layers) out.key(k).value(median(v));
    out.key("traced_cpu_us_per_req").value(cpu_us_per_req(traced));
  }
  out.object_end();
  std::printf("result %s\n", out.str().c_str());
  return correct ? 0 : 1;
}
