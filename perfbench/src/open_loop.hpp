// Open-loop request generator for the wire workloads.
//
// The arrival schedule is fixed before the run and drawn from the workload
// seed: request i is due at (i + u_i) / rate seconds after the schedule
// starts, with u_i uniform in [0, 1) from a seeded hash of i. Every timer
// tick sends every request whose due time has passed, so a generator that
// wakes late catches up on the slots it missed instead of silently lowering
// the offered rate. Latency is charged from a request's due time, never from
// the moment it actually left, so a stall anywhere (server or generator)
// shows in the latency of every request scheduled behind it.
//
// Before the schedule starts the client sends one probe request to every
// non-leader replica and waits for all of their acks: the schedule only
// begins once the cluster commits. After `warmup` the measured window runs
// for `window`; requests due in the window are the latency sample. The
// window is cut into equal slices whose edges a host can hook, to sample
// the servers at the same instants. Past the window the generator stops and the client drains
// outstanding requests, re-submitting unacked ones to the next replica,
// until every request is acked or `drain_timeout` expires (the rest count as
// failed).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "protocol/protocol.hpp"
#include "sim/time.hpp"

namespace perfbench {

using leopard::sim::SimTime;

/// The seeded arrival schedule: a pure function of (seed, rate, index).
class Schedule {
 public:
  Schedule(std::uint64_t seed, double rate_per_sec);

  /// Due time of request `i`, in ns after the schedule starts. Strictly
  /// increasing in i.
  [[nodiscard]] SimTime due(std::uint64_t i) const;

  /// Number of requests due before `t` (ns after the schedule starts).
  [[nodiscard]] std::uint64_t count_before(SimTime t) const;

 private:
  std::uint64_t seed_;
  double ns_per_req_;
};

struct OpenLoopConfig {
  double rate = 1000;          // requests per second
  std::uint32_t payload = 128; // bytes per request
  std::uint64_t seed = 1;
  std::uint32_t n = 4;         // replicas (ids 0..n-1)
  leopard::protocol::NodeId leader = 1;
  SimTime warmup = 2 * leopard::sim::kSecond;
  SimTime window = 10 * leopard::sim::kSecond;
  std::uint32_t slices = 1;    // the window is cut into this many slices
  SimTime drain_timeout = 10 * leopard::sim::kSecond;
  /// Re-submit a request to the next non-leader replica when it is still
  /// unacked this long after it was last sent (0 = never).
  SimTime resubmit_after = 2 * leopard::sim::kSecond;
  /// Generator wake-up period.
  SimTime tick = leopard::sim::kMillisecond;
};

/// Counts and samples of one run. Latency and generator-lag samples cover
/// requests due in the measured window only.
struct OpenLoopReport {
  std::uint64_t attempted = 0;      // scheduled requests sent (probes excluded)
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;         // attempted - acked once the run ended
  std::uint64_t resubmits = 0;
  std::uint64_t duplicate_acks = 0; // acks for an already-acked request
  std::uint64_t unknown_acks = 0;   // acks for a request never sent
  std::uint64_t window_requests = 0;  // requests due in the window
  double window_seconds = 0;
  std::uint64_t window_acks = 0;      // acks that arrived in the window
  std::vector<SimTime> lag_ns;        // due → first send, window requests
  std::vector<SimTime> latency_ns;    // due → ack, one per window request
};

class OpenLoopClient final : public leopard::protocol::ProtocolBase {
 public:
  enum class Phase { kProbing, kWarmup, kWindow, kDrain, kDone };

  /// Called at each slice edge of the window, k = 0 (window opens) to
  /// `slices` (window closes); perfbench_client prints them so the benchmark
  /// can sample the replicas' CPU at the same instants.
  using EdgeHook = std::function<void(std::uint32_t k)>;

  OpenLoopClient(OpenLoopConfig cfg, leopard::protocol::NodeId self);

  void set_edge_hook(EdgeHook hook) { edge_hook_ = std::move(hook); }

  [[nodiscard]] leopard::proto::ReplicaId id() const override {
    return static_cast<leopard::proto::ReplicaId>(self_);
  }
  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] bool done() const { return phase_ == Phase::kDone; }

  /// Final counts at env time `end`. Requests still unacked count as
  /// failed; window requests among them enter the latency sample with
  /// `end - due`, a lower bound on a latency that missed every limit.
  /// Call once, after the run.
  [[nodiscard]] OpenLoopReport finish(SimTime end);

  static constexpr std::uint64_t kProbeSeqBase = 1ull << 62;

 protected:
  void do_start() override;
  void do_message(leopard::protocol::NodeId from,
                  const leopard::sim::PayloadPtr& payload) override;
  void do_timer(leopard::protocol::TimerToken token) override;
  void do_client_request(leopard::protocol::NodeId,
                         const leopard::proto::ClientRequestMsg&) override {}

 private:
  enum Timer : leopard::protocol::TimerToken { kTick = 1 };

  struct Slot {
    SimTime sent_at = -1;     // last send, -1 = not yet sent
    leopard::protocol::NodeId sent_to = 0;
    bool acked = false;
  };

  void on_tick();
  void send_due(SimTime now_rel);
  void resubmit_stale(SimTime now);
  void record_latency(std::uint64_t seq, SimTime ack_at);
  [[nodiscard]] leopard::proto::Request make_request(std::uint64_t seq);
  [[nodiscard]] leopard::protocol::NodeId next_replica(leopard::protocol::NodeId from) const;
  [[nodiscard]] bool in_window(std::uint64_t i) const {
    return i >= window_first_ && i < window_end_;
  }

  OpenLoopConfig cfg_;
  leopard::protocol::NodeId self_;
  Schedule schedule_;
  std::uint64_t payload_seed_;
  EdgeHook edge_hook_;
  Phase phase_ = Phase::kProbing;
  std::uint32_t next_edge_ = 0;

  std::uint32_t probes_pending_ = 0;
  SimTime t0_ = 0;             // env time at which the schedule starts
  std::uint64_t total_ = 0;    // requests in the schedule
  std::uint64_t window_first_ = 0;
  std::uint64_t window_end_ = 0;
  std::uint64_t next_ = 0;     // next schedule index to send
  std::uint64_t oldest_unacked_ = 0;
  SimTime drain_deadline_ = 0;

  std::vector<Slot> slots_;
  OpenLoopReport report_;
};

}  // namespace perfbench
