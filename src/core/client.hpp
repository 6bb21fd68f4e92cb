// Client group as a sans-I/O protocol core: submits request batches to an
// assigned replica (the paper's µ(req) deterministic assignment), measures
// submit→ack latency, and re-submits to the next replica on timeout (§IV-1:
// "up to f times changes will guarantee the existence of an honest replica").
//
// Like the replicas, the client is a `protocol::Protocol`: pacing and
// re-submission run on `SetTimer`/`TimerFired`, submissions leave as `Send`
// actions, and ack latency is reported through `MetricsUpdate`
// (`Metric::kAckLatencySample`). The same core therefore drives both the
// discrete-event simulator (`SimEnv`, hosted by `harness::SimCluster`) and a
// real deployment (`net::SocketEnv`, via `leopard_node --client`).
//
// Two load modes:
//   - open loop (default): Poisson-paced bursts at `request_rate` req/s, the
//     paper's saturation workload;
//   - closed loop (`closed_loop_window` > 0): keeps a fixed window of
//     requests outstanding, refilling on acks — the socket-mode throughput
//     driver (achieved rate = acked / wall time).
//
// A ClientGroup aggregates all clients attached to one replica; under the
// simulator it is an unmetered node (its own NIC/CPU are not modelled) but
// its traffic meters the replica side, which is what Table III's "Reqs. from
// Clients" row needs.
#pragma once

#include <cstdint>
#include <map>

#include "proto/messages.hpp"
#include "protocol/protocol.hpp"
#include "util/rng.hpp"

namespace leopard::core {

struct ClientConfig {
  /// Requests per second this group submits (0 = inject nothing). Ignored in
  /// closed-loop mode.
  double request_rate = 0;
  std::uint32_t payload_size = 128;
  /// Materialize payload bytes (true) or use synthetic sizes (false).
  bool real_payload = false;
  /// Re-submit to the next replica if unacked after this long (0 = never).
  sim::SimTime resubmit_timeout = 0;
  /// Stop submitting at this time (<0 = run forever).
  sim::SimTime stop_at = -1;
  /// Requests injected in one burst at t = 0 (models a standing backlog:
  /// "stress test with a saturated request rate", §VI-A).
  std::uint32_t initial_backlog = 0;
  /// Requests batched per submission message (transport pipelining; 0 = pick
  /// automatically from the rate so event counts stay bounded).
  std::uint32_t burst = 0;
  /// Submit each request to this many replicas at once (§IV-1: "The number
  /// of identified replicas in each submit can also be as large as f+1 —
  /// more replicas lower latency whereas fewer replicas increase
  /// throughput"). 1 = the paper's default single-replica submission.
  std::uint32_t submit_copies = 1;
  /// Route each request by the deterministic µ(req) assignment instead of
  /// pinning this group to one replica (§IV-1 load balancing).
  bool route_by_mu = false;
  /// Closed-loop mode: keep this many requests outstanding, topping the
  /// window up as acks arrive (0 = open loop).
  std::uint32_t closed_loop_window = 0;
  /// Stop submitting after this many requests in total (0 = unlimited).
  std::uint64_t total_requests = 0;
};

class LeopardClient final : public protocol::ProtocolBase {
 public:
  /// `target` is the replica this group submits to; `replica_count` bounds
  /// the re-submission rotation; `avoid` (the initial leader) is skipped.
  LeopardClient(ClientConfig cfg, protocol::NodeId target, std::uint32_t replica_count,
                protocol::NodeId avoid, std::uint64_t seed);

  // -- protocol::Protocol ----------------------------------------------------
  [[nodiscard]] proto::ReplicaId id() const override {
    return static_cast<proto::ReplicaId>(self_);
  }

  /// Env-level node id of this client group; must be set before Start (it is
  /// the `client_id` carried by every request, which replicas ack to).
  void set_self_id(protocol::NodeId id) { self_ = id; }

  [[nodiscard]] std::uint64_t submitted() const { return next_seq_; }
  [[nodiscard]] std::uint64_t acked() const { return acked_; }
  [[nodiscard]] std::uint64_t outstanding() const { return outstanding_.size(); }
  /// True once every configured request (total_requests) has been acked.
  [[nodiscard]] bool done() const {
    return cfg_.total_requests > 0 && acked_ >= cfg_.total_requests;
  }

 protected:
  // -- protocol::ProtocolBase hooks ------------------------------------------
  void do_start() override;
  void do_message(protocol::NodeId from, const sim::PayloadPtr& payload) override;
  void do_timer(protocol::TimerToken token) override;
  void do_client_request(protocol::NodeId, const proto::ClientRequestMsg&) override {}

 private:
  // Timer tokens (the client arms at most one of each).
  enum Timer : protocol::TimerToken {
    kSubmitTick = 1,    // open-loop Poisson pacing
    kResubmitTick = 2,  // re-submission scan
    kBacklogBurst = 3,  // staggered standing-backlog injection
  };

  [[nodiscard]] std::uint64_t remaining_budget() const;
  /// Request `seq` as sent at `submitted_at`; identical on every (re)send.
  [[nodiscard]] proto::Request make_request(std::uint64_t seq, sim::SimTime submitted_at) const;
  void submit_burst(std::uint32_t count);
  void submit_next();
  void refill_window();
  void resubmit_tick();

  struct Outstanding {
    sim::SimTime submitted_at = 0;
    sim::SimTime last_sent_at = 0;
    std::uint32_t attempts = 1;
    protocol::NodeId sent_to = 0;
  };

  ClientConfig cfg_;
  protocol::NodeId self_ = 0;
  protocol::NodeId target_;
  std::uint32_t replica_count_;
  protocol::NodeId avoid_;
  std::uint64_t seed_;  // with seq, derives each request's payload bytes
  util::Rng rng_;

  std::uint64_t next_seq_ = 0;
  std::uint64_t acked_ = 0;
  std::map<std::uint64_t, Outstanding> outstanding_;
  static constexpr std::size_t kMaxTracked = 400000;  // bound memory at saturation
};

}  // namespace leopard::core
