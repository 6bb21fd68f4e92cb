// Sans-I/O protocol core API: the §IV state machines (and the baselines) as
// pure event-driven cores, decoupled from any transport or clock.
//
// A `Protocol` consumes typed events — `MessageIn{from, payload}`,
// `TimerFired{token}`, `ClientRequest{from, request}`, `Start` — and emits a
// batch of typed actions (`Send`, `Broadcast`, `SetTimer`/`CancelTimer`,
// `Execute`, `MetricsUpdate`, `ChargeCpu`) through an `Env` sink. The core
// never calls `sim::Network::send` or `Simulator::schedule` itself, so the
// same state machine can run
//
//   - inside the discrete-event simulator (`SimEnv`, sim_env.hpp) — the
//     default for every bench and figure reproduction;
//   - against a recorded event stream (`ReplayEnv`, replay.hpp) for
//     deterministic debugging and byzantine/fuzz injection at the API
//     boundary;
//   - in a future socket-based deployment, by translating actions to real
//     I/O (see docs/ARCHITECTURE.md).
//
// Contract: actions are applied synchronously, in emission order, by the Env.
// The core may read the clock (`Env::now`) and the CPU cost model
// (`Env::costs`) — both are pure data — but performs no I/O of its own.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "proto/messages.hpp"
#include "sim/cost_model.hpp"
#include "sim/message.hpp"
#include "sim/time.hpp"

namespace leopard::protocol {

/// Transport-level peer identity (node ids are assigned by whichever Env
/// hosts the core; replicas use ids 0..n-1).
using NodeId = sim::NodeId;

/// Opaque timer identity, allocated by the protocol core. The Env echoes the
/// token back through `TimerFired`; it never interprets it.
using TimerToken = std::uint64_t;

// ---------------------------------------------------------------------------
// Events (inputs)
// ---------------------------------------------------------------------------

/// Delivered once when the deployment starts (after all peers are wired up).
struct Start {};

/// An authenticated peer message (reliable, FIFO per link — §III-A model).
struct MessageIn {
  NodeId from = 0;
  sim::PayloadPtr payload;
};

/// A timer previously requested via `SetTimer` fired.
struct TimerFired {
  TimerToken token = 0;
};

/// A client submission batch (split out of MessageIn so harnesses and replay
/// drivers can inject workload without faking a transport message).
struct ClientRequest {
  NodeId from = 0;
  std::shared_ptr<const proto::ClientRequestMsg> request;
};

using Event = std::variant<Start, MessageIn, TimerFired, ClientRequest>;

// ---------------------------------------------------------------------------
// Actions (outputs)
// ---------------------------------------------------------------------------

/// Run-wide metric the core wants updated. Value semantics per metric are
/// applied by the Env (see apply_metrics_update): counters accumulate,
/// `kVcTriggeredAt` sets-if-unset, `kVcCompletedAt` takes the max, and
/// `kSafetyViolation` latches true.
enum class Metric : std::uint8_t {
  kExecutedRequests,
  kBreakdownCount,
  kSumGenerationSec,
  kSumDisseminationSec,
  kSumAgreementSec,
  kQueriesSent,
  kChunksSent,
  kDatablocksRecovered,
  kRecoveryTimeSumSec,
  kViewChangesCompleted,
  kVcTriggeredAt,   // value: absolute time (SimTime as double)
  kVcCompletedAt,   // value: absolute time (SimTime as double)
  kSafetyViolation, // value ignored
  kAckLatencySample, // value: one submit→ack latency observation in seconds
  // Leader proposals by trigger: τ links ready, an idle pipeline, or the
  // proposal_max_wait timer.
  kProposalFull,
  kProposalIdle,
  kProposalTimer,
  // Stable-checkpoint adoptions: executed through it (or executing the
  // range it still can), or skipped to the certified state.
  kCheckpointCaughtUp,
  kCheckpointSkipped,
  // A leader's optimistic vote combine failed and it checked the buffered
  // shares one by one (core::QuorumCollector).
  kVoteCombineFallback,
};

/// Point-to-point send to `to`.
struct Send {
  NodeId to = 0;
  sim::PayloadPtr payload;
};

/// Send to every replica except self (the paper's "multicast to all other
/// replicas"; the sender pays one serialization per copy under SimEnv).
struct Broadcast {
  sim::PayloadPtr payload;
};

/// Request a `TimerFired{token}` event `delay` from now. Re-arming an
/// already-pending token replaces it.
struct SetTimer {
  TimerToken token = 0;
  sim::SimTime delay = 0;
};

/// Cancel a pending timer; unknown/fired tokens are a no-op.
struct CancelTimer {
  TimerToken token = 0;
};

/// A block of `requests` requests committed in total order and applied to the
/// replicated state machine. `block` is the carrying message (a DatablockMsg
/// for Leopard, a BaselineBlockMsg for the baselines); the Env forwards it to
/// the application-level observer, if any.
///
/// (seq, ordinal) is the block's coordinate in the total order: the consensus
/// sequence number (BFTblock sn / baseline height) and the block's position
/// within that sequence entry (a Leopard BFTblock links several datablocks,
/// executed in link order). Strictly increasing across the Execute stream —
/// the durable-commit identity the persistence layer keys on, letting a
/// recovered replica tell a replayed block from a new one.
struct Execute {
  sim::PayloadPtr block;
  std::uint64_t requests = 0;
  std::uint64_t seq = 0;
  std::uint32_t ordinal = 0;
};

/// Update one run-wide metric (see Metric for the per-id semantics).
struct MetricsUpdate {
  Metric metric = Metric::kExecutedRequests;
  double value = 0;
};

/// Extend this replica's CPU busy timeline (crypto, execution, bookkeeping).
/// Part of the action vocabulary because the metered-CPU semantics of a run
/// are protocol-visible: costs charged before a Send delay that send.
struct ChargeCpu {
  sim::SimTime cost = 0;
};

using Action =
    std::variant<Send, Broadcast, SetTimer, CancelTimer, Execute, MetricsUpdate, ChargeCpu>;
using ActionBatch = std::vector<Action>;

// ---------------------------------------------------------------------------
// Env: the action sink + ambient pure data (clock, cost model)
// ---------------------------------------------------------------------------

class Env {
 public:
  virtual ~Env() = default;

  /// Current time. Pure data: the core may branch on it but never blocks.
  [[nodiscard]] virtual sim::SimTime now() const = 0;

  /// CPU cost model used for ChargeCpu amounts.
  [[nodiscard]] virtual const sim::CostModel& costs() const = 0;

  /// Applies one action synchronously. Emission order is execution order.
  virtual void apply(Action action) = 0;

  // -- convenience emitters (sugar over apply) ------------------------------
  void send(NodeId to, sim::PayloadPtr payload) { apply(Send{to, std::move(payload)}); }
  void broadcast(sim::PayloadPtr payload) { apply(Broadcast{std::move(payload)}); }
  void set_timer(TimerToken token, sim::SimTime delay) { apply(SetTimer{token, delay}); }
  void cancel_timer(TimerToken token) { apply(CancelTimer{token}); }
  void execute(sim::PayloadPtr block, std::uint64_t requests, std::uint64_t seq = 0,
               std::uint32_t ordinal = 0) {
    apply(Execute{std::move(block), requests, seq, ordinal});
  }
  void metric(Metric m, double value) { apply(MetricsUpdate{m, value}); }
  void charge(sim::SimTime cost) { apply(ChargeCpu{cost}); }
};

// ---------------------------------------------------------------------------
// Protocol: the sans-I/O state machine
// ---------------------------------------------------------------------------

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Replica identity within the cluster (equals the Env-level node id).
  [[nodiscard]] virtual proto::ReplicaId id() const = 0;

  virtual void on_start(Env& env) = 0;
  virtual void on_message(Env& env, NodeId from, const sim::PayloadPtr& payload) = 0;
  virtual void on_timer(Env& env, TimerToken token) = 0;
  virtual void on_client_request(Env& env, NodeId from,
                                 const std::shared_ptr<const proto::ClientRequestMsg>& msg) = 0;

  /// Dispatches a type-erased event to the handlers above (replay drivers).
  /// A MessageIn whose payload is a ClientRequestMsg is routed to
  /// on_client_request, so hand-crafted injection traces need not know the
  /// event taxonomy.
  void deliver(Env& env, const Event& event);
};

/// Convenience base for concrete cores: stashes the delivering Env and
/// exposes the clock/cost/action helpers every state machine needs, so
/// implementations override the protected do_* hooks without re-plumbing
/// env state per protocol.
class ProtocolBase : public Protocol {
 public:
  void on_start(Env& env) final {
    env_ = &env;
    do_start();
  }
  void on_message(Env& env, NodeId from, const sim::PayloadPtr& payload) final {
    env_ = &env;
    do_message(from, payload);
  }
  void on_timer(Env& env, TimerToken token) final {
    env_ = &env;
    do_timer(token);
  }
  void on_client_request(Env& env, NodeId from,
                         const std::shared_ptr<const proto::ClientRequestMsg>& msg) final {
    env_ = &env;
    do_client_request(from, *msg);
  }

 protected:
  virtual void do_start() = 0;
  virtual void do_message(NodeId from, const sim::PayloadPtr& payload) = 0;
  virtual void do_timer(TimerToken token) = 0;
  virtual void do_client_request(NodeId from, const proto::ClientRequestMsg& msg) = 0;

  // Valid during event delivery (every do_* hook runs inside one).
  [[nodiscard]] Env& env() const { return *env_; }
  [[nodiscard]] sim::SimTime now() const { return env_->now(); }
  [[nodiscard]] const sim::CostModel& costs() const { return env_->costs(); }
  void charge(sim::SimTime cost) { env_->charge(cost); }

 private:
  Env* env_ = nullptr;
};

}  // namespace leopard::protocol
