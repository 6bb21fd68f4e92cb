// Env-wrapping byzantine interposer for real-wire deployments.
//
// `leopard_node --byzantine=<mode>` hosts the UNMODIFIED protocol core inside
// a `ByzantineInterposer`: the interposer is itself a `protocol::Protocol`, so
// `SocketEnv::attach` sees one core, while every action the inner core emits
// passes through a shim `Env` that rewrites it according to the attack:
//
//   equivocate — a leader's BftBlockMsg broadcast is split into two
//     conflicting proposals for the same (view, sn), sent to disjoint replica
//     subsets (the classic safety attack; honest replicas must refuse to
//     confirm either and view-change past the traitor);
//   silence    — all traffic toward the f lowest-id honest victims is
//     suppressed (selective silence: victims must catch up via checkpoints
//     and state transfer while the cluster stays live);
//   garbage-shares — erasure-coded retrieval and state-transfer chunks are
//     corrupted before sending (Merkle / digest re-verification on the
//     receiving side must reject them);
//   laggard    — FnF-style performance attack: every outbound message is
//     held for a fixed lag chosen to stay just inside the view timeout, so
//     no view change fires yet throughput degrades.
//
// Delayed delivery reuses the core timer path: the interposer arms its own
// flush timers through the inner Env with bit 63 (`kChaosTimerBit`) set, a
// namespace no core token uses (core tokens are kind+sequence counters; bit
// 63 would take ~2^59 arms to reach).
//
// Deployment-layer sends (state sync) bypass the protocol core, so the node
// routes them through `filter_deployment_send` to keep the attack total.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string_view>

#include "crypto/threshold_sig.hpp"
#include "obs/metrics.hpp"
#include "protocol/protocol.hpp"

namespace leopard::chaos {

enum class WireAttack : std::uint8_t {
  kEquivocate,
  kSilence,
  kGarbageShares,
  kLaggard,
};

[[nodiscard]] std::optional<WireAttack> parse_wire_attack(std::string_view name);
[[nodiscard]] const char* wire_attack_name(WireAttack attack);

/// Timer-token namespace bit reserved for interposer flush timers.
inline constexpr protocol::TimerToken kChaosTimerBit = 1ull << 63;

struct InterposerOptions {
  WireAttack attack = WireAttack::kEquivocate;
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  /// Laggard hold per message; pick just inside the cluster's view timeout.
  sim::SimTime lag = 150 * sim::kMillisecond;
};

class ByzantineInterposer final : public protocol::Protocol {
 public:
  ByzantineInterposer(std::unique_ptr<protocol::Protocol> core,
                      const crypto::ThresholdScheme& scheme, InterposerOptions opts);

  [[nodiscard]] proto::ReplicaId id() const override { return core_->id(); }
  void on_start(protocol::Env& env) override;
  void on_message(protocol::Env& env, protocol::NodeId from,
                  const sim::PayloadPtr& payload) override;
  void on_timer(protocol::Env& env, protocol::TimerToken token) override;
  void on_client_request(protocol::Env& env, protocol::NodeId from,
                         const std::shared_ptr<const proto::ClientRequestMsg>& msg) override;

  /// Applies the attack to a deployment-layer (state-sync) send. Returns the
  /// payload to actually send, possibly corrupted, or nullptr to suppress.
  [[nodiscard]] sim::PayloadPtr filter_deployment_send(protocol::NodeId to,
                                                       sim::PayloadPtr payload);

  [[nodiscard]] const protocol::Protocol& inner() const { return *core_; }

 private:
  // Env shim handed to the inner core: forwards now()/costs(), routes every
  // action through the interposer's attack logic.
  class ShimEnv final : public protocol::Env {
   public:
    ShimEnv(ByzantineInterposer& owner, protocol::Env& inner) : owner_(owner), inner_(inner) {}
    [[nodiscard]] sim::SimTime now() const override { return inner_.now(); }
    [[nodiscard]] const sim::CostModel& costs() const override { return inner_.costs(); }
    void apply(protocol::Action action) override { owner_.handle_action(std::move(action), inner_); }

   private:
    ByzantineInterposer& owner_;
    protocol::Env& inner_;
  };

  struct HeldAction {
    sim::SimTime release = 0;
    protocol::Action action;
  };

  void handle_action(protocol::Action action, protocol::Env& inner);
  void apply_equivocate(protocol::Action action, protocol::Env& inner);
  void apply_silence(protocol::Action action, protocol::Env& inner);
  void apply_garbage(protocol::Action action, protocol::Env& inner);
  void apply_laggard(protocol::Action action, protocol::Env& inner);
  void flush_held(protocol::Env& inner);
  [[nodiscard]] bool is_victim(protocol::NodeId to) const;
  [[nodiscard]] sim::PayloadPtr corrupt_chunk(const sim::PayloadPtr& payload);

  std::unique_ptr<protocol::Protocol> core_;
  const crypto::ThresholdScheme& scheme_;
  InterposerOptions opts_;
  // The attack's only count: `leopard_chaos_byz_actions_total{attack,kind}`
  // in the global registry. Every interposer of a process with the same
  // attack shares these series, so a sharded node reports one total.
  obs::Counter equivocations_;  // twin proposals emitted
  obs::Counter suppressed_;     // sends silently dropped
  obs::Counter corrupted_;      // chunks garbled before sending
  obs::Counter delayed_;        // sends held by the laggard
  std::deque<HeldAction> held_;
  bool flush_armed_ = false;
};

}  // namespace leopard::chaos
