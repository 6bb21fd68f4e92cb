#include "chaos/interposer.hpp"

#include <algorithm>
#include <utility>
#include <variant>
#include <vector>

#include "proto/messages.hpp"

namespace leopard::chaos {

std::optional<WireAttack> parse_wire_attack(std::string_view name) {
  if (name == "equivocate") return WireAttack::kEquivocate;
  if (name == "silence") return WireAttack::kSilence;
  if (name == "garbage-shares") return WireAttack::kGarbageShares;
  if (name == "laggard") return WireAttack::kLaggard;
  return std::nullopt;
}

const char* wire_attack_name(WireAttack attack) {
  switch (attack) {
    case WireAttack::kEquivocate: return "equivocate";
    case WireAttack::kSilence: return "silence";
    case WireAttack::kGarbageShares: return "garbage-shares";
    case WireAttack::kLaggard: return "laggard";
  }
  return "?";
}

ByzantineInterposer::ByzantineInterposer(std::unique_ptr<protocol::Protocol> core,
                                         const crypto::ThresholdScheme& scheme,
                                         InterposerOptions opts)
    : core_(std::move(core)), scheme_(scheme), opts_(opts) {
  auto& reg = obs::Registry::global();
  const std::string attack = "attack=\"" + std::string(wire_attack_name(opts_.attack)) + "\"";
  const auto kind_counter = [&](const char* kind) {
    return reg.counter("leopard_chaos_byz_actions_total",
                       "Actions rewritten by the byzantine interposer",
                       attack + ",kind=\"" + kind + "\"");
  };
  equivocations_ = kind_counter("equivocation");
  suppressed_ = kind_counter("suppressed");
  corrupted_ = kind_counter("corrupted");
  delayed_ = kind_counter("delayed");
}

void ByzantineInterposer::on_start(protocol::Env& env) {
  ShimEnv shim(*this, env);
  core_->on_start(shim);
}

void ByzantineInterposer::on_message(protocol::Env& env, protocol::NodeId from,
                                     const sim::PayloadPtr& payload) {
  ShimEnv shim(*this, env);
  core_->on_message(shim, from, payload);
}

void ByzantineInterposer::on_timer(protocol::Env& env, protocol::TimerToken token) {
  if ((token & kChaosTimerBit) != 0) {
    flush_armed_ = false;
    flush_held(env);
    return;
  }
  ShimEnv shim(*this, env);
  core_->on_timer(shim, token);
}

void ByzantineInterposer::on_client_request(
    protocol::Env& env, protocol::NodeId from,
    const std::shared_ptr<const proto::ClientRequestMsg>& msg) {
  ShimEnv shim(*this, env);
  core_->on_client_request(shim, from, msg);
}

sim::PayloadPtr ByzantineInterposer::filter_deployment_send(protocol::NodeId to,
                                                            sim::PayloadPtr payload) {
  switch (opts_.attack) {
    case WireAttack::kSilence:
      if (is_victim(to)) {
        suppressed_.inc();
        return nullptr;
      }
      return payload;
    case WireAttack::kGarbageShares:
      if (auto corrupted = corrupt_chunk(payload)) return corrupted;
      return payload;
    case WireAttack::kEquivocate:
    case WireAttack::kLaggard:
      // Equivocation targets consensus proposals; the laggard's delay machinery
      // runs on core timers, which deployment sends don't traverse.
      return payload;
  }
  return payload;
}

void ByzantineInterposer::handle_action(protocol::Action action, protocol::Env& inner) {
  const bool network = std::holds_alternative<protocol::Send>(action) ||
                       std::holds_alternative<protocol::Broadcast>(action);
  if (!network) {
    inner.apply(std::move(action));
    return;
  }
  switch (opts_.attack) {
    case WireAttack::kEquivocate: apply_equivocate(std::move(action), inner); break;
    case WireAttack::kSilence: apply_silence(std::move(action), inner); break;
    case WireAttack::kGarbageShares: apply_garbage(std::move(action), inner); break;
    case WireAttack::kLaggard: apply_laggard(std::move(action), inner); break;
  }
}

void ByzantineInterposer::apply_equivocate(protocol::Action action, protocol::Env& inner) {
  auto* bcast = std::get_if<protocol::Broadcast>(&action);
  const auto* proposal =
      bcast ? dynamic_cast<const proto::BftBlockMsg*>(bcast->payload.get()) : nullptr;
  if (proposal == nullptr) {
    inner.apply(std::move(action));
    return;
  }

  // Twin proposal for the same (view, sn) with a different link set: reversed
  // when there is something to reverse, emptied otherwise, so the twin exists
  // for every proposal shape. Signing the twin is legitimate — the interposer
  // runs inside the byzantine leader's process, which owns this key share.
  proto::BftBlock twin = proposal->block;
  if (twin.links.size() >= 2) {
    std::reverse(twin.links.begin(), twin.links.end());
  } else {
    twin.links.clear();
  }
  const auto self = core_->id();
  const auto twin_share = scheme_.sign_share(self, twin.digest());
  const auto twin_msg = std::make_shared<proto::BftBlockMsg>(std::move(twin), twin_share);

  for (std::uint32_t r = 0; r < opts_.n; ++r) {
    if (r == self) continue;
    const bool first_half = r < opts_.n / 2;
    inner.apply(protocol::Send{r, first_half ? bcast->payload : twin_msg});
  }
  equivocations_.inc();
}

bool ByzantineInterposer::is_victim(protocol::NodeId to) const {
  // The f lowest-id replicas that are not ourselves.
  std::uint32_t counted = 0;
  for (std::uint32_t r = 0; r < opts_.n && counted < opts_.f; ++r) {
    if (r == core_->id()) continue;
    if (r == to) return true;
    ++counted;
  }
  return false;
}

void ByzantineInterposer::apply_silence(protocol::Action action, protocol::Env& inner) {
  if (auto* send = std::get_if<protocol::Send>(&action)) {
    if (is_victim(send->to)) {
      suppressed_.inc();
      return;
    }
    inner.apply(std::move(action));
    return;
  }
  // Expand the broadcast so the victims can be skipped.
  auto& bcast = std::get<protocol::Broadcast>(action);
  for (std::uint32_t r = 0; r < opts_.n; ++r) {
    if (r == core_->id()) continue;
    if (is_victim(r)) {
      suppressed_.inc();
      continue;
    }
    inner.apply(protocol::Send{r, bcast.payload});
  }
}

sim::PayloadPtr ByzantineInterposer::corrupt_chunk(const sim::PayloadPtr& payload) {
  if (const auto* chunk = dynamic_cast<const proto::ChunkResponseMsg*>(payload.get())) {
    auto copy = std::make_shared<proto::ChunkResponseMsg>(*chunk);
    if (!copy->chunk.empty()) {
      copy->chunk[0] ^= 0xFF;
    } else {
      // Synthetic chunk: garble the root the receiver verifies against.
      crypto::Sha256::DigestBytes b{};
      std::copy(copy->merkle_root.bytes().begin(), copy->merkle_root.bytes().end(), b.begin());
      b[0] ^= 0xFF;
      copy->merkle_root = crypto::Digest(b);
    }
    corrupted_.inc();
    return copy;
  }
  if (const auto* chunk = dynamic_cast<const proto::StateChunkMsg*>(payload.get())) {
    auto copy = std::make_shared<proto::StateChunkMsg>(*chunk);
    if (!copy->chunk.empty()) {
      copy->chunk[copy->chunk.size() / 2] ^= 0xFF;
    } else {
      crypto::Sha256::DigestBytes b{};
      std::copy(copy->exec_digest.bytes().begin(), copy->exec_digest.bytes().end(), b.begin());
      b[0] ^= 0xFF;
      copy->exec_digest = crypto::Digest(b);
    }
    corrupted_.inc();
    return copy;
  }
  return nullptr;
}

void ByzantineInterposer::apply_garbage(protocol::Action action, protocol::Env& inner) {
  if (auto* send = std::get_if<protocol::Send>(&action)) {
    if (auto corrupted = corrupt_chunk(send->payload)) send->payload = std::move(corrupted);
  } else if (auto* bcast = std::get_if<protocol::Broadcast>(&action)) {
    if (auto corrupted = corrupt_chunk(bcast->payload)) bcast->payload = std::move(corrupted);
  }
  inner.apply(std::move(action));
}

void ByzantineInterposer::apply_laggard(protocol::Action action, protocol::Env& inner) {
  held_.push_back(HeldAction{inner.now() + opts_.lag, std::move(action)});
  delayed_.inc();
  if (!flush_armed_) {
    // held_ is FIFO with a constant lag, so the front is always the earliest.
    inner.apply(protocol::SetTimer{kChaosTimerBit, opts_.lag});
    flush_armed_ = true;
  }
}

void ByzantineInterposer::flush_held(protocol::Env& inner) {
  const auto now = inner.now();
  while (!held_.empty() && held_.front().release <= now) {
    auto action = std::move(held_.front().action);
    held_.pop_front();
    inner.apply(std::move(action));
  }
  if (!held_.empty() && !flush_armed_) {
    inner.apply(protocol::SetTimer{kChaosTimerBit, held_.front().release - now});
    flush_armed_ = true;
  }
}

}  // namespace leopard::chaos
