#include "protocol/replay.hpp"

#include <bit>

#include "net/wire.hpp"

namespace leopard::protocol {

std::uint64_t payload_fingerprint(const sim::Payload& payload) {
  // The wire codec is the one definition of a message's content: every field
  // a peer can send, and nothing sim-only, feeds the fingerprint.
  util::Bytes frame;
  if (net::encode_frame(payload, /*instance=*/0, frame)) {
    return crypto::Digest::of(frame).prefix64();
  }
  // No wire form (the sim's shard envelope, test-only payloads): shape only.
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(payload.component()));
  w.u64(payload.wire_size());
  return crypto::Digest::of(w.bytes()).prefix64();
}

namespace {

void serialize_event(util::ByteWriter& w, const Event& event) {
  std::visit(
      [&](const auto& ev) {
        using T = std::decay_t<decltype(ev)>;
        if constexpr (std::is_same_v<T, Start>) {
          w.u8(0);
        } else if constexpr (std::is_same_v<T, MessageIn>) {
          w.u8(1);
          w.u32(ev.from);
          w.u64(payload_fingerprint(*ev.payload));
        } else if constexpr (std::is_same_v<T, TimerFired>) {
          w.u8(2);
          w.u64(ev.token);
        } else {
          w.u8(3);
          w.u32(ev.from);
          w.u64(payload_fingerprint(*ev.request));
        }
      },
      event);
}

void serialize_action(util::ByteWriter& w, const Action& action) {
  std::visit(
      [&](const auto& a) {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, Send>) {
          w.u8(0);
          w.u32(a.to);
          w.u64(payload_fingerprint(*a.payload));
        } else if constexpr (std::is_same_v<T, Broadcast>) {
          w.u8(1);
          w.u64(payload_fingerprint(*a.payload));
        } else if constexpr (std::is_same_v<T, SetTimer>) {
          w.u8(2);
          w.u64(a.token);
          w.i64(a.delay);
        } else if constexpr (std::is_same_v<T, CancelTimer>) {
          w.u8(3);
          w.u64(a.token);
        } else if constexpr (std::is_same_v<T, Execute>) {
          w.u8(4);
          w.u64(a.requests);
          w.u64(a.seq);
          w.u32(a.ordinal);
          w.u64(payload_fingerprint(*a.block));
        } else if constexpr (std::is_same_v<T, MetricsUpdate>) {
          w.u8(5);
          w.u8(static_cast<std::uint8_t>(a.metric));
          // Exact bit fold: avoids the float->int overflow UB a fixed-point
          // scale would hit on time-valued metrics in long runs.
          w.u64(std::bit_cast<std::uint64_t>(a.value));
        } else {
          w.u8(6);
          w.i64(a.cost);
        }
      },
      action);
}

}  // namespace

std::size_t Trace::action_count() const {
  std::size_t n = 0;
  for (const auto& s : steps) n += s.actions.size();
  return n;
}

void Trace::serialize(util::ByteWriter& w) const {
  w.u64(steps.size());
  for (const auto& step : steps) {
    w.i64(step.at);
    serialize_event(w, step.event);
    w.u32(static_cast<std::uint32_t>(step.actions.size()));
    for (const auto& a : step.actions) serialize_action(w, a);
  }
}

crypto::Digest Trace::digest() const {
  util::ByteWriter w;
  serialize(w);
  return crypto::Digest::of(w.bytes());
}

Trace ReplayEnv::replay(Protocol& core, const Trace& recorded) {
  Trace out;
  out.steps.reserve(recorded.steps.size());
  for (const auto& recorded_step : recorded.steps) {
    TraceStep step;
    step.at = recorded_step.at;
    step.event = recorded_step.event;
    if (filter_ && !filter_(step)) continue;

    now_ = step.at;
    out.steps.push_back(std::move(step));
    current_ = &out.steps.back();
    core.deliver(*this, out.steps.back().event);
    current_ = nullptr;
  }
  return out;
}

void ReplayEnv::apply(Action action) {
  // Collect only: the recorded event stream already contains the deliveries
  // and timer firings these actions produced in the original run.
  if (current_ != nullptr) current_->actions.push_back(std::move(action));
}

}  // namespace leopard::protocol
