// Trace recording and offline replay for sans-I/O protocol cores.
//
// A `Trace` is the full observable behaviour of one core over one run: the
// sequence of (timestamped event → action batch) steps. Two runs of the same
// seed must produce byte-identical traces (protocol_api_test asserts this),
// which makes the trace the canonical artifact for deterministic debugging:
// diff the serialized traces of a good and a bad run and the first divergent
// step is the bug.
//
// `ReplayEnv` re-drives a fresh core from a recorded event stream with no
// simulator and no network — SetTimer/Send actions are collected, not
// executed, because the recorded stream already contains the deliveries and
// timer firings they produced. An optional event filter mutates or drops
// events before delivery, which is the byzantine/fuzz injection point: the
// core under replay faces message loss, reordering, or corrupted fields
// without any network machinery.
#pragma once

#include <functional>
#include <vector>

#include "crypto/digest.hpp"
#include "protocol/protocol.hpp"
#include "util/bytes.hpp"

namespace leopard::protocol {

/// Stable 64-bit content identity of a message: the digest of its wire frame
/// (net::encode_frame), so every field the codec carries is covered and
/// trace comparison detects payload divergence, not just shape divergence.
/// A payload with no wire form folds only its component and wire_size().
[[nodiscard]] std::uint64_t payload_fingerprint(const sim::Payload& payload);

/// One step: the event delivered at `at` and the actions it produced.
struct TraceStep {
  sim::SimTime at = 0;
  Event event;
  ActionBatch actions;
};

class Trace {
 public:
  std::vector<TraceStep> steps;

  [[nodiscard]] std::size_t action_count() const;

  /// Canonical byte serialization (events and actions, with payload
  /// fingerprints). Byte-identical serializations <=> equivalent behaviour.
  void serialize(util::ByteWriter& w) const;

  /// Digest of serialize() — cheap whole-trace equality.
  [[nodiscard]] crypto::Digest digest() const;
};

class ReplayEnv final : public Env {
 public:
  explicit ReplayEnv(sim::CostModel costs = {}) : costs_(costs) {}

  /// Fault/fuzz injection hook, called with a mutable copy of each recorded
  /// step before delivery; return false to drop the event entirely.
  using EventFilter = std::function<bool(TraceStep& step)>;
  void set_event_filter(EventFilter filter) { filter_ = std::move(filter); }

  /// Feeds `recorded`'s event stream into `core` and returns the trace the
  /// core produced. With no filter installed and a core configured like the
  /// recording one, the result serializes byte-identically to `recorded`.
  Trace replay(Protocol& core, const Trace& recorded);

  // -- Env ------------------------------------------------------------------
  [[nodiscard]] sim::SimTime now() const override { return now_; }
  [[nodiscard]] const sim::CostModel& costs() const override { return costs_; }
  void apply(Action action) override;

 private:
  sim::CostModel costs_;
  EventFilter filter_;
  sim::SimTime now_ = 0;
  TraceStep* current_ = nullptr;
};

}  // namespace leopard::protocol
