// Seeded, coverage-guided trace mutator for the sans-I/O replay harness.
//
// Mutations model a network-level adversary, so only network-delivered events
// (MessageIn, ClientRequest) are eligible — Start and TimerFired are local
// facts the Env contract owns. Two mutation families:
//
//   - structural (kDuplicate, kReorder, kDelay): rewrite the *input* event
//     stream before replay — copies, position moves — with timestamps
//     re-normalized to stay non-decreasing;
//   - in-flight (kFieldCorruption, kDrop, kSpoofSender): applied through
//     `ReplayEnv::set_event_filter` as each event is delivered, exactly the
//     byzantine injection point replay.hpp documents. Field corruption
//     flips one bit of the message's wire body (net::encode_frame) and
//     decodes it again (net::decode_payload), so it reaches every field the
//     codec carries — certificates included — and only ever delivers frames
//     a network peer could send; an undecodable flip is a no-op.
//
// Determinism: a case is fully identified by (sweep_seed, case_seed). The
// plan derivation, every random parameter, and the corpus evolution depend
// only on those seeds and the base trace, so any sweep failure replays from
// its printed seed (`--chaos-seed`).
//
// Coverage guidance (greybox-fuzzer shaped): each replayed step is hashed to
// a feature — (event tag, action-kind bitmap, bucketed action count) — and a
// plan that produced previously unseen features joins the corpus; later plans
// stack fresh ops onto a random corpus parent with probability 1/2. The
// mutator thus spends its budget on mutations that drive cores into new
// behaviour instead of resampling the same rejection paths.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "protocol/replay.hpp"
#include "util/rng.hpp"

namespace leopard::chaos {

enum class MutationClass : std::uint8_t {
  kFieldCorruption = 0,
  kDrop = 1,
  kDuplicate = 2,
  kReorder = 3,
  kDelay = 4,
  kSpoofSender = 5,
};
inline constexpr std::uint32_t kMutationClassCount = 6;

[[nodiscard]] const char* mutation_class_name(MutationClass cls);

/// One mutation op. `step` indexes the eligible (network-delivered) steps of
/// the trace, not raw trace positions, so the same plan stays meaningful
/// after structural ops shift raw indices.
struct Mutation {
  MutationClass cls = MutationClass::kDrop;
  std::uint32_t step = 0;
  std::uint64_t param = 0;
};

struct MutationPlan {
  std::uint64_t seed = 0;
  std::vector<Mutation> ops;

  /// "seed=N ops=[corrupt@3 drop@7 ...]" — printed on oracle failure so the
  /// case is reproducible without the sweep.
  [[nodiscard]] std::string describe() const;
};

class TraceMutator {
 public:
  TraceMutator(std::uint64_t sweep_seed, std::uint32_t n_replicas);

  /// Derives the mutation plan for one case, possibly stacking onto a corpus
  /// parent. Deterministic in (sweep_seed, case_seed, base shape).
  [[nodiscard]] MutationPlan plan(std::uint64_t case_seed, const protocol::Trace& base);

  /// Applies the plan's structural ops to a copy of the base input stream.
  [[nodiscard]] protocol::Trace mutated_input(const MutationPlan& plan,
                                              const protocol::Trace& base) const;

  /// Builds the event filter applying the plan's in-flight ops.
  [[nodiscard]] protocol::ReplayEnv::EventFilter make_filter(const MutationPlan& plan) const;

  /// Feeds a replayed trace back for coverage guidance; returns true (and
  /// adopts the plan into the corpus) if it exercised new features.
  bool record_coverage(const MutationPlan& plan, const protocol::Trace& replayed);

  [[nodiscard]] std::size_t corpus_size() const { return corpus_.size(); }
  [[nodiscard]] std::size_t feature_count() const { return features_.size(); }

 private:
  std::uint64_t sweep_seed_;
  std::uint32_t n_;
  std::vector<MutationPlan> corpus_;
  std::unordered_set<std::uint64_t> features_;
};

}  // namespace leopard::chaos
