// QuorumCollector: the leader's one path from vote shares to a quorum
// certificate, used for round-1 votes, round-2 votes and checkpoint votes.
//
// Aggregate first, verify once. A share passes only the cheap checks when it
// arrives (sender is the signer, not a duplicate) and is buffered
// unverified. At 2f+1 buffered shares the collector combines them and checks
// the combined signature once (`ThresholdScheme::combine` fails exactly when
// the combined signature would not verify). Only when that fails does it
// verify the buffered shares one by one: the invalid ones are dropped and
// their signers become suspects for the rest of the view. A suspect's later
// shares are verified before they are buffered, so each byzantine voter
// costs the leader at most one failed combine per view. No share is trusted
// for its claimed sender alone, the leader's own included: the fallback
// checks every buffered share.
//
// The collector computes the CPU its work costs under a `sim::CostModel`;
// the caller charges it.
#pragma once

#include <optional>
#include <vector>

#include "crypto/threshold_sig.hpp"
#include "proto/messages.hpp"
#include "sim/cost_model.hpp"

namespace leopard::core {

/// The shares buffered toward one quorum certificate on one message.
using QuorumShares = std::vector<crypto::SignatureShare>;

class QuorumCollector {
 public:
  /// Combines at `ts.threshold()` shares.
  explicit QuorumCollector(const crypto::ThresholdScheme& ts) : ts_(ts) {}

  struct Outcome {
    /// Set once the buffered shares combine into a valid certificate.
    std::optional<crypto::ThresholdSignature> signature;
    sim::SimTime cpu = 0;    // what the work cost, to be charged
    bool fell_back = false;  // a combine failed and shares were checked singly
  };

  /// Adds `from`'s `share` on `message` to `q`.
  [[nodiscard]] Outcome add(QuorumShares& q, const crypto::Digest& message,
                            proto::ReplicaId from, const crypto::SignatureShare& share,
                            const sim::CostModel& costs);

  /// A new view starts: every suspect is forgotten.
  void new_view() { suspects_.clear(); }
  [[nodiscard]] bool suspect(proto::ReplicaId id) const {
    return id < suspects_.size() && suspects_[id];
  }

 private:
  const crypto::ThresholdScheme& ts_;
  std::vector<bool> suspects_;  // indexed by replica id, this view only
};

}  // namespace leopard::core
