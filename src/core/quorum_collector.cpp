#include "core/quorum_collector.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace leopard::core {

QuorumCollector::Outcome QuorumCollector::add(QuorumShares& q, const crypto::Digest& message,
                                              proto::ReplicaId from,
                                              const crypto::SignatureShare& share,
                                              const sim::CostModel& costs) {
  Outcome out;
  if (share.signer != from || from >= ts_.n()) return out;
  if (std::any_of(q.begin(), q.end(),
                  [from](const crypto::SignatureShare& s) { return s.signer == from; })) {
    return out;
  }
  if (suspect(from)) {
    out.cpu += costs.share_verify;
    if (!ts_.verify_share(message, share)) return out;
  }
  q.push_back(share);

  while (q.size() >= ts_.threshold()) {
    out.cpu += costs.combine_base +
               costs.combine_per_share * static_cast<sim::SimTime>(q.size()) +
               costs.combined_verify;
    if (auto signature = ts_.combine(message, q)) {
      out.signature = *signature;
      return out;
    }
    // The combined signature failed: check the shares one by one, keep the
    // valid ones and remember who sent an invalid one.
    out.fell_back = true;
    const auto invalid = [&](const crypto::SignatureShare& s) {
      out.cpu += costs.share_verify;
      if (ts_.verify_share(message, s)) return false;
      if (suspects_.size() <= s.signer) suspects_.resize(ts_.n(), false);
      suspects_[s.signer] = true;
      return true;
    };
    const auto kept = std::remove_if(q.begin(), q.end(), invalid);
    util::ensures(kept != q.end(), "a combine of valid distinct shares failed");
    q.erase(kept, q.end());
  }
  return out;
}

}  // namespace leopard::core
