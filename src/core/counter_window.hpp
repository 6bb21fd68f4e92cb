// CounterWindow: the datablock counters one maker has been seen to use
// (Algorithm 1's per-maker counter check, the flooding defence).
//
// Makers number their datablocks 1, 2, 3, ... and an honest maker's
// datablocks reach a peer in that order over its FIFO link. The window keeps
// a floor below which every counter from 1 up has been seen, plus the set of
// seen counters outside that prefix. An in-order maker's counters only move
// the floor, so the set stays empty and memory stays bounded; a gap (a
// datablock never received) holds every later counter in the set until the
// gap fills. Accept/reject decisions are those of a plain set of every
// counter seen, for any order of counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>

namespace leopard::core {

class CounterWindow {
 public:
  /// Records `counter`; false if it was seen before.
  bool insert(std::uint64_t counter) {
    if (counter != 0 && counter < floor_) return false;
    if (counter != floor_) return above_.insert(counter).second;
    ++floor_;
    while (!above_.empty() && above_.erase(floor_) != 0) ++floor_;
    return true;
  }

  /// Every counter in [1, floor()) has been seen.
  [[nodiscard]] std::uint64_t floor() const { return floor_; }
  /// Seen counters held outside that prefix.
  [[nodiscard]] std::size_t held() const { return above_.size(); }

 private:
  std::uint64_t floor_ = 1;
  std::unordered_set<std::uint64_t> above_;
};

}  // namespace leopard::core
