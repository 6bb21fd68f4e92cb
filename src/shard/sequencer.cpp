#include "shard/sequencer.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace leopard::shard {

namespace {

/// splitmix64 finalizer — cheap, well-mixed, identical everywhere.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint32_t shard_of(std::uint64_t client_id, std::uint64_t index, std::uint32_t shards) {
  util::expects(shards >= 1, "shard_of: shards must be >= 1");
  if (shards == 1) return 0;
  return static_cast<std::uint32_t>(mix64(client_id * 0x100000001b3ull + index) % shards);
}

std::vector<ClientSlice> split_client(const core::ClientConfig& cfg, std::uint64_t seed,
                                      std::uint32_t shards) {
  util::expects(shards >= 1 && shards <= kMaxShards, "split_client: bad shard count");
  // Rates use a sampled horizon; counts are split exactly.
  constexpr std::uint64_t kHorizon = 4096;
  std::vector<std::uint64_t> horizon(shards, 0);
  std::vector<std::uint32_t> backlog(shards, 0);
  std::vector<std::uint64_t> totals(shards, 0);
  for (std::uint64_t i = 0; i < kHorizon; ++i) ++horizon[shard_of(seed, i, shards)];
  for (std::uint64_t i = 0; i < cfg.initial_backlog; ++i) ++backlog[shard_of(seed, i, shards)];
  for (std::uint64_t i = 0; i < cfg.total_requests; ++i) ++totals[shard_of(seed, i, shards)];

  std::vector<ClientSlice> slices;
  for (std::uint32_t s = 0; s < shards; ++s) {
    if (cfg.total_requests > 0 && totals[s] == 0) continue;
    ClientSlice slice{s, cfg, seed + 7919ull * s};
    const double share = static_cast<double>(horizon[s]) / static_cast<double>(kHorizon);
    slice.cfg.request_rate = cfg.request_rate * share;
    slice.cfg.initial_backlog = backlog[s];
    slice.cfg.total_requests = totals[s];
    if (cfg.closed_loop_window > 0) {
      slice.cfg.closed_loop_window = std::max(1u, cfg.closed_loop_window / shards);
    }
    slices.push_back(std::move(slice));
  }
  return slices;
}

std::vector<crypto::ThresholdScheme> shard_schemes(std::uint32_t n, std::uint32_t threshold,
                                                   std::uint64_t seed, std::uint32_t shards) {
  std::vector<crypto::ThresholdScheme> schemes;
  schemes.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) schemes.emplace_back(n, threshold, seed + s);
  return schemes;
}

bool is_filler_block(const sim::Payload& block) {
  const auto* db = dynamic_cast<const proto::DatablockMsg*>(&block);
  if (db == nullptr) return false;  // unknown block types count as real
  for (const auto& r : db->datablock.requests) {
    if (r.client_id < kFillerClientBase) return false;
  }
  return true;
}

Sequencer::Sequencer(std::uint32_t shards, Sink sink) : sink_(std::move(sink)) {
  util::expects(shards >= 1 && shards <= kMaxShards, "Sequencer: shard count out of range");
  util::expects(sink_ != nullptr, "Sequencer: sink required");
  states_.resize(shards);
}

bool Sequencer::push(std::uint32_t shard, const protocol::Execute& exec) {
  util::expects(shard < states_.size(), "Sequencer::push: shard out of range");
  util::expects(exec.ordinal <= kMaxShardOrdinal,
                "Sequencer::push: shard ordinal exceeds 2^20");
  auto& st = states_[shard];
  const std::pair<std::uint64_t, std::uint32_t> key{exec.seq, exec.ordinal};
  if (key < st.floor) {
    // Restart re-emission of an already-merged record.
    ++duplicates_dropped_;
    return false;
  }
  if (st.seen && exec.seq > st.frontier) {
    st.frontier = exec.seq;
  } else if (!st.seen) {
    st.frontier = exec.seq;
    st.seen = true;
  }
  GlobalRecord record;
  record.shard = shard;
  record.shard_seq = exec.seq;
  record.shard_ordinal = exec.ordinal;
  record.filler = is_filler_block(*exec.block);
  record.exec = exec;
  if (!record.filler) ++real_pending_;
  st.buffer.emplace(key, std::move(record));
  pump();
  return true;
}

void Sequencer::pump() {
  for (;;) {
    auto& st = states_[cursor_];
    // Emit the open slot incrementally: every buffered record of the
    // cursor's round, in sordinal order.
    auto it = st.buffer.begin();
    while (it != st.buffer.end() && it->first.first == round_) {
      GlobalRecord record = std::move(it->second);
      record.exec.seq = round_;
      record.exec.ordinal = pack_ordinal(cursor_, record.shard_ordinal);
      st.floor = {round_, record.shard_ordinal + 1};
      it = st.buffer.erase(it);
      ++emitted_;
      if (!record.filler) --real_pending_;
      sink_(record);
    }
    // The slot closes only once the shard has provably moved past it.
    if (!st.seen || st.frontier <= round_) return;
    if (st.floor < std::pair<std::uint64_t, std::uint32_t>{round_ + 1, 0}) {
      st.floor = {round_ + 1, 0};
    }
    if (++cursor_ == states_.size()) {
      cursor_ = 0;
      ++round_;
    }
  }
}

void Sequencer::advance_to(std::uint64_t gseq, std::uint32_t gordinal) {
  const std::uint32_t tail_shard = ordinal_shard(gordinal);
  const std::uint32_t tail_ordinal = ordinal_within(gordinal);
  util::expects(tail_shard < states_.size(),
                "Sequencer::advance_to: tail shard out of range");
  // A target at or behind the cursor is already covered.
  if (std::pair<std::uint64_t, std::uint32_t>{gseq, tail_shard} <
      std::pair<std::uint64_t, std::uint32_t>{round_, cursor_}) {
    pump();
    return;
  }
  round_ = gseq;
  cursor_ = tail_shard;
  for (std::uint32_t s = 0; s < states_.size(); ++s) {
    auto& st = states_[s];
    // The floor implied by the tail: shards before the tail shard finished
    // round gseq, the tail shard emitted through tail_ordinal, later shards
    // have not opened round gseq yet.
    std::pair<std::uint64_t, std::uint32_t> implied{gseq, 0};
    if (s < tail_shard) {
      implied = {gseq + 1, 0};
    } else if (s == tail_shard) {
      implied = {gseq, tail_ordinal + 1};
    }
    if (st.floor < implied) st.floor = implied;
    const auto pruned_end = st.buffer.lower_bound(st.floor);
    for (auto it = st.buffer.begin(); it != pruned_end; ++it) {
      if (!it->second.filler) --real_pending_;
    }
    st.buffer.erase(st.buffer.begin(), pruned_end);
  }
  pump();
}

std::optional<std::uint32_t> Sequencer::stall_check() {
  const bool stalled = emitted_ == emitted_at_last_check_ && real_pending_ > 0;
  emitted_at_last_check_ = emitted_;
  if (!stalled) return std::nullopt;
  return cursor_;
}

std::shared_ptr<const proto::ClientRequestMsg> Sequencer::make_filler(sim::NodeId phys,
                                                                      sim::SimTime now) {
  proto::Request req;
  req.client_id = filler_client(phys);
  req.seq = noops_injected_++;
  req.payload_size = 1;
  req.submitted_at = now;
  return std::make_shared<proto::ClientRequestMsg>(std::move(req));
}

}  // namespace leopard::shard
