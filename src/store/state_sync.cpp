#include "store/state_sync.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "net/timer_wheel.hpp"  // jittered()
#include "obs/metrics.hpp"

namespace leopard::store {

namespace {

/// Lexicographic (seq, ordinal) comparison.
bool coord_le(std::pair<std::uint64_t, std::uint32_t> a,
              std::pair<std::uint64_t, std::uint32_t> b) {
  return a.first != b.first ? a.first < b.first : a.second <= b.second;
}

}  // namespace

StateSync::StateSync(sim::NodeId id, std::uint32_t n, std::uint32_t f,
                     ReplicaStore* store, StateSyncOptions opts)
    : id_(id), n_(n), f_(f), store_(store), opts_(std::move(opts)) {
  // GF(2^8) caps shard indices at 255; beyond that there is no (f+1, n) code.
  enabled_ = n_ >= 1 && n_ <= 255 && f_ + 1 <= n_;
  probe_backoff_ = opts_.probe_timeout;
}

void StateSync::init_from_recovery(const RecoveryResult& rec) {
  applied_count_ = rec.entries;
  executed_requests_ = rec.executed_requests;
  exec_digest_ = rec.exec_digest;
  if (store_ != nullptr && store_->is_open()) {
    const auto [s, o] = store_->tail_coord();
    tail_seq_ = s;
    tail_ordinal_ = o;
  }
}

void StateSync::start(sim::SimTime now) {
  // Nothing to ask: a single-node cluster, a node with no durable state to
  // reconcile (no --data-dir), or a cluster too large for the erasure code.
  if (!enabled_ || n_ <= 1 || !store_open()) {
    go_live(now);
    return;
  }
  begin_probe(now, /*backed_off=*/false);
}

// ---------------------------------------------------------------------------
// Live execute stream
// ---------------------------------------------------------------------------

void StateSync::on_execute(std::uint64_t seq, std::uint32_t ordinal,
                           const crypto::Digest& block_digest, std::uint64_t requests,
                           std::span<const std::uint8_t> frame, sim::SimTime now) {
  if (coord_le({seq, ordinal}, tail())) {
    // A replayed duplicate of an entry already durable/applied (the core
    // re-executed after restart, or a peer re-sent an old block).
    ++stats_.duplicates_dropped;
    return;
  }
  if (mode_ == Mode::kLive) {
    // A jump past tail_seq_ + 1 means the core adopted a checkpoint and
    // skipped Execute actions we never saw (a healed partition does exactly
    // this): appending the new coordinate would fold a divergent exec_digest
    // forever. Buffer it and re-enter catch-up to pull the gap from peers.
    // Checkpoints land on whole-sn boundaries, so a gap always shows up as a
    // skipped seq, never as a skipped ordinal within a seq.
    if (seq > tail_seq_ + 1 && enabled_ && n_ > 1 && store_open()) {
      pending_.push_back(PendingEntry{seq, ordinal, block_digest, requests,
                                      util::Bytes(frame.begin(), frame.end())});
      stats_.pending_peak = std::max<std::uint64_t>(stats_.pending_peak, pending_.size());
      begin_probe(now, /*backed_off=*/false);
      return;
    }
    apply_entry(seq, ordinal, block_digest, requests, frame, now);
    return;
  }
  pending_.push_back(PendingEntry{seq, ordinal, block_digest, requests,
                                  util::Bytes(frame.begin(), frame.end())});
  stats_.pending_peak = std::max<std::uint64_t>(stats_.pending_peak, pending_.size());
}

void StateSync::apply_entry(std::uint64_t seq, std::uint32_t ordinal,
                            const crypto::Digest& block_digest, std::uint64_t requests,
                            std::span<const std::uint8_t> frame, sim::SimTime now) {
  if (store_open()) {
    // Best-effort durability: an append failure is counted by the store's
    // stats but never stalls execution or the reporting chain.
    store_->append(seq, ordinal, block_digest, requests, frame, now);
  }
  exec_digest_ = fold_exec_digest(exec_digest_, block_digest);
  executed_requests_ += requests;
  ++applied_count_;
  tail_seq_ = seq;
  tail_ordinal_ = ordinal;
}

void StateSync::purge_pending() {
  while (!pending_.empty() &&
         coord_le({pending_.front().seq, pending_.front().ordinal}, tail())) {
    pending_.pop_front();
    ++stats_.duplicates_dropped;
  }
}

void StateSync::go_live(sim::SimTime now) {
  mode_ = Mode::kLive;
  if (cancel_timer_) {
    cancel_timer_(kProbeTimer);
    cancel_timer_(kRoundTimer);
  }
  offers_.clear();
  groups_.clear();
  group_creates_.clear();
  // Drain the live entries buffered while syncing. The go-live rule
  // guarantees no gap below them: >= n-1-f peers reported nothing beyond our
  // applied count, and any committed-but-unseen entry would put >= f+1
  // honest peers ahead of us.
  for (auto& p : pending_) {
    if (coord_le({p.seq, p.ordinal}, tail())) continue;
    apply_entry(p.seq, p.ordinal, p.block_digest, p.requests, p.frame, now);
  }
  pending_.clear();
}

// ---------------------------------------------------------------------------
// Probe / decide
// ---------------------------------------------------------------------------

void StateSync::begin_probe(sim::SimTime now, bool backed_off) {
  (void)now;
  mode_ = Mode::kProbing;
  ++probe_round_;
  transfer_id_ = (static_cast<std::uint64_t>(id_) << 32) | probe_round_;
  offers_.clear();
  groups_.clear();
  group_creates_.clear();

  auto probe = std::make_shared<proto::StateOfferMsg>();
  probe->kind = proto::StateOfferMsg::kProbe;
  probe->transfer_id = transfer_id_;
  probe->from_index = applied_count_;
  for (std::uint32_t peer = 0; peer < n_; ++peer) {
    if (peer == id_) continue;
    send_(peer, probe);
  }
  ++stats_.probes_sent;

  const auto delay = backed_off
                         ? net::jittered(probe_backoff_, transfer_id_)
                         : opts_.probe_timeout;
  if (arm_timer_) arm_timer_(kProbeTimer, delay);
}

void StateSync::on_offer(sim::NodeId from, const proto::StateOfferMsg& msg,
                         sim::SimTime now) {
  if (msg.transfer_id != transfer_id_) return;
  if (mode_ != Mode::kProbing) return;
  offers_[from] = msg.until_index;
  ++stats_.offers_received;
  const std::uint32_t need = n_ - 1 - std::min(f_, n_ - 1);
  if (offers_.size() >= need) decide(now);
}

void StateSync::decide(sim::SimTime now) {
  const std::uint32_t need = n_ - 1 - std::min(f_, n_ - 1);
  const bool complete = offers_.size() >= need;

  std::vector<std::uint64_t> untils;
  untils.reserve(offers_.size());
  for (const auto& [peer, until] : offers_) untils.push_back(until);
  std::sort(untils.begin(), untils.end(), std::greater<>());

  const std::uint64_t max_until = untils.empty() ? 0 : untils.front();
  if (complete && max_until <= applied_count_) {
    go_live(now);
    return;
  }

  if (untils.size() >= f_ + 1) {
    // The longest prefix at least f+1 peers claim to hold — enough distinct
    // shards to decode, and at least one of those claims is honest.
    std::uint64_t target = untils[f_];
    target = std::min(target, applied_count_ + opts_.max_round_entries);
    if (target > applied_count_) {
      begin_pull(target, now);
      return;
    }
    if (complete) {
      // Fewer than f+1 peers are ahead: every such claim could be a lie, and
      // no honest majority prefix extends past us. Join the live stream.
      go_live(now);
      return;
    }
  }

  // Not enough information yet; retry with exponential backoff.
  probe_backoff_ = std::min(probe_backoff_ * 2, opts_.backoff_max);
  begin_probe(now, /*backed_off=*/true);
}

// ---------------------------------------------------------------------------
// Pull / chunks
// ---------------------------------------------------------------------------

void StateSync::begin_pull(std::uint64_t target, sim::SimTime now) {
  (void)now;
  mode_ = Mode::kPulling;
  pull_from_ = applied_count_;
  pull_until_ = target;
  groups_.clear();
  group_creates_.clear();
  probe_backoff_ = opts_.probe_timeout;  // progress resets the backoff

  auto pull = std::make_shared<proto::StateOfferMsg>();
  pull->kind = proto::StateOfferMsg::kPull;
  pull->transfer_id = transfer_id_;
  pull->from_index = pull_from_;
  pull->until_index = target;
  // Ask EVERY peer, not just the offers seen at decide time: a server whose
  // offer is still in flight can cover the range too, and each extra distinct
  // shard widens the subset search that defeats a lying server. Peers that
  // cannot cover the range ignore the request (or cut it shorter, forking
  // their own harmless group).
  for (sim::NodeId peer = 0; peer < n_; ++peer) {
    if (peer == id_) continue;
    send_(peer, pull);
    ++stats_.pulls_sent;
  }
  if (cancel_timer_) cancel_timer_(kProbeTimer);
  if (arm_timer_) arm_timer_(kRoundTimer, opts_.round_timeout);
}

void StateSync::serve_probe(sim::NodeId from, const proto::StateOfferMsg& msg) {
  auto offer = std::make_shared<proto::StateOfferMsg>();
  offer->kind = proto::StateOfferMsg::kOffer;
  offer->transfer_id = msg.transfer_id;
  offer->until_index = store_open() ? store_->entries() : 0;
  if (store_open()) offer->exec_digest = store_->exec_digest();
  send_(from, offer);
  ++stats_.offers_sent;
}

void StateSync::serve_pull(sim::NodeId from, const proto::StateOfferMsg& msg) {
  if (!store_open() || id_ >= n_) return;
  const std::uint64_t lo = msg.from_index;
  std::uint64_t hi = std::min<std::uint64_t>(msg.until_index, store_->entries());
  if (lo >= hi) return;

  // Serialize entries until the byte cap. Every honest server cuts at the
  // same deterministic boundary (same entries, same encoding, same cap), so
  // their shards describe one identical blob.
  util::ByteWriter blob;
  std::uint64_t upto = lo;
  std::vector<WalEntry> one;
  for (std::uint64_t i = lo; i < hi; ++i) {
    one.clear();
    if (!store_->read_entries(i, i + 1, one) || one.size() != 1) break;
    util::ByteWriter enc;
    encode_entry(enc, one[0]);
    if (blob.size() != 0 && blob.size() + enc.size() > opts_.max_round_bytes) break;
    blob.raw(enc.bytes());
    upto = i + 1;
  }
  if (upto == lo) return;

  crypto::Digest at_upto;
  if (!store_->digest_at(upto, at_upto)) return;

  const erasure::ReedSolomon rs(f_ + 1, n_);
  const auto shards = rs.encode_into(blob.bytes(), rs_scratch_);
  const auto mine = shards.shard(id_);

  auto chunk = std::make_shared<proto::StateChunkMsg>();
  chunk->transfer_id = msg.transfer_id;
  chunk->from_index = lo;
  chunk->until_index = upto;
  chunk->exec_digest = at_upto;
  chunk->chunk_index = id_;
  chunk->data_shards = f_ + 1;
  chunk->total_shards = n_;
  chunk->chunk.assign(mine.begin(), mine.end());
  send_(from, chunk);
  ++stats_.pulls_served;
}

void StateSync::on_chunk(sim::NodeId from, const proto::StateChunkMsg& msg,
                         sim::SimTime now) {
  if (mode_ != Mode::kPulling || msg.transfer_id != transfer_id_) return;
  ++stats_.chunks_received;
  if (msg.data_shards != f_ + 1 || msg.total_shards != n_ || msg.chunk_index >= n_) {
    return;
  }
  // An honest server only ever sends its OWN shard (serve_pull sets
  // chunk_index = id_), so a chunk claiming someone else's index is forged.
  // Without this check a fast byzantine peer could squat every shard index
  // with garbage before honest answers land, leaving no untainted subset.
  if (msg.chunk_index != from) return;
  if (msg.from_index != pull_from_ || msg.until_index <= pull_from_ ||
      msg.until_index > pull_until_) {
    return;
  }

  const std::pair<std::uint64_t, std::uint64_t> key{msg.until_index,
                                                    msg.exec_digest.prefix64()};
  auto it = groups_.find(key);
  if (it == groups_.end()) {
    if (group_creates_[from] >= kMaxGroupsPerSender) return;
    ++group_creates_[from];
    it = groups_.emplace(key, ChunkGroup{}).first;
  }
  auto& group = it->second;
  group.until = msg.until_index;
  group.digest = msg.exec_digest;
  group.data_shards = msg.data_shards;
  if (!group.chunks.emplace(msg.chunk_index, msg.chunk).second) {
    return;  // retransmit of a shard already held — nothing new to try
  }

  if (group.chunks.size() >= group.data_shards) {
    // groups_ is reset by the round restart on success.
    if (try_complete(group, msg.chunk_index, now)) return;
    ++stats_.verify_failures;
    // A lying server's shard is indistinguishable inside the RS decode, so a
    // failed attempt keeps the group: the next honest shard may complete an
    // untainted subset. Hopeless once every possible server answered (the
    // requester's own index never arrives) or the decode budget is spent.
    if (group.chunks.size() + 1 >= n_ || group.attempts >= opts_.max_decode_attempts) {
      groups_.erase(key);
    }
  }
}

bool StateSync::try_complete(ChunkGroup& group, std::uint32_t new_index,
                             sim::SimTime now) {
  // A byzantine server can contribute a garbled shard that decodes into a
  // blob failing the digest chain below, and RS alone cannot attribute the
  // fault — so search data_shards-sized subsets of what arrived until one
  // verifies. Only subsets CONTAINING the just-inserted shard are tried:
  // every other subset already failed when its own last member arrived, so
  // this is exact memoization and each subset is attempted at most once per
  // group. C(m-1, f) stays tiny for deployment-sized n; group.attempts caps
  // the pathological large-n case (the caller abandons a spent group).
  std::vector<erasure::ShardView> others;
  others.reserve(group.chunks.size() - 1);
  const util::Bytes* fresh = nullptr;
  for (const auto& [index, data] : group.chunks) {
    if (index == new_index) {
      fresh = &data;
    } else {
      others.push_back(erasure::ShardView{index, data});
    }
  }
  const std::size_t k = group.data_shards;  // >= 1 (f+1)
  if (fresh == nullptr || others.size() + 1 < k) return false;
  const std::size_t m = k - 1;  // companions drawn from `others`
  std::vector<std::size_t> pick(m);
  for (std::size_t i = 0; i < m; ++i) pick[i] = i;
  std::vector<erasure::ShardView> views;
  for (;;) {
    if (group.attempts >= opts_.max_decode_attempts) return false;
    ++group.attempts;
    views.clear();
    views.reserve(k);
    for (const auto i : pick) views.push_back(others[i]);
    views.push_back(erasure::ShardView{new_index, *fresh});
    if (try_subset(group, views, now)) return true;
    // Advance to the next m-combination of [0, others.size()).
    std::size_t i = m;
    while (i > 0 && pick[i - 1] == i - 1 + others.size() - m) --i;
    if (i == 0) return false;
    ++pick[i - 1];
    for (std::size_t j = i; j < m; ++j) pick[j] = pick[j - 1] + 1;
  }
}

bool StateSync::try_subset(const ChunkGroup& group,
                           const std::vector<erasure::ShardView>& views, sim::SimTime now) {
  const erasure::ReedSolomon rs(group.data_shards, n_);
  util::Bytes blob;
  if (!rs.decode_into(views, rs_scratch_, blob)) return false;

  // Full re-validation before a single entry lands: decode, index
  // continuity, coordinate monotonicity, per-frame block digest, the
  // exec_digest fold chain, and the final digest against the group's claim.
  std::vector<WalEntry> entries;
  util::ByteReader r(blob);
  crypto::Digest d = exec_digest_;
  auto prev = tail();
  std::uint64_t expect = applied_count_;
  while (!r.done()) {
    auto e = decode_entry(r);
    if (!e) return false;
    if (e->index != expect) return false;
    ++expect;
    if (coord_le(e->coord(), prev)) return false;
    prev = e->coord();
    if (opts_.frame_digest) {
      const auto fd = opts_.frame_digest(e->frame);
      if (!fd || !(*fd == e->block_digest)) return false;
    }
    d = fold_exec_digest(d, e->block_digest);
    if (!(d == e->post_digest)) return false;
    entries.push_back(std::move(*e));
  }
  if (entries.empty() || expect != group.until) return false;
  if (!(d == group.digest)) return false;

  for (const auto& e : entries) {
    apply_entry(e.seq, e.ordinal, e.block_digest, e.requests, e.frame, now);
  }
  purge_pending();
  ++stats_.rounds_completed;
  stats_.entries_transferred += entries.size();
  stats_.bytes_transferred += blob.size();

  if (cancel_timer_) cancel_timer_(kRoundTimer);
  probe_backoff_ = opts_.probe_timeout;
  // Immediately re-probe: either another round is needed or the next decide
  // goes live.
  begin_probe(now, /*backed_off=*/false);
  return true;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

bool StateSync::on_payload(sim::NodeId from, const sim::PayloadPtr& payload,
                           sim::SimTime now) {
  if (const auto* offer = dynamic_cast<const proto::StateOfferMsg*>(payload.get())) {
    if (!enabled_ || from >= n_) return true;  // consumed, ignored
    switch (offer->kind) {
      case proto::StateOfferMsg::kProbe: serve_probe(from, *offer); break;
      case proto::StateOfferMsg::kOffer: on_offer(from, *offer, now); break;
      case proto::StateOfferMsg::kPull: serve_pull(from, *offer); break;
      default: break;
    }
    return true;
  }
  if (const auto* chunk = dynamic_cast<const proto::StateChunkMsg*>(payload.get())) {
    if (!enabled_ || from >= n_) return true;
    on_chunk(from, *chunk, now);
    return true;
  }
  return false;
}

void StateSync::on_timer(std::uint64_t token, sim::SimTime now) {
  if (token == kProbeTimer) {
    if (mode_ != Mode::kProbing) return;
    decide(now);  // acts on whatever offers arrived; re-probes if too few
    return;
  }
  if (token == kRoundTimer) {
    if (mode_ != Mode::kPulling) return;
    // Not enough chunks in time: abandon the round and start over.
    groups_.clear();
    group_creates_.clear();
    begin_probe(now, /*backed_off=*/false);
  }
}

void StateSync::register_observability(obs::Registry& registry) {
  registry.counter_fields({
      {"leopard_sync_probes_sent_total", "State-transfer probes broadcast", &stats_.probes_sent},
      {"leopard_sync_offers_sent_total", "Offers answered to peers' probes", &stats_.offers_sent},
      {"leopard_sync_offers_received_total", "Offers received from peers",
       &stats_.offers_received},
      {"leopard_sync_pulls_sent_total", "Range pulls requested", &stats_.pulls_sent},
      {"leopard_sync_pulls_served_total", "Range pulls served to peers", &stats_.pulls_served},
      {"leopard_sync_chunks_received_total", "Erasure-coded range shards received",
       &stats_.chunks_received},
      {"leopard_sync_rounds_total", "Pull rounds applied", &stats_.rounds_completed},
      {"leopard_sync_entries_total", "Entries applied by state transfer",
       &stats_.entries_transferred},
      {"leopard_sync_bytes_total", "Decoded range bytes applied", &stats_.bytes_transferred},
      {"leopard_sync_verify_failures_total", "Transferred ranges that failed verification",
       &stats_.verify_failures},
      {"leopard_sync_duplicates_dropped_total", "Live executes dropped as already durable",
       &stats_.duplicates_dropped},
  });
  registry.gauge_fields({{"leopard_sync_pending_peak",
                          "Most live executes buffered while syncing", &stats_.pending_peak}});
}

}  // namespace leopard::store
