// StateSync: peer state transfer for a restarted replica, layered UNDER the
// consensus core at the deployment boundary (leopard_node), next to the
// ReplicaStore it fills.
//
// A replica that recovers `count` durable entries from disk may still be
// behind: Leopard's checkpoint adoption jumps a rejoining core forward
// without re-emitting the skipped Execute actions, so the local stream has a
// gap no amount of local replay closes. StateSync fills it from peers:
//
//   probe  — broadcast StateOffer{kProbe, from=count}; every peer answers
//            kOffer{until=its durable length, digest at that length}.
//   decide — with offers from >= n-1-f peers all reporting until <= count,
//            no gap can exist (a gap implies >= 2f peers ahead of us, and
//            n-1-f offers would include at least one of them): go live and
//            drain the pending buffer. Otherwise pull up to the (f+1)-th
//            largest offer — the longest prefix at least f+1 peers can serve.
//   pull   — each serving peer deterministically byte-caps the range to an
//            identical [from, T'), serializes it identically, Reed-Solomon
//            (k=f+1, n)-encodes the blob, and sends ONLY ITS OWN shard
//            (chunk_index == its replica id) — Algorithm 3's retrieval-
//            committee shape applied to catch-up, so a range of α bytes
//            costs each server ≈ α/(f+1).
//   verify — any k distinct shards reconstruct the blob; a chunk claiming a
//            shard index other than its sender's id is rejected outright, so
//            each peer contributes at most its own shard. The requester
//            re-validates everything (entry decode, index continuity, coord
//            monotonicity, per-frame block digest, the exec_digest fold
//            chain, and the final digest against the group's claim) before
//            appending a single entry, so f corrupt shards can waste a round
//            but never poison the store.
//
// Execute actions arriving live while syncing are buffered in `pending` and
// deduplicated by (seq, ordinal) coordinate against the durable tail; rounds
// repeat (probe timeouts retry with jittered exponential backoff) until the
// decide rule fires. One round pulls a bounded range, so a long outage syncs
// in several rounds, each re-verified end to end.
//
// Reporting state (exec_digest, executed counts) is owned HERE, not by the
// store: a disk failure degrades durability, never the report, so digest
// equality across the cluster stays checkable even when appends fail.
//
// Limits: Reed-Solomon over GF(2^8) caps n at 255 — beyond that StateSync
// disables itself and the node goes straight to live. A simultaneous
// full-cluster cold restart is out of scope (consensus sequence numbers
// restart; wipe the data dirs instead — see docs/DEPLOY.md).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "crypto/digest.hpp"
#include "erasure/reed_solomon.hpp"
#include "proto/messages.hpp"
#include "sim/message.hpp"
#include "sim/time.hpp"
#include "store/replica_store.hpp"

namespace leopard::store {

struct StateSyncOptions {
  /// Wait for probe answers before retrying (retries back off exponentially
  /// with deterministic jitter, capped at `backoff_max`).
  sim::SimTime probe_timeout = 300 * sim::kMillisecond;
  sim::SimTime backoff_max = 3 * sim::kSecond;
  /// Abandon a pull round (insufficient chunks) after this long.
  sim::SimTime round_timeout = 2 * sim::kSecond;
  /// Requester-side cap on entries per pull round.
  std::uint64_t max_round_entries = 4096;
  /// Server-side cap on serialized bytes per round. MUST be configured
  /// identically across the cluster: servers never coordinate, they each cut
  /// the range at the same deterministic byte boundary so their shards
  /// describe the same blob.
  std::uint64_t max_round_bytes = 8u << 20;
  /// Per-group budget of RS decode+verify attempts. The subset search is
  /// C(m-1, f) per new shard — tiny for deployment-sized n but combinatorial
  /// at the GF(2^8) limit, so a garbled shard must not buy an attacker
  /// unbounded CPU: past the budget the group is abandoned (the round timer
  /// or a sibling group finishes the round).
  std::uint64_t max_decode_attempts = 2048;
  /// Recomputes a block's canonical digest from its wire frame (nullopt =
  /// frame malformed). Supplied by the node so the store layer stays
  /// transport-agnostic; unset skips per-frame verification (tests).
  std::function<std::optional<crypto::Digest>(std::span<const std::uint8_t>)> frame_digest;
};

class StateSync {
 public:
  /// Timer tokens passed to the arm/cancel hooks (and back via on_timer).
  static constexpr std::uint64_t kProbeTimer = 1;
  static constexpr std::uint64_t kRoundTimer = 2;

  /// `store` may be nullptr (node running without --data-dir): the replica
  /// then neither serves nor pulls state and goes live immediately.
  StateSync(sim::NodeId id, std::uint32_t n, std::uint32_t f, ReplicaStore* store,
            StateSyncOptions opts);

  /// Outbound message hook (required before start()).
  void set_send(std::function<void(sim::NodeId, sim::PayloadPtr)> send) {
    send_ = std::move(send);
  }
  /// Timer hooks: arm(token, delay-from-now) and cancel(token). Re-arming a
  /// token replaces it (Env contract).
  void set_timer_hooks(std::function<void(std::uint64_t, sim::SimTime)> arm,
                       std::function<void(std::uint64_t)> cancel) {
    arm_timer_ = std::move(arm);
    cancel_timer_ = std::move(cancel);
  }

  /// Seeds the reporting state from disk recovery. Call before start().
  void init_from_recovery(const RecoveryResult& rec);

  /// Begins probing (or goes live immediately when there is nothing to ask:
  /// n == 1, no store, or state sync disabled by the shard-count limit).
  void start(sim::SimTime now);

  /// Feeds an inbound payload. Returns true if it was a state-transfer
  /// message (consumed — never forward those to the consensus core).
  bool on_payload(sim::NodeId from, const sim::PayloadPtr& payload, sim::SimTime now);

  void on_timer(std::uint64_t token, sim::SimTime now);

  /// One committed Execute from the local core. `frame` is the block's wire
  /// frame (what a peer would need to replay it).
  void on_execute(std::uint64_t seq, std::uint32_t ordinal,
                  const crypto::Digest& block_digest, std::uint64_t requests,
                  std::span<const std::uint8_t> frame, sim::SimTime now);

  [[nodiscard]] bool live() const { return mode_ == Mode::kLive; }
  [[nodiscard]] const crypto::Digest& exec_digest() const { return exec_digest_; }
  [[nodiscard]] std::uint64_t executed_requests() const { return executed_requests_; }
  [[nodiscard]] std::uint64_t executed_blocks() const { return applied_count_; }
  /// Durable tail coordinate (last applied seq/ordinal) — a sharded host
  /// re-seats its cross-shard sequencer from this after recovery/transfer.
  [[nodiscard]] std::uint64_t tail_seq() const { return tail_seq_; }
  [[nodiscard]] std::uint32_t tail_ordinal() const { return tail_ordinal_; }

  struct Stats {
    std::uint64_t probes_sent = 0;
    std::uint64_t offers_sent = 0;
    std::uint64_t offers_received = 0;
    std::uint64_t pulls_sent = 0;
    std::uint64_t pulls_served = 0;
    std::uint64_t chunks_received = 0;
    std::uint64_t rounds_completed = 0;
    std::uint64_t entries_transferred = 0;
    std::uint64_t bytes_transferred = 0;  // decoded blob bytes applied
    std::uint64_t verify_failures = 0;
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t pending_peak = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Registers stats() as scrape-time callbacks (`leopard_sync_*`). The
  /// StateSync must outlive every scrape and be driven from the scraping
  /// thread.
  void register_observability(obs::Registry& registry);

 private:
  enum class Mode : std::uint8_t { kProbing, kPulling, kLive };

  struct PendingEntry {
    std::uint64_t seq = 0;
    std::uint32_t ordinal = 0;
    crypto::Digest block_digest;
    std::uint64_t requests = 0;
    util::Bytes frame;
  };
  /// Chunks grouped by the range identity they claim; a group decodes once
  /// it holds data_shards distinct chunk indices.
  struct ChunkGroup {
    std::uint64_t until = 0;
    crypto::Digest digest;
    std::uint32_t data_shards = 0;
    std::uint64_t attempts = 0;  // decode+verify attempts spent on this group
    std::map<std::uint32_t, util::Bytes> chunks;  // chunk_index -> shard
  };

  /// A byzantine server can mint one ChunkGroup per forged (until, digest)
  /// pair; capping creations per sender bounds group memory at
  /// kMaxGroupsPerSender * (n-1) without letting an attacker crowd out groups
  /// honest servers have yet to open.
  static constexpr std::uint32_t kMaxGroupsPerSender = 3;

  [[nodiscard]] bool store_open() const { return store_ != nullptr && store_->is_open(); }
  [[nodiscard]] std::pair<std::uint64_t, std::uint32_t> tail() const {
    return {tail_seq_, tail_ordinal_};
  }

  void go_live(sim::SimTime now);
  void begin_probe(sim::SimTime now, bool backed_off);
  void decide(sim::SimTime now);
  void begin_pull(std::uint64_t target, sim::SimTime now);
  void serve_probe(sim::NodeId from, const proto::StateOfferMsg& msg);
  void serve_pull(sim::NodeId from, const proto::StateOfferMsg& msg);
  void on_offer(sim::NodeId from, const proto::StateOfferMsg& msg, sim::SimTime now);
  void on_chunk(sim::NodeId from, const proto::StateChunkMsg& msg, sim::SimTime now);
  /// Tries every data_shards-sized subset of the group that contains the
  /// just-inserted shard `new_index` until one decodes and fully re-verifies;
  /// applies on success. Subset search is what makes the pull robust to a
  /// lying server: its garbled shard fails the digest chain, but an untainted
  /// subset of the same group still completes. Restricting to subsets through
  /// the new shard is exact memoization — every other subset already failed
  /// when its own last member arrived.
  bool try_complete(ChunkGroup& group, std::uint32_t new_index, sim::SimTime now);
  /// Decodes + fully re-verifies one shard subset; applies on success.
  bool try_subset(const ChunkGroup& group, const std::vector<erasure::ShardView>& views,
                  sim::SimTime now);
  /// Appends one verified entry (store best-effort) and advances reporting.
  void apply_entry(std::uint64_t seq, std::uint32_t ordinal,
                   const crypto::Digest& block_digest, std::uint64_t requests,
                   std::span<const std::uint8_t> frame, sim::SimTime now);
  void purge_pending();

  sim::NodeId id_;
  std::uint32_t n_;
  std::uint32_t f_;
  ReplicaStore* store_;
  StateSyncOptions opts_;
  bool enabled_ = true;  // false when n > 255 (GF(2^8) shard-index limit)

  std::function<void(sim::NodeId, sim::PayloadPtr)> send_;
  std::function<void(std::uint64_t, sim::SimTime)> arm_timer_;
  std::function<void(std::uint64_t)> cancel_timer_;

  Mode mode_ = Mode::kProbing;
  // Reporting state: the node-level Execute-stream fold, seeded by recovery,
  // advanced by every applied entry (live or transferred).
  std::uint64_t applied_count_ = 0;
  std::uint64_t executed_requests_ = 0;
  crypto::Digest exec_digest_;
  std::uint64_t tail_seq_ = 0;
  std::uint32_t tail_ordinal_ = 0;

  std::uint64_t transfer_id_ = 0;   // current probe round
  std::uint32_t probe_round_ = 0;   // backoff/jitter key
  sim::SimTime probe_backoff_ = 0;  // current retry delay
  std::map<sim::NodeId, std::uint64_t> offers_;  // peer -> until (this round)
  std::uint64_t pull_from_ = 0;
  std::uint64_t pull_until_ = 0;  // requester-side target (servers may cut shorter)
  // Keyed by (served until_index, digest prefix): a lying server forks its
  // own group instead of poisoning the honest one.
  std::map<std::pair<std::uint64_t, std::uint64_t>, ChunkGroup> groups_;
  // Groups created by each sender this round (see kMaxGroupsPerSender).
  std::map<sim::NodeId, std::uint32_t> group_creates_;

  std::deque<PendingEntry> pending_;
  erasure::RsScratch rs_scratch_;
  Stats stats_;
};

}  // namespace leopard::store
