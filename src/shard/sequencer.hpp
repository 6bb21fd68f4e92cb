// Deterministic cross-shard ordering: merges the commit streams of S
// independent protocol shards into ONE global Execute stream that every
// honest replica derives identically from the per-shard consensus outputs
// alone — no extra agreement rounds, no communication.
//
// Model. Shard s runs an unmodified sans-I/O core whose Execute records
// carry shard-local coordinates (sseq, sordinal), strictly increasing
// lexicographically (sseq = BFTblock sn / baseline height, sordinal = link
// index within it). The sequencer interleaves shards round-robin by
// *round*, where round q of shard s is the set of shard-s records with
// sseq == q in sordinal order:
//
//   global order = round 0 of shard 0, round 0 of shard 1, ...,
//                  round 0 of shard S-1, round 1 of shard 0, ...
//
// A round (q, s) may only be passed once its completeness is *proven*: the
// shard-s stream has shown a record with sseq > q (per-shard FIFO delivery
// means nothing at sseq <= q can still arrive). A shard that committed
// nothing at sseq == q contributes an empty round — the Raptr-style
// explicit empty slot — and the global stream simply skips it, the same
// gap semantics the single-instance stream already has across checkpoint
// adoption. Liveness when a shard is idle (it will never prove q on its
// own) is the host's job: after a bounded stall it injects a no-op client
// request (client id >= kNoopClientBase, acks dropped at the env boundary)
// into its local core of the blocking shard; the no-op commits through
// ordinary consensus at the shard's next sn, simultaneously filling the
// stalled round and proving every earlier one.
//
// Global coordinates. An emitted record keeps its round as the global
// sequence number and packs its provenance into the ordinal:
//
//   gseq     = q
//   gordinal = shard << 20 | sordinal        (shard < 4096, sordinal < 2^20)
//
// which is strictly increasing in emission order, so the PR6 durability
// stack (WAL, snapshots, state transfer) consumes the merged stream
// completely unchanged — (seq, ordinal) remains the durable-commit
// identity, and `advance_to` re-seats the cursor from a recovered tail.
//
// Determinism argument: the emitted prefix is a pure function of the S
// shard streams (each agreed by consensus) — the merge rule references
// only (sseq, sordinal) and the round-robin cursor, never arrival time.
// Arrival interleaving across shards changes *when* records are emitted,
// never their order (tests/shard_test.cpp sweeps interleavings).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/client.hpp"
#include "protocol/protocol.hpp"

namespace leopard::shard {

/// gordinal layout: high bits shard, low bits shard-local ordinal.
inline constexpr std::uint32_t kShardOrdinalBits = 20;
inline constexpr std::uint32_t kMaxShardOrdinal = (1u << kShardOrdinalBits) - 1;
/// Hard cap on the shard count (gordinal leaves 12 bits of shard id).
inline constexpr std::uint32_t kMaxShards = 1u << (32 - kShardOrdinalBits);

/// Transport ids at or above this base are pseudo-clients with no network
/// presence: every shard env drops sends addressed to them instead of
/// handing them to the network. Hosts (and tests) use this range for any
/// locally-injected request whose acks have no consumer.
inline constexpr sim::NodeId kNoopClientBase = 0xF0000000u;

/// Period of a sharded host's stall check (see the liveness argument above).
inline constexpr sim::SimTime kStallTickInterval = 100 * sim::kMillisecond;

/// Sub-range of the pseudo-client space reserved for stall FILLER no-ops
/// (kFillerClientBase + physical replica id). Only requests from this range
/// mark a block as filler for is_filler_block(); pseudo-clients below it
/// (ack-dropped, but semantically real payloads) still count as real work.
inline constexpr sim::NodeId kFillerClientBase = 0xF8000000u;

[[nodiscard]] constexpr std::uint32_t pack_ordinal(std::uint32_t shard,
                                                   std::uint32_t shard_ordinal) {
  return (shard << kShardOrdinalBits) | shard_ordinal;
}
[[nodiscard]] constexpr std::uint32_t ordinal_shard(std::uint32_t gordinal) {
  return gordinal >> kShardOrdinalBits;
}
[[nodiscard]] constexpr std::uint32_t ordinal_within(std::uint32_t gordinal) {
  return gordinal & kMaxShardOrdinal;
}

/// Stable request→shard partition used by every client driver (sim and
/// TCP): splitmix64 over (client_id, request index) so load spreads evenly
/// without coordination and every driver computes the same assignment.
[[nodiscard]] std::uint32_t shard_of(std::uint64_t client_id, std::uint64_t index,
                                     std::uint32_t shards);

/// One shard's slice of a client group (see split_client).
struct ClientSlice {
  std::uint32_t shard = 0;
  core::ClientConfig cfg;
  std::uint64_t seed = 0;
};

/// Splits one client group across `shards` the way every client (sim and TCP) does:
/// request index i goes to shard shard_of(seed, i, shards). Shard s gets an
/// exact count of the request budget and the standing backlog, a sampled
/// share of the rate, the floor share (at least 1) of a closed-loop window,
/// and seed + 7919 s. A shard whose share of a bounded budget is 0 gets no
/// slice: a sub-client with total_requests = 0 would submit without limit.
[[nodiscard]] std::vector<ClientSlice> split_client(const core::ClientConfig& cfg,
                                                    std::uint64_t seed,
                                                    std::uint32_t shards);

/// True when `block` carries only liveness-filler content: a datablock all
/// of whose requests come from filler pseudo-clients (or an empty one). The
/// stall logic injects no-ops only while REAL records wait behind the
/// cursor — a filler commit lands one round ahead of the cursor and would
/// otherwise re-arm the stall detector forever (perpetual heartbeat);
/// trailing filler may instead stay buffered until real traffic resumes.
[[nodiscard]] bool is_filler_block(const sim::Payload& block);

/// One record of the merged global stream. `exec.seq`/`exec.ordinal` carry
/// the GLOBAL coordinates; the shard-local provenance rides alongside for
/// reports and oracles.
struct GlobalRecord {
  std::uint32_t shard = 0;
  std::uint64_t shard_seq = 0;
  std::uint32_t shard_ordinal = 0;
  protocol::Execute exec;
};

class Sequencer {
 public:
  using Sink = std::function<void(const GlobalRecord&)>;

  /// `shards` in [1, kMaxShards]. `sink` receives merged records in global
  /// order, synchronously from inside push()/advance_to().
  Sequencer(std::uint32_t shards, Sink sink);

  /// Feeds one shard-local Execute record (exec.seq/ordinal are the SHARD
  /// coordinates). Per-shard records must arrive in stream order; records
  /// at or below the emitted floor (restart re-emissions) are dropped and
  /// counted, returning false. May emit any number of records through the
  /// sink before returning.
  bool push(std::uint32_t shard, const protocol::Execute& exec);

  /// Fast-forwards past a durable tail (gseq, gordinal) recovered from the
  /// WAL/snapshot or adopted via state transfer: the cursor re-seats just
  /// after that global record and anything at or before it is pruned as
  /// already-executed. A target behind the current cursor is a no-op.
  void advance_to(std::uint64_t gseq, std::uint32_t gordinal);

  /// Current round (the global seq the merge is working on).
  [[nodiscard]] std::uint64_t round() const { return round_; }
  /// The shard the cursor is waiting on.
  [[nodiscard]] std::uint32_t cursor_shard() const { return cursor_; }
  /// Total records emitted through the sink.
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  /// True when some shard has progressed beyond the cursor's round while
  /// the merge is blocked — the signal that stall no-ops are warranted (a
  /// fully idle system has no backlog and injects nothing).
  [[nodiscard]] bool has_backlog() const;
  [[nodiscard]] std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }
  [[nodiscard]] std::uint32_t shards() const { return static_cast<std::uint32_t>(states_.size()); }

 private:
  struct ShardState {
    /// Buffered records beyond the cursor, keyed by (sseq, sordinal).
    std::map<std::pair<std::uint64_t, std::uint32_t>, GlobalRecord> buffer;
    /// Lexicographic floor: pushes strictly below are duplicates.
    std::pair<std::uint64_t, std::uint32_t> floor{0, 0};
    /// Highest sseq observed (valid when seen) — the completeness proof.
    std::uint64_t frontier = 0;
    bool seen = false;
  };

  /// Emits everything emittable at the cursor and advances it as far as
  /// proofs allow.
  void pump();

  Sink sink_;
  std::vector<ShardState> states_;
  std::uint64_t round_ = 0;   // global seq under construction
  std::uint32_t cursor_ = 0;  // shard whose slot of round_ is open
  std::uint64_t emitted_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
};

}  // namespace leopard::shard
