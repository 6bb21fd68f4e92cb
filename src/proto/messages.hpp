// Wire messages for Leopard (§IV) and the baselines, with exact byte sizes.
//
// Size parameters match the paper's evaluation (§VI footnote 7):
//   β = 32 bytes  (SHA-256 hash)
//   κ = 48 bytes  (threshold BLS signature / share)
//   payload = configurable per experiment (default 128 bytes)
//
// Requests may carry *synthetic* payloads: `payload_size` is authoritative
// for wire sizes while `payload` may be empty; digests then cover the header
// only, which keeps identities unique per (client, seq) without materializing
// gigabytes of padding in benches. Tests that exercise crypto end-to-end use
// real payload bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/digest.hpp"
#include "crypto/threshold_sig.hpp"
#include "sim/message.hpp"
#include "sim/time.hpp"
#include "util/bytes.hpp"

namespace leopard::proto {

using View = std::uint32_t;
using SeqNum = std::uint64_t;
using ReplicaId = std::uint32_t;

// ---------------------------------------------------------------------------
// Core data types
// ---------------------------------------------------------------------------

/// A client request: identity (client, seq) plus payload.
struct Request {
  std::uint64_t client_id = 0;
  std::uint64_t seq = 0;
  std::uint32_t payload_size = 0;
  util::Bytes payload;  // empty for synthetic payloads
  sim::SimTime submitted_at = 0;

  [[nodiscard]] std::size_t wire_size() const { return 8 + 8 + 4 + payload_size; }
  void encode(util::ByteWriter& w) const;
  static Request decode(util::ByteReader& r);
  [[nodiscard]] crypto::Digest digest() const;
};

/// ⟨datablock, (i, counter), R⟩ — generated by non-leader replica i
/// (Algorithm 1).
struct Datablock {
  ReplicaId maker = 0;
  std::uint64_t counter = 0;
  std::vector<Request> requests;

  [[nodiscard]] std::size_t wire_size() const;
  void encode(util::ByteWriter& w) const;
  static Datablock decode(util::ByteReader& r);

  /// Digest-of-digests: H(maker || counter || H(req_1) || ... || H(req_k)).
  [[nodiscard]] crypto::Digest digest() const;
};

/// ⟨BFTblock, (v, sn), ct⟩ — generated by the view leader; `links` holds the
/// hashes of the datablocks it covers (Algorithm 2).
struct BftBlock {
  View view = 0;
  SeqNum sn = 0;
  std::vector<crypto::Digest> links;

  [[nodiscard]] std::size_t wire_size() const { return 4 + 8 + 4 + 32 * links.size(); }
  void encode(util::ByteWriter& w) const;
  static BftBlock decode(util::ByteReader& r);
  [[nodiscard]] crypto::Digest digest() const;
};

// ---------------------------------------------------------------------------
// Leopard protocol messages
// ---------------------------------------------------------------------------

/// Client → replica submission. Requests are batched per message purely as a
/// transport optimization (clients pipeline over one connection); wire size
/// is the sum of the requests.
struct ClientRequestMsg final : sim::Payload {
  std::vector<Request> requests;

  ClientRequestMsg() = default;
  explicit ClientRequestMsg(Request r) { requests.push_back(std::move(r)); }
  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t sum = 4;
    for (const auto& r : requests) sum += r.wire_size();
    return sum;
  }
  [[nodiscard]] sim::Component component() const override {
    return sim::Component::kClientRequest;
  }
};

/// Replica → client acknowledgement of confirmed requests (batched).
struct AckMsg final : sim::Payload {
  std::uint64_t client_id = 0;
  std::vector<std::uint64_t> seqs;

  [[nodiscard]] std::size_t wire_size() const override { return 8 + 4 + 8 * seqs.size(); }
  [[nodiscard]] sim::Component component() const override { return sim::Component::kAck; }
};

/// Datablock multicast (Algorithm 1 line 7). Its digest and wire size are
/// computed once, at construction: nothing mutates a constructed datablock,
/// and every send, receipt and hash charge asks for its size.
struct DatablockMsg final : sim::Payload {
  Datablock datablock;
  crypto::Digest cached_digest;   // computed once by the maker
  std::size_t cached_wire_size;
  sim::SimTime created_at = 0;    // simulation metadata (not on the wire)

  explicit DatablockMsg(Datablock db)
      : datablock(std::move(db)),
        cached_digest(datablock.digest()),
        cached_wire_size(datablock.wire_size()) {}
  [[nodiscard]] std::size_t wire_size() const override { return cached_wire_size; }
  [[nodiscard]] sim::Component component() const override {
    return sim::Component::kDatablock;
  }
};

/// ⟨Ready, H(m), j⟩ to the leader (Algorithm 3); hashes may be batched.
struct ReadyMsg final : sim::Payload {
  std::vector<crypto::Digest> datablock_hashes;

  [[nodiscard]] std::size_t wire_size() const override {
    return 4 + 32 * datablock_hashes.size();
  }
  [[nodiscard]] sim::Component component() const override {
    return sim::Component::kReady;
  }
};

/// Leader's proposal: (m, ˆσ1_Lv) (Algorithm 2, pre-prepare stage).
struct BftBlockMsg final : sim::Payload {
  BftBlock block;
  crypto::SignatureShare leader_share;
  crypto::Digest cached_digest;

  BftBlockMsg(BftBlock b, crypto::SignatureShare share)
      : block(std::move(b)), leader_share(share), cached_digest(block.digest()) {}
  [[nodiscard]] std::size_t wire_size() const override {
    return block.wire_size() + crypto::SignatureShare::kWireSize;
  }
  [[nodiscard]] sim::Component component() const override {
    return sim::Component::kBftBlock;
  }
};

/// A vote: (target digest, ˆσ_i) for voting round 1 or 2.
struct VoteMsg final : sim::Payload {
  std::uint8_t round = 1;          // 1 = prepare, 2 = commit
  crypto::Digest block_digest;     // H(m): identifies the agreement instance
  crypto::SignatureShare share;    // share on H(m) (round 1) or H(ˆσ1) (round 2)

  [[nodiscard]] std::size_t wire_size() const override {
    return 1 + 32 + crypto::SignatureShare::kWireSize;
  }
  [[nodiscard]] sim::Component component() const override { return sim::Component::kVote; }
};

/// Combined proof multicast by the leader: (H(m), ˆσ) for notarization
/// (round 1) or confirmation (round 2).
struct ProofMsg final : sim::Payload {
  std::uint8_t round = 1;
  crypto::Digest block_digest;
  crypto::ThresholdSignature signature;

  [[nodiscard]] std::size_t wire_size() const override {
    return 1 + 32 + crypto::ThresholdSignature::kWireSize;
  }
  [[nodiscard]] sim::Component component() const override {
    return sim::Component::kProof;
  }
};

/// ⟨Query, (µ..., i)⟩ multicast by a replica missing datablocks (Algorithm 3).
struct QueryMsg final : sim::Payload {
  std::vector<crypto::Digest> missing;

  [[nodiscard]] std::size_t wire_size() const override { return 4 + 32 * missing.size(); }
  [[nodiscard]] sim::Component component() const override {
    return sim::Component::kQuery;
  }
};

/// ⟨Resp, rt, C_j, proof_j⟩ — one erasure-coded chunk with Merkle proof.
struct ChunkResponseMsg final : sim::Payload {
  crypto::Digest datablock_hash;
  crypto::Digest merkle_root;
  std::uint32_t chunk_index = 0;
  std::uint32_t leaf_count = 0;
  util::Bytes chunk;                  // may be synthetic (see chunk_size)
  std::uint32_t chunk_size = 0;       // authoritative wire size of the chunk
  std::vector<crypto::Digest> proof;  // Merkle path

  [[nodiscard]] std::size_t wire_size() const override {
    return 32 + 32 + 4 + 4 + 4 + chunk_size + 4 + 32 * proof.size();
  }
  [[nodiscard]] sim::Component component() const override {
    return sim::Component::kChunkResponse;
  }
};

/// Checkpoint vote (cp, ˆσ_i) or combined checkpoint proof (Algorithm 4).
struct CheckpointMsg final : sim::Payload {
  SeqNum sn = 0;
  crypto::Digest state;
  std::optional<crypto::SignatureShare> share;          // vote form
  std::optional<crypto::ThresholdSignature> signature;  // proof form

  [[nodiscard]] std::size_t wire_size() const override {
    return 8 + 32 + (share ? crypto::SignatureShare::kWireSize : 0) +
           (signature ? crypto::ThresholdSignature::kWireSize : 0);
  }
  [[nodiscard]] sim::Component component() const override {
    return sim::Component::kCheckpoint;
  }
};

/// ⟨timeout, v⟩ with the sender's signature (view-change trigger).
struct TimeoutMsg final : sim::Payload {
  View view = 0;
  crypto::SignatureShare share;

  [[nodiscard]] std::size_t wire_size() const override {
    return 4 + crypto::SignatureShare::kWireSize;
  }
  [[nodiscard]] sim::Component component() const override {
    return sim::Component::kTimeout;
  }
};

/// A notarized BFTblock carried in a view-change message: the full block plus
/// its notarization proof (Appendix A: set B).
struct NotarizedBlock {
  BftBlock block;
  crypto::ThresholdSignature notarization;

  [[nodiscard]] std::size_t wire_size() const {
    return block.wire_size() + crypto::ThresholdSignature::kWireSize;
  }
};

/// ⟨view-change, v+1, lc, B⟩ to the next leader.
struct ViewChangeMsg final : sim::Payload {
  View new_view = 0;
  SeqNum checkpoint_sn = 0;                       // lc: latest stable checkpoint
  crypto::Digest checkpoint_state;
  crypto::ThresholdSignature checkpoint_proof;
  std::vector<NotarizedBlock> notarized;          // B
  crypto::SignatureShare sender_sig;
  ReplicaId sender = 0;

  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t blocks = 4;
    for (const auto& nb : notarized) blocks += nb.wire_size();
    return 4 + 8 + 32 + crypto::ThresholdSignature::kWireSize + blocks +
           crypto::SignatureShare::kWireSize + 4;
  }
  [[nodiscard]] sim::Component component() const override {
    return sim::Component::kViewChange;
  }
};

/// ⟨new-view, v+1, V⟩ multicast by the next leader; V is 2f+1 view-change
/// messages (carried by value: the new-view message is O(n)-sized, which is
/// exactly what Fig. 13 measures).
struct NewViewMsg final : sim::Payload {
  View new_view = 0;
  std::vector<ViewChangeMsg> view_changes;
  crypto::SignatureShare leader_sig;

  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t vcs = 4;
    for (const auto& vc : view_changes) vcs += vc.wire_size();
    return 4 + vcs + crypto::SignatureShare::kWireSize;
  }
  [[nodiscard]] sim::Component component() const override {
    return sim::Component::kNewView;
  }
};

// ---------------------------------------------------------------------------
// Baseline (HotStuff / PBFT) messages
// ---------------------------------------------------------------------------

/// A baseline consensus block carrying full request payloads (the leader-
/// disseminates-requests pattern whose cost is Eq. (1) of the paper).
struct BaselineBlockMsg final : sim::Payload {
  View view = 0;
  SeqNum height = 0;
  crypto::Digest parent;
  crypto::Digest justify_target;                     // QC'd block (HotStuff)
  crypto::ThresholdSignature justify_sig;            // QC signature
  std::vector<Request> batch;
  crypto::Digest cached_digest;

  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t reqs = 4;
    for (const auto& r : batch) reqs += r.wire_size();
    return 4 + 8 + 32 + 32 + crypto::ThresholdSignature::kWireSize + reqs;
  }
  [[nodiscard]] sim::Component component() const override {
    return sim::Component::kDatablock;  // request dissemination traffic
  }

  /// The digest proposers cache and voters target: view, height, the chain
  /// link (parent, justify QC) and the digest-of-digests over the batch, so
  /// two blocks at one height on different parents never share a vote. ONE
  /// definition shared by both baseline proposers and the wire decoder, so
  /// a formula change cannot diverge between simulated and socket runs.
  [[nodiscard]] crypto::Digest compute_digest() const;
};

/// Baseline vote. For HotStuff this is a threshold share sent to the leader;
/// for PBFT (BFT-SMaRt stand-in) it is an all-to-all multicast flat signature.
struct BaselineVoteMsg final : sim::Payload {
  std::uint8_t phase = 0;  // HotStuff: generic vote; PBFT: 1=prepare, 2=commit
  View view = 0;
  SeqNum height = 0;
  crypto::Digest block_digest;
  crypto::SignatureShare share;

  [[nodiscard]] std::size_t wire_size() const override {
    return 1 + 4 + 8 + 32 + crypto::SignatureShare::kWireSize;
  }
  [[nodiscard]] sim::Component component() const override { return sim::Component::kVote; }
};

// ---------------------------------------------------------------------------
// State-transfer messages (node-level crash recovery, not consensus)
// ---------------------------------------------------------------------------
//
// Exchanged by the deployment layer (store/state_sync) underneath the
// consensus cores: a restarted replica probes peers for their durable
// Execute-log length, pulls the suffix it is missing, and each serving peer
// answers with ITS OWN Reed-Solomon shard of the identically serialized
// entry range — the retrieval-committee shape of Algorithm 3 applied to
// catch-up, so a range of α bytes costs each server ≈ α/(f+1).

/// Probe (a recovering node asks everyone), offer (a peer's answer: how much
/// durable log it has and the exec_digest at that length), or pull (a request
/// to serve a specific entry range).
struct StateOfferMsg final : sim::Payload {
  enum Kind : std::uint8_t { kProbe = 0, kOffer = 1, kPull = 2 };

  std::uint8_t kind = kProbe;
  std::uint64_t transfer_id = 0;  // correlates one probe round's traffic
  std::uint64_t from_index = 0;   // probe/pull: requester's log length
  std::uint64_t until_index = 0;  // offer: responder's length; pull: range end
  crypto::Digest exec_digest;     // offer: digest at until_index; else zero

  [[nodiscard]] std::size_t wire_size() const override { return 1 + 8 + 8 + 8 + 32; }
  [[nodiscard]] sim::Component component() const override {
    return sim::Component::kStateOffer;
  }
};

/// One erasure-coded chunk of a serialized entry range [from_index,
/// until_index). `chunk_index` equals the serving replica's id, so any f+1
/// distinct chunks include one from an honest peer and the digest can be
/// trusted once the decoded range re-verifies against it.
struct StateChunkMsg final : sim::Payload {
  std::uint64_t transfer_id = 0;
  std::uint64_t from_index = 0;
  std::uint64_t until_index = 0;
  crypto::Digest exec_digest;      // server's digest at until_index
  std::uint32_t chunk_index = 0;   // == serving replica id
  std::uint32_t data_shards = 0;   // k = f+1
  std::uint32_t total_shards = 0;  // n
  util::Bytes chunk;

  [[nodiscard]] std::size_t wire_size() const override {
    return 8 + 8 + 8 + 32 + 4 + 4 + 4 + 4 + chunk.size();
  }
  [[nodiscard]] sim::Component component() const override {
    return sim::Component::kStateChunk;
  }
};

}  // namespace leopard::proto
