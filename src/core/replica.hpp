// LeopardReplica: the full Leopard protocol of §IV — datablock preparation
// (Algorithm 1), two-round agreement on BFTblocks with a ready round
// (Algorithms 2 and 3), committee-based datablock retrieval with erasure
// codes (Algorithm 3), checkpointing/garbage collection (Algorithm 4), and
// the PBFT-style view-change (Appendix A).
//
// The replica is a sans-I/O `protocol::Protocol` core: it consumes typed
// events and emits Send/Broadcast/SetTimer/Execute/... actions through the
// `protocol::Env` it is driven by (see src/protocol/). It never touches a
// transport or scheduler itself — `protocol::SimEnv` hosts it inside the
// discrete-event simulator, `protocol::ReplayEnv` re-drives it from recorded
// traces.
//
// One instance per replica; all replicas of a cluster share a
// ThresholdScheme. Replica ids must equal their env-level node ids.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/byzantine.hpp"
#include "core/config.hpp"
#include "core/counter_window.hpp"
#include "core/quorum_collector.hpp"
#include "crypto/merkle.hpp"
#include "crypto/threshold_sig.hpp"
#include "erasure/reed_solomon.hpp"
#include "proto/messages.hpp"
#include "protocol/protocol.hpp"

namespace leopard::core {

class LeopardReplica final : public protocol::ProtocolBase {
 public:
  LeopardReplica(LeopardConfig cfg, const crypto::ThresholdScheme& ts, proto::ReplicaId id,
                 ByzantineSpec byz = {});

  // -- protocol::Protocol ----------------------------------------------------
  [[nodiscard]] proto::ReplicaId id() const override { return id_; }

  /// The message a checkpoint share or proof at `sn` on `state` signs.
  [[nodiscard]] static crypto::Digest checkpoint_digest(proto::SeqNum sn,
                                                        const crypto::Digest& state);

  /// Application hook: invoked once per request, in the total order the
  /// protocol commits (BFTblock serial number, then link order, then request
  /// order within a datablock). This is where a replicated state machine
  /// applies commands (see examples/kv_store.cpp). The committed batch is
  /// also emitted as an `Execute` action for env-level observers.
  using ExecutionHandler = std::function<void(const proto::Request&)>;
  void set_execution_handler(ExecutionHandler handler) {
    execution_handler_ = std::move(handler);
  }

  /// Application-specific request validity predicate verify(·) (§IV):
  /// invoked on each request at client ingress (invalid submissions are
  /// rejected outright) and on every received datablock before the replica
  /// will vote for a BFTblock linking it. Datablocks containing any invalid
  /// request are treated as invalid in their entirety.
  using RequestValidator = std::function<bool(const proto::Request&)>;
  void set_request_validator(RequestValidator validator) {
    request_validator_ = std::move(validator);
  }

  /// Observability hooks for the request-stage tracer (obs::StageTracer).
  /// Fired for requests this replica is the datablock maker of, so every
  /// timestamp handed to one request's hooks is on this replica's clock:
  /// `on_generated` when the request is batched into a datablock (with its
  /// mempool-ingress time), `on_executed` when the block linking that
  /// datablock executes (with the datablock creation, link-receipt, and
  /// execution times). Unset by default — zero cost when unused.
  using StageGeneratedHook = std::function<void(
      std::uint64_t client_id, std::uint64_t seq, sim::SimTime ingress_at,
      sim::SimTime created_at)>;
  using StageExecutedHook = std::function<void(
      std::uint64_t client_id, std::uint64_t seq, sim::SimTime created_at,
      sim::SimTime linked_at, sim::SimTime executed_at)>;
  void set_stage_hooks(StageGeneratedHook on_generated, StageExecutedHook on_executed) {
    stage_generated_ = std::move(on_generated);
    stage_executed_ = std::move(on_executed);
  }

  // -- Introspection (tests, harness) --------------------------------------
  [[nodiscard]] proto::View view() const { return view_; }
  [[nodiscard]] proto::ReplicaId leader_of(proto::View v) const { return v % cfg_.n; }
  [[nodiscard]] bool is_leader() const { return leader_of(view_) == id_ && !in_view_change_; }
  [[nodiscard]] proto::SeqNum executed_through() const { return exec_sn_; }
  [[nodiscard]] proto::SeqNum low_watermark() const { return lw_; }
  [[nodiscard]] std::size_t mempool_size() const { return mempool_.size(); }
  [[nodiscard]] std::size_t datablock_pool_size() const { return pool_.size(); }
  [[nodiscard]] std::uint64_t executed_request_count() const { return executed_request_count_; }
  [[nodiscard]] bool in_view_change() const { return in_view_change_; }
  [[nodiscard]] std::size_t ready_queue_size() const { return ready_queue_.size(); }
  [[nodiscard]] proto::SeqNum next_sn() const { return next_sn_; }
  [[nodiscard]] std::size_t open_instances() const { return instances_.size(); }

  /// Digest of the confirmed BFTblock at `sn`, if confirmed at this replica.
  [[nodiscard]] std::optional<crypto::Digest> confirmed_digest(proto::SeqNum sn) const;
  /// All confirmed (sn → digest) pairs; safety tests compare across replicas.
  /// A maintained snapshot — O(1) per call, no per-call map construction.
  [[nodiscard]] const std::map<proto::SeqNum, crypto::Digest>& confirmed_log() const {
    return confirmed_log_;
  }
  /// Running hash over the executed block sequence (state-machine state).
  [[nodiscard]] const crypto::Digest& state_digest() const { return state_digest_; }

 protected:
  // -- protocol::ProtocolBase hooks ------------------------------------------
  void do_start() override;
  void do_message(protocol::NodeId from, const sim::PayloadPtr& payload) override;
  void do_timer(protocol::TimerToken token) override;
  void do_client_request(protocol::NodeId from, const proto::ClientRequestMsg& msg) override;

 private:
  // -- Timer identity --------------------------------------------------------
  // Tokens carry their purpose in the low 3 bits; unique timers (retrieval,
  // view-change escalation) get a fresh sequence in the high bits per arm.
  enum class TimerKind : std::uint8_t {
    kDatablockFlush = 0,
    kProposalFlush = 1,
    kProgress = 2,
    kRetrieval = 3,
    kVcEscalation = 4,
  };
  [[nodiscard]] static constexpr protocol::TimerToken token_of(TimerKind kind,
                                                               std::uint64_t seq = 0) {
    return (seq << 3) | static_cast<std::uint64_t>(kind);
  }

  // -- Agreement-instance bookkeeping ---------------------------------------
  struct Instance {
    proto::BftBlock block;
    crypto::Digest digest;          // H(m)
    proto::View proposed_view = 0;
    sim::SimTime received_at = 0;  // when this replica saw the proposal
    bool have_block = false;
    bool voted1 = false;
    bool voted2 = false;
    bool notarized = false;
    bool confirmed = false;
    bool executed = false;
    std::optional<crypto::ThresholdSignature> sigma1;  // notarization proof
    crypto::Digest sigma1_digest;                      // H(ˆσ1): round-2 target
    std::optional<crypto::ThresholdSignature> sigma2;  // confirmation proof
    std::set<crypto::Digest> missing;                  // links awaiting retrieval
    // Leader-side vote collection.
    QuorumShares votes1, votes2;
  };

  struct Retrieval {
    protocol::TimerToken timer_token = 0;  // 0 = none armed
    bool query_sent = false;
    sim::SimTime query_sent_at = 0;
    // chunks grouped by claimed Merkle root; decode at f+1 consistent chunks.
    std::unordered_map<crypto::Digest, std::vector<std::shared_ptr<const proto::ChunkResponseMsg>>>
        chunks_by_root;
  };

  // -- Message handlers ------------------------------------------------------
  void handle_client_request(const proto::ClientRequestMsg& msg);
  void handle_datablock(proto::ReplicaId from, std::shared_ptr<const proto::DatablockMsg> msg);
  void handle_ready(proto::ReplicaId from, const proto::ReadyMsg& msg);
  void handle_bftblock(proto::ReplicaId from, const proto::BftBlockMsg& msg);
  void handle_vote(proto::ReplicaId from, const proto::VoteMsg& msg);
  void handle_proof(proto::ReplicaId from, const proto::ProofMsg& msg);
  void handle_query(proto::ReplicaId from, const proto::QueryMsg& msg);
  void handle_chunk(proto::ReplicaId from, std::shared_ptr<const proto::ChunkResponseMsg> msg);
  void handle_checkpoint(proto::ReplicaId from, const proto::CheckpointMsg& msg);
  void handle_timeout(proto::ReplicaId from, const proto::TimeoutMsg& msg);
  void handle_view_change(proto::ReplicaId from, std::shared_ptr<const proto::ViewChangeMsg> msg);
  void handle_new_view(proto::ReplicaId from, const proto::NewViewMsg& msg);

  // -- Datablock preparation (Algorithm 1) ----------------------------------
  void maybe_generate_datablocks();
  void generate_datablock(std::size_t request_count);
  void accept_datablock(const std::shared_ptr<const proto::DatablockMsg>& msg, bool recovered);
  /// Arms kDatablockFlush for the oldest pooled request's deadline
  /// (enqueued + datablock_max_wait); a no-op on an empty mempool.
  void arm_datablock_flush();
  /// kDatablockFlush: flushes a partial datablock if its oldest request is
  /// due, then re-arms for the oldest one left.
  void datablock_flush_fire();

  // -- Leader: ready round and proposals (Algorithms 2, 3) -------------------
  void leader_note_ready(proto::ReplicaId from, const crypto::Digest& digest);
  void leader_promote_if_ready(const crypto::Digest& digest);
  /// An instance proposed in the current view and not yet confirmed;
  /// unconfirmed_proposals_ counts them.
  [[nodiscard]] bool awaits_confirmation(const Instance& inst) const;
  /// Proposes what the batching rules allow and keeps kProposalFlush armed
  /// for the oldest ready link's deadline (oldest_ready_at_ +
  /// proposal_max_wait). The kProposalFlush handler passes the deadline the
  /// timer was armed for as `fired`; it counts as reached (a timer wheel may
  /// fire up to a tick early).
  void maybe_propose(sim::SimTime fired = -1);
  /// Proposes up to τ links from the front of the ready queue; `trigger`
  /// (kProposalFull/Idle/Timer) counts why.
  void propose_ready(protocol::Metric trigger);
  void propose_block(proto::SeqNum sn, std::vector<crypto::Digest> links);
  void leader_install_proposal(const proto::BftBlockMsg& msg);

  // -- Voting ----------------------------------------------------------------
  [[nodiscard]] bool verify_bftblock(const proto::BftBlockMsg& msg);
  void try_vote_round1(proto::SeqNum sn);
  void send_vote(std::uint8_t round, const Instance& inst);
  /// Leader: adds a vote share through collector_, charges its cost, and
  /// returns the certificate once the quorum combines.
  std::optional<crypto::ThresholdSignature> collect_vote(QuorumShares& q,
                                                         const crypto::Digest& message,
                                                         proto::ReplicaId from,
                                                         const crypto::SignatureShare& share);
  void on_notarized(proto::SeqNum sn);
  void on_confirmed(proto::SeqNum sn);
  void execute_ready_blocks();
  void execute_block(Instance& inst);

  // -- Retrieval (Algorithm 3) ------------------------------------------------
  void note_missing(proto::SeqNum sn, const crypto::Digest& digest);
  void send_queries(const crypto::Digest& digest);
  void try_decode(const crypto::Digest& digest, Retrieval& ret);
  /// Abandons an in-flight retrieval: cancels its armed timer (and the
  /// token → digest mapping) before erasing the entry, so a stale token can
  /// never fire after the digest is re-missed and multicast a Query early.
  void drop_retrieval(const crypto::Digest& digest);

  // -- Checkpoint / garbage collection (Algorithm 4) --------------------------
  void maybe_checkpoint();
  void adopt_checkpoint(proto::SeqNum sn, const crypto::Digest& state,
                        const crypto::ThresholdSignature& proof);
  void garbage_collect(proto::SeqNum through_sn);

  // -- View-change (Appendix A) ------------------------------------------------
  void progress_tick();
  void broadcast_timeout();
  void enter_view_change();
  void send_view_change(proto::View target);
  void schedule_vc_escalation();
  void vc_escalation_fire();
  void leader_try_new_view(proto::View target);
  void adopt_new_view(const proto::NewViewMsg& msg);

  // -- Helpers -----------------------------------------------------------------
  [[nodiscard]] bool crashed() const;
  void send_to(protocol::NodeId to, sim::PayloadPtr msg);
  void multicast_to_replicas(sim::PayloadPtr msg);
  void mark_confirmed(proto::SeqNum sn, const crypto::Digest& digest);
  void unmark_confirmed(proto::SeqNum sn);
  [[nodiscard]] Instance* instance_by_digest(const crypto::Digest& d);
  [[nodiscard]] crypto::Digest timeout_digest(proto::View v) const;

  LeopardConfig cfg_;
  const crypto::ThresholdScheme& ts_;
  proto::ReplicaId id_;
  ByzantineSpec byz_;
  erasure::ReedSolomon rs_;               // (f+1, n) code for retrieval
  erasure::RsScratch rs_scratch_;         // reusable arena for the zero-copy
                                          // encode/decode hot path
  util::Bytes decode_buf_;                // reconstructed datablock bytes
  std::vector<erasure::ShardView> decode_views_;  // reused per try_decode call

  // handle_query memo: the last datablock this replica erasure-coded and
  // Merkle-hashed for a querier. Every member of the f+1 committee answers
  // each querier, so a retrieval storm asks for the same datablock many
  // times back to back; the memo skips the redundant recompute. CPU charges
  // stay per-query (they model the paper's replica, which has no such
  // cache), so simulated time is unchanged — this is wall clock only. The
  // memo owns a dedicated scratch: EncodedShards views are only valid until
  // the next encode/decode on their scratch, and try_decode runs
  // decode_into on rs_scratch_ between queries.
  erasure::RsScratch query_scratch_;
  crypto::Digest query_cache_digest_;
  std::size_t query_cache_bytes_ = 0;     // serialized datablock size
  erasure::EncodedShards query_cache_enc_;
  std::optional<crypto::MerkleTree> query_cache_tree_;

  // Protocol state.
  proto::View view_ = 1;
  bool in_view_change_ = false;
  proto::SeqNum next_sn_ = 1;   // leader: next serial number to assign
  proto::SeqNum exec_sn_ = 0;   // highest consecutively executed sn
  proto::SeqNum lw_ = 0;        // low watermark (latest stable checkpoint)
  crypto::Digest state_digest_;
  crypto::ThresholdSignature checkpoint_proof_;  // proof for lw_
  crypto::Digest checkpoint_state_;

  // Mempool of pending client requests (FIFO) with enqueue times.
  std::deque<proto::Request> mempool_;
  std::deque<sim::SimTime> mempool_enqueued_;
  std::uint64_t datablock_counter_ = 1;
  sim::SimTime datablock_flush_at_ = -1;  // deadline kDatablockFlush is armed for
  std::uint64_t shed_requests_ = 0;

  // Datablock storage.
  std::unordered_map<crypto::Digest, std::shared_ptr<const proto::DatablockMsg>> pool_;
  std::unordered_map<proto::ReplicaId, CounterWindow> seen_counters_;

  // Leader-side ready tracking.
  std::unordered_map<crypto::Digest, std::set<proto::ReplicaId>> ready_votes_;
  std::deque<crypto::Digest> ready_queue_;
  std::unordered_set<crypto::Digest> queued_or_linked_;
  sim::SimTime oldest_ready_at_ = 0;
  sim::SimTime proposal_flush_at_ = -1;   // deadline kProposalFlush is armed for

  // Agreement instances.
  std::map<proto::SeqNum, Instance> instances_;
  std::size_t unconfirmed_proposals_ = 0;  // instances awaiting confirmation
  std::unordered_map<crypto::Digest, proto::SeqNum> sn_by_digest_;
  std::unordered_map<crypto::Digest, std::vector<proto::SeqNum>> waiting_on_datablock_;
  // Maintained (sn → digest) snapshot of confirmed live instances, mirroring
  // instances_ confirm/reset/GC transitions (confirmed_log() returns a view).
  std::map<proto::SeqNum, crypto::Digest> confirmed_log_;

  // Retrieval state.
  std::unordered_map<crypto::Digest, Retrieval> retrievals_;
  std::unordered_map<protocol::TimerToken, crypto::Digest> retrieval_timers_;
  std::uint64_t timer_seq_ = 0;  // unique-token allocator
  std::set<std::pair<crypto::Digest, proto::ReplicaId>> responded_once_;

  // Leader-side vote aggregation, and checkpoint votes keyed by (sn, state).
  QuorumCollector collector_;
  std::map<std::pair<proto::SeqNum, crypto::Digest>, QuorumShares> checkpoint_votes_;

  // View-change state.
  std::unordered_map<proto::View, std::set<proto::ReplicaId>> timeout_votes_;
  bool timeout_sent_ = false;
  std::unordered_map<proto::View, std::vector<std::shared_ptr<const proto::ViewChangeMsg>>>
      view_change_msgs_;
  std::unordered_map<proto::View, std::set<proto::ReplicaId>> view_change_senders_;
  proto::View last_new_view_sent_ = 0;
  sim::SimTime last_progress_at_ = 0;
  proto::SeqNum last_progress_sn_ = 0;
  // View-change escalation: if the prospective leader is also faulty, retry
  // with the next one after an exponentially growing delay (PBFT-style).
  proto::View vc_target_ = 0;
  sim::SimTime vc_escalation_delay_ = 0;
  protocol::TimerToken vc_escalation_token_ = 0;  // 0 = none armed

  // Execution accounting.
  std::uint64_t executed_request_count_ = 0;
  ExecutionHandler execution_handler_;
  RequestValidator request_validator_;
  StageGeneratedHook stage_generated_;
  StageExecutedHook stage_executed_;
  std::unordered_set<crypto::Digest> invalid_datablocks_;
};

/// The paper's deterministic assignment function µ(req): maps a request to
/// the non-leader replica responsible for disseminating it, balancing load
/// uniformly. Deterministic but not predictable-in-advance by the assignee
/// (clients may switch to the next replica on censorship, §IV-1).
proto::ReplicaId assign_replica(const proto::Request& request, std::uint32_t n,
                                proto::ReplicaId leader);

}  // namespace leopard::core
