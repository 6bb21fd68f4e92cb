#include "core/replica.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "crypto/merkle.hpp"
#include "util/check.hpp"

namespace leopard::core {

using crypto::Digest;
using proto::ReplicaId;
using proto::SeqNum;
using proto::View;
using protocol::Metric;

namespace {
/// Watermark slack: proposals are accepted up to lw + kSlack·k so that a
/// replica whose checkpoint adoption lags the leader's does not spuriously
/// reject valid proposals (the leader itself still proposes within lw + k).
constexpr std::uint64_t kWatermarkSlack = 2;
}  // namespace

LeopardReplica::LeopardReplica(LeopardConfig cfg, const crypto::ThresholdScheme& ts,
                               ReplicaId id, ByzantineSpec byz)
    : cfg_(cfg),
      ts_(ts),
      id_(id),
      byz_(byz),
      // GF(2^8) Reed-Solomon caps at 255 shards (the paper's Go library has
      // the same 256 limit): beyond n = 255 only the first 255 replicas serve
      // chunks, which still leaves >= f+1 potential responders up to n = 763.
      rs_(cfg.f() + 1, std::min<std::uint32_t>(cfg.n, 255)) {
  util::expects(cfg_.n >= 4, "Leopard requires n >= 4 (f >= 1)");
  util::expects(id_ < cfg_.n, "replica id out of range");
}

bool LeopardReplica::crashed() const {
  return byz_.crash_at.has_value() && now() >= *byz_.crash_at;
}

void LeopardReplica::send_to(protocol::NodeId to, sim::PayloadPtr msg) {
  if (crashed()) return;
  env().send(to, std::move(msg));
}

void LeopardReplica::multicast_to_replicas(sim::PayloadPtr msg) {
  if (crashed()) return;
  env().broadcast(std::move(msg));
}

Digest LeopardReplica::timeout_digest(View v) const {
  util::ByteWriter w;
  w.str("leopard.timeout");
  w.u32(v);
  return Digest::of(w.bytes());
}

LeopardReplica::Instance* LeopardReplica::instance_by_digest(const Digest& d) {
  const auto it = sn_by_digest_.find(d);
  if (it == sn_by_digest_.end()) return nullptr;
  const auto inst = instances_.find(it->second);
  return inst == instances_.end() ? nullptr : &inst->second;
}

std::optional<Digest> LeopardReplica::confirmed_digest(SeqNum sn) const {
  const auto it = instances_.find(sn);
  if (it == instances_.end() || !it->second.confirmed) return std::nullopt;
  return it->second.digest;
}

void LeopardReplica::mark_confirmed(SeqNum sn, const Digest& digest) {
  confirmed_log_[sn] = digest;
}

void LeopardReplica::unmark_confirmed(SeqNum sn) { confirmed_log_.erase(sn); }

// ---------------------------------------------------------------------------
// Event entry points (protocol::Protocol)
// ---------------------------------------------------------------------------

void LeopardReplica::do_start() {
  last_progress_at_ = now();
  datablock_flush_tick();
  proposal_flush_tick();
  progress_tick();
}

void LeopardReplica::do_client_request(protocol::NodeId, const proto::ClientRequestMsg& msg) {
  if (crashed()) return;
  handle_client_request(msg);
}

void LeopardReplica::do_timer(protocol::TimerToken token) {
  switch (static_cast<TimerKind>(token & 7)) {
    case TimerKind::kDatablockFlush:
      datablock_flush_tick();
      break;
    case TimerKind::kProposalFlush:
      proposal_flush_tick();
      break;
    case TimerKind::kProgress:
      progress_tick();
      break;
    case TimerKind::kRetrieval: {
      const auto it = retrieval_timers_.find(token);
      if (it == retrieval_timers_.end()) break;  // cancelled or GC'd
      const Digest digest = it->second;
      retrieval_timers_.erase(it);
      send_queries(digest);
      break;
    }
    case TimerKind::kVcEscalation:
      if (token == vc_escalation_token_) vc_escalation_fire();
      break;
  }
}

void LeopardReplica::do_message(protocol::NodeId from, const sim::PayloadPtr& msg) {
  if (crashed()) return;

  if (auto db = std::dynamic_pointer_cast<const proto::DatablockMsg>(msg)) {
    handle_datablock(static_cast<ReplicaId>(from), db);
  } else if (auto rd = std::dynamic_pointer_cast<const proto::ReadyMsg>(msg)) {
    handle_ready(static_cast<ReplicaId>(from), *rd);
  } else if (auto bb = std::dynamic_pointer_cast<const proto::BftBlockMsg>(msg)) {
    handle_bftblock(static_cast<ReplicaId>(from), *bb);
  } else if (auto v = std::dynamic_pointer_cast<const proto::VoteMsg>(msg)) {
    handle_vote(static_cast<ReplicaId>(from), *v);
  } else if (auto p = std::dynamic_pointer_cast<const proto::ProofMsg>(msg)) {
    handle_proof(static_cast<ReplicaId>(from), *p);
  } else if (auto q = std::dynamic_pointer_cast<const proto::QueryMsg>(msg)) {
    handle_query(static_cast<ReplicaId>(from), *q);
  } else if (auto c = std::dynamic_pointer_cast<const proto::ChunkResponseMsg>(msg)) {
    handle_chunk(static_cast<ReplicaId>(from), c);
  } else if (auto cp = std::dynamic_pointer_cast<const proto::CheckpointMsg>(msg)) {
    handle_checkpoint(static_cast<ReplicaId>(from), *cp);
  } else if (auto t = std::dynamic_pointer_cast<const proto::TimeoutMsg>(msg)) {
    handle_timeout(static_cast<ReplicaId>(from), *t);
  } else if (auto vc = std::dynamic_pointer_cast<const proto::ViewChangeMsg>(msg)) {
    handle_view_change(static_cast<ReplicaId>(from), vc);
  } else if (auto nv = std::dynamic_pointer_cast<const proto::NewViewMsg>(msg)) {
    handle_new_view(static_cast<ReplicaId>(from), *nv);
  }
}

// ---------------------------------------------------------------------------
// Datablock preparation (Algorithm 1)
// ---------------------------------------------------------------------------

void LeopardReplica::handle_client_request(const proto::ClientRequestMsg& msg) {
  sim::SimTime cost = 0;
  for (const auto& req : msg.requests) {
    if (mempool_.size() >= cfg_.mempool_capacity) {
      ++shed_requests_;  // open-loop overload: shed cheaply, client will retry
      cost += costs().client_request_shed;
      continue;
    }
    cost += costs().client_request_ingress;
    if (request_validator_ && !request_validator_(req)) continue;  // verify(·)
    mempool_.push_back(req);
    mempool_enqueued_.push_back(now());
  }
  charge(cost);
  maybe_generate_datablocks();
}

void LeopardReplica::maybe_generate_datablocks() {
  while (mempool_.size() >= cfg_.datablock_requests) {
    generate_datablock(cfg_.datablock_requests);
  }
}

void LeopardReplica::generate_datablock(std::size_t request_count) {
  util::expects(request_count > 0 && request_count <= mempool_.size(),
                "generate_datablock: bad count");

  proto::Datablock db;
  db.maker = id_;
  db.counter = datablock_counter_++;
  db.requests.reserve(request_count);
  std::vector<sim::SimTime> ingress_at;
  if (stage_generated_) ingress_at.reserve(request_count);
  for (std::size_t i = 0; i < request_count; ++i) {
    if (stage_generated_) ingress_at.push_back(mempool_enqueued_.front());
    db.requests.push_back(std::move(mempool_.front()));
    mempool_.pop_front();
    mempool_enqueued_.pop_front();
  }

  auto msg = std::make_shared<proto::DatablockMsg>(std::move(db));
  msg->created_at = now();
  if (stage_generated_) {
    for (std::size_t i = 0; i < request_count; ++i) {
      const auto& r = msg->datablock.requests[i];
      stage_generated_(r.client_id, r.seq, ingress_at[i], msg->created_at);
    }
  }
  // Hashing the datablock (digest-of-digests over the batch).
  charge(costs().per_bytes(costs().hash_per_byte_ns, msg->wire_size()));

  if (byz_.selective_recipients) {
    // Selective attack: only the leader and the first s-1 other replicas see
    // this datablock (§V case b).
    const auto leader = leader_of(view_);
    std::uint32_t sent = 0;
    for (ReplicaId r = 0; r < cfg_.n && sent + 1 < *byz_.selective_recipients; ++r) {
      if (r == id_ || r == leader) continue;
      send_to(r, msg);
      ++sent;
    }
    if (leader != id_) send_to(leader, msg);
  } else {
    multicast_to_replicas(msg);
  }

  accept_datablock(msg, /*recovered=*/false);
}

void LeopardReplica::handle_datablock(ReplicaId, std::shared_ptr<const proto::DatablockMsg> msg) {
  if (byz_.drop_foreign_datablocks) return;  // pretend not received
  charge(costs().datablock_per_request *
             static_cast<sim::SimTime>(msg->datablock.requests.size()) +
         costs().per_bytes(costs().hash_per_byte_ns, msg->wire_size()));
  accept_datablock(msg, /*recovered=*/false);
}

void LeopardReplica::accept_datablock(const std::shared_ptr<const proto::DatablockMsg>& msg,
                                      bool recovered) {
  const Digest& digest = msg->cached_digest;
  if (pool_.contains(digest)) return;

  // Per-maker counter dedup (rate-limit / flooding defence, Algorithm 1).
  auto& counters = seen_counters_[msg->datablock.maker];
  if (!counters.insert(msg->datablock.counter).second &&
      msg->datablock.maker != id_) {
    return;  // duplicate counter from this maker: reject
  }

  pool_.emplace(digest, msg);

  // verify(·) over the datablock's requests (§IV): a datablock with any
  // invalid request never gets this replica's vote.
  if (request_validator_) {
    for (const auto& req : msg->datablock.requests) {
      if (!request_validator_(req)) {
        invalid_datablocks_.insert(digest);
        break;
      }
    }
  }

  // Cancel any in-flight retrieval for this datablock.
  if (auto it = retrievals_.find(digest); it != retrievals_.end()) {
    if (recovered && it->second.query_sent) {
      env().metric(Metric::kDatablocksRecovered, 1);
      env().metric(Metric::kRecoveryTimeSumSec,
                   sim::to_seconds(now() - it->second.query_sent_at));
    }
    drop_retrieval(digest);
  }

  // Ready round: tell the leader this datablock is held here (Algorithm 3).
  const auto leader = leader_of(view_);
  if (leader == id_) {
    leader_note_ready(id_, digest);
  } else if (!recovered && cfg_.enable_ready_round) {
    auto ready = std::make_shared<proto::ReadyMsg>();
    ready->datablock_hashes.push_back(digest);
    send_to(leader, std::move(ready));
  }

  // Unblock agreement instances waiting on this datablock.
  if (auto it = waiting_on_datablock_.find(digest); it != waiting_on_datablock_.end()) {
    const auto waiting = std::move(it->second);
    waiting_on_datablock_.erase(it);
    for (const auto sn : waiting) {
      auto inst = instances_.find(sn);
      if (inst == instances_.end()) continue;
      inst->second.missing.erase(digest);
      if (inst->second.missing.empty()) {
        try_vote_round1(sn);
        execute_ready_blocks();  // a confirmed block may have been waiting
      }
    }
  }
}

void LeopardReplica::datablock_flush_tick() {
  if (!crashed() && !mempool_.empty() &&
      now() - mempool_enqueued_.front() >= cfg_.datablock_max_wait) {
    generate_datablock(std::min<std::size_t>(mempool_.size(), cfg_.datablock_requests));
  }
  env().set_timer(token_of(TimerKind::kDatablockFlush),
                  std::max<sim::SimTime>(cfg_.datablock_max_wait / 4, sim::kMillisecond));
}

// ---------------------------------------------------------------------------
// Leader: ready round and proposals (Algorithms 2, 3)
// ---------------------------------------------------------------------------

void LeopardReplica::handle_ready(ReplicaId from, const proto::ReadyMsg& msg) {
  if (leader_of(view_) != id_) return;
  for (const auto& digest : msg.datablock_hashes) leader_note_ready(from, digest);
}

void LeopardReplica::leader_note_ready(ReplicaId from, const Digest& digest) {
  if (queued_or_linked_.contains(digest)) return;
  ready_votes_[digest].insert(from);
  leader_promote_if_ready(digest);
}

void LeopardReplica::leader_promote_if_ready(const Digest& digest) {
  if (queued_or_linked_.contains(digest)) return;
  const auto it = ready_votes_.find(digest);
  // Ablation: without the ready round the leader links on receipt alone.
  const auto needed = cfg_.enable_ready_round ? cfg_.quorum() : 1;
  if (it == ready_votes_.end() || it->second.size() < needed) return;
  if (!pool_.contains(digest)) return;  // readyblockPool requires the leader holds m

  if (ready_queue_.empty()) oldest_ready_at_ = now();
  ready_queue_.push_back(digest);
  queued_or_linked_.insert(digest);
  ready_votes_.erase(it);
  maybe_propose();
}

void LeopardReplica::maybe_propose() {
  if (leader_of(view_) != id_ || in_view_change_ || crashed()) return;
  const auto batch = static_cast<std::ptrdiff_t>(cfg_.bftblock_links);
  while (next_sn_ <= lw_ + cfg_.max_parallel_instances &&
         ready_queue_.size() >= cfg_.bftblock_links) {
    std::vector<Digest> links(ready_queue_.begin(), ready_queue_.begin() + batch);
    ready_queue_.erase(ready_queue_.begin(), ready_queue_.begin() + batch);
    oldest_ready_at_ = now();
    propose(std::move(links));
  }
}

void LeopardReplica::proposal_flush_tick() {
  if (!crashed() && leader_of(view_) == id_ && !in_view_change_ && !ready_queue_.empty() &&
      next_sn_ <= lw_ + cfg_.max_parallel_instances &&
      now() - oldest_ready_at_ >= cfg_.proposal_max_wait) {
    const auto take = std::min<std::size_t>(ready_queue_.size(), cfg_.bftblock_links);
    std::vector<Digest> links(ready_queue_.begin(),
                              ready_queue_.begin() + static_cast<std::ptrdiff_t>(take));
    ready_queue_.erase(ready_queue_.begin(),
                       ready_queue_.begin() + static_cast<std::ptrdiff_t>(take));
    oldest_ready_at_ = now();
    propose(std::move(links));
  }
  env().set_timer(token_of(TimerKind::kProposalFlush),
                  std::max<sim::SimTime>(cfg_.proposal_max_wait / 4, sim::kMillisecond));
}

void LeopardReplica::propose(std::vector<Digest> links) {
  propose_block(next_sn_++, std::move(links));
}

void LeopardReplica::propose_block(SeqNum sn, std::vector<Digest> links) {
  proto::BftBlock block;
  block.view = view_;
  block.sn = sn;
  block.links = std::move(links);

  const auto digest = block.digest();
  charge(costs().share_sign);
  const auto share = ts_.sign_share(id_, digest);
  auto msg = std::make_shared<proto::BftBlockMsg>(block, share);

  if (byz_.equivocate && block.links.size() >= 2) {
    // Equivocation: a second block with the same sn but reversed links goes
    // to the upper half of the replicas.
    proto::BftBlock twin = block;
    std::reverse(twin.links.begin(), twin.links.end());
    const auto twin_digest = twin.digest();
    auto twin_msg = std::make_shared<proto::BftBlockMsg>(
        std::move(twin), ts_.sign_share(id_, twin_digest));
    for (ReplicaId r = 0; r < cfg_.n; ++r) {
      if (r == id_) continue;
      send_to(r, r < cfg_.n / 2 ? sim::PayloadPtr(msg) : sim::PayloadPtr(twin_msg));
    }
  } else {
    multicast_to_replicas(msg);
  }

  leader_install_proposal(*msg);
}

void LeopardReplica::leader_install_proposal(const proto::BftBlockMsg& msg) {
  auto& inst = instances_[msg.block.sn];
  if (inst.have_block) sn_by_digest_.erase(inst.digest);  // view-change redo
  inst.block = msg.block;
  inst.digest = msg.cached_digest;
  inst.proposed_view = view_;
  inst.received_at = now();
  inst.have_block = true;
  inst.voted1 = true;  // the leader's attached share is its round-1 vote
  inst.voted2 = false;
  inst.notarized = false;
  inst.confirmed = false;
  unmark_confirmed(msg.block.sn);
  inst.sigma1.reset();
  inst.sigma2.reset();
  inst.missing.clear();
  inst.votes1.clear();
  inst.voters1.clear();
  inst.votes2.clear();
  inst.voters2.clear();
  inst.votes1.push_back(msg.leader_share);
  inst.voters1.insert(id_);
  sn_by_digest_[inst.digest] = msg.block.sn;
}

// ---------------------------------------------------------------------------
// Voting (Algorithm 2)
// ---------------------------------------------------------------------------

bool LeopardReplica::verify_bftblock(const proto::BftBlockMsg& msg) {
  // VRFBFTBLOCK (Algorithm 2 line 37): leader signature, current view,
  // watermark window, and no conflicting same-sn vote in this view.
  charge(costs().share_verify);
  if (msg.block.view != view_ || in_view_change_) return false;
  if (msg.leader_share.signer != leader_of(view_)) return false;
  if (!ts_.verify_share(msg.cached_digest, msg.leader_share)) return false;
  if (msg.block.sn <= lw_ ||
      msg.block.sn > lw_ + kWatermarkSlack * cfg_.max_parallel_instances) {
    return false;
  }
  const auto it = instances_.find(msg.block.sn);
  if (it != instances_.end() && it->second.proposed_view == view_ &&
      it->second.digest != msg.cached_digest && it->second.voted1) {
    return false;  // equivocation: already voted another block at this sn
  }
  return true;
}

void LeopardReplica::handle_bftblock(ReplicaId from, const proto::BftBlockMsg& msg) {
  if (from != leader_of(view_)) return;
  if (!verify_bftblock(msg)) return;

  auto& inst = instances_[msg.block.sn];
  if (inst.have_block && inst.digest == msg.cached_digest) return;  // duplicate

  if (inst.have_block && inst.proposed_view < msg.block.view) {
    // Redo after a view-change: same sn re-proposed under the new view. The
    // content must match what was (if anything) confirmed locally (Lemma 2).
    if (inst.confirmed && inst.block.links != msg.block.links) {
      env().metric(Metric::kSafetyViolation, 1);
      return;
    }
    sn_by_digest_.erase(inst.digest);
    inst.voted1 = false;
    inst.voted2 = false;
    inst.notarized = false;
    inst.confirmed = false;
    unmark_confirmed(msg.block.sn);
    inst.sigma1.reset();
    inst.sigma2.reset();
    inst.votes1.clear();
    inst.voters1.clear();
    inst.votes2.clear();
    inst.voters2.clear();
    inst.missing.clear();
  }

  inst.block = msg.block;
  inst.digest = msg.cached_digest;
  inst.proposed_view = msg.block.view;
  inst.received_at = now();
  inst.have_block = true;
  sn_by_digest_[inst.digest] = msg.block.sn;

  if (!byz_.vote_blindly) {
    for (const auto& link : inst.block.links) {
      if (!pool_.contains(link)) {
        inst.missing.insert(link);
        note_missing(msg.block.sn, link);
      }
    }
  }
  try_vote_round1(msg.block.sn);
}

void LeopardReplica::try_vote_round1(SeqNum sn) {
  const auto it = instances_.find(sn);
  if (it == instances_.end()) return;
  auto& inst = it->second;
  if (inst.voted1 || !inst.have_block || !inst.missing.empty()) return;
  if (in_view_change_ || byz_.withhold_votes || crashed()) return;
  if (!invalid_datablocks_.empty()) {
    for (const auto& link : inst.block.links) {
      if (invalid_datablocks_.contains(link)) return;  // verify(·) veto
    }
  }
  inst.voted1 = true;
  send_vote(1, inst);
}

void LeopardReplica::send_vote(std::uint8_t round, const Instance& inst) {
  charge(costs().share_sign);
  auto vote = std::make_shared<proto::VoteMsg>();
  vote->round = round;
  vote->block_digest = inst.digest;
  vote->share = ts_.sign_share(id_, round == 1 ? inst.digest : inst.sigma1_digest);
  send_to(leader_of(view_), std::move(vote));
}

void LeopardReplica::handle_vote(ReplicaId from, const proto::VoteMsg& msg) {
  if (leader_of(view_) != id_ || in_view_change_) return;
  auto* inst = instance_by_digest(msg.block_digest);
  if (inst == nullptr || inst->proposed_view != view_) return;

  charge(costs().share_verify);
  if (msg.round == 1) {
    if (inst->notarized || inst->voters1.contains(from)) return;
    if (!ts_.verify_share(inst->digest, msg.share) || msg.share.signer != from) return;
    inst->voters1.insert(from);
    inst->votes1.push_back(msg.share);
    if (inst->votes1.size() >= cfg_.quorum()) {
      charge(costs().combine_base +
             costs().combine_per_share * static_cast<sim::SimTime>(cfg_.quorum()));
      const auto sigma1 = ts_.combine(inst->digest, inst->votes1);
      util::ensures(sigma1.has_value(), "combine must succeed with a verified quorum");
      inst->sigma1 = *sigma1;

      auto proof = std::make_shared<proto::ProofMsg>();
      proof->round = 1;
      proof->block_digest = inst->digest;
      proof->signature = *sigma1;
      multicast_to_replicas(std::move(proof));
      on_notarized(inst->block.sn);
    }
  } else {
    if (inst->confirmed || !inst->notarized || inst->voters2.contains(from)) return;
    if (!ts_.verify_share(inst->sigma1_digest, msg.share) || msg.share.signer != from) return;
    inst->voters2.insert(from);
    inst->votes2.push_back(msg.share);
    if (inst->votes2.size() >= cfg_.quorum()) {
      charge(costs().combine_base +
             costs().combine_per_share * static_cast<sim::SimTime>(cfg_.quorum()));
      const auto sigma2 = ts_.combine(inst->sigma1_digest, inst->votes2);
      util::ensures(sigma2.has_value(), "combine must succeed with a verified quorum");
      inst->sigma2 = *sigma2;

      auto proof = std::make_shared<proto::ProofMsg>();
      proof->round = 2;
      proof->block_digest = inst->digest;
      proof->signature = *sigma2;
      multicast_to_replicas(std::move(proof));
      on_confirmed(inst->block.sn);
    }
  }
}

void LeopardReplica::handle_proof(ReplicaId from, const proto::ProofMsg& msg) {
  if (from != leader_of(view_)) return;
  auto* inst = instance_by_digest(msg.block_digest);
  if (inst == nullptr) return;

  charge(costs().combined_verify);
  if (msg.round == 1) {
    if (inst->notarized) return;
    if (!ts_.verify(inst->digest, msg.signature)) return;
    inst->sigma1 = msg.signature;
    on_notarized(inst->block.sn);
  } else {
    if (inst->confirmed || !inst->notarized) return;
    if (!ts_.verify(inst->sigma1_digest, msg.signature)) return;
    inst->sigma2 = msg.signature;
    on_confirmed(inst->block.sn);
  }
}

void LeopardReplica::on_notarized(SeqNum sn) {
  auto& inst = instances_.at(sn);
  util::expects(inst.sigma1.has_value(), "notarized without sigma1");
  inst.notarized = true;
  inst.sigma1_digest = Digest::of(inst.sigma1->bytes);

  if (leader_of(view_) == id_) {
    // The leader's own round-2 share.
    if (!inst.voted2) {
      inst.voted2 = true;
      charge(costs().share_sign);
      inst.voters2.insert(id_);
      inst.votes2.push_back(ts_.sign_share(id_, inst.sigma1_digest));
    }
    return;
  }
  if (!inst.voted2 && !in_view_change_ && !byz_.withhold_votes) {
    inst.voted2 = true;
    send_vote(2, inst);
  }
}

void LeopardReplica::on_confirmed(SeqNum sn) {
  auto& inst = instances_.at(sn);
  inst.confirmed = true;
  mark_confirmed(sn, inst.digest);
  last_progress_at_ = now();
  execute_ready_blocks();
}

// ---------------------------------------------------------------------------
// Execution, acknowledgements, checkpoints
// ---------------------------------------------------------------------------

void LeopardReplica::execute_ready_blocks() {
  while (true) {
    const auto it = instances_.find(exec_sn_ + 1);
    if (it == instances_.end()) return;
    auto& inst = it->second;
    if (inst.executed) {  // re-confirmed after a view-change redo
      ++exec_sn_;
      continue;
    }
    if (!inst.confirmed || !inst.missing.empty()) return;
    // All linked datablocks must be present to execute.
    bool have_all = true;
    for (const auto& link : inst.block.links) {
      if (!pool_.contains(link)) {
        have_all = false;
        break;
      }
    }
    if (!have_all) return;
    execute_block(inst);
    ++exec_sn_;
    maybe_checkpoint();
  }
}

void LeopardReplica::execute_block(Instance& inst) {
  const auto at = now();
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> acks_by_client;

  for (std::size_t li = 0; li < inst.block.links.size(); ++li) {
    const auto& link = inst.block.links[li];
    const auto& db = pool_.at(link);
    const auto reqs = db->datablock.requests.size();
    charge(costs().execute_per_request * static_cast<sim::SimTime>(reqs));
    executed_request_count_ += reqs;
    env().execute(db, reqs, inst.block.sn, static_cast<std::uint32_t>(li));
    if (execution_handler_) {
      for (const auto& r : db->datablock.requests) execution_handler_(r);
    }

    // Throughput is counted once, by replica 0 (the designated observer).
    if (id_ == 0) {
      env().metric(Metric::kExecutedRequests, static_cast<double>(reqs));
      env().metric(Metric::kBreakdownCount, static_cast<double>(reqs));
      double generation = 0;
      for (const auto& r : db->datablock.requests) {
        generation += sim::to_seconds(db->created_at - r.submitted_at);
      }
      env().metric(Metric::kSumGenerationSec, generation);
      // Dissemination ends when the leader links the datablock; the nearest
      // local observation is this replica's receipt of the linking BFTblock.
      env().metric(Metric::kSumDisseminationSec,
                   static_cast<double>(reqs) *
                       sim::to_seconds(inst.received_at - db->created_at));
      env().metric(Metric::kSumAgreementSec,
                   static_cast<double>(reqs) * sim::to_seconds(at - inst.received_at));
    }

    // Acknowledge own requests to their clients (the maker is the client's
    // contact point).
    if (db->datablock.maker == id_) {
      for (const auto& r : db->datablock.requests) {
        acks_by_client[r.client_id].push_back(r.seq);
        if (stage_executed_) {
          stage_executed_(r.client_id, r.seq, db->created_at, inst.received_at, at);
        }
      }
    }
  }

  for (auto& [client, seqs] : acks_by_client) {
    auto ack = std::make_shared<proto::AckMsg>();
    ack->client_id = client;
    ack->seqs = std::move(seqs);
    send_to(static_cast<protocol::NodeId>(client), std::move(ack));
  }

  // Fold the block into the running state digest.
  util::ByteWriter w;
  w.raw(state_digest_.bytes());
  w.raw(inst.digest.bytes());
  state_digest_ = Digest::of(w.bytes());
  inst.executed = true;
}

void LeopardReplica::maybe_checkpoint() {
  const auto interval = cfg_.checkpoint_interval();
  if (interval == 0 || exec_sn_ == 0 || exec_sn_ % interval != 0) return;
  if (in_view_change_) return;

  util::ByteWriter w;
  w.str("leopard.checkpoint");
  w.u64(exec_sn_);
  w.raw(state_digest_.bytes());
  const auto cp_digest = Digest::of(w.bytes());

  charge(costs().share_sign);
  auto msg = std::make_shared<proto::CheckpointMsg>();
  msg->sn = exec_sn_;
  msg->state = state_digest_;
  msg->share = ts_.sign_share(id_, cp_digest);

  const auto leader = leader_of(view_);
  if (leader == id_) {
    handle_checkpoint(id_, *msg);
  } else {
    send_to(leader, std::move(msg));
  }
}

void LeopardReplica::handle_checkpoint(ReplicaId from, const proto::CheckpointMsg& msg) {
  util::ByteWriter w;
  w.str("leopard.checkpoint");
  w.u64(msg.sn);
  w.raw(msg.state.bytes());
  const auto cp_digest = Digest::of(w.bytes());

  if (msg.signature.has_value()) {
    // Combined checkpoint proof from the leader.
    charge(costs().combined_verify);
    if (!ts_.verify(cp_digest, *msg.signature)) return;
    adopt_checkpoint(msg.sn, msg.state, *msg.signature);
    return;
  }

  // Checkpoint vote: only the leader aggregates.
  if (leader_of(view_) != id_ || !msg.share.has_value()) return;
  if (msg.sn <= lw_) return;
  charge(costs().share_verify);
  if (!ts_.verify_share(cp_digest, *msg.share) || msg.share->signer != from) return;

  auto& voters = checkpoint_voters_[msg.sn];
  if (!voters.insert(from).second) return;
  checkpoint_votes_[msg.sn].push_back(*msg.share);
  checkpoint_states_[msg.sn] = msg.state;

  if (voters.size() >= cfg_.quorum()) {
    charge(costs().combine_base +
           costs().combine_per_share * static_cast<sim::SimTime>(cfg_.quorum()));
    const auto sigma = ts_.combine(cp_digest, checkpoint_votes_[msg.sn]);
    util::ensures(sigma.has_value(), "checkpoint combine must succeed");

    auto proof = std::make_shared<proto::CheckpointMsg>();
    proof->sn = msg.sn;
    proof->state = msg.state;
    proof->signature = *sigma;
    multicast_to_replicas(std::move(proof));

    checkpoint_votes_.erase(msg.sn);
    checkpoint_voters_.erase(msg.sn);
    checkpoint_states_.erase(msg.sn);
    adopt_checkpoint(msg.sn, msg.state, *sigma);
  }
}

void LeopardReplica::adopt_checkpoint(SeqNum sn, const Digest& state,
                                      const crypto::ThresholdSignature& proof) {
  if (sn <= lw_) return;
  lw_ = sn;
  checkpoint_state_ = state;
  checkpoint_proof_ = proof;

  if (exec_sn_ < sn) {
    // PBFT-style state transfer: the stable checkpoint proves 2f+1 replicas
    // executed through sn. A lagging replica (e.g., one that lost the
    // retrieval race for a Byzantine maker's datablock) adopts the certified
    // state instead of stalling forever on data peers may since have
    // garbage-collected.
    exec_sn_ = sn;
    state_digest_ = state;
    for (auto it = instances_.begin(); it != instances_.end() && it->first <= sn;) {
      // Drop the skipped instances AND their datablocks: they are below the
      // stable checkpoint, so every correct replica is (or will be) past
      // them, and keeping the datablocks would risk re-linking.
      for (const auto& link : it->second.block.links) {
        pool_.erase(link);
        ready_votes_.erase(link);
        queued_or_linked_.erase(link);
        drop_retrieval(link);
        waiting_on_datablock_.erase(link);
      }
      sn_by_digest_.erase(it->second.digest);
      unmark_confirmed(it->first);
      it = instances_.erase(it);
    }
    execute_ready_blocks();  // confirmed instances beyond sn may now unblock
  }

  // Garbage-collect one checkpoint interval BEHIND the stable checkpoint so
  // lagging replicas retain a full window to retrieve datablocks before the
  // holders drop them.
  const auto interval = cfg_.checkpoint_interval();
  garbage_collect(lw_ > interval ? lw_ - interval : 0);
  maybe_propose();  // the watermark window just advanced
}

void LeopardReplica::garbage_collect(SeqNum through_sn) {
  for (auto it = instances_.begin(); it != instances_.end();) {
    auto& [sn, inst] = *it;
    if (sn > through_sn || !inst.executed) {
      ++it;
      continue;
    }
    for (const auto& link : inst.block.links) {
      pool_.erase(link);
      ready_votes_.erase(link);
      queued_or_linked_.erase(link);
      drop_retrieval(link);
      waiting_on_datablock_.erase(link);
      responded_once_.erase(responded_once_.lower_bound({link, 0}),
                            responded_once_.upper_bound({link, cfg_.n}));
    }
    sn_by_digest_.erase(inst.digest);
    unmark_confirmed(sn);
    it = instances_.erase(it);
  }
}

// ---------------------------------------------------------------------------
// Datablock retrieval (Algorithm 3)
// ---------------------------------------------------------------------------

void LeopardReplica::drop_retrieval(const Digest& digest) {
  const auto it = retrievals_.find(digest);
  if (it == retrievals_.end()) return;
  if (it->second.timer_token != 0) {
    env().cancel_timer(it->second.timer_token);
    retrieval_timers_.erase(it->second.timer_token);
  }
  retrievals_.erase(it);
}

void LeopardReplica::note_missing(SeqNum sn, const Digest& digest) {
  waiting_on_datablock_[digest].push_back(sn);
  if (retrievals_.contains(digest)) return;
  auto& ret = retrievals_[digest];
  ret.timer_token = token_of(TimerKind::kRetrieval, ++timer_seq_);
  retrieval_timers_.emplace(ret.timer_token, digest);
  env().set_timer(ret.timer_token, cfg_.retrieval_timeout);
}

void LeopardReplica::send_queries(const Digest& digest) {
  if (crashed() || pool_.contains(digest)) return;
  const auto it = retrievals_.find(digest);
  if (it == retrievals_.end() || it->second.query_sent) return;
  it->second.query_sent = true;
  it->second.query_sent_at = now();
  env().metric(Metric::kQueriesSent, 1);

  auto query = std::make_shared<proto::QueryMsg>();
  query->missing.push_back(digest);
  multicast_to_replicas(std::move(query));
}

void LeopardReplica::handle_query(ReplicaId from, const proto::QueryMsg& msg) {
  if (byz_.ignore_queries) return;
  if (id_ >= rs_.total_shards()) return;  // no chunk slot beyond the RS cap
  for (const auto& digest : msg.missing) {
    const auto db_it = pool_.find(digest);
    if (db_it == pool_.end()) continue;
    if (!responded_once_.insert({digest, from}).second) continue;  // once per querier

    // Erasure-code the datablock into n chunks; send ours with a Merkle
    // proof. Shards are written into the reusable scratch arena and hashed
    // in place (both stages fan out across the worker pool at size) — the
    // only per-chunk copy is our own shard into the outgoing message.
    // Consecutive queriers for the same datablock reuse the memoized
    // shards + tree: the same digest serializes/encodes/hashes to the same
    // bytes, so responses are identical and only the redundant wall-clock
    // recompute is skipped.
    if (query_cache_digest_ != digest || !query_cache_tree_.has_value()) {
      util::ByteWriter w(db_it->second->wire_size());
      db_it->second->datablock.encode(w);
      const auto encoded = w.bytes();
      query_cache_bytes_ = encoded.size();
      query_cache_enc_ = rs_.encode_into(encoded, query_scratch_);
      query_cache_tree_.emplace(
          crypto::MerkleTree::hash_leaves(query_cache_enc_.bytes(), query_cache_enc_.width));
      query_cache_digest_ = digest;
    }
    // Charges model the paper's replica, which recomputes per query.
    charge(costs().per_bytes(costs().erasure_encode_per_byte_ns, query_cache_bytes_));
    charge(costs().per_bytes(costs().hash_per_byte_ns, query_cache_bytes_));
    const auto& enc = query_cache_enc_;
    const crypto::MerkleTree& tree = *query_cache_tree_;

    auto resp = std::make_shared<proto::ChunkResponseMsg>();
    resp->datablock_hash = digest;
    resp->merkle_root = tree.root();
    resp->chunk_index = id_;
    resp->leaf_count = enc.count;
    const auto own = enc.shard(id_);
    resp->chunk.assign(own.begin(), own.end());
    // Wire size reflects the claimed (payload-bearing) datablock size even
    // when payloads are synthetic.
    resp->chunk_size = static_cast<std::uint32_t>(
        rs_.shard_size(db_it->second->wire_size()));
    resp->proof = tree.proof(id_);
    env().metric(Metric::kChunksSent, 1);
    send_to(from, std::move(resp));
  }
}

void LeopardReplica::handle_chunk(ReplicaId,
                                  std::shared_ptr<const proto::ChunkResponseMsg> msg) {
  const auto it = retrievals_.find(msg->datablock_hash);
  if (it == retrievals_.end()) return;  // already recovered or GC'd

  charge(costs().per_bytes(costs().hash_per_byte_ns, msg->chunk.size()));
  const auto leaf = crypto::MerkleTree::hash_leaf(msg->chunk);
  if (!crypto::MerkleTree::verify(msg->merkle_root, leaf, msg->chunk_index,
                                  msg->leaf_count, msg->proof)) {
    return;
  }
  it->second.chunks_by_root[msg->merkle_root].push_back(std::move(msg));
  try_decode(it->first, it->second);
}

void LeopardReplica::try_decode(const Digest& digest, Retrieval& ret) {
  for (auto& [root, chunks] : ret.chunks_by_root) {
    if (chunks.size() < rs_.data_shards()) continue;

    // Decode straight from the buffered chunk messages: ShardView borrows each
    // chunk's bytes, so nothing is copied on the way into the kernel (and the
    // view vector itself is a reused member — this runs once per arriving
    // chunk during a retrieval storm).
    decode_views_.clear();
    decode_views_.reserve(chunks.size());
    std::size_t total = 0;
    for (const auto& c : chunks) {
      decode_views_.push_back(erasure::ShardView{c->chunk_index, c->chunk});
      total += c->chunk.size();
    }
    charge(costs().per_bytes(costs().erasure_decode_per_byte_ns, total));
    if (!rs_.decode_into(decode_views_, rs_scratch_, decode_buf_)) continue;

    util::ByteReader r(decode_buf_);
    auto db = proto::Datablock::decode(r);
    auto msg = std::make_shared<proto::DatablockMsg>(std::move(db));
    if (msg->cached_digest != digest) continue;  // forged chunk set
    msg->created_at = now();
    accept_datablock(msg, /*recovered=*/true);
    return;
  }
}

// ---------------------------------------------------------------------------
// View-change (Appendix A)
// ---------------------------------------------------------------------------

void LeopardReplica::progress_tick() {
  if (!crashed() && !in_view_change_) {
    if (exec_sn_ > last_progress_sn_) {
      last_progress_sn_ = exec_sn_;
      last_progress_at_ = now();
    } else {
      const bool pending_work =
          !mempool_.empty() || (!instances_.empty() && instances_.rbegin()->first > exec_sn_);
      if (pending_work && now() - last_progress_at_ >= cfg_.view_timeout) {
        broadcast_timeout();
      }
    }
  }
  env().set_timer(token_of(TimerKind::kProgress),
                  std::max<sim::SimTime>(cfg_.view_timeout / 4, sim::kMillisecond));
}

void LeopardReplica::broadcast_timeout() {
  if (timeout_sent_ || crashed()) return;
  // Cold-path diagnostic: spurious view-changes are the most common
  // mis-tuning symptom, so make them observable without a debugger.
  if (std::getenv("LEOPARD_DEBUG_VC") != nullptr) {
    std::fprintf(stderr, "[%.2fs] r%u timeout in view %u (exec=%llu mempool=%zu insts=%zu)\n",
                 sim::to_seconds(now()), id_, view_,
                 static_cast<unsigned long long>(exec_sn_), mempool_.size(),
                 instances_.size());
  }
  timeout_sent_ = true;

  charge(costs().share_sign);
  auto msg = std::make_shared<proto::TimeoutMsg>();
  msg->view = view_;
  msg->share = ts_.sign_share(id_, timeout_digest(view_));
  multicast_to_replicas(std::move(msg));
  timeout_votes_[view_].insert(id_);
  enter_view_change();
}

void LeopardReplica::handle_timeout(ReplicaId from, const proto::TimeoutMsg& msg) {
  if (msg.view != view_) return;
  charge(costs().share_verify);
  if (!ts_.verify_share(timeout_digest(msg.view), msg.share) || msg.share.signer != from) {
    return;
  }
  timeout_votes_[msg.view].insert(from);
  // f+1 timeouts prove at least one honest replica timed out: join in.
  if (!timeout_sent_ && timeout_votes_[msg.view].size() >= cfg_.f() + 1) {
    broadcast_timeout();
  }
}

void LeopardReplica::enter_view_change() {
  if (in_view_change_ || crashed()) return;
  in_view_change_ = true;
  env().metric(Metric::kVcTriggeredAt, static_cast<double>(now()));

  vc_target_ = view_ + 1;
  vc_escalation_delay_ = 2 * cfg_.view_timeout;
  send_view_change(vc_target_);
  schedule_vc_escalation();
}

void LeopardReplica::send_view_change(View target) {
  auto msg = std::make_shared<proto::ViewChangeMsg>();
  msg->new_view = target;
  msg->checkpoint_sn = lw_;
  msg->checkpoint_state = checkpoint_state_;
  msg->checkpoint_proof = checkpoint_proof_;
  msg->sender = id_;
  for (const auto& [sn, inst] : instances_) {
    if (sn > lw_ && inst.notarized && inst.sigma1.has_value()) {
      msg->notarized.push_back(proto::NotarizedBlock{inst.block, *inst.sigma1});
    }
  }
  charge(costs().share_sign);
  util::ByteWriter w;
  w.str("leopard.viewchange");
  w.u32(target);
  w.u64(msg->checkpoint_sn);
  msg->sender_sig = ts_.sign_share(id_, Digest::of(w.bytes()));

  const auto next_leader = leader_of(target);
  if (next_leader == id_) {
    handle_view_change(id_, msg);
  } else {
    send_to(next_leader, std::move(msg));
  }
}

void LeopardReplica::schedule_vc_escalation() {
  vc_escalation_token_ = token_of(TimerKind::kVcEscalation, ++timer_seq_);
  env().set_timer(vc_escalation_token_, vc_escalation_delay_);
}

void LeopardReplica::vc_escalation_fire() {
  if (!in_view_change_ || crashed()) return;
  // The prospective leader did not produce a new-view in time: it may be
  // faulty as well. Target the next leader, with exponential backoff so
  // honest replicas converge on the same view despite clock skew.
  ++vc_target_;
  vc_escalation_delay_ *= 2;
  send_view_change(vc_target_);
  schedule_vc_escalation();
}

void LeopardReplica::handle_view_change(ReplicaId from,
                                        std::shared_ptr<const proto::ViewChangeMsg> msg) {
  const View target = msg->new_view;
  if (leader_of(target) != id_ || target <= view_) return;

  charge(costs().share_verify);
  util::ByteWriter w;
  w.str("leopard.viewchange");
  w.u32(target);
  w.u64(msg->checkpoint_sn);
  if (!ts_.verify_share(Digest::of(w.bytes()), msg->sender_sig) ||
      msg->sender_sig.signer != from || msg->sender != from) {
    return;
  }

  if (!view_change_senders_[target].insert(from).second) return;
  view_change_msgs_[target].push_back(std::move(msg));
  leader_try_new_view(target);
}

void LeopardReplica::leader_try_new_view(View target) {
  if (view_change_senders_[target].size() < cfg_.quorum()) return;
  if (target <= view_ || target <= last_new_view_sent_) return;
  last_new_view_sent_ = target;

  auto nv = std::make_shared<proto::NewViewMsg>();
  nv->new_view = target;
  for (const auto& vc : view_change_msgs_[target]) nv->view_changes.push_back(*vc);
  charge(costs().share_sign);
  util::ByteWriter w;
  w.str("leopard.newview");
  w.u32(target);
  nv->leader_sig = ts_.sign_share(id_, Digest::of(w.bytes()));

  multicast_to_replicas(nv);
  adopt_new_view(*nv);
}

void LeopardReplica::handle_new_view(ReplicaId from, const proto::NewViewMsg& msg) {
  if (msg.new_view <= view_ || leader_of(msg.new_view) != from) return;
  charge(costs().share_verify);
  util::ByteWriter w;
  w.str("leopard.newview");
  w.u32(msg.new_view);
  if (!ts_.verify_share(Digest::of(w.bytes()), msg.leader_sig) ||
      msg.leader_sig.signer != from) {
    return;
  }
  if (msg.view_changes.size() < cfg_.quorum()) return;
  adopt_new_view(msg);
}

void LeopardReplica::adopt_new_view(const proto::NewViewMsg& msg) {
  view_ = msg.new_view;
  in_view_change_ = false;
  timeout_sent_ = false;
  if (vc_escalation_token_ != 0) {
    env().cancel_timer(vc_escalation_token_);
    vc_escalation_token_ = 0;
  }
  last_progress_at_ = now();
  env().metric(Metric::kVcCompletedAt, static_cast<double>(now()));
  if (id_ == 0) env().metric(Metric::kViewChangesCompleted, 1);

  // Adopt the newest stable checkpoint proven in V (synchronizes watermarks
  // and garbage-collects stale datablocks before ready state is rebuilt).
  const proto::ViewChangeMsg* best_cp = nullptr;
  for (const auto& vc : msg.view_changes) {
    if (vc.checkpoint_sn > lw_ && (best_cp == nullptr || vc.checkpoint_sn > best_cp->checkpoint_sn)) {
      best_cp = &vc;
    }
  }
  if (best_cp != nullptr) {
    adopt_checkpoint(best_cp->checkpoint_sn, best_cp->checkpoint_state,
                     best_cp->checkpoint_proof);
  }
  SeqNum max_lw = lw_;
  for (const auto& vc : msg.view_changes) max_lw = std::max(max_lw, vc.checkpoint_sn);
  SeqNum max_sn = max_lw;
  // Redo set: for each sn, the notarized block from the highest view wins
  // (Lemma 1 makes per-view notarizations unique).
  std::map<SeqNum, const proto::NotarizedBlock*> redo;
  for (const auto& vc : msg.view_changes) {
    for (const auto& nb : vc.notarized) {
      if (nb.block.sn <= max_lw) continue;
      max_sn = std::max(max_sn, nb.block.sn);
      auto& slot = redo[nb.block.sn];
      if (slot == nullptr || slot->block.view < nb.block.view) slot = &nb;
    }
  }

  // Re-send Ready for every datablock we hold that is not yet linked by an
  // executed instance, so the new leader can rebuild its ready state.
  const auto new_leader = leader_of(view_);
  if (new_leader != id_) {
    auto ready = std::make_shared<proto::ReadyMsg>();
    for (const auto& [digest, db] : pool_) ready->datablock_hashes.push_back(digest);
    if (!ready->datablock_hashes.empty()) send_to(new_leader, std::move(ready));
  } else {
    ready_votes_.clear();
    ready_queue_.clear();
    queued_or_linked_.clear();
    // Links of every surviving instance — executed, confirmed, or about to be
    // redone — must never be linked a second time: peers may already have
    // garbage-collected those datablocks, so a proposal relinking them could
    // never gather votes (and would double-execute if it did).
    for (const auto& [sn2, inst] : instances_) {
      for (const auto& link : inst.block.links) queued_or_linked_.insert(link);
    }
    for (const auto& [digest, db] : pool_) leader_note_ready(id_, digest);

    // Redo the agreement for every undecided slot; fill gaps with dummies.
    next_sn_ = std::max<SeqNum>(next_sn_, max_sn + 1);
    for (SeqNum sn = max_lw + 1; sn <= max_sn; ++sn) {
      const auto r = redo.find(sn);
      std::vector<Digest> links;
      if (r != redo.end()) links = r->second->block.links;
      // Redone links stay marked so fresh proposals do not relink them.
      for (const auto& link : links) queued_or_linked_.insert(link);
      propose_block(sn, std::move(links));
    }
  }
}

ReplicaId assign_replica(const proto::Request& request, std::uint32_t n,
                         ReplicaId leader) {
  util::expects(n >= 2, "assign_replica needs at least two replicas");
  util::expects(leader < n, "leader id out of range");
  // Uniform over the n-1 non-leader replicas, keyed by the request identity.
  util::ByteWriter w;
  w.str("leopard.mu");
  w.u64(request.client_id);
  w.u64(request.seq);
  const auto h = crypto::Digest::of(w.bytes()).prefix64();
  const auto slot = static_cast<ReplicaId>(h % (n - 1));
  // Skip the leader's slot deterministically.
  return slot >= leader ? slot + 1 : slot;
}

}  // namespace leopard::core
