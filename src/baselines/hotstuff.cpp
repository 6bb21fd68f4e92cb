#include "baselines/hotstuff.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace leopard::baselines {

using crypto::Digest;
using proto::ReplicaId;
using proto::SeqNum;
using protocol::Metric;

namespace {
constexpr protocol::TimerToken kProposalFlushToken = 1;
}  // namespace

HotStuffReplica::HotStuffReplica(HotStuffConfig cfg, const crypto::ThresholdScheme& ts,
                                 ReplicaId id)
    : cfg_(cfg), ts_(ts), id_(id) {
  util::expects(cfg_.n >= 4, "HotStuff baseline requires n >= 4");
}

void HotStuffReplica::do_start() {
  if (is_leader()) proposal_flush_tick();
}

void HotStuffReplica::do_timer(protocol::TimerToken token) {
  if (token == kProposalFlushToken) proposal_flush_tick();
}

void HotStuffReplica::do_client_request(protocol::NodeId, const proto::ClientRequestMsg& msg) {
  handle_client_request(msg);
}

void HotStuffReplica::do_message(protocol::NodeId from, const sim::PayloadPtr& msg) {
  if (auto b = std::dynamic_pointer_cast<const proto::BaselineBlockMsg>(msg)) {
    handle_block(static_cast<ReplicaId>(from), b);
  } else if (auto v = std::dynamic_pointer_cast<const proto::BaselineVoteMsg>(msg)) {
    handle_vote(static_cast<ReplicaId>(from), *v);
  }
}

void HotStuffReplica::handle_client_request(const proto::ClientRequestMsg& msg) {
  if (!is_leader()) return;  // clients submit to the leader in HotStuff
  sim::SimTime cost = 0;
  for (const auto& req : msg.requests) {
    if (mempool_.size() >= cfg_.mempool_capacity) {
      cost += costs().client_request_shed;  // overload: reject cheaply
      continue;
    }
    cost += costs().client_request_ingress;
    if (mempool_.empty()) oldest_pending_at_ = now();
    mempool_.push_back(req);
  }
  charge(cost);
  maybe_propose();
}

void HotStuffReplica::maybe_propose() {
  if (!is_leader() || proposal_outstanding_) return;
  if (mempool_.size() >= cfg_.batch_size) propose();
}

void HotStuffReplica::proposal_flush_tick() {
  if (!proposal_outstanding_) {
    if (!mempool_.empty() && now() - oldest_pending_at_ >= cfg_.proposal_max_wait) {
      propose();
    } else if (mempool_.empty() && committed_ < last_payload_height_) {
      // Closed-loop tail flush: no new requests are coming, but payload
      // blocks sit above the commit point. Drive the 3-chain rule with
      // empty pacemaker blocks (paced by the vote round trip) until every
      // payload height commits. Saturated open-loop runs never enter this
      // branch — their mempool is never empty.
      propose(/*allow_empty=*/true);
    }
  }
  env().set_timer(kProposalFlushToken,
                  std::max<sim::SimTime>(cfg_.proposal_max_wait / 4, sim::kMillisecond));
}

void HotStuffReplica::propose(bool allow_empty) {
  const auto take = std::min<std::size_t>(mempool_.size(), cfg_.batch_size);
  if (take == 0 && !allow_empty) return;

  auto block = std::make_shared<proto::BaselineBlockMsg>();
  block->view = 1;
  block->height = next_height_++;
  block->parent = high_qc_digest_;
  block->justify_target = high_qc_digest_;
  block->justify_sig = high_qc_sig_;
  block->batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    block->batch.push_back(std::move(mempool_.front()));
    mempool_.pop_front();
  }
  oldest_pending_at_ = now();
  if (take > 0) last_payload_height_ = block->height;

  block->cached_digest = block->compute_digest();
  charge(costs().per_bytes(costs().hash_per_byte_ns, block->wire_size()));

  // Leader's own vote opens the collection for this height.
  proposal_outstanding_ = true;
  voting_digest_ = block->cached_digest;
  voting_height_ = block->height;
  votes_.clear();
  voters_.clear();
  charge(costs().share_sign);
  votes_.push_back(ts_.sign_share(id_, voting_digest_));
  voters_.insert(id_);

  chain_.emplace(block->height, block);
  env().broadcast(block);

  // The justify QC notarizes the parent: leader advances its commit state too.
  if (block->height > 1) advance_commit(block->height - 1);
}

void HotStuffReplica::handle_block(ReplicaId from,
                                   std::shared_ptr<const proto::BaselineBlockMsg> msg) {
  if (from != 0 || is_leader()) return;  // stable leader protocol

  // Verify the justify QC and charge per-request batch handling.
  charge(costs().combined_verify +
         costs().block_per_request * static_cast<sim::SimTime>(msg->batch.size()));
  if (msg->height > 1 && !ts_.verify(msg->justify_target, msg->justify_sig)) return;

  // The block must extend this replica's own chain: its parent is the block
  // held at height − 1 (none below height 1) and its QC certifies that
  // parent. One vote per height.
  const auto height = msg->height;
  if (height == 0 || chain_.contains(height) || msg->justify_target != msg->parent) return;
  const auto parent = chain_.find(height - 1);
  const bool extends_own = height == 1 ? msg->parent == Digest{}
                                       : parent != chain_.end() &&
                                             parent->second->cached_digest == msg->parent;
  if (!extends_own) return;
  chain_.emplace(height, std::move(msg));

  // Vote for the block (threshold share to the leader).
  charge(costs().share_sign);
  auto vote = std::make_shared<proto::BaselineVoteMsg>();
  vote->view = 1;
  vote->height = height;
  vote->block_digest = chain_[height]->cached_digest;
  vote->share = ts_.sign_share(id_, vote->block_digest);
  env().send(0, std::move(vote));

  // The justify QC notarizes the parent height.
  if (height > 1) advance_commit(height - 1);
}

void HotStuffReplica::handle_vote(ReplicaId from, const proto::BaselineVoteMsg& msg) {
  if (!is_leader() || msg.height != voting_height_ || !proposal_outstanding_) return;
  charge(costs().share_verify);
  if (msg.block_digest != voting_digest_) return;
  if (!ts_.verify_share(voting_digest_, msg.share) || msg.share.signer != from) return;
  if (!voters_.insert(from).second) return;
  votes_.push_back(msg.share);

  if (votes_.size() >= cfg_.quorum()) {
    charge(costs().combine_base +
           costs().combine_per_share * static_cast<sim::SimTime>(cfg_.quorum()));
    const auto qc = ts_.combine(voting_digest_, votes_);
    util::ensures(qc.has_value(), "HotStuff QC combine must succeed");
    high_qc_digest_ = voting_digest_;
    high_qc_sig_ = *qc;
    high_qc_height_ = voting_height_;
    proposal_outstanding_ = false;
    // Chained pipelining: the QC ships inside the next proposal.
    maybe_propose();
  }
}

void HotStuffReplica::advance_commit(SeqNum notarized_height) {
  notarized_ = std::max(notarized_, notarized_height);
  // 3-chain rule with a stable leader and consecutive heights: the
  // grandparent of the newest notarized block is committed.
  if (notarized_ >= 3) {
    const auto commit_to = notarized_ - 2;
    if (commit_to > committed_) {
      committed_ = commit_to;
      execute_through(committed_);
    }
  }
}

void HotStuffReplica::execute_through(SeqNum height) {
  while (executed_ < height) {
    const auto it = chain_.find(executed_ + 1);
    if (it == chain_.end()) return;
    const auto& block = it->second;
    const auto reqs = block->batch.size();
    charge(costs().execute_per_request * static_cast<sim::SimTime>(reqs));
    executed_requests_ += reqs;
    env().execute(block, reqs, executed_ + 1, 0);

    if (is_leader()) {
      // The leader is the observer and the clients' contact point.
      env().metric(Metric::kExecutedRequests, static_cast<double>(reqs));
      std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> acks;
      for (const auto& r : block->batch) acks[r.client_id].push_back(r.seq);
      for (auto& [client, seqs] : acks) {
        auto ack = std::make_shared<proto::AckMsg>();
        ack->client_id = client;
        ack->seqs = std::move(seqs);
        env().send(static_cast<protocol::NodeId>(client), std::move(ack));
      }
    }
    ++executed_;
    // Keep memory bounded on long runs: executed blocks are no longer needed.
    if (executed_ > 8) chain_.erase(executed_ - 8);
  }
}

std::optional<Digest> HotStuffReplica::committed_digest(SeqNum height) const {
  if (height > committed_) return std::nullopt;
  const auto it = chain_.find(height);
  if (it == chain_.end()) return std::nullopt;
  return it->second->cached_digest;
}

}  // namespace leopard::baselines
