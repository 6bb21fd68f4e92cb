#include "shard/sim_shard.hpp"

#include <utility>

#include "protocol/sim_env.hpp"
#include "util/check.hpp"

namespace leopard::shard {

std::vector<chaos::ExecRecord> reference_merge(
    const std::vector<std::vector<chaos::ExecRecord>>& shard_streams) {
  const auto shards = static_cast<std::uint32_t>(shard_streams.size());
  std::vector<chaos::ExecRecord> out;
  std::vector<std::size_t> next(shards, 0);
  for (std::uint64_t q = 0;; ++q) {
    for (std::uint32_t s = 0; s < shards; ++s) {
      const auto& stream = shard_streams[s];
      auto& idx = next[s];
      // Emit this shard's round-q records (incremental emission: they come
      // out even if the slot never closes).
      while (idx < stream.size() && stream[idx].seq == q) {
        out.push_back(chaos::ExecRecord{q, pack_ordinal(s, stream[idx].ordinal),
                                        stream[idx].fingerprint, stream[idx].requests});
        ++idx;
      }
      // The slot closes only on proof sseq > q; without it the cursor parks
      // here forever.
      if (idx >= stream.size()) return out;
    }
  }
}

// ---------------------------------------------------------------------------
// SimHost
// ---------------------------------------------------------------------------

SimHost::SimHost(std::uint32_t shards) : envs_(shards), cores_(shards) {
  util::expects(shards >= 1 && shards <= kMaxShards, "SimHost: bad shard count");
}

void SimHost::start() {
  for (auto& env : envs_) {
    if (env) env->start();
  }
}

void SimHost::on_message(sim::NodeId from, const sim::PayloadPtr& msg) {
  if (auto envelope = std::dynamic_pointer_cast<const protocol::ShardEnvelope>(msg)) {
    // Unknown shard ids are dropped frame-level, mirroring the SocketEnv
    // unknown_instance stat: a mixed-S cluster must not lose whole links.
    if (envelope->shard < envs_.size() && envs_[envelope->shard]) {
      envs_[envelope->shard]->on_message(from, envelope->inner);
    }
    return;
  }
  if (envs_[0]) envs_[0]->on_message(from, msg);
}

void SimHost::record() {
  traces_.resize(envs_.size());
  for (std::size_t s = 0; s < envs_.size(); ++s) {
    if (envs_[s]) envs_[s]->set_recorder(&traces_[s]);
  }
}

const protocol::Trace& SimHost::trace(std::uint32_t shard) const {
  util::expects(recording(), "trace(): host is not recording");
  return traces_.at(shard);
}

// ---------------------------------------------------------------------------
// ShardedSimNode
// ---------------------------------------------------------------------------

ShardedSimNode::ShardedSimNode(
    sim::Network& net, core::ProtocolMetrics& metrics,
    const std::function<protocol::ProtocolSpec(std::uint32_t shard)>& spec_for,
    const std::vector<crypto::ThresholdScheme>& schemes, std::uint32_t shards,
    sim::NodeId phys_id)
    : SimHost(shards),
      net_(net),
      phys_(phys_id),
      shards_(shards),
      sequencer_(shards, [this](const GlobalRecord& r) {
        if (recording()) {
          merged_.push_back(chaos::ExecRecord{r.exec.seq, r.exec.ordinal,
                                              protocol::payload_fingerprint(*r.exec.block),
                                              r.exec.requests});
        }
      }) {
  util::expects(schemes.size() == shards, "ShardedSimNode: one threshold scheme per shard");
  for (std::uint32_t s = 0; s < shards; ++s) {
    const auto spec = spec_for(s);
    const auto n = spec.n();
    util::expects(phys_id < n, "ShardedSimNode: phys id out of range");
    cores_[s] = protocol::make_protocol(spec, schemes[s], rotate_in(phys_id, s, n));
    envs_[s] = std::make_unique<protocol::SimEnv>(net, metrics, n, s, shards);
    envs_[s]->attach(*cores_[s]);
    envs_[s]->set_node_id(phys_id);
    envs_[s]->set_execute_observer(
        [this, s](const protocol::Execute& e) { sequencer_.push(s, e); });
  }
}

void ShardedSimNode::start() {
  SimHost::start();
  if (shards_ > 1) {
    stall_event_ = net_.sim().schedule_after(kStallTickInterval, [this] { stall_tick(); });
  }
}

std::vector<std::vector<chaos::ExecRecord>> ShardedSimNode::shard_streams() const {
  std::vector<std::vector<chaos::ExecRecord>> streams;
  for (std::uint32_t s = 0; s < shards_; ++s) streams.push_back(chaos::execute_stream(trace(s)));
  return streams;
}

void ShardedSimNode::inject_local_request(std::uint32_t shard, proto::Request req) {
  util::expects(shard < shards_, "inject_local_request: shard out of range");
  util::expects(req.client_id >= kNoopClientBase,
                "injected requests must use no-op pseudo-client ids");
  const auto from = static_cast<sim::NodeId>(req.client_id);
  envs_[shard]->inject_request(from, std::make_shared<proto::ClientRequestMsg>(std::move(req)));
}

void ShardedSimNode::stall_tick() {
  if (const auto s = sequencer_.stall_check()) {
    envs_[*s]->inject_request(filler_client(phys_),
                              sequencer_.make_filler(phys_, net_.sim().now()));
  }
  stall_event_ = net_.sim().schedule_after(kStallTickInterval, [this] { stall_tick(); });
}

// ---------------------------------------------------------------------------
// ShardedSimClient
// ---------------------------------------------------------------------------

ShardedSimClient::ShardedSimClient(sim::Network& net, core::ProtocolMetrics& metrics,
                                   const core::ClientConfig& cfg, sim::NodeId target,
                                   std::uint32_t replica_count, sim::NodeId avoid,
                                   std::uint32_t shards, std::uint64_t seed)
    : SimHost(shards) {
  for (auto& slice : split_client(cfg, seed, shards)) {
    const auto s = slice.shard;
    auto sub = std::make_unique<core::LeopardClient>(slice.cfg, target, replica_count, avoid,
                                                     slice.seed);
    subs_.push_back(sub.get());
    envs_[s] = std::make_unique<protocol::SimEnv>(net, metrics, replica_count, s, shards);
    envs_[s]->attach(*sub);
    cores_[s] = std::move(sub);
  }
}

void ShardedSimClient::set_self_id(sim::NodeId id) {
  for (auto* sub : subs_) sub->set_self_id(id);
  for (auto& env : envs_) {
    if (env) env->set_node_id(id);
  }
}

std::uint64_t ShardedSimClient::submitted() const {
  std::uint64_t sum = 0;
  for (const auto* sub : subs_) sum += sub->submitted();
  return sum;
}

std::uint64_t ShardedSimClient::acked() const {
  std::uint64_t sum = 0;
  for (const auto* sub : subs_) sum += sub->acked();
  return sum;
}

bool ShardedSimClient::done() const {
  for (const auto* sub : subs_) {
    if (!sub->done()) return false;
  }
  return true;
}

}  // namespace leopard::shard
