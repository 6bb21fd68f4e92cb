#include "protocol/sim_env.hpp"

#include <algorithm>

#include "protocol/replay.hpp"
#include "shard/sequencer.hpp"
#include "util/check.hpp"

namespace leopard::protocol {

void apply_metrics_update(core::ProtocolMetrics& metrics, const MetricsUpdate& update) {
  switch (update.metric) {
    case Metric::kExecutedRequests:
      metrics.executed_requests += static_cast<std::uint64_t>(update.value);
      break;
    case Metric::kBreakdownCount:
      metrics.breakdown_count += static_cast<std::uint64_t>(update.value);
      break;
    case Metric::kSumGenerationSec:
      metrics.sum_generation_sec += update.value;
      break;
    case Metric::kSumDisseminationSec:
      metrics.sum_dissemination_sec += update.value;
      break;
    case Metric::kSumAgreementSec:
      metrics.sum_agreement_sec += update.value;
      break;
    case Metric::kQueriesSent:
      metrics.queries_sent += static_cast<std::uint64_t>(update.value);
      break;
    case Metric::kChunksSent:
      metrics.chunks_sent += static_cast<std::uint64_t>(update.value);
      break;
    case Metric::kDatablocksRecovered:
      metrics.datablocks_recovered += static_cast<std::uint64_t>(update.value);
      break;
    case Metric::kRecoveryTimeSumSec:
      metrics.recovery_time_sum_sec += update.value;
      break;
    case Metric::kViewChangesCompleted:
      metrics.view_changes_completed += static_cast<std::uint32_t>(update.value);
      break;
    case Metric::kVcTriggeredAt:
      if (metrics.vc_triggered_at < 0) {
        metrics.vc_triggered_at = static_cast<sim::SimTime>(update.value);
      }
      break;
    case Metric::kVcCompletedAt:
      metrics.vc_completed_at =
          std::max(metrics.vc_completed_at, static_cast<sim::SimTime>(update.value));
      break;
    case Metric::kSafetyViolation:
      metrics.safety_violation = true;
      break;
    case Metric::kAckLatencySample:
      metrics.record_ack_latency(update.value);
      break;
  }
}

SimEnv::SimEnv(sim::Network& net, core::ProtocolMetrics& metrics, std::uint32_t n_replicas,
               std::uint32_t shard, std::uint32_t shards)
    : net_(net), metrics_(metrics), n_(n_replicas), shard_(shard) {
  util::expects(shard < shards, "SimEnv: shard out of range");
  replica_ids_.resize(n_replicas);
  for (std::uint32_t i = 0; i < n_replicas; ++i) replica_ids_[i] = i;
}

void SimEnv::attach(Protocol& protocol) {
  protocol_ = &protocol;
  id_ = protocol.id();
}

NodeId SimEnv::rotate_out(NodeId core_id) const {
  if (shard_ == 0 || core_id >= n_) return core_id;  // clients pass through unrotated
  return (core_id + shard_) % n_;
}

NodeId SimEnv::rotate_in(NodeId phys_id) const {
  if (shard_ == 0 || phys_id >= n_) return phys_id;
  return (phys_id + n_ - shard_ % n_) % n_;
}

sim::PayloadPtr SimEnv::wrap(sim::PayloadPtr payload) const {
  if (shard_ == 0) return payload;  // bare: byte-compatible with S=1
  return std::make_shared<ShardEnvelope>(shard_, std::move(payload));
}

void SimEnv::start() {
  util::expects(protocol_ != nullptr, "SimEnv::start without an attached protocol");
  net_.set_active_lane(id_, shard_);
  begin_step(Event{Start{}});
  protocol_->on_start(*this);
}

void SimEnv::on_message(sim::NodeId from, const sim::PayloadPtr& msg) {
  from = rotate_in(from);
  if (auto cr = std::dynamic_pointer_cast<const proto::ClientRequestMsg>(msg)) {
    deliver_request(from, std::move(cr));
  } else {
    begin_step(Event{MessageIn{from, msg}});
    protocol_->on_message(*this, from, msg);
  }
}

void SimEnv::inject_request(NodeId from, std::shared_ptr<const proto::ClientRequestMsg> msg) {
  // Local injection enters the core outside network dispatch: pin this
  // core's CPU lane so its charges don't bill whichever lane ran last.
  net_.set_active_lane(id_, shard_);
  deliver_request(from, std::move(msg));
}

void SimEnv::deliver_request(NodeId from, std::shared_ptr<const proto::ClientRequestMsg> msg) {
  begin_step(Event{ClientRequest{from, msg}});
  protocol_->on_client_request(*this, from, msg);
}

void SimEnv::fire_timer(TimerToken token) {
  timers_.erase(token);  // fired: the handle is spent
  // Timers fire outside network dispatch: pin this core's lane (see above).
  net_.set_active_lane(id_, shard_);
  begin_step(Event{TimerFired{token}});
  protocol_->on_timer(*this, token);
}

void SimEnv::apply(Action action) {
  record_action(action);
  std::visit(
      [&](auto& a) {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, Send>) {
          // No-op pseudo-clients have no network presence: their acks die
          // here, before the simulator can reject the unknown destination.
          if (a.to >= shard::kNoopClientBase) return;
          net_.send(id_, rotate_out(a.to), wrap(std::move(a.payload)));
        } else if constexpr (std::is_same_v<T, Broadcast>) {
          // Rotation is a bijection on [0, n): "all replicas but self" is
          // the same physical set, so broadcasts need no per-target rotation.
          net_.multicast(id_, replica_ids_, wrap(std::move(a.payload)));
        } else if constexpr (std::is_same_v<T, SetTimer>) {
          auto& slot = timers_[a.token];
          slot.cancel();  // re-arming an armed token replaces it
          slot = net_.sim().schedule_after(a.delay,
                                           [this, token = a.token] { fire_timer(token); });
        } else if constexpr (std::is_same_v<T, CancelTimer>) {
          if (const auto it = timers_.find(a.token); it != timers_.end()) {
            it->second.cancel();
            timers_.erase(it);
          }
        } else if constexpr (std::is_same_v<T, Execute>) {
          if (execute_observer_) execute_observer_(a);
        } else if constexpr (std::is_same_v<T, MetricsUpdate>) {
          apply_metrics_update(metrics_, a);
        } else {
          net_.charge_cpu(id_, a.cost);
        }
      },
      action);
}

void SimEnv::begin_step(Event event) {
  if (trace_ == nullptr) return;
  trace_->steps.push_back(TraceStep{now(), std::move(event), {}});
}

void SimEnv::record_action(const Action& action) {
  if (trace_ == nullptr || trace_->steps.empty()) return;
  trace_->steps.back().actions.push_back(action);
}

}  // namespace leopard::protocol
