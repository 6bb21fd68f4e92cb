#include "core/client.hpp"

#include <algorithm>
#include <map>
#include <memory>

#include "core/replica.hpp"

namespace leopard::core {

LeopardClient::LeopardClient(ClientConfig cfg, protocol::NodeId target,
                             std::uint32_t replica_count, protocol::NodeId avoid,
                             std::uint64_t seed)
    : cfg_(cfg),
      target_(target),
      replica_count_(replica_count),
      avoid_(avoid),
      seed_(seed),
      rng_(seed) {}

void LeopardClient::do_start() {
  if (cfg_.burst == 0) {
    // Keep client-side event rates near ~25k messages/s regardless of load.
    cfg_.burst = static_cast<std::uint32_t>(std::max(1.0, cfg_.request_rate / 25000.0));
  }
  if (cfg_.closed_loop_window > 0) {
    refill_window();
    if (cfg_.resubmit_timeout > 0) env().set_timer(kResubmitTick, cfg_.resubmit_timeout / 2);
    return;
  }
  if (cfg_.initial_backlog > 0) {
    // Stagger backlog injection across clients so the cluster does not take
    // the whole standing backlog as one synchronized CPU shock.
    const auto jitter = static_cast<sim::SimTime>(rng_.uniform(300 * sim::kMillisecond));
    env().set_timer(kBacklogBurst, jitter);
  }
  if (cfg_.request_rate > 0) {
    submit_next();
    if (cfg_.resubmit_timeout > 0) env().set_timer(kResubmitTick, cfg_.resubmit_timeout / 2);
  }
}

void LeopardClient::do_timer(protocol::TimerToken token) {
  switch (token) {
    case kSubmitTick:
      submit_next();
      break;
    case kResubmitTick:
      resubmit_tick();
      break;
    case kBacklogBurst:
      submit_burst(cfg_.initial_backlog);
      break;
    default:
      break;  // unknown token: stale env artifact, ignore
  }
}

std::uint64_t LeopardClient::remaining_budget() const {
  if (cfg_.total_requests == 0) return UINT64_MAX;
  return cfg_.total_requests > next_seq_ ? cfg_.total_requests - next_seq_ : 0;
}

proto::Request LeopardClient::make_request(std::uint64_t seq, sim::SimTime submitted_at) const {
  proto::Request req;
  req.client_id = self_;
  req.seq = seq;
  req.payload_size = cfg_.payload_size;
  req.submitted_at = submitted_at;
  if (cfg_.real_payload) {
    // Drawn from (seed, seq), not from rng_: a resend is byte-identical to
    // the first send, so replicas see one request digest, not a new request.
    util::Rng bytes(seed_ ^ (seq * 0x9E3779B97F4A7C15ull));
    req.payload.resize(cfg_.payload_size);
    bytes.fill(req.payload.data(), req.payload.size());
  }
  return req;
}

void LeopardClient::submit_burst(std::uint32_t count) {
  count = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(count, remaining_budget()));
  if (count == 0) return;
  const auto t = now();
  // One batch per destination: the pinned target, or µ(req)-routed buckets.
  std::map<protocol::NodeId, std::shared_ptr<proto::ClientRequestMsg>> batches;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto req = make_request(next_seq_++, t);

    protocol::NodeId first = target_;
    if (cfg_.route_by_mu) {
      first = assign_replica(req, replica_count_,
                             static_cast<proto::ReplicaId>(avoid_ % replica_count_));
    }
    if (outstanding_.size() < kMaxTracked) {
      outstanding_[req.seq] = Outstanding{t, t, 1, first};
    }

    // §IV-1: optionally submit to several replicas at once for lower latency
    // at the cost of duplicate dissemination.
    auto dest = first;
    for (std::uint32_t copy = 0; copy < std::max<std::uint32_t>(cfg_.submit_copies, 1);
         ++copy) {
      auto& batch = batches[dest];
      if (!batch) batch = std::make_shared<proto::ClientRequestMsg>();
      batch->requests.push_back(req);
      dest = (dest + 1) % replica_count_;
      if (dest == avoid_) dest = (dest + 1) % replica_count_;
    }
  }
  for (auto& [to, batch] : batches) env().send(to, std::move(batch));
}

void LeopardClient::submit_next() {
  if (cfg_.stop_at >= 0 && now() >= cfg_.stop_at) return;
  if (remaining_budget() == 0) return;
  submit_burst(cfg_.burst);
  // Poisson-distributed gaps between bursts at the configured mean rate.
  const double gap_sec =
      rng_.exponential(static_cast<double>(cfg_.burst) / cfg_.request_rate);
  env().set_timer(kSubmitTick, sim::from_seconds(gap_sec));
}

void LeopardClient::refill_window() {
  if (outstanding_.size() >= cfg_.closed_loop_window) return;
  const auto room = cfg_.closed_loop_window - outstanding_.size();
  submit_burst(static_cast<std::uint32_t>(
      std::min<std::uint64_t>(room, remaining_budget())));
}

void LeopardClient::do_message(protocol::NodeId, const sim::PayloadPtr& payload) {
  const auto ack = std::dynamic_pointer_cast<const proto::AckMsg>(payload);
  if (!ack) return;
  const auto t = now();
  for (const auto seq : ack->seqs) {
    const auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) continue;  // duplicate ack after re-submission
    env().metric(protocol::Metric::kAckLatencySample,
                 sim::to_seconds(t - it->second.submitted_at));
    ++acked_;
    outstanding_.erase(it);
  }
  if (cfg_.closed_loop_window > 0) refill_window();
}

void LeopardClient::resubmit_tick() {
  const auto t = now();
  // Scan only the oldest entries: requests are acked roughly in order.
  std::size_t scanned = 0;
  for (auto& [seq, out] : outstanding_) {
    if (++scanned > 64 || t - out.last_sent_at < cfg_.resubmit_timeout) break;

    // Rotate to the next replica, skipping the initial leader (µ re-selection).
    auto next = (out.sent_to + 1) % replica_count_;
    if (next == avoid_) next = (next + 1) % replica_count_;
    out.sent_to = next;
    out.last_sent_at = t;
    ++out.attempts;

    env().send(next, std::make_shared<proto::ClientRequestMsg>(
                         make_request(seq, out.submitted_at)));
  }
  env().set_timer(kResubmitTick,
                  std::max<sim::SimTime>(cfg_.resubmit_timeout / 2, sim::kMillisecond));
}

}  // namespace leopard::core
