#include "open_loop.hpp"

#include <algorithm>
#include <map>
#include <memory>

#include "core/replica.hpp"
#include "proto/messages.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace lp = leopard;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

Schedule::Schedule(std::uint64_t seed, double rate_per_sec)
    : seed_(splitmix64(seed)), ns_per_req_(1e9 / rate_per_sec) {}

SimTime Schedule::due(std::uint64_t i) const {
  // u in [0, 1) from the top 53 bits; (i + u) is strictly increasing in i.
  const double u =
      static_cast<double>(splitmix64(seed_ ^ (i * 0xD1B54A32D192ED03ull)) >> 11) * 0x1.0p-53;
  return static_cast<SimTime>((static_cast<double>(i) + u) * ns_per_req_);
}

std::uint64_t Schedule::count_before(SimTime t) const {
  if (t <= 0) return 0;
  // due(i) >= i * ns_per_req, so the answer is at most t / ns_per_req + 1;
  // walk down from that bound (one or two steps).
  auto i = static_cast<std::uint64_t>(static_cast<double>(t) / ns_per_req_) + 1;
  while (i > 0 && due(i - 1) >= t) --i;
  return i;
}

OpenLoopClient::OpenLoopClient(OpenLoopConfig cfg, lp::protocol::NodeId self)
    : cfg_(cfg), self_(self), schedule_(cfg.seed, cfg.rate), payload_seed_(splitmix64(~cfg.seed)) {
  const SimTime end = cfg_.warmup + cfg_.window;
  total_ = schedule_.count_before(end);
  window_first_ = schedule_.count_before(cfg_.warmup);
  window_end_ = total_;
  slots_.resize(total_);
  cfg_.slices = std::max<std::uint32_t>(cfg_.slices, 1);
  report_.window_requests = window_end_ - window_first_;
  report_.window_seconds = lp::sim::to_seconds(cfg_.window);
  report_.lag_ns.reserve(report_.window_requests);
  report_.latency_ns.reserve(report_.window_requests);
}

void OpenLoopClient::do_start() {
  // One probe per non-leader replica: the schedule starts once every one of
  // them has committed a request.
  for (lp::protocol::NodeId r = 0; r < cfg_.n; ++r) {
    if (r == cfg_.leader) continue;
    auto msg = std::make_shared<lp::proto::ClientRequestMsg>();
    msg->requests.push_back(make_request(kProbeSeqBase + r));
    env().send(r, std::move(msg));
    ++probes_pending_;
  }
  env().set_timer(kTick, cfg_.tick);
}

lp::proto::Request OpenLoopClient::make_request(std::uint64_t seq) {
  lp::proto::Request req;
  req.client_id = self_;
  req.seq = seq;
  req.payload_size = cfg_.payload;
  req.submitted_at = now();
  // The bytes are a pure function of (seed, seq), so a re-submission
  // carries the same request and the run's inputs do not depend on timing.
  req.payload.resize(cfg_.payload);
  lp::util::Rng(payload_seed_ ^ splitmix64(seq)).fill(req.payload.data(), req.payload.size());
  return req;
}

lp::protocol::NodeId OpenLoopClient::next_replica(lp::protocol::NodeId from) const {
  auto next = (from + 1) % cfg_.n;
  if (next == cfg_.leader) next = (next + 1) % cfg_.n;
  return next;
}

void OpenLoopClient::do_timer(lp::protocol::TimerToken token) {
  if (token != kTick || phase_ == Phase::kDone) return;
  on_tick();
  if (phase_ != Phase::kDone) env().set_timer(kTick, cfg_.tick);
}

void OpenLoopClient::on_tick() {
  if (phase_ == Phase::kProbing) return;
  const SimTime rel = now() - t0_;
  // Slice edges (window open, inner edges, window close), in order.
  while (next_edge_ <= cfg_.slices &&
         rel >= cfg_.warmup + cfg_.window * next_edge_ / cfg_.slices) {
    if (next_edge_ == cfg_.slices) send_due(cfg_.warmup + cfg_.window);  // last slots
    if (edge_hook_) edge_hook_(next_edge_);
    ++next_edge_;
  }
  if (phase_ == Phase::kWarmup && next_edge_ > 0) phase_ = Phase::kWindow;
  if (phase_ == Phase::kWindow && next_edge_ > cfg_.slices) {
    drain_deadline_ = now() + cfg_.drain_timeout;
    phase_ = Phase::kDrain;
  }
  if (phase_ == Phase::kWarmup || phase_ == Phase::kWindow) send_due(rel);
  if (cfg_.resubmit_after > 0) resubmit_stale(now());
  if (phase_ == Phase::kDrain && (report_.acked == total_ || now() >= drain_deadline_)) {
    phase_ = Phase::kDone;
  }
}

void OpenLoopClient::send_due(SimTime now_rel) {
  const std::uint64_t due_count = std::min(schedule_.count_before(now_rel + 1), total_);
  if (next_ >= due_count) return;
  const SimTime t = now();
  // One batch per destination replica, routed by the paper's µ(req).
  std::map<lp::protocol::NodeId, std::shared_ptr<lp::proto::ClientRequestMsg>> batches;
  for (; next_ < due_count; ++next_) {
    auto req = make_request(next_);
    const auto to = lp::core::assign_replica(req, cfg_.n,
                                             static_cast<lp::proto::ReplicaId>(cfg_.leader));
    auto& slot = slots_[next_];
    slot.sent_at = t;
    slot.sent_to = to;
    if (in_window(next_)) report_.lag_ns.push_back(t - (t0_ + schedule_.due(next_)));
    auto& batch = batches[to];
    if (!batch) batch = std::make_shared<lp::proto::ClientRequestMsg>();
    batch->requests.push_back(std::move(req));
  }
  report_.attempted = next_;
  for (auto& [to, batch] : batches) env().send(to, std::move(batch));
}

void OpenLoopClient::resubmit_stale(SimTime now) {
  while (oldest_unacked_ < next_ && slots_[oldest_unacked_].acked) ++oldest_unacked_;
  constexpr std::uint64_t kMaxPerTick = 4096;
  std::uint64_t resent = 0;
  for (std::uint64_t i = oldest_unacked_; i < next_ && resent < kMaxPerTick; ++i) {
    auto& slot = slots_[i];
    if (slot.acked) continue;
    if (now - slot.sent_at < cfg_.resubmit_after) {
      // Slots were first sent in schedule order; once one is fresh, so are
      // the rest (re-submitted ones only ever move later).
      break;
    }
    slot.sent_to = next_replica(slot.sent_to);
    slot.sent_at = now;
    auto msg = std::make_shared<lp::proto::ClientRequestMsg>();
    msg->requests.push_back(make_request(i));
    env().send(slot.sent_to, std::move(msg));
    ++report_.resubmits;
    ++resent;
  }
}

void OpenLoopClient::do_message(lp::protocol::NodeId, const lp::sim::PayloadPtr& payload) {
  const auto ack = std::dynamic_pointer_cast<const lp::proto::AckMsg>(payload);
  if (!ack) return;
  const SimTime t = now();
  for (const auto seq : ack->seqs) {
    if (seq >= kProbeSeqBase) {
      if (phase_ == Phase::kProbing && probes_pending_ > 0 && --probes_pending_ == 0) {
        t0_ = t;
        phase_ = Phase::kWarmup;
      }
      continue;
    }
    if (seq >= next_) {
      ++report_.unknown_acks;
      continue;
    }
    auto& slot = slots_[seq];
    if (slot.acked) {
      ++report_.duplicate_acks;
      continue;
    }
    slot.acked = true;
    ++report_.acked;
    const SimTime rel = t - t0_;
    if (rel >= cfg_.warmup && rel < cfg_.warmup + cfg_.window) ++report_.window_acks;
    if (in_window(seq)) record_latency(seq, t);
  }
  if (phase_ == Phase::kDrain && report_.acked == total_) phase_ = Phase::kDone;
}

void OpenLoopClient::record_latency(std::uint64_t seq, SimTime at) {
  report_.latency_ns.push_back(at - (t0_ + schedule_.due(seq)));
}

OpenLoopReport OpenLoopClient::finish(SimTime end) {
  for (std::uint64_t i = window_first_; i < window_end_; ++i) {
    if (!slots_[i].acked) record_latency(i, end);
  }
  OpenLoopReport r = std::move(report_);
  report_ = {};
  r.failed = r.attempted - r.acked;
  return r;
}

}  // namespace perfbench
