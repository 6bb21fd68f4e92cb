// Run-wide protocol metrics shared by replicas and clients (single-threaded
// simulation: plain counters). The harness snapshots counters at warmup end
// and reports deltas.
#pragma once

#include <cstdint>

#include "obs/histogram.hpp"
#include "sim/time.hpp"

namespace leopard::core {

struct ProtocolMetrics {
  // Confirmed throughput: counted once per request, at its datablock's maker
  // (Leopard) or at the leader (baselines), when executed.
  std::uint64_t executed_requests = 0;

  // Client-observed latency (submit → ack). Percentiles come from the same
  // log-bucketed HDR histogram the wire path exposes on /metrics (bounded
  // memory, ≤ ~3% relative error), so sim and wire report through one
  // implementation. Recorded in nanoseconds.
  std::uint64_t acked_requests = 0;
  double latency_sum_sec = 0;
  obs::HdrHistogram latency_hist;

  // Latency breakdown sums (Table IV), recorded at execution time on the
  // datablock maker for its own requests.
  std::uint64_t breakdown_count = 0;
  double sum_generation_sec = 0;     // submit → datablock created
  double sum_dissemination_sec = 0;  // datablock created → linked by leader
  double sum_agreement_sec = 0;      // linked → executed

  // Retrieval (Fig. 12 / Table V).
  std::uint64_t queries_sent = 0;
  std::uint64_t chunks_sent = 0;
  std::uint64_t datablocks_recovered = 0;
  double recovery_time_sum_sec = 0;  // query sent → datablock decoded

  // Leader proposals by trigger, and stable-checkpoint adoptions by whether
  // the adopting replica executed the range or skipped it.
  std::uint64_t proposals_full = 0;
  std::uint64_t proposals_idle = 0;
  std::uint64_t proposals_timer = 0;
  std::uint64_t checkpoints_caught_up = 0;
  std::uint64_t checkpoints_skipped = 0;

  // Vote quorums whose optimistic combine failed, so the leader checked
  // the buffered shares one by one.
  std::uint64_t vote_combine_fallbacks = 0;

  // View-change (Fig. 13).
  std::uint32_t view_changes_completed = 0;
  sim::SimTime vc_triggered_at = -1;
  sim::SimTime vc_completed_at = -1;

  // Safety-violation canary: set by replicas if they ever observe conflicting
  // confirmations; integration tests assert it stays false.
  bool safety_violation = false;

  void record_ack_latency(double seconds) {
    ++acked_requests;
    latency_sum_sec += seconds;
    const double ns = seconds * 1e9;
    latency_hist.record(ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
  }

  [[nodiscard]] double mean_latency_sec() const {
    return acked_requests == 0 ? 0.0 : latency_sum_sec / static_cast<double>(acked_requests);
  }

  [[nodiscard]] double latency_percentile(double p) const {
    return static_cast<double>(latency_hist.percentile(p)) / 1e9;
  }
};

}  // namespace leopard::core
