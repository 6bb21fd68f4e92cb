// Experiment harness: builds a cluster (protocol, scale, bandwidth, batches,
// faults, workload), runs the simulation through a warmup + measurement
// window, and reports the metrics every bench and integration test consumes.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/byzantine.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "harness/sim_cluster.hpp"
#include "sim/message.hpp"
#include "sim/time.hpp"

namespace leopard::harness {

enum class Protocol { kLeopard, kHotStuff, kPbft };

const char* protocol_name(Protocol p);

struct ExperimentConfig {
  Protocol protocol = Protocol::kLeopard;
  std::uint32_t n = 4;
  std::uint32_t payload_size = 128;

  // Leopard batch parameters (Table II).
  std::uint32_t datablock_requests = 2000;
  std::uint32_t bftblock_links = 100;

  // Baseline batch parameter (Fig. 6).
  std::uint32_t batch_size = 800;

  /// Per-replica NIC capacity in bits/s. `shared_duplex` models NetEm-style
  /// throttling where send+receive share the capacity (Fig. 10).
  double bandwidth_bps = 9.8e9;
  bool shared_duplex = false;

  /// Offered load in requests/s; 0 = auto-saturate (≈1.15× estimated
  /// capacity, with a standing backlog so batches fill immediately).
  double offered_load = 0;

  /// Simulated warmup/measurement durations; 0 = choose automatically from
  /// the expected consensus cadence.
  sim::SimTime warmup = 0;
  sim::SimTime measure = 0;

  std::uint64_t seed = 1;

  /// Fault injection: the spec is applied to the first `byzantine_count`
  /// replicas that are neither the initial leader nor the observer
  /// (replica 0). `crash_leader_at` stops the initial leader to force a
  /// view-change (Fig. 13).
  std::uint32_t byzantine_count = 0;
  core::ByzantineSpec byzantine_spec;
  std::optional<sim::SimTime> crash_leader_at;

  /// Client re-submission timeout (0 = disabled).
  sim::SimTime client_resubmit_timeout = 0;

  /// Leopard timer overrides (0 = library default).
  sim::SimTime proposal_max_wait = 0;
  sim::SimTime view_timeout = 0;

  /// Ablation: disable the ready round (see LeopardConfig::enable_ready_round).
  bool enable_ready_round = true;

  /// Worker lanes for erasure-encode/Merkle-hash compute (Reed-Solomon
  /// parity encode splits shard width, Merkle hashing splits leaf rows).
  /// Applied to the process-global util::WorkerPool for the run; protocol
  /// output is byte-identical for any value — simulated CPU charges come
  /// from the CostModel, so only wall clock changes.
  std::uint32_t encode_workers = 1;
};

/// Per-component bandwidth numbers for one role (Table III rows).
struct ComponentBandwidth {
  std::array<double, static_cast<std::size_t>(sim::Component::kCount)> send_bps{};
  std::array<double, static_cast<std::size_t>(sim::Component::kCount)> recv_bps{};
  [[nodiscard]] double total_send() const;
  [[nodiscard]] double total_recv() const;
};

struct ExperimentResult {
  // Headline numbers.
  double throughput_kreqs = 0;      // confirmed requests / s / 1000
  double throughput_mbps = 0;       // confirmed payload bits / s / 1e6
  double mean_latency_sec = 0;
  double p50_latency_sec = 0;
  double p99_latency_sec = 0;

  // Leader and representative-replica bandwidth (Figs. 2, 11; Table III).
  double leader_send_bps = 0;
  double leader_recv_bps = 0;
  ComponentBandwidth leader_breakdown;
  ComponentBandwidth replica_breakdown;  // averaged over non-leader replicas

  // Latency breakdown fractions (Table IV); sums to <= 1.
  double frac_generation = 0;
  double frac_dissemination = 0;
  double frac_agreement = 0;
  double frac_response = 0;

  // Retrieval (Fig. 12 / Table V).
  std::uint64_t datablocks_recovered = 0;
  double mean_recovery_time_sec = 0;
  double recover_bytes_per_datablock = 0;  // querier-side receive
  double respond_bytes_per_response = 0;   // responder-side send

  // View-change (Fig. 13).
  std::uint32_t view_changes = 0;
  double view_change_duration_sec = 0;
  double vc_total_bytes = 0;         // all view-change traffic, send side
  double vc_leader_send_bytes = 0;   // new leader
  double vc_leader_recv_bytes = 0;
  double vc_replica_send_bytes = 0;  // per non-leader average
  double vc_replica_recv_bytes = 0;

  // Safety canary and raw counters.
  bool safety_violation = false;
  std::uint64_t executed_requests = 0;
  std::uint64_t acked_requests = 0;
  double offered_load = 0;
  sim::SimTime measured_for = 0;
};

/// Estimated sustainable throughput (requests/s) for auto-saturation; also
/// useful to size workloads in examples.
double estimate_capacity(const ExperimentConfig& cfg);

/// The cluster run_experiment measures: the protocol's spec with the
/// configured batches and faults, and the (auto-saturating) offered load
/// spread over client groups. bench_shard and the sharded tests run it with
/// more shards.
SimClusterConfig experiment_cluster(const ExperimentConfig& cfg);

/// Builds the cluster, runs warmup + measurement, returns aggregated results.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace leopard::harness
