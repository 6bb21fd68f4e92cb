#include "harness/experiment.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/worker_pool.hpp"

namespace leopard::harness {

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kLeopard: return "Leopard";
    case Protocol::kHotStuff: return "HotStuff";
    case Protocol::kPbft: return "PBFT";
  }
  return "?";
}

double ComponentBandwidth::total_send() const {
  double sum = 0;
  for (const auto v : send_bps) sum += v;
  return sum;
}

double ComponentBandwidth::total_recv() const {
  double sum = 0;
  for (const auto v : recv_bps) sum += v;
  return sum;
}

namespace {

constexpr std::size_t kComponents = static_cast<std::size_t>(sim::Component::kCount);

double leopard_capacity(const ExperimentConfig& cfg, const sim::CostModel& c) {
  const double n = cfg.n;
  const double payload = cfg.payload_size;
  // Per-request CPU at a (receive-bound) replica, in ns.
  const double cpu_ns = static_cast<double>(c.datablock_per_request) +
                        static_cast<double>(c.execute_per_request) +
                        c.recv_per_byte_ns * payload + c.hash_per_byte_ns * payload +
                        c.send_per_byte_ns * payload +
                        static_cast<double>(c.client_request_ingress) / (n - 1.0);
  // Leader extra: per-agreement-instance vote processing and proof/proposal
  // multicasts, amortized over the τ·α requests each BFTblock covers. This
  // is what makes tiny BFTblocks expensive at large n (Fig. 7).
  const double quorum = 2.0 * std::floor((n - 1.0) / 3.0) + 1.0;
  const double per_block_ns =
      2.0 * (n - 1.0) *
          static_cast<double>(c.recv_per_msg + c.share_verify) +
      2.0 * (static_cast<double>(c.combine_base) +
             quorum * static_cast<double>(c.combine_per_share)) +
      3.0 * (n - 1.0) * static_cast<double>(c.send_per_msg);
  const double reqs_per_block =
      static_cast<double>(cfg.bftblock_links) * cfg.datablock_requests;
  // Per-datablock ready processing at the leader, amortized over α.
  const double per_datablock_ns = (n - 1.0) * static_cast<double>(c.recv_per_msg);
  const double leader_cpu_ns = cpu_ns + per_block_ns / reqs_per_block +
                               per_datablock_ns / cfg.datablock_requests;
  const double cpu_cap = 1e9 / leader_cpu_ns;
  // NIC: each replica both sends and receives ≈ Λ request-wire bits/s of
  // datablocks (§V: c_R ≈ 2 per confirmed bit, split across directions).
  // The on-wire request carries a 20-byte header; client ingress shares the
  // receive side.
  const double wire_bits = (payload + 20.0) * 8.0;
  const double send_per_bit = 1.0;
  const double recv_per_bit = (n - 2.0) / (n - 1.0) + 1.0 / (n - 1.0);
  const double nic_cap =
      cfg.shared_duplex
          ? cfg.bandwidth_bps / ((send_per_bit + recv_per_bit) * wire_bits)
          : cfg.bandwidth_bps / (std::max(send_per_bit, recv_per_bit) * wire_bits);
  return std::min(cpu_cap, nic_cap);
}

double baseline_capacity(const ExperimentConfig& cfg, const sim::CostModel& c,
                         bool aggregated_votes) {
  const double n = cfg.n;
  const double payload = cfg.payload_size;
  const double batch = cfg.batch_size;
  const double quorum = 2.0 * std::floor((n - 1.0) / 3.0) + 1.0;

  // Leader CPU per request (ns): ingress, hashing, per-copy egress
  // serialization, and vote processing amortized over the batch.
  const double vote_count = aggregated_votes ? (n - 1.0) : 2.0 * (n - 1.0);
  const double vote_cpu = aggregated_votes
                              ? (n - 1.0) * static_cast<double>(c.share_verify) +
                                    static_cast<double>(c.combine_base) +
                                    quorum * static_cast<double>(c.combine_per_share)
                              : 2.0 * (n - 1.0) * 3000.0;  // MAC-vector checks
  const double leader_cpu_ns =
      static_cast<double>(c.client_request_ingress) + c.hash_per_byte_ns * payload +
      static_cast<double>(c.execute_per_request) +
      (n - 1.0) * c.send_per_byte_ns * payload +
      (vote_cpu + vote_count * static_cast<double>(c.recv_per_msg) +
       (n - 1.0) * static_cast<double>(c.send_per_msg)) /
          batch;
  const double leader_cpu_cap = 1e9 / leader_cpu_ns;

  // Leader NIC egress: n−1 full copies of every request; under a shared link
  // client ingress rides the same capacity.
  const double wire_bits = (payload + 20.0) * 8.0;
  const double leader_nic_cap =
      cfg.bandwidth_bps / (((n - 1.0) + (cfg.shared_duplex ? 1.0 : 0.0)) * wire_bits);

  // Replica CPU per request.
  const double extra_vote_cpu =
      aggregated_votes ? 0.0
                       : (2.0 * (n - 1.0) *
                          (static_cast<double>(c.send_per_msg) + 3000.0 +
                           static_cast<double>(c.recv_per_msg))) /
                             batch;
  const double replica_cpu_ns = static_cast<double>(c.block_per_request) +
                                c.recv_per_byte_ns * payload +
                                static_cast<double>(c.execute_per_request) + extra_vote_cpu;
  const double replica_cpu_cap = 1e9 / replica_cpu_ns;
  const double replica_nic_cap = cfg.bandwidth_bps / wire_bits;

  return std::min(std::min(leader_cpu_cap, leader_nic_cap),
                  std::min(replica_cpu_cap, replica_nic_cap));
}

ComponentBandwidth breakdown_for(const sim::TrafficAccountant& traffic, sim::NodeId node,
                                 sim::SimTime now) {
  ComponentBandwidth out;
  const double window = sim::to_seconds(now - traffic.measurement_start());
  if (window <= 0) return out;
  for (std::size_t comp = 0; comp < kComponents; ++comp) {
    out.send_bps[comp] = static_cast<double>(traffic.bytes(
                             node, sim::Direction::kSend, static_cast<sim::Component>(comp))) *
                         8.0 / window;
    out.recv_bps[comp] = static_cast<double>(traffic.bytes(
                             node, sim::Direction::kReceive, static_cast<sim::Component>(comp))) *
                         8.0 / window;
  }
  return out;
}

std::uint64_t component_bytes(const sim::TrafficAccountant& traffic, sim::NodeId node,
                              sim::Direction dir, std::initializer_list<sim::Component> comps) {
  std::uint64_t sum = 0;
  for (const auto c : comps) sum += traffic.bytes(node, dir, c);
  return sum;
}

}  // namespace

double estimate_capacity(const ExperimentConfig& cfg) {
  const sim::CostModel costs;  // defaults used by run_experiment
  switch (cfg.protocol) {
    case Protocol::kLeopard: return leopard_capacity(cfg, costs);
    case Protocol::kHotStuff: return baseline_capacity(cfg, costs, true);
    case Protocol::kPbft: return baseline_capacity(cfg, costs, false);
  }
  return 0;
}

namespace {

double offered_load(const ExperimentConfig& cfg) {
  if (cfg.offered_load > 0) return cfg.offered_load;
  // Auto-saturation. Leopard runs with a standing client backlog that keeps
  // every datablock at full size, so the offered rate must sit just BELOW
  // capacity — any structural excess grows every replica's CPU queue without
  // bound and pushes confirmation latency past the measurement window.
  // The baselines shed cheaply at the leader, so a slight overshoot is safe
  // and keeps their batches full.
  double saturation = 1.15;
  if (cfg.protocol == Protocol::kLeopard) saturation = 0.97;
  if (cfg.shared_duplex) saturation = 0.90;  // shared links queue badly near rho=1
  return saturation * estimate_capacity(cfg);
}

}  // namespace

SimClusterConfig experiment_cluster(const ExperimentConfig& cfg) {
  util::expects(cfg.n >= 4, "experiments require n >= 4");
  const bool leopard = cfg.protocol == Protocol::kLeopard;
  const sim::NodeId leader_id = leopard ? 1 % cfg.n : 0;
  const double offered = offered_load(cfg);

  SimClusterConfig out;
  out.net.default_out_bps = cfg.bandwidth_bps;
  out.net.default_in_bps = cfg.bandwidth_bps;
  out.net.shared_duplex = cfg.shared_duplex;
  out.seed = cfg.seed;

  // Protocol-generic construction: translate the experiment knobs into a
  // ProtocolSpec once; the cluster stamps out sans-I/O cores behind SimEnvs.
  if (leopard) {
    core::LeopardConfig lcfg;
    lcfg.n = cfg.n;
    lcfg.datablock_requests = cfg.datablock_requests;
    lcfg.bftblock_links = cfg.bftblock_links;
    lcfg.payload_size = cfg.payload_size;
    lcfg.mempool_capacity = saturation_backlog(cfg.datablock_requests);
    lcfg.enable_ready_round = cfg.enable_ready_round;
    if (cfg.proposal_max_wait > 0) lcfg.proposal_max_wait = cfg.proposal_max_wait;
    if (cfg.view_timeout > 0) {
      lcfg.view_timeout = cfg.view_timeout;
    } else if (!cfg.crash_leader_at) {
      // Throughput experiments under saturation: queues legitimately run
      // deep during the fill phase at large n. The paper requires the
      // view-change timer be "set appropriately ... to avoid switching to
      // a new view too frequently"; disable spurious switches unless the
      // experiment is about the view-change itself.
      lcfg.view_timeout = 3600 * sim::kSecond;
    }
    out.spec.config = lcfg;
  } else if (cfg.protocol == Protocol::kHotStuff) {
    baselines::HotStuffConfig hcfg;
    hcfg.n = cfg.n;
    hcfg.batch_size = cfg.batch_size;
    hcfg.payload_size = cfg.payload_size;
    out.spec.config = hcfg;
  } else {
    baselines::PbftConfig pcfg;
    pcfg.n = cfg.n;
    pcfg.batch_size = cfg.batch_size;
    pcfg.payload_size = cfg.payload_size;
    out.spec.config = pcfg;
  }

  // Faults: the byzantine spec goes to the first `byzantine_count` replicas
  // that are neither the initial leader nor the observer (replica 0).
  if (cfg.byzantine_count > 0 || cfg.crash_leader_at) {
    std::vector<core::ByzantineSpec> byzantine(cfg.n);
    std::uint32_t byz_assigned = 0;
    for (std::uint32_t id = 1; id < cfg.n && byz_assigned < cfg.byzantine_count; ++id) {
      if (id == leader_id) continue;
      byzantine[id] = cfg.byzantine_spec;
      ++byz_assigned;
    }
    if (cfg.crash_leader_at) byzantine[leader_id].crash_at = *cfg.crash_leader_at;
    out.mutate_spec = byzantine_replicas(std::move(byzantine));
  }

  if (leopard) {
    // Saturation requires the mempool pinned at capacity from t = 0 so every
    // datablock fills to α (the paper stress-tests "with a saturated request
    // rate"); without the standing backlog, large-n runs degrade into tiny
    // timer-flushed datablocks and the ready round floods the leader.
    core::ClientConfig ccfg;
    ccfg.request_rate = offered / static_cast<double>(cfg.n - 1);
    ccfg.payload_size = cfg.payload_size;
    ccfg.resubmit_timeout = cfg.client_resubmit_timeout;
    ccfg.initial_backlog = saturation_backlog(cfg.datablock_requests);
    out.clients = groups_per_replica(cfg.n, leader_id, ccfg, cfg.seed + 1000);
  } else {
    core::ClientConfig ccfg;
    ccfg.request_rate = offered;
    ccfg.payload_size = cfg.payload_size;
    ccfg.initial_backlog = 2 * cfg.batch_size;
    out.clients.push_back(ClientGroup{ccfg, leader_id, cfg.n /*avoid: none*/, cfg.seed + 999});
  }
  return out;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  // Size the compute pool for this run. Deterministic for any value: the
  // pool only accelerates pure kernels (erasure encode, Merkle hashing)
  // whose outputs are byte-identical at every lane count, and simulated CPU
  // costs come from the CostModel, not wall clock.
  util::WorkerPool::global().resize(std::max<std::uint32_t>(cfg.encode_workers, 1));

  SimCluster cluster(experiment_cluster(cfg));
  auto& sim = cluster.sim();
  auto& net = cluster.net();
  auto& metrics = cluster.metrics();
  const bool leopard = cfg.protocol == Protocol::kLeopard;
  const sim::NodeId leader_id = leopard ? 1 % cfg.n : 0;
  const double offered = offered_load(cfg);

  // --- Windows ---------------------------------------------------------------
  sim::SimTime warmup = cfg.warmup;
  sim::SimTime measure = cfg.measure;
  if (leopard) {
    const double block_period_sec =
        static_cast<double>(cfg.bftblock_links) * cfg.datablock_requests / offered;
    // The initial standing backlog is a one-off CPU shock at every replica;
    // warmup must cover draining it plus at least one consensus cadence.
    const double backlog_total =
        static_cast<double>(saturation_backlog(cfg.datablock_requests)) * (cfg.n - 1);
    const double backlog_drain_sec = backlog_total / offered;
    if (warmup == 0) {
      warmup = sim::from_seconds(
          std::max(2.0, 2.0 + 2.0 * block_period_sec + backlog_drain_sec));
    }
    if (measure == 0) {
      // BFTblocks confirm in bursts of τ·α requests; the window must span
      // several bursts or quantization dominates the measurement.
      measure = sim::from_seconds(std::max(4.0, 4.0 * block_period_sec));
    }
  } else {
    if (warmup == 0) warmup = 2 * sim::kSecond;
    if (measure == 0) measure = 4 * sim::kSecond;
  }

  // --- Run ---------------------------------------------------------------------
  cluster.run_until(warmup);

  net.traffic().mark_measurement_start(sim.now());
  core::ProtocolMetrics baseline = metrics;
  metrics.latency_hist.reset();  // percentiles from the window only

  cluster.run_until(warmup + measure);
  const auto now = sim.now();
  const double window_sec = sim::to_seconds(measure);

  // --- Aggregate ------------------------------------------------------------------
  ExperimentResult r;
  r.offered_load = offered;
  r.measured_for = measure;
  r.executed_requests = metrics.executed_requests - baseline.executed_requests;
  r.acked_requests = metrics.acked_requests - baseline.acked_requests;
  r.throughput_kreqs = static_cast<double>(r.executed_requests) / window_sec / 1e3;
  r.throughput_mbps =
      static_cast<double>(r.executed_requests) * cfg.payload_size * 8.0 / window_sec / 1e6;

  if (r.acked_requests > 0) {
    r.mean_latency_sec =
        (metrics.latency_sum_sec - baseline.latency_sum_sec) / static_cast<double>(r.acked_requests);
  }
  r.p50_latency_sec = metrics.latency_percentile(0.50);
  r.p99_latency_sec = metrics.latency_percentile(0.99);

  const auto& traffic = net.traffic();
  r.leader_send_bps = traffic.bandwidth_bps(leader_id, sim::Direction::kSend, now);
  r.leader_recv_bps = traffic.bandwidth_bps(leader_id, sim::Direction::kReceive, now);
  r.leader_breakdown = breakdown_for(traffic, leader_id, now);

  std::uint32_t replica_count = 0;
  for (std::uint32_t id = 0; id < cfg.n; ++id) {
    if (id == leader_id) continue;
    const auto b = breakdown_for(traffic, id, now);
    for (std::size_t c = 0; c < kComponents; ++c) {
      r.replica_breakdown.send_bps[c] += b.send_bps[c];
      r.replica_breakdown.recv_bps[c] += b.recv_bps[c];
    }
    ++replica_count;
  }
  if (replica_count > 0) {
    for (std::size_t c = 0; c < kComponents; ++c) {
      r.replica_breakdown.send_bps[c] /= replica_count;
      r.replica_breakdown.recv_bps[c] /= replica_count;
    }
  }

  // Latency breakdown (Table IV).
  const auto bd_count = metrics.breakdown_count - baseline.breakdown_count;
  if (bd_count > 0 && r.mean_latency_sec > 0) {
    const double gen = (metrics.sum_generation_sec - baseline.sum_generation_sec) /
                       static_cast<double>(bd_count);
    const double dis = (metrics.sum_dissemination_sec - baseline.sum_dissemination_sec) /
                       static_cast<double>(bd_count);
    const double agr = (metrics.sum_agreement_sec - baseline.sum_agreement_sec) /
                       static_cast<double>(bd_count);
    const double resp = std::max(0.0, r.mean_latency_sec - gen - dis - agr);
    const double total = gen + dis + agr + resp;
    if (total > 0) {
      r.frac_generation = gen / total;
      r.frac_dissemination = dis / total;
      r.frac_agreement = agr / total;
      r.frac_response = resp / total;
    }
  }

  // Retrieval (Fig. 12 / Table V).
  r.datablocks_recovered = metrics.datablocks_recovered - baseline.datablocks_recovered;
  if (r.datablocks_recovered > 0) {
    r.mean_recovery_time_sec =
        (metrics.recovery_time_sum_sec - baseline.recovery_time_sum_sec) /
        static_cast<double>(r.datablocks_recovered);
    std::uint64_t chunk_recv = 0;
    std::uint64_t chunk_send = 0;
    for (std::uint32_t id = 0; id < cfg.n; ++id) {
      chunk_recv += traffic.bytes(id, sim::Direction::kReceive, sim::Component::kChunkResponse);
      chunk_send += traffic.bytes(id, sim::Direction::kSend, sim::Component::kChunkResponse);
    }
    r.recover_bytes_per_datablock =
        static_cast<double>(chunk_recv) / static_cast<double>(r.datablocks_recovered);
    const auto responses = metrics.chunks_sent - baseline.chunks_sent;
    if (responses > 0) {
      r.respond_bytes_per_response =
          static_cast<double>(chunk_send) / static_cast<double>(responses);
    }
  }

  // View-change (Fig. 13).
  r.view_changes = metrics.view_changes_completed - baseline.view_changes_completed;
  if (metrics.vc_triggered_at >= 0 && metrics.vc_completed_at >= metrics.vc_triggered_at) {
    r.view_change_duration_sec =
        sim::to_seconds(metrics.vc_completed_at - metrics.vc_triggered_at);
  }
  {
    const auto comps = {sim::Component::kTimeout, sim::Component::kViewChange,
                        sim::Component::kNewView};
    const sim::NodeId new_leader = leopard ? (2 % cfg.n) : 0;
    double total = 0;
    double rep_send = 0;
    double rep_recv = 0;
    std::uint32_t reps = 0;
    for (std::uint32_t id = 0; id < cfg.n; ++id) {
      const auto send = component_bytes(traffic, id, sim::Direction::kSend, comps);
      const auto recv = component_bytes(traffic, id, sim::Direction::kReceive, comps);
      total += static_cast<double>(send);
      if (id == new_leader) {
        r.vc_leader_send_bytes = static_cast<double>(send);
        r.vc_leader_recv_bytes = static_cast<double>(recv);
      } else {
        rep_send += static_cast<double>(send);
        rep_recv += static_cast<double>(recv);
        ++reps;
      }
    }
    r.vc_total_bytes = total;
    if (reps > 0) {
      r.vc_replica_send_bytes = rep_send / reps;
      r.vc_replica_recv_bytes = rep_recv / reps;
    }
  }

  r.safety_violation = metrics.safety_violation;
  return r;
}

}  // namespace leopard::harness
