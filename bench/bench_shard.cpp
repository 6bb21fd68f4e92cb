// Sharded-consensus scaling: committed kreq/s vs shard count S ∈ {1, 2, 4}
// at fixed n = 4, in the simulator (harness::SimCluster running the
// experiment cluster — the same construction shard_test and the chaos
// sharded scenario assert against)
// and optionally on a real loopback cluster (in process, through
// node::LoopbackCluster, like socket_cluster_test). Emits one JSON record so
// CI and future PRs can track the trajectory, plus the acceptance check:
// >= 3x sim kreq/s at S = 4 over S = 1.
//
// Only the SIM speedups are machine-portable and gated by
// check_bench_regression.py; the loopback numbers are wall-clock on shared
// hardware and are recorded purely as trajectory data.
//
// Usage: bench_shard [--smoke] [--sim-only] [--no-acceptance]
//   --smoke          short windows / light batches, for CI smoke runs.
//   --sim-only       skip the loopback section (CI gate uses this: the sim
//                    ratio is the portable signal).
//   --no-acceptance  record but do not enforce the >= 3x target.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "loopback_point.hpp"
#include "harness/experiment.hpp"
#include "sim/time.hpp"

namespace {

using namespace leopard;

std::string fmt1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string fmt2(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

struct SimPoint {
  std::uint32_t shards = 1;
  double offered_kreqs = 0;
  double kreqs = 0;
};

/// Saturated committed throughput of an S-shard sim cluster at n = 4:
/// offered load auto-sizes to 0.9 × S × single-shard capacity, so the
/// measured ack rate only reaches S× the S=1 number if the sharded system
/// actually absorbs it (each machine hosts one shard's leader plus S-1
/// follower cores on its single modeled CPU/NIC).
SimPoint run_sim_point(std::uint32_t shards, bool smoke) {
  harness::ExperimentConfig est;
  est.n = 4;
  est.seed = 5;
  if (smoke) {
    est.datablock_requests = 300;
    est.bftblock_links = 20;
  }
  // Single-shard capacity from the harness model. Each machine runs one CPU
  // lane per hosted core, so shards multiply CPU capacity; only the shared
  // NIC carries S× the wire load, and at these payloads it has the headroom.
  est.offered_load = 0.9 * harness::estimate_capacity(est) * shards;
  auto cfg = harness::experiment_cluster(est);
  cfg.shards = shards;
  harness::SimCluster cluster(std::move(cfg));

  const sim::SimTime warmup = smoke ? sim::kSecond : 2 * sim::kSecond;
  const sim::SimTime measure = smoke ? 2 * sim::kSecond : 4 * sim::kSecond;
  cluster.run_until(warmup);
  const auto before = cluster.client_acked();
  cluster.run_until(warmup + measure);
  const auto after = cluster.client_acked();

  SimPoint p;
  p.shards = shards;
  p.offered_kreqs = est.offered_load / 1e3;
  p.kreqs = static_cast<double>(after - before) / sim::to_seconds(measure) / 1e3;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool sim_only = false;
  bool enforce_acceptance = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--sim-only") == 0) {
      sim_only = true;
    } else if (std::strcmp(argv[i], "--no-acceptance") == 0) {
      enforce_acceptance = false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\nusage: %s [--smoke] [--sim-only] [--no-acceptance]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }

  const std::vector<std::uint32_t> shard_counts = {1, 2, 4};

  std::printf("{\"bench\":\"shard\",\"smoke\":%s,\"sim\":{\"n\":4,\"records\":[",
              smoke ? "true" : "false");
  std::vector<SimPoint> sim_points;
  bool first = true;
  for (const auto s : shard_counts) {
    const auto p = run_sim_point(s, smoke);
    sim_points.push_back(p);
    std::printf("%s{\"shards\":%u,\"offered_kreqs\":%s,\"kreqs_per_s\":%s}",
                first ? "" : ",", p.shards, fmt1(p.offered_kreqs).c_str(),
                fmt1(p.kreqs).c_str());
    first = false;
    std::fflush(stdout);
  }
  std::printf("]}");

  const double s1 = sim_points[0].kreqs;
  const double speedup_s2 = s1 > 0 ? sim_points[1].kreqs / s1 : 0;
  const double speedup_s4 = s1 > 0 ? sim_points[2].kreqs / s1 : 0;

  // --- loopback section (trajectory only; skipped under --sim-only) ---------
  // Expect S to HURT here, not help: every replica and the client share one
  // machine's cores and each replica's S instances share one event-loop
  // thread, so sharding adds envelope/mux overhead without adding
  // parallelism. The number records that single-host cost honestly; the
  // scaling claim lives in the sim section, whose one-lane-per-core machines
  // model the multi-core deployment sharding is for.
  if (!sim_only) {
    const std::uint32_t requests = smoke ? 400 : 20000;
    std::printf(",\"loopback\":{\"requests\":%u,\"records\":[", requests);
    first = true;
    double l1 = 0, l4 = 0;
    for (const auto s : shard_counts) {
      const double kreqs = bench::loopback_kreqs(s, /*io_threads=*/1, requests);
      if (s == 1) l1 = kreqs;
      if (s == 4) l4 = kreqs;
      std::printf("%s{\"shards\":%u,\"kreqs_per_s\":%s}", first ? "" : ",", s,
                  kreqs >= 0 ? fmt1(kreqs).c_str() : "null");
      first = false;
      std::fflush(stdout);
    }
    std::printf("],\"speedup_s4\":%s}",
                (l1 > 0 && l4 > 0) ? fmt2(l4 / l1).c_str() : "null");
  } else {
    std::printf(",\"loopback\":null");
  }

  const bool pass = speedup_s4 >= 3.0;
  std::printf(",\"scaling\":{\"sim_speedup_s2\":%s,\"sim_speedup_s4\":%s}",
              fmt2(speedup_s2).c_str(), fmt2(speedup_s4).c_str());
  std::printf(",\"acceptance\":{\"target\":3.0,\"sim_speedup_s4\":%s,\"pass\":%s}}\n",
              fmt2(speedup_s4).c_str(), (smoke || pass) ? "true" : "false");

  if (!smoke && !pass) {
    std::fprintf(stderr, "acceptance %s: sim S=4 speedup %.2fx < 3x over S=1\n",
                 enforce_acceptance ? "FAILED" : "missed (not enforced)", speedup_s4);
    if (enforce_acceptance) return 1;
  }
  return 0;
}
