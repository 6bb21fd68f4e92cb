// Adversarial scenario engine, wire side: forks real leopard_node clusters on
// 127.0.0.1 with one replica running a --byzantine interposer mode, and real
// chaos_proxy processes interposed on selected links with deterministic
// partition/heal schedules. Safety acceptance is the deployment analogue of
// the sim oracles: identical exec_digest folds across (honest) replicas plus
// client liveness; the per-peer shed/reconnect counters in the SIGTERM report
// prove the attacked links actually degraded.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "wire_fixture.hpp"

#ifndef CHAOS_PROXY_BIN
#error "CMake must define CHAOS_PROXY_BIN (path to the chaos_proxy binary)"
#endif

namespace {

using namespace leopard::wiretest;
using Clock = std::chrono::steady_clock;

/// Kills the proxy on scope exit so a failed ASSERT cannot leak it.
struct ProxyHandle {
  pid_t pid = -1;
  std::string out;

  ~ProxyHandle() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  Report stop() {
    ::kill(pid, SIGTERM);
    EXPECT_EQ(wait_exit(pid), 0) << "chaos_proxy did not exit cleanly";
    pid = -1;
    return parse_report(out);
  }
};

void sleep_until_ms(Clock::time_point t0, std::uint64_t ms) {
  std::this_thread::sleep_until(t0 + std::chrono::milliseconds(ms));
}

}  // namespace

// --- byzantine interposer modes ----------------------------------------------

TEST(ChaosWire, EquivocatingLeaderIsContained) {
  // The view-1 leader (replica 1) splits every proposal into two conflicting
  // twins. Neither twin can reach quorum, so the honest replicas must
  // view-change away and keep committing — with no fork between them.
  const auto dir = temp_dir();
  const auto ports = pick_free_ports(4);
  ManifestOpts mopts;
  mopts.view_timeout_ms = 1500;  // recover from the poisoned view quickly
  const auto manifest = write_manifest(dir, ports, mopts);

  ReplicaSet cluster;
  for (std::size_t id = 0; id < 4; ++id) {
    std::vector<std::string> extra;
    if (id == 1) extra = {"--byzantine", "equivocate"};
    cluster.start(id, manifest, dir, "", std::move(extra));
  }

  ASSERT_EQ(run_client(manifest, dir + "/client.out", 100, 300, 500), 0)
      << "cluster lost liveness under an equivocating leader";
  EXPECT_EQ(parse_report(dir + "/client.out").at("acked"), "300");
  ::usleep(500 * 1000);

  const auto reports = cluster.stop_all(4);
  const std::vector<std::size_t> honest = {0, 2, 3};
  for (const auto id : honest) {
    ASSERT_TRUE(reports[id].contains("exec_digest")) << "replica " << id;
    EXPECT_EQ(reports[id].at("exec_digest"), reports[0].at("exec_digest"))
        << "honest replicas forked under equivocation (replica " << id << ")";
    EXPECT_EQ(reports[id].at("state_digest"), reports[0].at("state_digest")) << id;
    EXPECT_GE(std::stoul(reports[id].at("view")), 2u)
        << "replica " << id << " never left the equivocator's view";
  }
  EXPECT_EQ(reports[1].at("byzantine"), "equivocate");
  EXPECT_GT(std::stoull(reports[1].at(
                "leopard_chaos_byz_actions_total{attack:equivocate,kind:equivocation}")),
            0u)
      << "the byzantine leader never actually equivocated";
}

TEST(ChaosWire, SelectiveSilenceTowardVictimStaysSafeAndLive) {
  // Replica 3 suppresses every frame toward the f victim replicas (replica 0
  // here). The victim must still execute the full stream — datablock
  // retrieval and the remaining 2f honest links carry it — and no honest
  // pair may diverge.
  const auto dir = temp_dir();
  const auto ports = pick_free_ports(4);
  const auto manifest = write_manifest(dir, ports);

  ReplicaSet cluster;
  for (std::size_t id = 0; id < 4; ++id) {
    std::vector<std::string> extra;
    if (id == 3) extra = {"--byzantine", "silence"};
    cluster.start(id, manifest, dir, "", std::move(extra));
  }

  ASSERT_EQ(run_client(manifest, dir + "/client.out", 100, 300, 500), 0)
      << "cluster lost liveness under selective silence";
  ::usleep(500 * 1000);

  const auto reports = cluster.stop_all(4);
  for (const std::size_t id : {0u, 1u, 2u}) {
    ASSERT_TRUE(reports[id].contains("exec_digest")) << "replica " << id;
    EXPECT_EQ(reports[id].at("exec_digest"), reports[0].at("exec_digest")) << id;
    EXPECT_EQ(reports[id].at("state_digest"), reports[0].at("state_digest")) << id;
  }
  EXPECT_GE(std::stoull(reports[0].at("executed_requests")), 300u)
      << "the silenced victim fell behind the executed stream";
  EXPECT_GT(std::stoull(
                reports[3].at("leopard_chaos_byz_actions_total{attack:silence,kind:suppressed}")),
            0u)
      << "the byzantine replica never actually suppressed a frame";
}

TEST(ChaosWire, GarbageSharesCannotPoisonStateTransfer) {
  // Replica 3 corrupts every chunk it serves (retrieval and state-transfer
  // shares). A crashed-and-restarted replica 0 must still catch up: the
  // subset-robust pull decode discards the garbled shard and completes from
  // the honest servers.
  const auto dir = temp_dir();
  const auto ports = pick_free_ports(4);
  const auto manifest = write_manifest(dir, ports);
  const auto data_dir = [&](std::size_t id) { return dir + "/data" + std::to_string(id); };

  ReplicaSet cluster;
  for (std::size_t id = 0; id < 4; ++id) {
    std::vector<std::string> extra;
    if (id == 3) extra = {"--byzantine", "garbage-shares"};
    cluster.start(id, manifest, dir, data_dir(id), std::move(extra));
  }

  ASSERT_EQ(run_client(manifest, dir + "/client1.out", 100, 150), 0);
  cluster.kill_hard(0);
  ASSERT_EQ(run_client(manifest, dir + "/client2.out", 101, 150, 500), 0);
  cluster.start(0, manifest, dir, data_dir(0));
  ASSERT_EQ(run_client(manifest, dir + "/client3.out", 102, 100, 500), 0);
  ::usleep(3000 * 1000);  // final catch-up rounds after the load quiesces

  const auto reports = cluster.stop_all(4);
  for (std::size_t id = 1; id < 4; ++id) {
    ASSERT_TRUE(reports[id].contains("exec_digest")) << "replica " << id;
    EXPECT_EQ(reports[id].at("exec_digest"), reports[0].at("exec_digest"))
        << "replica " << id << " diverged";
  }
  const auto& restarted = reports[0];
  EXPECT_GT(std::stoull(restarted.at("leopard_store_recovered_entries")), 0u)
      << "restart did not recover from the WAL";
  EXPECT_GT(std::stoull(restarted.at("leopard_sync_entries_total")), 0u)
      << "restart did not use state transfer to fill the gap";
  EXPECT_EQ(restarted.at("sync_live"), "1");
  EXPECT_GT(std::stoull(reports[3].at(
                "leopard_chaos_byz_actions_total{attack:garbage-shares,kind:corrupted}")),
            0u)
      << "the byzantine replica never actually served a corrupted chunk";
}

TEST(ChaosWire, LaggardLeaderDegradesMeasuredCommitLatencyWithoutViewChange) {
  // FnF-style laggard: the leader holds every outbound frame for `kLagMs`.
  // No view change should fire (the generous timeout absorbs the lag) and all
  // replicas fold the same stream — but the attack must also be VISIBLE in the
  // measured commit-latency histogram: run an identical honest cluster first
  // and demand the attacked percentiles degrade by a bounded factor. The
  // client's p50/p99 come from the same HDR histogram /metrics exposes.
  constexpr std::uint64_t kLagMs = 150;
  const auto dir = temp_dir();

  const auto run_cluster = [&](const std::string& tag,
                               bool laggard) -> Report {
    const auto ports = pick_free_ports(4);
    const auto manifest = write_manifest(dir, ports, {}, "cluster_" + tag + ".conf");
    ReplicaSet cluster;
    for (std::size_t id = 0; id < 4; ++id) {
      std::vector<std::string> extra;
      if (laggard && id == 1) {
        extra = {"--byzantine", "laggard", "--byzantine-lag-ms", std::to_string(kLagMs)};
      }
      cluster.start(id, manifest, dir, "", std::move(extra));
    }
    const auto client_out = dir + "/client_" + tag + ".out";
    EXPECT_EQ(run_client(manifest, client_out, 100, 300, 1000), 0)
        << "cluster lost liveness (" << tag << ")";
    if (laggard) ::usleep(800 * 1000);  // let the last held frames flush

    const auto reports = cluster.stop_all(4);
    for (std::size_t id = 1; id < 4; ++id) {
      EXPECT_TRUE(reports[id].contains("exec_digest")) << tag << " replica " << id;
      EXPECT_EQ(reports[id].at("exec_digest"), reports[0].at("exec_digest"))
          << tag << " replica " << id;
    }
    for (const std::size_t id : {0u, 2u, 3u}) {
      EXPECT_EQ(reports[id].at("view"), "1")
          << "laggard=" << laggard << " should not force a view change (replica " << id
          << ")";
    }
    if (laggard) {
      EXPECT_GT(std::stoull(
                    reports[1].at("leopard_chaos_byz_actions_total{attack:laggard,kind:delayed}")),
                0u)
          << "the laggard never actually delayed a frame";
    }
    return parse_report(client_out);
  };

  const auto baseline = run_cluster("baseline", false);
  const auto attacked = run_cluster("laggard", true);

  ASSERT_TRUE(baseline.contains("p50_latency_ms") && baseline.contains("p99_latency_ms"));
  ASSERT_TRUE(attacked.contains("p50_latency_ms") && attacked.contains("p99_latency_ms"));
  const double base_p50 = std::stod(baseline.at("p50_latency_ms"));
  const double base_p99 = std::stod(baseline.at("p99_latency_ms"));
  const double atk_p50 = std::stod(attacked.at("p50_latency_ms"));
  const double atk_p99 = std::stod(attacked.at("p99_latency_ms"));

  // Lower bound: the leader's held frames sit on the commit path, so the
  // median must absorb most of one lag and clearly degrade from baseline.
  EXPECT_GE(atk_p50, static_cast<double>(kLagMs) * 0.6)
      << "laggard p50 " << atk_p50 << "ms does not reflect a " << kLagMs << "ms hold";
  EXPECT_GE(atk_p50, 2.0 * base_p50)
      << "laggard p50 " << atk_p50 << "ms vs baseline " << base_p50
      << "ms: degradation factor under 2x";
  // Upper bound: a fixed lag must not compound — the tail stays within a few
  // held rounds of the honest tail (generous so CI jitter cannot trip it).
  EXPECT_LE(atk_p99, base_p99 + 25.0 * static_cast<double>(kLagMs))
      << "laggard p99 " << atk_p99 << "ms blew past baseline " << base_p99
      << "ms + 25 lags";
}

// --- chaos proxy partition schedules -----------------------------------------

TEST(ChaosWire, ProxyRejectsMalformedMetricsAddr) {
  const auto dir = temp_dir();
  const auto port = std::to_string(pick_free_ports(1)[0]);
  for (const char* addr : {":99999", ":abc", "127.0.0.1:80x"}) {
    EXPECT_EQ(wait_exit(spawn_process(CHAOS_PROXY_BIN, dir + "/proxy.out",
                                      {"--route", port + ":127.0.0.1:1", "--run-for", "0",
                                       "--metrics-addr", addr})),
              2)
        << addr;
  }
}

namespace {

struct PartitionWindow {
  std::uint64_t start_ms = 0;
  std::uint64_t duration_ms = 0;
};

/// Runs a 4-replica cluster where replica 3 reaches peers 0..2 only through a
/// chaos_proxy, severs those links on `windows`, and drives client load
/// before, during, and after. Asserts digest convergence (including the
/// partitioned replica), client progress in every phase, and that the
/// attacked links actually flapped. `expect_gap_pull` additionally asserts
/// the long-outage machinery engaged: replica 3 filled its checkpoint gap
/// via state transfer, and the small-buffered replica 2 visibly shed frames
/// toward it. (Short flapping windows are meant to heal through the live
/// path, where neither necessarily triggers.)
void run_partition_scenario(const std::vector<PartitionWindow>& windows,
                            std::uint64_t resume_ms, std::uint64_t during_requests,
                            bool expect_gap_pull) {
  const auto dir = temp_dir();
  const auto ports = pick_free_ports(7);  // 4 node ports + 3 proxy listen ports
  const std::vector<std::uint16_t> node_ports(ports.begin(), ports.begin() + 4);

  // A low parallel-instance cap makes checkpoints land every 4 sequence
  // numbers, so the post-heal phase reliably crosses a checkpoint boundary
  // and replica 3 exercises adopt-checkpoint + gap pull.
  ManifestOpts base;
  base.max_parallel_instances = 8;
  const auto manifest = write_manifest(dir, node_ports, base);

  // Replica 2 runs a deliberately small per-peer buffer so its frames toward
  // the unreachable replica 3 visibly shed (the others keep the default and
  // carry the state-transfer shards).
  ManifestOpts small = base;
  small.extra = {"peer_buffer_bytes 6144"};
  const auto manifest_small = write_manifest(dir, node_ports, small, "cluster_small.conf");

  // Replica 3 dials every peer through the proxy.
  ManifestOpts proxied = base;
  for (std::size_t peer = 0; peer < 3; ++peer) {
    proxied.extra.push_back("proxy " + std::to_string(peer) + " 127.0.0.1:" +
                            std::to_string(ports[4 + peer]));
  }
  const auto manifest_proxy = write_manifest(dir, node_ports, proxied, "cluster_proxy.conf");

  // Proxy: one route per link, every route partitioned on the same schedule.
  std::vector<std::string> proxy_args;
  for (std::size_t peer = 0; peer < 3; ++peer) {
    proxy_args.push_back("--route");
    proxy_args.push_back(std::to_string(ports[4 + peer]) + ":127.0.0.1:" +
                         std::to_string(node_ports[peer]));
  }
  for (const auto& w : windows) {
    for (std::size_t peer = 0; peer < 3; ++peer) {
      proxy_args.push_back("--partition");
      proxy_args.push_back(std::to_string(ports[4 + peer]) + "@" +
                           std::to_string(w.start_ms) + "+" + std::to_string(w.duration_ms));
    }
  }
  ProxyHandle proxy;
  proxy.out = dir + "/proxy.out";
  const auto t0 = Clock::now();  // partition schedule is relative to proxy start
  proxy.pid = spawn_process(CHAOS_PROXY_BIN, proxy.out, proxy_args);

  const auto data_dir = [&](std::size_t id) { return dir + "/data" + std::to_string(id); };
  ReplicaSet cluster;
  cluster.start(0, manifest, dir, data_dir(0));
  cluster.start(1, manifest, dir, data_dir(1));
  cluster.start(2, manifest_small, dir, data_dir(2));
  cluster.start(3, manifest_proxy, dir, data_dir(3));

  // Phase 1: healthy traffic before the first window.
  ASSERT_EQ(run_client(manifest, dir + "/client1.out", 100, 150, 500), 0)
      << "no progress before the partition";

  // Phase 2: heavy traffic while replica 3 is cut off. The client still dials
  // replica 3 directly; its requests there stall and rotate to live replicas.
  sleep_until_ms(t0, windows.front().start_ms + 500);
  ASSERT_EQ(run_client(manifest, dir + "/client2.out", 101, during_requests, 500), 0)
      << "quorum of connected replicas lost progress during the partition";

  // Phase 3: post-heal traffic that crosses a checkpoint boundary, forcing
  // the partitioned replica through adopt-checkpoint and the gap pull.
  sleep_until_ms(t0, resume_ms);
  ASSERT_EQ(run_client(manifest, dir + "/client3.out", 102, 200, 500), 0)
      << "no progress after the partition healed";
  ::usleep(3000 * 1000);  // catch-up rounds for replica 3

  const auto reports = cluster.stop_all(4);
  const auto proxy_report = proxy.stop();

  for (std::size_t id = 1; id < 4; ++id) {
    ASSERT_TRUE(reports[id].contains("exec_digest")) << "replica " << id;
    EXPECT_EQ(reports[id].at("exec_digest"), reports[0].at("exec_digest"))
        << "replica " << id << " diverged after partition heal";
  }
  EXPECT_EQ(reports[3].at("sync_live"), "1");
  // The partitioned replica's broken proxy dials were retried...
  std::uint64_t reconnects = 0;
  for (const std::uint32_t peer : {0u, 1u, 2u}) {
    reconnects += peer_series(reports[3], "leopard_net_peer_reconnects_total", peer);
  }
  EXPECT_GT(reconnects, 0u) << "replica 3 reported no reconnect attempts";
  if (expect_gap_pull) {
    // ...it rejoined through adopt-checkpoint + state transfer...
    EXPECT_GT(std::stoull(reports[3].at("leopard_sync_entries_total")), 0u)
        << "replica 3 never pulled the partition gap";
    // ...and the small-buffered honest replica shed frames toward it.
    EXPECT_GT(peer_series(reports[2], "leopard_net_peer_shed_frames_total", 3), 0u)
        << "replica 2 reported no shed frames toward the partitioned peer";
  }

  const auto expected_partitions = 3 * windows.size();
  EXPECT_EQ(proxy_report.at("role"), "chaos_proxy");
  EXPECT_EQ(std::stoull(proxy_report.at("leopard_proxy_partitions_started_total")),
            expected_partitions);
  EXPECT_EQ(std::stoull(proxy_report.at("leopard_proxy_partitions_healed_total")),
            expected_partitions);
  EXPECT_GT(std::stoull(proxy_report.at("leopard_proxy_links_opened_total")), 0u);
  EXPECT_GT(std::stoull(proxy_report.at("leopard_proxy_chunks_forwarded_total")), 0u);
}

}  // namespace

TEST(ChaosWire, ProxySingleLongPartitionHealsToAgreement) {
  run_partition_scenario({{2500, 6000}}, /*resume_ms=*/9200, /*during_requests=*/600,
                         /*expect_gap_pull=*/true);
}

TEST(ChaosWire, ProxyFlappingPartitionsHealToAgreement) {
  run_partition_scenario({{2500, 1500}, {5500, 1500}}, /*resume_ms=*/7500,
                         /*during_requests=*/400, /*expect_gap_pull=*/false);
}
