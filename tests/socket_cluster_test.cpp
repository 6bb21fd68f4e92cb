// Loopback deployment integration: a 4-node cluster on real TCP on
// 127.0.0.1 (node::LoopbackCluster: every replica in this process, one
// thread each) plus the closed-loop client, for all three protocol specs.
// Asserts end-to-end commits, clean shutdown, and identical Execute-fold
// digests across replicas — and that the cluster survives one follower
// stopped and restarted on its data dir. The daemon's own contract (flag
// rejection, the SIGTERM report against /statusz) is checked on forked
// leopard_node processes.
//
// This is also the CI loopback smoke job: the whole test runs under ASan in
// the sanitize workflow, and under TSan.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/worker_pool.hpp"
#include "wire_fixture.hpp"

#ifndef LEOPARD_NODE_BIN
#error "CMake must define LEOPARD_NODE_BIN (path to the leopard_node binary)"
#endif

namespace {

using namespace leopard::wiretest;

/// Blocking one-shot HTTP GET against a daemon's observability endpoint.
/// Empty string on connect/read failure (caller retries — the endpoint comes
/// up with the event loop).
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + target + " HTTP/1.0\r\nHost: t\r\n\r\n";
  if (::send(fd, req.data(), req.size(), 0) != static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return "";
  }
  std::string response;
  char buf[8192];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Body after the HTTP header; empty when the response is not a 200.
std::string http_body(const std::string& response) {
  if (response.find("200") == std::string::npos) return "";
  const auto sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? "" : response.substr(sep + 4);
}

/// Value of an unlabeled series in Prometheus exposition text, -1 if absent.
double scrape_value(const std::string& body, const std::string& name) {
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) return std::stod(line.substr(name.size() + 1));
  }
  return -1.0;
}

/// The member keys of a /statusz body: its top-level fields, and the series
/// keys of its `metrics` object. A scanner, not a parser: it relies on the
/// body being well-formed JSON whose strings escape only '"' and '\\'.
struct StatuszKeys {
  std::set<std::string> fields;
  std::set<std::string> series;
};
StatuszKeys statusz_keys(const std::string& json) {
  StatuszKeys keys;
  std::vector<std::string> open;  // per open container: the key it is the value of
  std::string last_key;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{' || c == '[') {
      open.push_back(last_key);
      last_key.clear();
    } else if (c == '}' || c == ']') {
      open.pop_back();
    } else if (c == '"') {
      std::string text;
      for (++i; i < json.size() && json[i] != '"'; ++i) {
        if (json[i] == '\\') ++i;
        text += json[i];
      }
      if (i + 1 < json.size() && json[i + 1] == ':') {
        last_key = text;
        if (open.size() == 1) keys.fields.insert(text);
        if (open.size() == 2 && open[1] == "metrics") keys.series.insert(text);
      }
    }
  }
  return keys;
}

/// Every key of a shutdown report must be readable live: a /statusz field of
/// the same name, or a /statusz series whose obs::flat_key is the key (for a
/// histogram, the key minus its `.count`/`.p50`/... suffix). Values may differ.
void expect_report_keys_in_statusz(const Report& report, const std::string& statusz,
                                   const std::string& who) {
  const auto keys = statusz_keys(statusz);
  ASSERT_FALSE(keys.fields.empty()) << who << ": no /statusz fields";
  ASSERT_FALSE(keys.series.empty()) << who << ": no /statusz series";
  std::set<std::string> flat;
  for (const auto& series : keys.series) flat.insert(leopard::obs::flat_key(series));
  for (const auto& [key, value] : report) {
    const auto dot = key.rfind('.');
    const bool found = keys.fields.contains(key) || flat.contains(key) ||
                       (dot != std::string::npos && flat.contains(key.substr(0, dot)));
    EXPECT_TRUE(found) << who << " report key '" << key << "' is not in /statusz";
  }
}

/// A 4-replica cluster with durable stores, replica i on `io_threads[i]`,
/// commits 300 client requests. Checks what every spec must show — every
/// request acked and executed, one merged exec_digest and one digest per
/// shard, WAL entries and no decode or store errors, state sync live — and
/// returns the replicas' reports.
std::vector<Report> expect_commits(const leopard::net::Manifest& manifest,
                                   const std::array<std::uint32_t, 4>& io_threads) {
  const auto dir = temp_dir();
  leopard::node::LoopbackCluster cluster(manifest);
  for (leopard::sim::NodeId id = 0; id < 4; ++id) {
    cluster.start({.id = id, .io_threads = io_threads[id],
                   .data_dir = dir + "/data" + std::to_string(id)});
  }
  // The manifest sized the process-wide worker pool, and no core resized it.
  EXPECT_EQ(leopard::util::WorkerPool::global().lanes(), manifest.encode_workers);

  const auto client = run_client(cluster, 100, 300);
  EXPECT_EQ(client.at("acked"), "300") << "client did not get every request acked";
  EXPECT_EQ(client.at("shards"), std::to_string(manifest.shards));

  // The final ack proves SOME replica executed; give the others a beat to
  // drain the last commit-carrying broadcasts before the digest snapshot
  // (a scheduler stall under ASan could otherwise flake the comparison).
  // Sharded, the stall ticks also need it to flush the trailing (unproven)
  // rounds through no-op fill so every real commit reaches the merged stream.
  ::usleep((manifest.shards > 1 ? 1000 : 500) * 1000);

  const auto reports = stop_all(cluster);
  for (std::size_t id = 0; id < 4; ++id) {
    EXPECT_EQ(reports[id].at("shards"), std::to_string(manifest.shards)) << "replica " << id;
    EXPECT_EQ(reports[id].at("exec_digest"), reports[0].at("exec_digest"))
        << "replica " << id << " diverged on the merged stream";
    for (std::uint32_t s = 0; s < manifest.shards; ++s) {
      const auto key = "shard" + std::to_string(s) + "_digest";
      EXPECT_EQ(reports[id].at(key), reports[0].at(key))
          << "replica " << id << " diverged on " << key;
    }
    // All 300 real requests merged (no-op filler may add more on top).
    EXPECT_GE(std::stoull(reports[id].at("executed_requests")), 300u) << "replica " << id;
    EXPECT_EQ(reports[id].at("decode_errors"), "0") << "replica " << id;
    // The WAL recorded the executed stream, cleanly.
    EXPECT_GT(std::stoull(reports[id].at("leopard_store_entries")), 0u) << "replica " << id;
    EXPECT_EQ(reports[id].at("store_append_errors"), "0") << "replica " << id;
    EXPECT_EQ(reports[id].at("sync_live"), "1") << "replica " << id;
  }
  return reports;
}

void expect_cluster_commits(const std::string& protocol) {
  // Every replica persists: the commit path runs through the WAL in all
  // protocol specs, not just the crash-recovery test. Replica 3 asks for
  // io-threads it cannot use: one instance runs on the transport thread. The
  // four replicas share one 3-lane worker pool, dispatching into it at once.
  auto manifest = test_manifest(protocol);
  manifest.encode_workers = 3;
  const auto reports = expect_commits(manifest, {1, 1, 1, 4});
  std::uint64_t proposals = 0;
  for (std::size_t id = 0; id < 4; ++id) {
    // One shard: the sequencer passes records through, so the stall tick
    // never puts filler requests into the executed stream.
    EXPECT_EQ(reports[id].at("noops_injected"), "0") << "replica " << id;
    EXPECT_EQ(reports[id].at("io_threads"), "1") << "replica " << id;
    if (protocol == "leopard") {
      EXPECT_EQ(reports[id].at("state_digest"), reports[0].at("state_digest"));
      // A quiet run never skips a checkpointed range, and every optimistic
      // vote combine succeeds.
      EXPECT_EQ(reports[id].at("leopard_checkpoint_adoptions_total{kind:skipped}"), "0")
          << "replica " << id;
      EXPECT_EQ(reports[id].at("leopard_vote_combine_fallbacks_total"), "0")
          << "replica " << id;
      for (const char* trigger : {"full", "idle", "timer"}) {
        proposals += std::stoull(
            reports[id].at(std::string("leopard_proposals_total{trigger:") + trigger + "}"));
      }
    }
  }
  if (protocol == "leopard") {
    EXPECT_GT(proposals, 0u) << "no proposal was counted";
  }
}

/// The durable-state acceptance bar: stop follower 3, keep committing,
/// restart it on its original data dir, and require ALL FOUR replicas
/// digest-equal on the (merged) Execute stream. At S = 2 replica 3 hosts
/// shard-0 core 3 and shard-1 core 2, so its absence wounds BOTH consensus
/// instances at once; each tolerates it (f = 1).
void expect_follower_recovers(std::uint32_t shards) {
  const auto dir = temp_dir();
  auto manifest = test_manifest();
  manifest.shards = shards;
  leopard::node::LoopbackCluster cluster(manifest);
  const auto data_dir = [&](leopard::sim::NodeId id) {
    return dir + "/data" + std::to_string(id);
  };
  for (leopard::sim::NodeId id = 0; id < 4; ++id) {
    cluster.start({.id = id, .data_dir = data_dir(id)});
  }

  // Phase 1: healthy cluster commits.
  ASSERT_EQ(run_client(cluster, 100, 150).at("acked"), "150");

  // Phase 2: stop follower 3 (the leader of view 1 is replica 1).
  // µ(req) keeps routing a quarter of the load at the stopped replica; the
  // client's re-submission rotation carries those requests to live ones.
  cluster.stop(3);
  ASSERT_EQ(run_client(cluster, 101, 150, /*resubmit_ms=*/500).at("acked"), "150")
      << "cluster must keep committing with one follower down";

  // Phase 3: restart the follower on its ORIGINAL data dir. It must recover
  // the phase-1 prefix from its WAL, pull the phase-2 suffix from peers via
  // state transfer, and go live — while the survivors keep serving.
  cluster.start({.id = 3, .data_dir = data_dir(3)});
  ASSERT_EQ(run_client(cluster, 102, 100, /*resubmit_ms=*/500).at("acked"), "100")
      << "cluster must keep committing after the follower rejoined";

  // Settle long enough for the follower's final catch-up round after the
  // load quiesces (probe/pull cycles run at network speed once offers land)
  // and for the stall ticks to flush the trailing rounds of every shard.
  ::usleep(2000 * 1000);
  const auto reports = stop_all(cluster);
  // ALL FOUR replicas — including the restarted one — agree on
  // the executed stream: the follower's digest folds phase 1 (recovered),
  // phase 2 (transferred), and phase 3 (lived) into the survivors' chain.
  for (std::size_t id = 1; id < 4; ++id) {
    EXPECT_EQ(reports[id].at("exec_digest"), reports[0].at("exec_digest"))
        << "replica " << id << " diverged";
    EXPECT_EQ(reports[id].at("executed_blocks"), reports[0].at("executed_blocks"))
        << "replica " << id;
  }
  EXPECT_GE(std::stoull(reports[0].at("executed_requests")), 400u);
  EXPECT_EQ(reports[0].at("decode_errors"), "0");

  // The follower actually exercised both recovery paths against the merged
  // stream: a non-empty WAL prefix reloaded at boot, and entries pulled from
  // peers.
  const auto& follower = reports[3];
  EXPECT_GT(std::stoull(follower.at("leopard_store_recovered_entries")), 0u)
      << "restart did not recover from the WAL";
  EXPECT_GT(std::stoull(follower.at("leopard_sync_entries_total")), 0u)
      << "restart did not use state transfer to fill the gap";
  EXPECT_EQ(follower.at("sync_live"), "1");
  EXPECT_EQ(follower.at("sync_verify_failures"), "0");
}

}  // namespace

TEST(SocketCluster, LeopardCommitsEndToEnd) { expect_cluster_commits("leopard"); }

TEST(SocketCluster, HotStuffCommitsEndToEnd) { expect_cluster_commits("hotstuff"); }

TEST(SocketCluster, PbftCommitsEndToEnd) { expect_cluster_commits("pbft"); }

TEST(SocketCluster, DaemonRejectsMalformedIdAndMetricsAddr) {
  // Usage errors exit 2 before the node binds anything: `--id 2x` used to
  // start replica 2, `:99999` to listen on port 34463, `:abc` on an
  // ephemeral port, `--shards 2x` to start 2 shards and `--run-for abc` to
  // run for zero seconds.
  const auto dir = temp_dir();
  const auto manifest = write_manifest(dir, test_manifest(), leopard::node::pick_free_ports(4));
  const std::vector<std::vector<std::string>> bad = {
      {"--id", "2x"},
      {"--id", ""},
      {"--id", "1", "--metrics-addr", "127.0.0.1:99999"},
      {"--id", "1", "--metrics-addr", ":abc"},
      {"--id", "1", "--metrics-addr", "9100junk"},
      {"--id", "1", "--shards", "2x"},
      {"--id", "1", "--io-threads", "3junk"},
      {"--id", "1", "--run-for", "abc"},
      {"--id", "100", "--client", "--requests", "5x"},
  };
  for (const auto& extra : bad) {
    std::vector<std::string> args = {"--manifest", manifest, "--run-for", "0"};
    args.insert(args.end(), extra.begin(), extra.end());
    EXPECT_EQ(Process(LEOPARD_NODE_BIN, dir + "/bad.out", args).wait(), 2)
        << extra[extra.size() - 2] << " " << extra.back();
  }
}

TEST(SocketCluster, LiveObservabilityEndpointsServeAllThreeRoutes) {
  // End-to-end scrape: every replica runs with --metrics-addr and must answer
  // /healthz, /metrics (well-formed Prometheus text), and /statusz (JSON)
  // while committing. The executed-height gauge must be monotone across
  // scrapes and reach the client's total, and every key of a replica's and
  // a client's shutdown report must be on the /statusz it served last.
  // These are leopard_node processes: the report checked is the one the
  // daemon prints on SIGTERM.
  const auto dir = temp_dir();
  const auto ports = leopard::node::pick_free_ports(9);
  const std::vector<std::uint16_t> node_ports(ports.begin(), ports.begin() + 4);
  const std::vector<std::uint16_t> obs_ports(ports.begin() + 4, ports.begin() + 8);
  const std::uint16_t client_obs_port = ports[8];
  const auto manifest = write_manifest(dir, test_manifest(), node_ports);

  std::vector<std::unique_ptr<Process>> replicas;
  for (std::size_t id = 0; id < 4; ++id) {
    replicas.push_back(std::make_unique<Process>(
        LEOPARD_NODE_BIN, dir + "/replica" + std::to_string(id) + ".out",
        std::vector<std::string>{"--manifest", manifest, "--id", std::to_string(id),
                                 "--data-dir", dir + "/data" + std::to_string(id),
                                 "--metrics-addr", "127.0.0.1:" + std::to_string(obs_ports[id]),
                                 "--trace-sample", "4"}));
  }

  // Health gate: all four endpoints answer before any traffic flows.
  for (std::size_t id = 0; id < 4; ++id) {
    std::string health;
    for (int attempt = 0; attempt < 100 && health.find("ok") == std::string::npos;
         ++attempt) {
      health = http_body(http_get(obs_ports[id], "/healthz"));
      if (health.empty()) ::usleep(100 * 1000);
    }
    ASSERT_NE(health.find("ok"), std::string::npos) << "replica " << id << " unhealthy";
  }

  const auto before = scrape_value(http_body(http_get(obs_ports[0], "/metrics")),
                                   "leopard_executed_through");
  ASSERT_GE(before, 0.0) << "leopard_executed_through gauge missing";

  Process client(LEOPARD_NODE_BIN, dir + "/client.out",
                 {"--manifest", manifest, "--client", "--id", "100", "--requests", "300",
                  "--window", "32", "--timeout", "90"});
  ASSERT_EQ(client.wait(), 0);
  EXPECT_EQ(parse_report(read_file(client.out)).at("acked"), "300");

  for (std::size_t id = 0; id < 4; ++id) {
    const auto body = http_body(http_get(obs_ports[id], "/metrics"));
    ASSERT_FALSE(body.empty()) << "replica " << id << " /metrics not a 200";

    // Prometheus well-formedness: every line is a comment or "series value",
    // every series was announced by a preceding # TYPE for its family.
    std::set<std::string> typed;
    std::istringstream in(body);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (line.rfind("# TYPE ", 0) == 0) {
        std::istringstream ts(line.substr(7));
        std::string fam;
        ts >> fam;
        typed.insert(fam);
        continue;
      }
      if (line[0] == '#') {
        EXPECT_EQ(line.rfind("# HELP ", 0), 0u) << "stray comment: " << line;
        continue;
      }
      const auto sp = line.rfind(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      EXPECT_NO_THROW(std::stod(line.substr(sp + 1))) << line;
      auto series = line.substr(0, sp);
      const auto brace = series.find('{');
      if (brace != std::string::npos) series = series.substr(0, brace);
      // Histogram sample suffixes belong to the histogram family.
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        const std::string s = suffix;
        if (series.size() > s.size() &&
            series.compare(series.size() - s.size(), s.size(), s) == 0 &&
            typed.contains(series.substr(0, series.size() - s.size()))) {
          series = series.substr(0, series.size() - s.size());
          break;
        }
      }
      EXPECT_TRUE(typed.contains(series)) << "series without # TYPE: " << line;
    }

    // Transport counters are live on every replica.
    EXPECT_GT(scrape_value(body, "leopard_net_frames_sent_total"), 0.0) << id;
    EXPECT_GT(scrape_value(body, "leopard_net_bytes_received_total"), 0.0) << id;
    EXPECT_EQ(scrape_value(body, "leopard_safety_violation"), 0.0) << id;

    // /statusz is JSON with the node identity and the metrics dump.
    const auto statusz = http_body(http_get(obs_ports[id], "/statusz?traces=1"));
    ASSERT_FALSE(statusz.empty()) << "replica " << id << " /statusz not a 200";
    EXPECT_EQ(statusz.front(), '{') << id;
    EXPECT_NE(statusz.find("\"role\":\"replica\""), std::string::npos) << id;
    EXPECT_NE(statusz.find("\"exec_digest\":\""), std::string::npos) << id;
    // The single-instance keys, read from shard 0's core at S = 1.
    EXPECT_NE(statusz.find("\"state_digest\":\""), std::string::npos) << id;
    EXPECT_NE(statusz.find("\"view\":"), std::string::npos) << id;
    EXPECT_NE(statusz.find("\"executed_through\":"), std::string::npos) << id;
    EXPECT_NE(statusz.find("\"seq_emitted\":"), std::string::npos) << id;
    EXPECT_NE(statusz.find("\"peers\":["), std::string::npos) << id;
    EXPECT_NE(statusz.find("\"metrics\":{"), std::string::npos) << id;
    EXPECT_NE(statusz.find("\"traces\":{"), std::string::npos) << id;
    EXPECT_EQ(std::count(statusz.begin(), statusz.end(), '{'),
              std::count(statusz.begin(), statusz.end(), '}'))
        << "unbalanced JSON braces (replica " << id << ")";
  }

  // Monotone executed height: the post-commit scrape dominates the pre-commit
  // one and shows real progress.
  const auto after = scrape_value(http_body(http_get(obs_ports[0], "/metrics")),
                                  "leopard_executed_through");
  EXPECT_GE(after, before);
  EXPECT_GT(after, 0.0);
  EXPECT_GE(scrape_value(http_body(http_get(obs_ports[0], "/metrics")),
                         "leopard_executed_requests_total"),
            300.0)
      << "designated observer undercounted executions";

  // A client's report is a subset of its /statusz too: run one that cannot
  // finish, scrape it while it commits, then SIGTERM it for its report.
  Process load(
      LEOPARD_NODE_BIN, dir + "/client_load.out",
      {"--manifest", manifest, "--client", "--id", "101", "--requests", "1000000", "--window",
       "32", "--timeout", "90", "--metrics-addr",
       "127.0.0.1:" + std::to_string(client_obs_port)});
  std::string client_statusz;
  for (int attempt = 0; attempt < 100; ++attempt) {
    client_statusz = http_body(http_get(client_obs_port, "/statusz"));
    if (!client_statusz.empty() && client_statusz.find("\"acked\":0,") == std::string::npos) {
      break;
    }
    ::usleep(100 * 1000);
  }
  load.stop();
  EXPECT_NE(client_statusz.find("\"role\":\"client\""), std::string::npos);
  expect_report_keys_in_statusz(parse_report(read_file(load.out)), client_statusz, "client");

  // Each replica's report is a subset of the /statusz it served just before
  // SIGTERM.
  for (std::size_t id = 0; id < 4; ++id) {
    const auto statusz = http_body(http_get(obs_ports[id], "/statusz"));
    EXPECT_EQ(replicas[id]->stop(), 0) << id;
    expect_report_keys_in_statusz(parse_report(read_file(replicas[id]->out)), statusz,
                                  "replica " + std::to_string(id));
  }
}

// A one-request budget over two shards: the shard whose share is 0 must
// submit nothing (total_requests = 0 would read as "unlimited"), so the
// client acks its one request and finishes, which is leopard_node --client
// exiting 0.
TEST(SocketCluster, ShardedClientWithOneRequestFinishes) {
  auto manifest = test_manifest();
  manifest.shards = 2;
  leopard::node::LoopbackCluster cluster(manifest);
  for (leopard::sim::NodeId id = 0; id < 4; ++id) cluster.start({.id = id});

  leopard::obs::Registry registry;
  leopard::node::Client client(cluster.manifest(),
                               {.id = 100, .requests = 1, .window = 32, .timeout = 20},
                               registry);
  const auto report = parse_report(leopard::node::render_fields(client.run()));
  EXPECT_EQ(report.at("submitted"), "1");
  EXPECT_EQ(report.at("acked"), "1");
  EXPECT_TRUE(client.done());
}

// Two protocol shards multiplexed over the same TCP connections: every
// replica must agree per shard (shardK_digest) AND on the merged global
// stream (exec_digest), with every client request committed through one of
// the shards.
TEST(SocketCluster, ShardedLeopardCommitsEndToEnd) {
  auto manifest = test_manifest();
  manifest.shards = 2;
  const auto reports = expect_commits(manifest, {1, 1, 1, 1});
  for (std::size_t id = 0; id < 4; ++id) {
    // BOTH shards committed real traffic: the hash partition actually split
    // the load across instances.
    EXPECT_GT(std::stoull(reports[id].at("shard0_blocks")), 0u) << "replica " << id;
    EXPECT_GT(std::stoull(reports[id].at("shard1_blocks")), 0u) << "replica " << id;
  }
}

// The sharded spec again, but with every replica running its shard cores on
// per-instance io-threads (2, or 4 on replicas 2-3, which still start only
// min(4, S) = 2 workers): same per-shard digests, same merged exec_digest,
// zero decode errors. Agreement across the whole cluster is the determinism
// proof for the worker handoff — the Sequencer merges per-shard streams
// identically no matter which thread ran the core.
TEST(SocketCluster, ShardedLeopardCommitsWithIoThreads) {
  auto manifest = test_manifest();
  manifest.shards = 2;
  const auto reports = expect_commits(manifest, {2, 2, 4, 4});
  for (std::size_t id = 0; id < 4; ++id) {
    EXPECT_EQ(reports[id].at("io_threads"), "2") << "replica " << id << ": min(N, S) workers";
  }
}

TEST(SocketCluster, ShardedLeopardSurvivesStoppedAndRestartedFollower) {
  expect_follower_recovers(2);
}

TEST(SocketCluster, LeopardSurvivesStoppedAndRestartedFollower) { expect_follower_recovers(1); }
