// Shared fixture of the loopback wire tests (socket_cluster_test,
// chaos_wire_test): the test cluster manifest, in-process clusters
// (node::LoopbackCluster) and their key=value reports, and forked processes
// for the tests that check a binary itself (leopard_node, chaos_proxy).
//
// A report is the node's fields followed by its obs::Registry series under
// obs::flat_key names, e.g. `leopard_net_peer_shed_frames_total{peer:3}` —
// what leopard_node prints on SIGTERM.
#pragma once

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "net/manifest.hpp"
#include "node/node.hpp"

namespace leopard::wiretest {

using Report = std::map<std::string, std::string>;

inline std::string temp_dir() {
  char tmpl[] = "/tmp/leopard_wire_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

/// The small, fast cluster every wire test runs: n = 4, 50-request
/// datablocks, and a view timeout generous enough that ASan never causes a
/// spurious view change.
inline net::Manifest test_manifest(const std::string& protocol = "leopard") {
  net::Manifest m;
  m.protocol = protocol;
  m.n = 4;
  m.seed = 7;
  m.payload_size = 64;
  m.datablock_requests = 50;
  m.bftblock_links = 4;
  m.max_parallel_instances = 40;
  m.datablock_max_wait = 20 * sim::kMillisecond;
  m.proposal_max_wait = 10 * sim::kMillisecond;
  m.retrieval_timeout = 20 * sim::kMillisecond;
  m.view_timeout = 60 * sim::kSecond;
  m.batch_size = 50;
  return m;
}

/// Writes `m` as a manifest file `dir/cluster.conf` on loopback `ports`,
/// for the tests that start leopard_node itself.
inline std::string write_manifest(const std::string& dir, const net::Manifest& m,
                                  const std::vector<std::uint16_t>& ports) {
  const auto ms = [](sim::SimTime t) { return std::to_string(t / sim::kMillisecond); };
  const auto path = dir + "/cluster.conf";
  std::ofstream out(path);
  out << "protocol " << m.protocol << "\nn " << m.n << "\nseed " << m.seed
      << "\npayload_size " << m.payload_size << "\ndatablock_requests " << m.datablock_requests
      << "\nbftblock_links " << m.bftblock_links << "\nmax_parallel_instances "
      << m.max_parallel_instances << "\ndatablock_max_wait_ms " << ms(m.datablock_max_wait)
      << "\nproposal_max_wait_ms " << ms(m.proposal_max_wait) << "\nretrieval_timeout_ms "
      << ms(m.retrieval_timeout) << "\nview_timeout_ms " << ms(m.view_timeout)
      << "\nbatch_size " << m.batch_size << "\nshards " << m.shards << "\n";
  for (std::size_t id = 0; id < ports.size(); ++id) {
    out << "node " << id << " 127.0.0.1:" << ports[id] << "\n";
  }
  return path;
}

/// Parses a key=value report (whitespace-separated tokens across lines, each
/// split at its first '=').
inline Report parse_report(const std::string& text) {
  std::istringstream in(text);
  Report kv;
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq != std::string::npos) kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A per-peer registry counter from a report, e.g.
/// peer_series(r, "leopard_net_peer_shed_frames_total", 3). Throws when the
/// series is missing, so a renamed series fails the test instead of reading 0.
inline std::uint64_t peer_series(const Report& report, const std::string& family,
                                 std::uint32_t peer) {
  return std::stoull(report.at(family + "{peer:" + std::to_string(peer) + "}"));
}

/// Stops replica `id` and returns its report.
inline Report stop_report(node::LoopbackCluster& cluster, sim::NodeId id) {
  return parse_report(node::render_fields(cluster.stop(id)) + cluster.final_series(id));
}

/// Stops replicas 0..n-1 in order and returns their reports.
inline std::vector<Report> stop_all(node::LoopbackCluster& cluster) {
  std::vector<Report> reports;
  for (sim::NodeId id = 0; id < cluster.manifest().n; ++id) {
    reports.push_back(stop_report(cluster, id));
  }
  return reports;
}

/// Runs a closed-loop client (window 32) to completion and returns its
/// report; every request acked shows as acked == requests.
inline Report run_client(node::LoopbackCluster& cluster, sim::NodeId id,
                         std::uint64_t requests, std::uint32_t resubmit_ms = 1000) {
  return parse_report(node::render_fields(cluster.run_client(
      {.id = id, .requests = requests, .window = 32, .resubmit_ms = resubmit_ms,
       .timeout = 90})));
}

/// A forked `bin args...` with stdout and stderr redirected to `out`,
/// SIGKILLed on scope exit so a failed ASSERT cannot leak it into later tests.
struct Process {
  pid_t pid = -1;
  std::string out;

  Process(const char* bin, std::string out_path, std::vector<std::string> args)
      : pid(::fork()), out(std::move(out_path)) {
    if (pid != 0) return;
    const int fd = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::close(fd);
    args.insert(args.begin(), bin);
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(bin, argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      wait();
    }
  }

  /// Reaps the process: its exit code, or minus the signal that ended it.
  int wait() {
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  }

  /// SIGTERM + wait.
  int stop() {
    ::kill(pid, SIGTERM);
    return wait();
  }
};

}  // namespace leopard::wiretest
