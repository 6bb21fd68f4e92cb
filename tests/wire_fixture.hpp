// Shared fixture of the loopback wire tests (socket_cluster_test,
// chaos_wire_test): free ports, manifests, forked leopard_node replicas and
// clients, and the key=value reports they print on exit.
//
// A report is the node's fields followed by its obs::Registry series under
// obs::flat_key names, e.g. `leopard_net_peer_shed_frames_total{peer:3}`.
#pragma once

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#ifndef LEOPARD_NODE_BIN
#error "CMake must define LEOPARD_NODE_BIN (path to the leopard_node binary)"
#endif

namespace leopard::wiretest {

using Report = std::map<std::string, std::string>;

/// Picks `count` distinct free ports, holding every probe socket open until
/// all are chosen so the kernel cannot hand the same ephemeral port twice.
/// (The window between closing and the daemon rebinding is still racy in
/// principle, but just-released ephemeral ports are not reused eagerly.)
inline std::vector<std::uint16_t> pick_free_ports(std::size_t count) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ports.push_back(ntohs(addr.sin_port));
    fds.push_back(fd);
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

inline std::string temp_dir() {
  char tmpl[] = "/tmp/leopard_wire_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

struct ManifestOpts {
  std::string protocol = "leopard";
  std::uint32_t shards = 1;
  std::uint32_t view_timeout_ms = 60000;  // generous: no spurious view changes under ASan
  std::uint32_t max_parallel_instances = 40;
  std::vector<std::string> extra = {};  // proxy overrides, peer_buffer_bytes, ...
};

/// Writes `dir/name`. Per-node manifests differ only in the extra lines
/// (proxy dial overrides, buffer caps), so each variant gets its own name.
inline std::string write_manifest(const std::string& dir, const std::vector<std::uint16_t>& ports,
                                  const ManifestOpts& opts = {},
                                  const std::string& name = "cluster.conf") {
  const auto path = dir + "/" + name;
  std::ofstream out(path);
  out << "protocol " << opts.protocol << "\n"
      << "n " << ports.size() << "\n"
      << "seed 7\n"
      << "payload_size 64\n"
      << "datablock_requests 50\n"
      << "bftblock_links 4\n"
      << "max_parallel_instances " << opts.max_parallel_instances << "\n"
      << "datablock_max_wait_ms 20\n"
      << "proposal_max_wait_ms 10\n"
      << "retrieval_timeout_ms 20\n"
      << "view_timeout_ms " << opts.view_timeout_ms << "\n"
      << "batch_size 50\n"
      << "shards " << opts.shards << "\n";
  for (std::size_t id = 0; id < ports.size(); ++id) {
    out << "node " << id << " 127.0.0.1:" << ports[id] << "\n";
  }
  for (const auto& line : opts.extra) out << line << "\n";
  return path;
}

/// Forks `bin args...` with stdout and stderr redirected to `out_path`.
inline pid_t spawn_process(const char* bin, const std::string& out_path,
                           std::vector<std::string> args) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int fd = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ::dup2(fd, 1);
  ::dup2(fd, 2);
  ::close(fd);
  std::vector<std::string> full = {bin};
  for (auto& a : args) full.push_back(std::move(a));
  std::vector<char*> argv;
  argv.reserve(full.size() + 1);
  for (auto& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(bin, argv.data());
  std::perror("execv");
  ::_exit(127);
}

inline int wait_exit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

/// Parses a key=value report (whitespace-separated tokens across lines, each
/// split at its first '=').
inline Report parse_report(const std::string& path) {
  std::ifstream in(path);
  Report kv;
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq != std::string::npos) kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

/// A per-peer registry counter from a report, e.g.
/// peer_series(r, "leopard_net_peer_shed_frames_total", 3). Throws when the
/// series is missing, so a renamed series fails the test instead of reading 0.
inline std::uint64_t peer_series(const Report& report, const std::string& family,
                                 std::uint32_t peer) {
  return std::stoull(report.at(family + "{peer:" + std::to_string(peer) + "}"));
}

/// Forked replicas, killed on scope exit so a failed ASSERT cannot leak a
/// daemon into later tests.
struct ReplicaSet {
  std::vector<pid_t> pids;  // index = replica id; -1 when not running
  std::vector<std::string> outs;

  ~ReplicaSet() {
    for (const auto pid : pids) {
      if (pid > 0) ::kill(pid, SIGKILL);
    }
    for (const auto pid : pids) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
  }

  /// `data_dir` non-empty enables the durable store (and boot recovery when
  /// the directory already holds a WAL from a previous incarnation).
  /// `extra_args` go to the daemon verbatim (e.g. {"--io-threads", "2"}).
  void start(std::size_t id, const std::string& manifest, const std::string& dir,
             const std::string& data_dir = "", std::vector<std::string> extra_args = {}) {
    outs.resize(std::max(outs.size(), id + 1));
    pids.resize(std::max(pids.size(), id + 1), -1);
    outs[id] = dir + "/replica" + std::to_string(id) + "_" + std::to_string(::getpid()) + "_" +
               std::to_string(next_out_++) + ".out";
    std::vector<std::string> args = {"--manifest", manifest, "--id", std::to_string(id)};
    if (!data_dir.empty()) {
      args.push_back("--data-dir");
      args.push_back(data_dir);
    }
    for (auto& a : extra_args) args.push_back(std::move(a));
    pids[id] = spawn_process(LEOPARD_NODE_BIN, outs[id], std::move(args));
  }

  /// SIGTERM + reap: the daemon prints its report on the way out.
  int stop(std::size_t id) {
    ::kill(pids[id], SIGTERM);
    const int rc = wait_exit(pids[id]);
    pids[id] = -1;
    return rc;
  }

  /// Stops replicas 0..n-1 in order, expecting each to exit cleanly, and
  /// returns their reports.
  std::vector<Report> stop_all(std::size_t n) {
    std::vector<Report> reports;
    for (std::size_t id = 0; id < n; ++id) {
      EXPECT_EQ(stop(id), 0) << "replica " << id << " did not exit cleanly";
      reports.push_back(parse_report(outs[id]));
    }
    return reports;
  }

  void kill_hard(std::size_t id) {
    ::kill(pids[id], SIGKILL);
    ::waitpid(pids[id], nullptr, 0);
    pids[id] = -1;
  }

 private:
  int next_out_ = 0;
};

/// Runs the closed-loop client to completion; returns its exit code.
inline int run_client(const std::string& manifest, const std::string& out_path,
                      std::uint32_t id, std::uint32_t requests,
                      std::uint32_t resubmit_ms = 1000) {
  const pid_t pid = spawn_process(
      LEOPARD_NODE_BIN, out_path,
      {"--manifest", manifest, "--client", "--id", std::to_string(id), "--requests",
       std::to_string(requests), "--window", "32", "--timeout", "90", "--resubmit-ms",
       std::to_string(resubmit_ms)});
  return wait_exit(pid);
}

}  // namespace leopard::wiretest
