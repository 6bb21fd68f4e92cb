// The loopback measurement bench_wire (io_threads section) and bench_shard
// (loopback section) share: a real 4-replica Leopard cluster on 127.0.0.1,
// run in process through node::LoopbackCluster on free ports.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <variant>

#include "net/manifest.hpp"
#include "node/node.hpp"

namespace leopard::bench {

/// End-to-end acked kreq/s of the cluster at `shards` shards with each
/// replica running `io_threads` instance workers: wall time of a closed-loop
/// client committing `requests` requests (includes dial + first-batch
/// rampup, so short runs understate). Single-host wall clock: a ratio of two
/// points is a scaling signal only when the machine has the cores to back
/// it. Returns < 0 on any failure — these sections are trajectory data, not
/// a gate.
inline double loopback_kreqs(std::uint32_t shards, std::uint32_t io_threads,
                             std::uint32_t requests) {
  net::Manifest m;
  m.protocol = "leopard";
  m.n = 4;
  m.seed = 7;
  m.payload_size = 128;
  m.datablock_requests = 200;
  m.bftblock_links = 8;
  m.datablock_max_wait = 5 * sim::kMillisecond;
  m.proposal_max_wait = 2 * sim::kMillisecond;
  m.view_timeout = 60 * sim::kSecond;
  m.batch_size = 100;
  m.shards = shards;

  node::LoopbackCluster cluster(m);
  for (sim::NodeId id = 0; id < m.n; ++id) cluster.start({.id = id, .io_threads = io_threads});
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const auto start = std::chrono::steady_clock::now();
  const auto fields =
      cluster.run_client({.id = 100, .requests = requests, .window = 1024, .timeout = 120});
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (sim::NodeId id = 0; id < m.n; ++id) cluster.stop(id);

  std::uint64_t acked = 0;
  for (const auto& [key, value] : fields) {
    if (key == "acked") acked = std::get<std::uint64_t>(value);
  }
  if (acked != requests || elapsed <= 0) {
    std::fprintf(stderr, "loopback S=%u io_threads=%u: client acked %llu of %u\n", shards,
                 io_threads, static_cast<unsigned long long>(acked), requests);
    return -1;
  }
  return static_cast<double>(requests) / elapsed / 1e3;
}

}  // namespace leopard::bench
