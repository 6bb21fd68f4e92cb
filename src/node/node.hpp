// Node library: one real-wire replica (node::Replica) or closed-loop client
// (node::Client), wired from a cluster manifest (net/manifest.hpp) and an
// options struct holding exactly leopard_node's flags. `leopard_node` is flag
// parsing and signals around these classes; node::LoopbackCluster runs n
// replicas in one process, for the wire tests and the loopback benches.
//
// Both report through Fields: facts about the node, rendered as `key=value`
// report lines (render_fields) and as typed /statusz members. Counters are
// not fields: they are obs::Registry series, which both renderings append.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "net/manifest.hpp"
#include "obs/http.hpp"
#include "store/replica_store.hpp"

namespace leopard::obs {
class Registry;
}  // namespace leopard::obs

namespace leopard::node {

using Fields =
    std::vector<std::pair<std::string, std::variant<std::uint64_t, double, bool, std::string>>>;

/// One `key=value` line per field: a double as obs::append_number prints
/// it, a bool as 1/0. The shutdown report is this followed by
/// Registry::write_flat.
[[nodiscard]] std::string render_fields(const Fields& fields);

/// A node that cannot start: an unusable data dir or an unbindable metrics
/// address. The message names the cause; leopard_node exits 3 on it.
class StartError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Sizes the process-wide worker pool from the manifest's encode_workers:
/// 0 derives from the machine, 1 keeps the serial path, N pins N lanes.
/// Call it before any node runs: a resize must not race a dispatch.
void size_worker_pool(const net::Manifest& manifest);

/// leopard_node's replica flags.
struct ReplicaOptions {
  sim::NodeId id = 0;
  double run_for = -1;           // seconds before voluntary shutdown (< 0: none)
  std::uint32_t shards = 0;      // parallel protocol instances (0 = manifest value)
  std::uint32_t io_threads = 1;  // worker threads for shard instances

  // Observability: where /metrics, /statusz and /healthz listen (unset
  // disables the endpoint). trace_sample is the stage tracer's 1-in-N span
  // sampling (0 = histograms only, no span ring).
  std::optional<obs::HttpServer::Options> metrics_addr{};
  std::uint32_t trace_sample = 64;

  // Byzantine behaviour (empty = honest; see chaos/interposer.hpp).
  std::string byzantine{};
  std::uint32_t byzantine_lag_ms = 150;

  // Durability (empty data_dir = run without persistence).
  std::string data_dir{};
  store::RecoverMode recover = store::RecoverMode::kStrict;
  store::FsyncPolicy fsync = store::FsyncPolicy::kAlways;
  std::uint32_t fsync_interval_ms = 50;
  std::uint64_t snapshot_every = 4096;
};

/// leopard_node's client flags.
struct ClientOptions {
  sim::NodeId id = 0;
  std::uint64_t requests = 0;  // total requests to drive
  std::uint32_t window = 64;   // closed-loop window
  std::uint32_t payload = 0;   // payload override (0 = manifest value)
  std::uint32_t resubmit_ms = 1000;
  double timeout = 120;        // give-up deadline, seconds
  std::uint32_t shards = 0;    // 0 = manifest value
  std::optional<obs::HttpServer::Options> metrics_addr{};
};

class Replica {
 public:
  /// `registry` receives every series the replica registers and must
  /// outlive run().
  Replica(net::Manifest manifest, ReplicaOptions opts, obs::Registry& registry);

  /// Opens the store (recovering it), binds the listener and the metrics
  /// endpoint, wires the cores and serves until stop() or run_for; then
  /// flushes the store and returns the final fields. Throws StartError.
  /// Call once.
  Fields run();
  /// Every registry series as Registry::write_flat printed them when run()
  /// returned: the rest of the shutdown report.
  [[nodiscard]] const std::string& final_series() const { return final_series_; }

  /// Ends run() within one event-loop slice. Thread- and signal-safe; may
  /// precede run().
  void stop() { stop_.store(true); }

 private:
  const net::Manifest manifest_;
  const ReplicaOptions opts_;
  obs::Registry& registry_;
  std::string final_series_;
  std::atomic<bool> stop_{false};
};

class Client {
 public:
  Client(net::Manifest manifest, ClientOptions opts, obs::Registry& registry);

  /// Submits until every request is acked, stop() or the timeout, then
  /// returns the final fields. Throws StartError. Call once.
  Fields run();
  [[nodiscard]] const std::string& final_series() const { return final_series_; }
  /// Every request was acked.
  [[nodiscard]] bool done() const { return done_; }
  /// Ends run() within one event-loop slice. Thread- and signal-safe; may
  /// precede run().
  void stop() { stop_.store(true); }

 private:
  const net::Manifest manifest_;
  const ClientOptions opts_;
  obs::Registry& registry_;
  std::string final_series_;
  bool done_ = false;
  std::atomic<bool> stop_{false};
};

/// `count` distinct free loopback ports, every probe socket held open until
/// all are chosen so the kernel cannot hand the same port twice. (A port is
/// free again once returned; just-released ports are not reused eagerly.)
[[nodiscard]] std::vector<std::uint16_t> pick_free_ports(std::size_t count);

/// n Replicas on real loopback sockets in one process, one thread and one
/// private obs::Registry each, plus closed-loop clients run on the caller's
/// thread. The process-wide worker pool is sized once, from the cluster
/// manifest, when the cluster is built: the nodes then dispatch into it
/// concurrently.
class LoopbackCluster {
 public:
  /// `manifest` describes the cluster; its node addresses are replaced by
  /// manifest.n free loopback ports.
  explicit LoopbackCluster(net::Manifest manifest);
  /// Stops every running replica.
  ~LoopbackCluster();

  LoopbackCluster(const LoopbackCluster&) = delete;
  LoopbackCluster& operator=(const LoopbackCluster&) = delete;

  /// The cluster manifest, node addresses included.
  [[nodiscard]] const net::Manifest& manifest() const { return manifest_; }

  /// Starts replica `opts.id` on its own thread with a fresh registry.
  /// `manifest` replaces the cluster manifest for this node only (a
  /// per-node variant of manifest(): dial proxies, buffer caps).
  void start(const ReplicaOptions& opts, std::optional<net::Manifest> manifest = std::nullopt);

  /// Stops replica `id` cleanly, as SIGTERM stops leopard_node, and returns
  /// its final fields. Rethrows what its run() threw (a StartError, say).
  Fields stop(sim::NodeId id);

  /// The final registry series of replica `id`'s last stopped incarnation
  /// (Replica::final_series).
  [[nodiscard]] const std::string& final_series(sim::NodeId id) const;

  /// Runs a closed-loop client against the cluster on the calling thread
  /// and returns its final fields.
  Fields run_client(const ClientOptions& opts);

 private:
  struct Slot;

  net::Manifest manifest_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace leopard::node
