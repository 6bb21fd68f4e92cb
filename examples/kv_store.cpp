// Replicated key-value store on top of Leopard: the "decentralized
// application" workload the paper's introduction motivates. Each client
// request carries a serialized PUT command; every replica applies committed
// commands through the execution handler, in the total order the protocol
// decides. At the end, all replicas must hold byte-identical stores — even
// with a Byzantine replica mounting the selective-dissemination attack.
//
// Demonstrates: the execution-handler API, real (non-synthetic) payloads,
// and state-machine consistency under faults.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/sim_cluster.hpp"
#include "util/bytes.hpp"

using namespace leopard;

namespace {

/// The replicated state machine: an ordered map applied via PUT commands.
class KvStore {
 public:
  /// Command wire format: key string, value string.
  static util::Bytes encode_put(const std::string& key, const std::string& value) {
    util::ByteWriter w;
    w.str(key);
    w.str(value);
    return w.take();
  }

  void apply(const proto::Request& request) {
    if (request.payload.empty()) return;  // not a KV command
    util::ByteReader r(request.payload);
    const auto key = r.str();
    const auto value = r.str();
    store_[key] = value;
    ++applied_;
  }

  [[nodiscard]] crypto::Digest fingerprint() const {
    util::ByteWriter w;
    for (const auto& [k, v] : store_) {
      w.str(k);
      w.str(v);
    }
    return crypto::Digest::of(w.bytes());
  }

  [[nodiscard]] std::size_t size() const { return store_.size(); }
  [[nodiscard]] std::uint64_t applied() const { return applied_; }
  [[nodiscard]] const std::map<std::string, std::string>& contents() const { return store_; }

 private:
  std::map<std::string, std::string> store_;
  std::uint64_t applied_ = 0;
};

/// A client that issues PUT commands to its assigned replica.
class KvClient final : public sim::Node {
 public:
  KvClient(sim::Network& net, sim::NodeId target, std::uint32_t writes, std::uint64_t seed)
      : net_(net), target_(target), writes_(writes), rng_(seed) {}

  void set_node_id(sim::NodeId id) { self_ = id; }

  void start() override { issue_next(); }

  void on_message(sim::NodeId, const sim::PayloadPtr& msg) override {
    if (const auto ack = std::dynamic_pointer_cast<const proto::AckMsg>(msg)) {
      acked_ += ack->seqs.size();
    }
  }

  [[nodiscard]] std::uint64_t acked() const { return acked_; }

 private:
  void issue_next() {
    if (issued_ >= writes_) return;
    const auto key = "user:" + std::to_string(rng_.uniform(64));
    const auto value = "balance=" + std::to_string(rng_.uniform(100000));

    proto::Request req;
    req.client_id = self_;
    req.seq = issued_++;
    req.payload = KvStore::encode_put(key, value);
    req.payload_size = static_cast<std::uint32_t>(req.payload.size());
    req.submitted_at = net_.sim().now();
    net_.send(self_, target_, std::make_shared<proto::ClientRequestMsg>(std::move(req)));

    net_.sim().schedule_after(sim::from_seconds(rng_.exponential(1.0 / 2000.0)),
                              [this] { issue_next(); });
  }

  sim::Network& net_;
  sim::NodeId self_ = 0;
  sim::NodeId target_;
  std::uint32_t writes_;
  std::uint64_t issued_ = 0;
  std::uint64_t acked_ = 0;
  util::Rng rng_;
};

}  // namespace

int main() {
  constexpr std::uint32_t kReplicas = 7;  // f = 2

  core::LeopardConfig cfg;
  cfg.n = kReplicas;
  cfg.datablock_requests = 50;
  cfg.bftblock_links = 2;
  cfg.datablock_max_wait = 50 * sim::kMillisecond;

  std::vector<core::ByzantineSpec> byzantine(kReplicas);
  byzantine[6].selective_recipients = 4;  // s = 2f: linked, yet f replicas must retrieve

  // No client groups: the KV clients below are plain sim nodes.
  harness::SimClusterConfig cluster_cfg;
  cluster_cfg.spec.config = cfg;
  cluster_cfg.mutate_spec = harness::byzantine_replicas(byzantine);
  cluster_cfg.seed = 7;
  harness::SimCluster cluster(cluster_cfg);
  auto& network = cluster.net();

  // One KV state machine per replica, applied via the execution handler.
  std::vector<KvStore> stores(kReplicas);
  for (std::uint32_t id = 0; id < kReplicas; ++id) {
    cluster.replica(id).set_execution_handler(
        [&stores, id](const proto::Request& r) { stores[id].apply(r); });
  }

  std::vector<std::unique_ptr<KvClient>> clients;
  for (std::uint32_t id = 0; id < kReplicas; ++id) {
    if (id == 1) continue;  // view-1 leader takes no client traffic
    auto client = std::make_unique<KvClient>(network, id, /*writes=*/2000, 900 + id);
    client->set_node_id(network.add_node(client.get(), /*metered=*/false));
    clients.push_back(std::move(client));
  }

  cluster.run_until(6 * sim::kSecond);
  const auto& metrics = cluster.metrics();

  std::printf("Replicated KV store on Leopard (n = %u, one selective attacker)\n", kReplicas);
  std::uint64_t total_acked = 0;
  for (const auto& c : clients) total_acked += c->acked();
  std::printf("  PUTs acknowledged: %llu\n", static_cast<unsigned long long>(total_acked));
  std::printf("  retrievals performed: %llu (attacker-withheld datablocks recovered)\n",
              static_cast<unsigned long long>(metrics.datablocks_recovered));

  std::printf("\nPer-replica store state:\n");
  for (std::uint32_t id = 0; id < kReplicas; ++id) {
    std::printf("  replica %u: %zu keys, %llu commands applied, fingerprint %s\n", id,
                stores[id].size(), static_cast<unsigned long long>(stores[id].applied()),
                stores[id].fingerprint().short_hex().c_str());
  }

  // All honest replicas that executed the same prefix must agree. Compare
  // replicas at equal applied counts.
  bool consistent = true;
  for (std::uint32_t a = 0; a < kReplicas; ++a) {
    for (std::uint32_t b = a + 1; b < kReplicas; ++b) {
      if (stores[a].applied() == stores[b].applied() &&
          !(stores[a].fingerprint() == stores[b].fingerprint())) {
        consistent = false;
      }
    }
  }
  std::printf("\nstores consistent: %s\n", consistent ? "yes" : "NO (bug!)");

  // Show a sample of the agreed state.
  std::printf("\nsample keys from replica 0:\n");
  int shown = 0;
  for (const auto& [k, v] : stores[0].contents()) {
    std::printf("  %-12s = %s\n", k.c_str(), v.c_str());
    if (++shown == 5) break;
  }
  return consistent ? 0 : 1;
}
