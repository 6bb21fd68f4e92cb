// leopard_node: run one replica of a real-wire Leopard/HotStuff/PBFT cluster,
// or a closed-loop client driver, from a cluster manifest (net/manifest.hpp).
//
// Replica mode (one process per replica):
//
//   leopard_node --manifest cluster.conf --id 2 [--run-for SECONDS]
//
// Hosts S >= 1 instances of the protocol core named by the manifest (S from
// `shards` / --shards), each behind a shard::MuxEnv over one SocketEnv: real
// nonblocking TCP to every peer, wire framing, timer wheels. A
// shard::Sequencer merges the instances' Execute streams into the one stream
// the store and state transfer consume. S = 1 is the one-shard case: shard 0
// keeps the node's identity, its frames travel bare and the sequencer passes
// records straight through, so the node is a plain single-instance replica.
// Runs until SIGINT/SIGTERM (or --run-for elapses), then prints a key=value
// report: the node's fields (executed request count, the Execute-stream fold
// digest exec_digest, per-shard folds, Leopard's state_digest at S = 1, ...)
// followed by every obs::Registry series. /statusz serves the same fields
// and series live (see docs/OBSERVABILITY.md).
//
// Client mode (the throughput driver):
//
//   leopard_node --manifest cluster.conf --client --id 100 --requests 500
//                [--window 64] [--payload 128] [--resubmit-ms 1000]
//                [--timeout SECONDS]
//
// Submits a closed-loop window of requests (Leopard: µ(req)-routed to
// non-leader replicas; baselines: to the leader), hash-partitioned across
// the S shards, waits for every ack, and reports achieved kreq/s plus
// latency in the same report form. Exits non-zero if the run times out
// before all requests are acked.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "chaos/interposer.hpp"
#include "core/client.hpp"
#include "core/replica.hpp"
#include "crypto/threshold_sig.hpp"
#include "net/manifest.hpp"
#include "net/socket_env.hpp"
#include "net/wire.hpp"
#include "obs/http.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/factory.hpp"
#include "shard/mux_env.hpp"
#include "shard/sequencer.hpp"
#include "store/replica_store.hpp"
#include "store/state_sync.hpp"
#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/worker_pool.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

struct Args {
  std::string manifest_path;
  leopard::sim::NodeId id = 0;
  bool id_set = false;
  bool client = false;
  double run_for = -1;        // replica: seconds before voluntary shutdown
  double timeout = 120;       // client: give-up deadline
  std::uint64_t requests = 0; // client: total requests to drive
  std::uint32_t window = 64;  // client: closed-loop window
  std::uint32_t payload = 0;  // client: payload override (0 = manifest value)
  std::uint32_t resubmit_ms = 1000;
  std::uint32_t shards = 0;   // parallel protocol instances (0 = manifest value)
  std::uint32_t io_threads = 1;  // worker threads for shard instances (replica mode)

  // Observability: where /metrics, /statusz and /healthz listen (unset
  // disables the endpoint). trace_sample is the stage tracer's 1-in-N span
  // sampling (0 = histograms only, no span ring).
  std::optional<leopard::obs::HttpServer::Options> metrics_addr;
  std::uint32_t trace_sample = 64;

  // Byzantine behaviour (replica mode; empty = honest).
  std::string byzantine;
  std::uint32_t byzantine_lag_ms = 150;

  // Durability (replica mode; empty data_dir = run without persistence).
  std::string data_dir;
  leopard::store::RecoverMode recover = leopard::store::RecoverMode::kStrict;
  leopard::store::FsyncPolicy fsync = leopard::store::FsyncPolicy::kAlways;
  std::uint32_t fsync_interval_ms = 50;
  std::uint64_t snapshot_every = 4096;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --manifest FILE --id ID [--run-for SEC] [--shards S]\n"
               "          [--io-threads N]\n"
               "          [--byzantine equivocate|silence|garbage-shares|laggard]\n"
               "          [--byzantine-lag-ms MS]\n"
               "          [--data-dir DIR] [--recover strict|truncate]\n"
               "          [--fsync always|interval|none] [--fsync-interval-ms MS]\n"
               "          [--snapshot-every N]\n"
               "          [--metrics-addr HOST:PORT] [--trace-sample N]\n"
               "       %s --manifest FILE --id ID --client --requests N [--window W]\n"
               "          [--payload BYTES] [--resubmit-ms MS] [--timeout SEC]\n"
               "          [--shards S] [--metrics-addr HOST:PORT]\n"
               "       (see docs/DEPLOY.md)\n",
               argv0, argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--manifest") {
      args.manifest_path = next();
    } else if (arg == "--id") {
      const auto id = leopard::obs::parse_decimal(next(), UINT32_MAX);
      if (!id) {
        std::fprintf(stderr, "--id must be a decimal node id\n");
        usage(argv[0]);
      }
      args.id = static_cast<leopard::sim::NodeId>(*id);
      args.id_set = true;
    } else if (arg == "--client") {
      args.client = true;
    } else if (arg == "--run-for") {
      args.run_for = std::strtod(next(), nullptr);
    } else if (arg == "--timeout") {
      args.timeout = std::strtod(next(), nullptr);
    } else if (arg == "--requests") {
      args.requests = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--window") {
      args.window = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--payload") {
      args.payload = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--resubmit-ms") {
      args.resubmit_ms = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--shards") {
      args.shards = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
      if (args.shards < 1 || args.shards > leopard::shard::kMaxShards) {
        std::fprintf(stderr, "--shards out of range\n");
        usage(argv[0]);
      }
    } else if (arg == "--io-threads") {
      args.io_threads = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
      if (args.io_threads < 1 || args.io_threads > 64) {
        std::fprintf(stderr, "--io-threads out of range\n");
        usage(argv[0]);
      }
    } else if (arg == "--metrics-addr") {
      args.metrics_addr = leopard::obs::parse_listen_addr(next());
      if (!args.metrics_addr) {
        std::fprintf(stderr, "--metrics-addr must be HOST:PORT, :PORT or PORT (port <= 65535)\n");
        usage(argv[0]);
      }
    } else if (arg == "--trace-sample") {
      args.trace_sample = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--byzantine") {
      args.byzantine = next();
      if (!leopard::chaos::parse_wire_attack(args.byzantine)) {
        std::fprintf(stderr, "unknown --byzantine mode '%s'\n", args.byzantine.c_str());
        usage(argv[0]);
      }
    } else if (arg == "--byzantine-lag-ms") {
      args.byzantine_lag_ms = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--data-dir") {
      args.data_dir = next();
    } else if (arg == "--recover") {
      const std::string_view mode = next();
      if (mode == "strict") {
        args.recover = leopard::store::RecoverMode::kStrict;
      } else if (mode == "truncate") {
        args.recover = leopard::store::RecoverMode::kTruncate;
      } else {
        std::fprintf(stderr, "--recover must be strict or truncate\n");
        usage(argv[0]);
      }
    } else if (arg == "--fsync") {
      const std::string_view policy = next();
      if (policy == "always") {
        args.fsync = leopard::store::FsyncPolicy::kAlways;
      } else if (policy == "interval") {
        args.fsync = leopard::store::FsyncPolicy::kInterval;
      } else if (policy == "none") {
        args.fsync = leopard::store::FsyncPolicy::kNever;
      } else {
        std::fprintf(stderr, "--fsync must be always, interval, or none\n");
        usage(argv[0]);
      }
    } else if (arg == "--fsync-interval-ms") {
      args.fsync_interval_ms = static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--snapshot-every") {
      args.snapshot_every = std::strtoull(next(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", std::string(arg).c_str());
      usage(argv[0]);
    }
  }
  if (args.manifest_path.empty() || !args.id_set) usage(argv[0]);
  if (args.client && args.requests == 0) usage(argv[0]);
  return args;
}

/// Recomputes a block's canonical digest from its wire frame, mirroring
/// block_digest_of below: the cached_digest of a Datablock/Baseline block,
/// the zero digest for anything else, nullopt if the frame is malformed.
/// StateSync uses this to verify transferred entries.
std::optional<leopard::crypto::Digest> digest_of_frame(
    std::span<const std::uint8_t> frame) {
  namespace lp = leopard;
  if (frame.size() < lp::net::kFrameHeaderBytes + 1) return std::nullopt;
  std::uint32_t len = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(frame[i]) << (8 * i);
  }
  if (len == 0 || len + lp::net::kFrameHeaderBytes != frame.size()) return std::nullopt;
  const auto type = static_cast<lp::net::MsgType>(frame[4]);
  const auto payload =
      lp::net::decode_payload(type, frame.subspan(lp::net::kFrameHeaderBytes + 1), 0);
  if (payload == nullptr) return std::nullopt;
  if (const auto* db = dynamic_cast<const lp::proto::DatablockMsg*>(payload.get())) {
    return db->cached_digest;
  }
  if (const auto* bb = dynamic_cast<const lp::proto::BaselineBlockMsg*>(payload.get())) {
    return bb->cached_digest;
  }
  return lp::crypto::Digest{};
}

/// The canonical digest of an executed block (what the exec_digest fold and
/// state transfer verify against): the cached digest of a Datablock/Baseline
/// block, the zero digest for anything else.
leopard::crypto::Digest block_digest_of(const leopard::sim::Payload& block) {
  if (const auto* db = dynamic_cast<const leopard::proto::DatablockMsg*>(&block)) {
    return db->cached_digest;
  }
  if (const auto* bb = dynamic_cast<const leopard::proto::BaselineBlockMsg*>(&block)) {
    return bb->cached_digest;
  }
  return {};
}

/// Re-serializes an executed block's wire frame into `frame`, replacing its
/// contents but keeping its capacity: with one buffer kept for the whole
/// run, the execute path stops allocating once it has held the largest frame.
void encode_exec_frame(const leopard::sim::Payload& block, leopard::util::Bytes& frame) {
  frame.clear();
  const bool ok = leopard::net::encode_frame(block, /*instance=*/0, frame);
  leopard::util::ensures(ok, "executed block has no wire form");
}

/// Sizes the process-wide worker pool from the manifest: 0 derives from the
/// machine, 1 keeps the serial path, N pins N lanes.
void size_worker_pool(const leopard::net::Manifest& manifest) {
  std::size_t lanes = manifest.encode_workers;
  if (lanes == 0) {
    const auto hw = std::thread::hardware_concurrency();
    lanes = hw != 0 ? hw : 1;
  }
  leopard::util::WorkerPool::global().resize(lanes);
}

/// Binds the observability endpoint, or returns nullptr when --metrics-addr
/// is unset. A bind failure exits 3: an operator who asked for the endpoint
/// must not silently lose it.
std::unique_ptr<leopard::obs::HttpServer> make_metrics_server(const Args& args,
                                                              leopard::net::SocketEnv& env) {
  if (!args.metrics_addr) return nullptr;
  auto http = std::make_unique<leopard::obs::HttpServer>(env.loop(), *args.metrics_addr);
  if (!http->listening()) {
    std::fprintf(stderr, "leopard_node: cannot bind --metrics-addr %s:%u\n",
                 args.metrics_addr->host.c_str(), args.metrics_addr->port);
    std::exit(3);
  }
  return http;
}

/// Facts about the node, each rendered twice: as a `key=value` report line
/// and as a typed /statusz member. Counters are not fields: they are registry
/// series, which both renderings append after the fields.
using Fields =
    std::vector<std::pair<std::string, std::variant<std::uint64_t, double, bool, std::string>>>;

/// The shutdown report: one `key=value` line per field (a double as
/// obs::append_number prints it, a bool as 1/0), then Registry::write_flat's
/// dump of every series.
void print_report(const Fields& fields, leopard::obs::Registry& registry) {
  std::string report;
  for (const auto& [key, value] : fields) {
    report += key + '=';
    std::visit(
        [&report](const auto& v) {
          using V = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<V, std::string>) {
            report += v;
          } else if constexpr (std::is_same_v<V, std::uint64_t>) {
            report += std::to_string(v);
          } else {
            leopard::obs::append_number(report, static_cast<double>(v));
          }
        },
        value);
    report += '\n';
  }
  registry.write_flat(report);
  std::fputs(report.c_str(), stdout);
  std::fflush(stdout);
}

/// /statusz: the fields, the peer table, every registry series under
/// `metrics`, and (replicas, `?traces=1`) the sampled span ring.
leopard::obs::HttpServer::Response statusz(const Fields& fields, leopard::net::SocketEnv& env,
                                           leopard::obs::Registry& registry,
                                           const leopard::obs::StageTracer* traces) {
  leopard::obs::JsonWriter w;
  w.object_begin();
  for (const auto& [key, value] : fields) {
    w.key(key);
    std::visit([&w](const auto& v) { w.value(v); }, value);
  }
  w.key("peers").array_begin();
  for (const auto& p : env.peer_snapshots()) {
    w.object_begin();
    w.key("id").value(static_cast<std::uint64_t>(p.id));
    w.key("connected").value(p.connected);
    w.key("queued_bytes").value(p.queued_bytes);
    w.key("shed_frames").value(p.shed_frames);
    w.key("reconnect_attempts").value(p.reconnect_attempts);
    w.object_end();
  }
  w.array_end();
  w.key("metrics");
  registry.write_statusz(w);
  if (traces != nullptr) {
    w.key("traces");
    traces->write_json(w);
  }
  w.object_end();
  leopard::obs::HttpServer::Response resp;
  resp.content_type = "application/json";
  resp.body = w.str();
  return resp;
}

/// Aux-timer token for the cross-shard stall tick. StateSync owns tokens 1
/// and 2 on the same aux wheel; this namespace is disjoint by construction.
constexpr std::uint64_t kStallTimer = 0x100;
constexpr leopard::sim::SimTime kStallTickInterval = 100 * leopard::sim::kMillisecond;

/// One replica: S >= 1 unmodified protocol cores, each behind a
/// shard::MuxEnv over one shared SocketEnv, merged by a shard::Sequencer into
/// the one Execute stream that the store and StateSync consume. At S = 1 the
/// sequencer passes every record through unchanged inside its own push, so
/// the WAL, the wire bytes and the executed stream are a lone core's.
int run_replica(const Args& args, const leopard::net::Manifest& manifest,
                std::uint32_t shards) {
  namespace lp = leopard;

  size_worker_pool(manifest);
  const std::uint32_t n = manifest.n;
  const auto spec = manifest.spec();

  auto eopts = manifest.replica_env_options(args.id);
  eopts.io_threads = args.io_threads;
  lp::net::SocketEnv env(std::move(eopts));

  // Durability + state transfer: ONE store and ONE StateSync consuming the
  // MERGED global stream — (gseq, gordinal) is the durable-commit identity,
  // so the store and state transfer run unchanged for every S. A corrupt
  // store refuses to start under --recover=strict: restarting on silently
  // damaged state is how a replica ends up voting against its past.
  std::unique_ptr<lp::store::ReplicaStore> rstore;
  lp::store::RecoveryResult recovery;
  if (!args.data_dir.empty()) {
    lp::store::StoreOptions sopts;
    sopts.dir = args.data_dir;
    sopts.fsync_policy = args.fsync;
    sopts.fsync_interval =
        static_cast<lp::sim::SimTime>(args.fsync_interval_ms) * lp::sim::kMillisecond;
    sopts.snapshot_every = args.snapshot_every;
    rstore = std::make_unique<lp::store::ReplicaStore>(sopts);
    recovery = rstore->open(args.recover);
    if (!recovery.ok()) {
      std::fprintf(stderr, "leopard_node: data dir '%s' unusable: %s\n",
                   args.data_dir.c_str(), recovery.detail.c_str());
      return 3;
    }
  }

  const std::uint32_t f = (n - 1) / 3;
  lp::store::StateSyncOptions syncopts;
  syncopts.frame_digest = digest_of_frame;
  lp::store::StateSync sync(args.id, n, f, rstore.get(), syncopts);
  sync.init_from_recovery(recovery);

  // Per-shard report state: the shard-LOCAL stream fold, comparable across
  // replicas per shard (each shard is its own consensus instance).
  struct PerShard {
    std::uint64_t requests = 0;
    std::uint64_t blocks = 0;
    lp::crypto::Digest fold;
  };
  std::vector<PerShard> per_shard(shards);
  const auto fold_into = [](lp::crypto::Digest& fold, const lp::crypto::Digest& block_digest,
                            std::uint64_t seq, std::uint32_t ordinal) {
    std::uint8_t buf[2 * lp::crypto::Digest::kSize + 12];
    std::memcpy(buf, fold.bytes().data(), lp::crypto::Digest::kSize);
    std::memcpy(buf + lp::crypto::Digest::kSize, block_digest.bytes().data(),
                lp::crypto::Digest::kSize);
    for (std::size_t i = 0; i < 8; ++i) {
      buf[2 * lp::crypto::Digest::kSize + i] = static_cast<std::uint8_t>(seq >> (8 * i));
    }
    for (std::size_t i = 0; i < 4; ++i) {
      buf[2 * lp::crypto::Digest::kSize + 8 + i] =
          static_cast<std::uint8_t>(ordinal >> (8 * i));
    }
    fold = lp::crypto::Digest::of(buf);
  };

  // Real (non-filler) records pushed but not yet merged — the stall
  // detector's trigger (see shard/sequencer.hpp for why filler must not
  // count). Resynced to zero whenever the sequencer drains completely, so a
  // recovery-time prune can only overcount transiently.
  std::uint64_t pending_real = 0;
  std::uint64_t noops_injected = 0;
  std::uint64_t noop_seq = 0;
  std::uint64_t last_emitted = 0;

  lp::util::Bytes exec_frame;  // reused by every merged execute (encode_exec_frame)
  lp::shard::Sequencer sequencer(shards, [&](const lp::shard::GlobalRecord& r) {
    if (!lp::shard::is_filler_block(*r.exec.block) && pending_real > 0) --pending_real;
    const auto block_digest = block_digest_of(*r.exec.block);
    std::span<const std::uint8_t> frame;
    if (rstore != nullptr || !sync.live()) {
      encode_exec_frame(*r.exec.block, exec_frame);
      frame = exec_frame;
    }
    sync.on_execute(r.exec.seq, r.exec.ordinal, block_digest, r.exec.requests, frame,
                    env.now());
  });

  // S unmodified cores over the shared transport: shard s hosts core-level
  // replica (id - s) mod n under a per-shard threshold domain (seed + s), so
  // each shard's leader lands on a different machine. Shard 0 keeps the
  // node's own id and seed.
  std::vector<lp::crypto::ThresholdScheme> schemes;
  schemes.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    schemes.emplace_back(n, manifest.quorum(), manifest.seed + s);
  }
  // Request-stage tracer shared by every shard core. The stage hooks fire on
  // whichever worker thread runs the shard; the tracer's histograms record
  // through per-thread registry shards and its span ring is mutex-guarded, so
  // one tracer serves all shards.
  auto& registry = lp::obs::Registry::global();
  lp::obs::StageTracer::Options topts;
  topts.sample_every = args.trace_sample;
  auto tracer = std::make_unique<lp::obs::StageTracer>(registry, topts);

  std::vector<std::unique_ptr<lp::protocol::Protocol>> cores;
  std::vector<std::unique_ptr<lp::shard::MuxEnv>> muxes;
  std::vector<const lp::core::LeopardReplica*> leopard_cores(shards, nullptr);
  lp::chaos::ByzantineInterposer* byz0 = nullptr;  // shard 0's, for state-sync sends
  for (std::uint32_t s = 0; s < shards; ++s) {
    const auto core_id = static_cast<lp::proto::ReplicaId>((args.id + n - s % n) % n);
    auto hosted = lp::protocol::make_protocol(spec, schemes[s], core_id);
    leopard_cores[s] = dynamic_cast<const lp::core::LeopardReplica*>(hosted.get());
    if (auto* lr = dynamic_cast<lp::core::LeopardReplica*>(hosted.get())) {
      lp::obs::StageTracer* t = tracer.get();
      lr->set_stage_hooks(
          [t](std::uint64_t client, std::uint64_t seq, lp::sim::SimTime ingress,
              lp::sim::SimTime created) { t->on_generated(client, seq, ingress, created); },
          [t](std::uint64_t client, std::uint64_t seq, lp::sim::SimTime created,
              lp::sim::SimTime linked, lp::sim::SimTime executed) {
            t->on_executed(client, seq, created, linked, executed);
          });
    }
    // --byzantine wraps the unmodified core in the attack interposer
    // (chaos/interposer.hpp); leopard_cores keeps the inner core for reports.
    if (!args.byzantine.empty()) {
      lp::chaos::InterposerOptions bopts;
      bopts.attack = *lp::chaos::parse_wire_attack(args.byzantine);
      bopts.n = n;
      bopts.f = f;
      bopts.lag =
          static_cast<lp::sim::SimTime>(args.byzantine_lag_ms) * lp::sim::kMillisecond;
      auto wrapped =
          std::make_unique<lp::chaos::ByzantineInterposer>(std::move(hosted), schemes[s], bopts);
      if (s == 0) byz0 = wrapped.get();
      hosted = std::move(wrapped);
    }
    // env.metrics() is the transport-owned ProtocolMetrics the registry's
    // core counter_fns read; MuxEnv posts its updates to the transport thread.
    auto mux = std::make_unique<lp::shard::MuxEnv>(env, env.metrics(), n, s, shards);
    mux->attach(*hosted);
    mux->set_execute_observer([&, s](const lp::protocol::Execute& e) {
      auto& ps = per_shard[s];
      ps.requests += e.requests;
      ++ps.blocks;
      fold_into(ps.fold, block_digest_of(*e.block), e.seq, e.ordinal);
      const bool real = !lp::shard::is_filler_block(*e.block);
      if (real) ++pending_real;
      if (!sequencer.push(s, e) && real && pending_real > 0) --pending_real;
    });
    cores.push_back(std::move(hosted));
    muxes.push_back(std::move(mux));
  }

  sync.set_send([&](lp::sim::NodeId to, lp::sim::PayloadPtr payload) {
    // State-sync traffic bypasses the protocol cores, so the byzantine
    // interposer taps it here to keep the attack covering every byte sent.
    if (byz0 != nullptr) {
      payload = byz0->filter_deployment_send(to, std::move(payload));
      if (payload == nullptr) return;
    }
    env.apply(lp::protocol::Send{to, std::move(payload)});
  });
  sync.set_timer_hooks(
      [&](std::uint64_t token, lp::sim::SimTime delay) { env.arm_aux_timer(token, delay); },
      [&](std::uint64_t token) { env.cancel_aux_timer(token); });
  env.set_payload_interceptor([&](lp::sim::NodeId from, const lp::sim::PayloadPtr& payload) {
    return sync.on_payload(from, payload, env.now());
  });

  env.register_observability(registry);
  sync.register_observability(registry);
  if (rstore != nullptr) rstore->register_observability(registry);
  registry.gauge_fn("leopard_seq_emitted", "Global records emitted by the sequencer", "",
                    [&sequencer] { return static_cast<double>(sequencer.emitted()); });
  registry.gauge_fn("leopard_seq_round", "Cross-shard sequencer round cursor", "",
                    [&sequencer] { return static_cast<double>(sequencer.round()); });
  // At S = 1 shard 0's core is the replica and runs on this (transport)
  // thread, so the single-instance keys read it directly.
  const lp::core::LeopardReplica* lone = shards == 1 ? leopard_cores[0] : nullptr;
  if (lone != nullptr) {
    registry.gauge_fn("leopard_view", "Current consensus view", "",
                      [lone] { return static_cast<double>(lone->view()); });
    registry.gauge_fn("leopard_executed_through", "Highest contiguously executed sn", "",
                      [lone] { return static_cast<double>(lone->executed_through()); });
  }

  // The replica's fields, for the report and /statusz alike. Everything read
  // here is transport-owned (the sequencer's merge callback, the per-shard
  // folds and the stall tick all run on the transport thread) except the
  // shard cores' views: with io_threads > 1 their cores run on workers, so
  // shardK_view is only read when `cores_quiet` (one io thread, or the
  // workers have been joined).
  const auto replica_fields = [&](bool cores_quiet) {
    Fields f = {
        {"role", std::string("replica")},
        {"id", std::uint64_t{args.id}},
        {"protocol", manifest.protocol},
        {"n", std::uint64_t{n}},
        {"shards", std::uint64_t{shards}},
        {"executed_requests", sync.executed_requests()},
        {"executed_blocks", sync.executed_blocks()},
        {"exec_digest", sync.exec_digest().hex()},
    };
    if (lone != nullptr) {
      f.push_back({"state_digest", lone->state_digest().hex()});
      f.push_back({"view", std::uint64_t{lone->view()}});
      f.push_back({"executed_through", lone->executed_through()});
    }
    for (std::uint32_t s = 0; s < shards; ++s) {
      const auto shard = "shard" + std::to_string(s);
      f.push_back({shard + "_executed", per_shard[s].requests});
      f.push_back({shard + "_blocks", per_shard[s].blocks});
      if (cores_quiet && leopard_cores[s] != nullptr) {
        f.push_back({shard + "_view", std::uint64_t{leopard_cores[s]->view()}});
      }
      f.push_back({shard + "_digest", per_shard[s].fold.hex()});
    }
    f.push_back({"seq_emitted", sequencer.emitted()});
    f.push_back({"seq_round", sequencer.round()});
    f.push_back({"noops_injected", noops_injected});
    f.push_back({"io_threads", std::uint64_t{env.io_threads()}});
    f.push_back({"sync_live", sync.live()});
    if (!args.byzantine.empty()) f.push_back({"byzantine", args.byzantine});
    // Health fields: the error and progress counts perfbench's correctness
    // gate reads from the report by these names (a missing key reads as 0
    // there, so they must not move). Each is also a registry series.
    f.push_back({"decode_errors", env.stats().decode_errors});
    f.push_back({"sync_verify_failures", sync.stats().verify_failures});
    if (rstore != nullptr) {
      const auto& st = rstore->stats();
      f.push_back({"store_appends", st.appends});
      f.push_back({"store_append_errors", st.append_errors});
      f.push_back({"store_fsync_errors", st.fsync_errors});
      f.push_back({"store_snapshots", st.snapshots_written});
    }
    return f;
  };

  auto http = make_metrics_server(args, env);
  if (http != nullptr) {
    http->handle("/statusz", [&](std::string_view query) {
      const bool traces = lp::obs::query_param(query, "traces") == "1";
      return statusz(replica_fields(env.io_threads() <= 1), env, registry,
                     traces ? tracer.get() : nullptr);
    });
    http->serve_registry(registry);
  }

  const auto stall_tick = [&] {
    // Recovery or state transfer may have advanced the durable tail without
    // going through the sequencer: re-seat the cursor before judging a stall.
    if (sync.executed_blocks() > 0) {
      sequencer.advance_to(sync.tail_seq(), sync.tail_ordinal());
    }
    if (!sequencer.has_backlog()) pending_real = 0;  // prune-drift resync
    if (sync.live() && sequencer.emitted() == last_emitted && pending_real > 0) {
      // Real work is stuck behind an idle shard: commit a no-op through the
      // blocking shard's LOCAL core so the round fills (and every earlier
      // round is proven) via ordinary consensus.
      const auto s = sequencer.cursor_shard();
      lp::proto::Request req;
      req.client_id = lp::shard::kFillerClientBase + args.id;
      req.seq = noop_seq++;
      req.payload_size = 1;
      req.submitted_at = env.now();
      muxes[s]->inject_request(
          static_cast<lp::sim::NodeId>(lp::shard::kFillerClientBase + args.id),
          std::make_shared<lp::proto::ClientRequestMsg>(std::move(req)));
      ++noops_injected;
    }
    last_emitted = sequencer.emitted();
    env.arm_aux_timer(kStallTimer, kStallTickInterval);
  };
  env.set_aux_timer_handler([&](std::uint64_t token) {
    if (token == kStallTimer) {
      stall_tick();
    } else {
      sync.on_timer(token, env.now());
    }
  });

  sync.start(env.now());
  if (sync.executed_blocks() > 0) {
    sequencer.advance_to(sync.tail_seq(), sync.tail_ordinal());
  }
  env.arm_aux_timer(kStallTimer, kStallTickInterval);

  const auto deadline =
      args.run_for >= 0 ? lp::sim::from_seconds(args.run_for) : lp::sim::SimTime{-1};
  env.run([&] {
    if (g_stop != 0) return true;
    return deadline >= 0 && env.now() >= deadline;
  });

  if (rstore != nullptr) rstore->flush();
  print_report(replica_fields(/*cores_quiet=*/true), registry);
  return 0;
}

/// The closed-loop client driver: one LeopardClient per shard, each behind a
/// shard::MuxEnv over one SocketEnv. At S = 1 that is one client with the
/// whole window, the whole request count and seed + id.
int run_client(const Args& args, const leopard::net::Manifest& manifest,
               std::uint32_t shards) {
  namespace lp = leopard;

  lp::core::ClientConfig cfg;
  cfg.payload_size = args.payload != 0 ? args.payload : manifest.payload_size;
  cfg.real_payload = true;  // a real deployment ships real bytes
  cfg.resubmit_timeout =
      static_cast<lp::sim::SimTime>(args.resubmit_ms) * lp::sim::kMillisecond;

  const auto leader = manifest.initial_leader();
  const bool leopard = manifest.protocol == "leopard";
  if (leopard) cfg.route_by_mu = true;  // µ(req) load balancing over non-leader replicas

  // Hash-partition the request index space across shards (the same
  // shard_of split the sim driver uses), with a per-shard slice of the
  // closed-loop window.
  const std::uint64_t seed = manifest.seed + args.id;
  std::vector<std::uint64_t> totals(shards, 0);
  for (std::uint64_t i = 0; i < args.requests; ++i) {
    ++totals[lp::shard::shard_of(seed, i, shards)];
  }

  lp::net::SocketEnv env(manifest.client_env_options(args.id));

  std::vector<std::unique_ptr<lp::core::LeopardClient>> subs;
  std::vector<std::unique_ptr<lp::shard::MuxEnv>> muxes;
  for (std::uint32_t s = 0; s < shards; ++s) {
    lp::core::ClientConfig sub_cfg = cfg;
    sub_cfg.total_requests = totals[s];
    sub_cfg.closed_loop_window = std::max(1u, args.window / shards);
    // Baselines accept client requests only at the leader, so the
    // re-submission rotation set is just {leader}; Leopard rotates over all
    // non-leader replicas.
    auto sub = std::make_unique<lp::core::LeopardClient>(
        sub_cfg, /*target=*/leader, /*replica_count=*/leopard ? manifest.n : 1,
        /*avoid=*/leopard ? leader : manifest.n, seed + 7919ull * s);
    sub->set_self_id(args.id);
    // env.metrics() is shared across every shard's MuxEnv, so the latency
    // histogram merges and the report math below stays identical.
    auto mux = std::make_unique<lp::shard::MuxEnv>(env, env.metrics(), manifest.n, s, shards);
    mux->attach(*sub);
    subs.push_back(std::move(sub));
    muxes.push_back(std::move(mux));
  }

  const auto all_done = [&] {
    return std::all_of(subs.begin(), subs.end(), [](const auto& sub) { return sub->done(); });
  };

  // The client's fields, for the report and /statusz alike: the clients and
  // env.metrics() (the commit-latency ProtocolMetrics every shard's MuxEnv
  // shares) are all driven from the transport thread.
  const auto client_fields = [&] {
    std::uint64_t submitted = 0;
    std::uint64_t acked = 0;
    for (const auto& sub : subs) {
      submitted += sub->submitted();
      acked += sub->acked();
    }
    const double elapsed = lp::sim::to_seconds(env.now());
    const auto& metrics = env.metrics();
    // mean_latency_ms/p50_latency_ms are the historical keys scripts parse;
    // the tail percentiles are additive.
    return Fields{
        {"role", std::string("client")},
        {"id", std::uint64_t{args.id}},
        {"protocol", manifest.protocol},
        {"n", std::uint64_t{manifest.n}},
        {"shards", std::uint64_t{shards}},
        {"submitted", submitted},
        {"acked", acked},
        {"elapsed_s", elapsed},
        {"kreq_s", elapsed > 0 ? static_cast<double>(acked) / elapsed / 1e3 : 0.0},
        {"mean_latency_ms", metrics.mean_latency_sec() * 1e3},
        {"p50_latency_ms", metrics.latency_percentile(0.5) * 1e3},
        {"p90_latency_ms", metrics.latency_percentile(0.9) * 1e3},
        {"p99_latency_ms", metrics.latency_percentile(0.99) * 1e3},
        {"p999_latency_ms", metrics.latency_percentile(0.999) * 1e3},
    };
  };

  auto& registry = lp::obs::Registry::global();
  env.register_observability(registry);
  auto http = make_metrics_server(args, env);
  if (http != nullptr) {
    http->handle("/statusz", [&](std::string_view) {
      return statusz(client_fields(), env, registry, nullptr);
    });
    http->serve_registry(registry);
  }

  const auto deadline = lp::sim::from_seconds(args.timeout);
  env.run([&] { return g_stop != 0 || all_done() || env.now() >= deadline; });
  print_report(client_fields(), registry);
  return all_done() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    const auto manifest = leopard::net::Manifest::parse_file(args.manifest_path);
    if (!args.client && args.id >= manifest.n) {
      std::fprintf(stderr, "replica id %u out of range (n=%u); did you mean --client?\n",
                   args.id, manifest.n);
      return 2;
    }
    // --shards overrides the manifest; every node of a cluster must agree.
    const std::uint32_t shards = args.shards != 0 ? args.shards : manifest.shards;
    return args.client ? run_client(args, manifest, shards)
                       : run_replica(args, manifest, shards);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "leopard_node: %s\n", e.what());
    return 2;
  }
}
