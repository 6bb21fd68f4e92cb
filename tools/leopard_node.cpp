// leopard_node: run one replica of a real-wire Leopard/HotStuff/PBFT cluster,
// or a closed-loop client driver, from a cluster manifest (net/manifest.hpp).
//
// Replica mode (one process per replica):
//
//   leopard_node --manifest cluster.conf --id 2 [--run-for SECONDS]
//
// Hosts the protocol core named by the manifest behind a SocketEnv: real
// nonblocking TCP to every peer, wire framing, timer wheel. Runs until
// SIGINT/SIGTERM (or --run-for elapses), then prints a key=value report:
// executed request count, the Execute-stream fold digest (exec_digest, equal
// across honest replicas), Leopard's state_digest, and transport stats.
//
// Client mode (the throughput driver):
//
//   leopard_node --manifest cluster.conf --client --id 100 --requests 500
//                [--window 64] [--payload 128] [--resubmit-ms 1000]
//                [--timeout SECONDS]
//
// Submits a closed-loop window of requests (Leopard: µ(req)-routed to
// non-leader replicas; baselines: to the leader), waits for every ack, and
// reports achieved kreq/s plus latency. Exits non-zero if the run times out
// before all requests are acked.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>

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
  std::uint32_t io_threads = 1;  // worker threads for shard instances (sharded mode)
  std::string report_path;    // optional: also write the report to a file

  // Observability: HOST:PORT (or :PORT / PORT) for /metrics, /statusz,
  // /healthz; empty disables the endpoint. trace_sample is the stage tracer's
  // 1-in-N span sampling (0 = histograms only, no span ring).
  std::string metrics_addr;
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
      args.id = static_cast<leopard::sim::NodeId>(std::strtoul(next(), nullptr, 10));
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
    } else if (arg == "--report") {
      args.report_path = next();
    } else if (arg == "--metrics-addr") {
      args.metrics_addr = next();
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

void emit_report(const Args& args, const std::string& report) {
  std::fputs(report.c_str(), stdout);
  std::fflush(stdout);
  if (!args.report_path.empty()) {
    std::ofstream out(args.report_path);
    out << report;
  }
}

void print_transport_stats(std::string& report, const leopard::net::SocketEnv& env,
                           std::uint32_t io_threads = 1) {
  const auto& s = env.stats();
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "frames_sent=%llu frames_received=%llu bytes_sent=%llu "
                "bytes_received=%llu decode_errors=%llu frames_dropped=%llu "
                "connects=%llu accepts=%llu\n",
                static_cast<unsigned long long>(s.frames_sent),
                static_cast<unsigned long long>(s.frames_received),
                static_cast<unsigned long long>(s.bytes_sent),
                static_cast<unsigned long long>(s.bytes_received),
                static_cast<unsigned long long>(s.decode_errors),
                static_cast<unsigned long long>(s.frames_dropped),
                static_cast<unsigned long long>(s.connects),
                static_cast<unsigned long long>(s.accepts));
  report += buf;
  // Zero-copy/io-thread health: payload_copies counts serializations,
  // frames_shared counts broadcast enqueues that aliased an existing body
  // (fanout minus one per broadcast), writev_calls counts sendmsg syscalls.
  std::snprintf(buf, sizeof(buf),
                "io_threads=%u writev_calls=%llu payload_copies=%llu frames_shared=%llu\n",
                io_threads, static_cast<unsigned long long>(s.writev_calls),
                static_cast<unsigned long long>(s.payload_copies),
                static_cast<unsigned long long>(s.frames_shared));
  report += buf;

  // Per-peer attribution of shed frames and reconnect churn ("id:count"
  // pairs, "-" when clean) so attack-load shedding is visible per link.
  std::string shed;
  std::string reconnects;
  for (const auto& [peer, counters] : env.peer_counters()) {
    if (counters.shed_frames > 0) {
      if (!shed.empty()) shed += ',';
      shed += std::to_string(peer) + ":" + std::to_string(counters.shed_frames);
    }
    if (counters.reconnect_attempts > 0) {
      if (!reconnects.empty()) reconnects += ',';
      reconnects += std::to_string(peer) + ":" + std::to_string(counters.reconnect_attempts);
    }
  }
  report += "peer_shed=" + (shed.empty() ? "-" : shed) + "\n";
  report += "peer_reconnects=" + (reconnects.empty() ? "-" : reconnects) + "\n";
}

/// Recomputes a block's canonical digest from its wire frame, mirroring the
/// execute-observer fold below: the cached_digest of a Datablock/Baseline
/// block, the zero digest for anything else, nullopt if the frame is
/// malformed. StateSync uses this to verify transferred entries.
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

/// "HOST:PORT", ":PORT", or bare "PORT" → listen options.
leopard::obs::HttpServer::Options parse_metrics_addr(const std::string& addr) {
  leopard::obs::HttpServer::Options opts;
  const auto colon = addr.rfind(':');
  if (colon == std::string::npos) {
    opts.port = static_cast<std::uint16_t>(std::strtoul(addr.c_str(), nullptr, 10));
  } else {
    if (colon > 0) opts.host = addr.substr(0, colon);
    opts.port =
        static_cast<std::uint16_t>(std::strtoul(addr.c_str() + colon + 1, nullptr, 10));
  }
  return opts;
}

/// Binds the observability endpoint or returns nullptr when --metrics-addr is
/// unset. A bind failure is fatal: an operator who asked for the endpoint
/// must not silently lose it.
std::unique_ptr<leopard::obs::HttpServer> make_metrics_server(
    const Args& args, leopard::net::SocketEnv& env, bool* failed) {
  *failed = false;
  if (args.metrics_addr.empty()) return nullptr;
  auto http = std::make_unique<leopard::obs::HttpServer>(
      env.loop(), parse_metrics_addr(args.metrics_addr));
  if (!http->listening()) {
    std::fprintf(stderr, "leopard_node: cannot bind --metrics-addr %s\n",
                 args.metrics_addr.c_str());
    *failed = true;
    return nullptr;
  }
  return http;
}

void write_peers_json(leopard::obs::JsonWriter& w, leopard::net::SocketEnv& env) {
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
}

/// Table IV stage percentiles for the shutdown report (only when the stage
/// tracer ran — the histograms are empty otherwise).
void print_stage_latency(std::string& report, leopard::obs::Registry& registry,
                         const leopard::obs::StageTracer& tracer) {
  const struct {
    const char* name;
    const leopard::obs::Histogram& hist;
  } kStages[] = {
      {"generation", tracer.generation_hist()},
      {"dissemination", tracer.dissemination_hist()},
      {"agreement", tracer.agreement_hist()},
      {"total", tracer.total_hist()},
  };
  for (const auto& stage : kStages) {
    const auto snap = registry.histogram_snapshot(stage.hist);
    if (snap.count == 0) continue;
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "stage_%s_count=%llu stage_%s_p50_ms=%.3f stage_%s_p99_ms=%.3f\n",
                  stage.name, static_cast<unsigned long long>(snap.count), stage.name,
                  static_cast<double>(snap.percentile(0.50)) / 1e6, stage.name,
                  static_cast<double>(snap.percentile(0.99)) / 1e6);
    report += buf;
  }
}

/// Client commit-latency summary. `mean_latency_ms`/`p50_latency_ms` are the
/// historical keys (scripts parse them); the tail percentiles are additive.
void print_client_latency(std::string& report, const leopard::core::ProtocolMetrics& metrics) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "mean_latency_ms=%.2f p50_latency_ms=%.2f p90_latency_ms=%.2f "
                "p99_latency_ms=%.2f p999_latency_ms=%.2f\n",
                metrics.mean_latency_sec() * 1e3, metrics.latency_percentile(0.5) * 1e3,
                metrics.latency_percentile(0.9) * 1e3,
                metrics.latency_percentile(0.99) * 1e3,
                metrics.latency_percentile(0.999) * 1e3);
  report += buf;
}

int run_replica(const Args& args, const leopard::net::Manifest& manifest) {
  namespace lp = leopard;

  size_worker_pool(manifest);
  const lp::crypto::ThresholdScheme ts(manifest.n, manifest.quorum(), manifest.seed);
  const auto spec = manifest.spec();

  // The hosted protocol is either the honest core or, under --byzantine, the
  // unmodified core wrapped in the attack interposer (chaos/interposer.hpp).
  // `inner_core` always points at the consensus core for report accessors.
  std::unique_ptr<lp::protocol::Protocol> hosted = lp::protocol::make_protocol(spec, ts, args.id);
  const lp::protocol::Protocol* inner_core = hosted.get();

  // Request-stage tracer: hooks into the (still-unwrapped) Leopard core so
  // Table IV stage latencies are measured on the real wire path. Stage
  // histograms land in the global registry; sampled spans are dumpable via
  // /statusz?traces=1.
  auto& registry = lp::obs::Registry::global();
  lp::obs::StageTracer::Options topts;
  topts.sample_every = args.trace_sample;
  auto tracer = std::make_unique<lp::obs::StageTracer>(registry, topts);
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

  lp::chaos::ByzantineInterposer* byz = nullptr;
  if (!args.byzantine.empty()) {
    lp::chaos::InterposerOptions bopts;
    bopts.attack = *lp::chaos::parse_wire_attack(args.byzantine);
    bopts.n = manifest.n;
    bopts.f = (manifest.n - 1) / 3;
    bopts.lag =
        static_cast<lp::sim::SimTime>(args.byzantine_lag_ms) * lp::sim::kMillisecond;
    auto wrapped =
        std::make_unique<lp::chaos::ByzantineInterposer>(std::move(hosted), ts, bopts);
    byz = wrapped.get();
    hosted = std::move(wrapped);
  }

  lp::net::SocketEnv env(manifest.replica_env_options(args.id));
  env.attach(*hosted);  // --io-threads needs shard instances; a lone core stays single-threaded

  // Durable state: recover the WAL + snapshot before touching the network.
  // A corrupt store refuses to start under --recover=strict — restarting on
  // silently damaged state is how a replica ends up voting against its past.
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

  // StateSync owns the node-level Execute stream: the exec_digest fold (equal
  // across honest replicas for all three protocols), durable appends, and
  // catch-up from peers after a restart. The consensus core stays unaware.
  const std::uint32_t f = (manifest.n - 1) / 3;
  lp::store::StateSyncOptions syncopts;
  syncopts.frame_digest = digest_of_frame;
  lp::store::StateSync sync(args.id, manifest.n, f, rstore.get(), syncopts);
  sync.init_from_recovery(recovery);
  sync.set_send([&](lp::sim::NodeId to, lp::sim::PayloadPtr payload) {
    // State-sync traffic bypasses the protocol core, so the byzantine
    // interposer taps it here to keep the attack covering every byte sent.
    if (byz != nullptr) {
      payload = byz->filter_deployment_send(to, std::move(payload));
      if (payload == nullptr) return;
    }
    env.apply(lp::protocol::Send{to, std::move(payload)});
  });
  sync.set_timer_hooks(
      [&](std::uint64_t token, lp::sim::SimTime delay) { env.arm_aux_timer(token, delay); },
      [&](std::uint64_t token) { env.cancel_aux_timer(token); });
  env.set_aux_timer_handler([&](std::uint64_t token) { sync.on_timer(token, env.now()); });
  env.set_payload_interceptor([&](lp::sim::NodeId from, const lp::sim::PayloadPtr& payload) {
    return sync.on_payload(from, payload, env.now());
  });

  lp::util::Bytes exec_frame;  // reused by every execute (encode_exec_frame)
  env.set_execute_observer([&](const lp::protocol::Execute& e) {
    const auto block_digest = block_digest_of(*e.block);
    // The frame only matters when it can be persisted or buffered for later
    // persistence; skip the re-serialization when running ephemeral + live.
    std::span<const std::uint8_t> frame;
    if (rstore != nullptr || !sync.live()) {
      encode_exec_frame(*e.block, exec_frame);
      frame = exec_frame;
    }
    sync.on_execute(e.seq, e.ordinal, block_digest, e.requests, frame, env.now());
  });

  // Observability endpoint: runs on the transport thread's event loop, so
  // handlers may read env/sync/core state directly (the unsharded core runs
  // on that same thread). Declared after env/sync — destroyed before them.
  env.register_observability(registry);
  if (const auto* replica = dynamic_cast<const lp::core::LeopardReplica*>(inner_core)) {
    registry.gauge_fn("leopard_view", "Current consensus view", "",
                      [replica] { return static_cast<double>(replica->view()); });
    registry.gauge_fn("leopard_executed_through", "Highest contiguously executed sn", "",
                      [replica] { return static_cast<double>(replica->executed_through()); });
  }
  bool metrics_bind_failed = false;
  auto http = make_metrics_server(args, env, &metrics_bind_failed);
  if (metrics_bind_failed) return 3;
  if (http != nullptr) {
    http->handle("/statusz", [&, inner_core](std::string_view query) {
      lp::obs::JsonWriter w;
      w.object_begin();
      w.key("role").value("replica");
      w.key("id").value(static_cast<std::uint64_t>(args.id));
      w.key("protocol").value(manifest.protocol);
      w.key("n").value(static_cast<std::uint64_t>(manifest.n));
      if (const auto* replica = dynamic_cast<const lp::core::LeopardReplica*>(inner_core)) {
        w.key("view").value(static_cast<std::uint64_t>(replica->view()));
        w.key("executed_through").value(replica->executed_through());
        w.key("state_digest").value(replica->state_digest().hex());
      }
      w.key("executed_requests").value(sync.executed_requests());
      w.key("executed_blocks").value(sync.executed_blocks());
      w.key("exec_digest").value(sync.exec_digest().hex());
      w.key("sync_live").value(sync.live());
      write_peers_json(w, env);
      w.key("metrics");
      registry.write_statusz(w);
      if (lp::obs::query_param(query, "traces") == "1") {
        w.key("traces");
        tracer->write_json(w);
      }
      w.object_end();
      lp::obs::HttpServer::Response resp;
      resp.content_type = "application/json";
      resp.body = w.str();
      return resp;
    });
    http->serve_registry(registry);
  }

  sync.start(env.now());

  const auto deadline =
      args.run_for >= 0 ? lp::sim::from_seconds(args.run_for) : lp::sim::SimTime{-1};
  env.run([&] {
    if (g_stop != 0) return true;
    return deadline >= 0 && env.now() >= deadline;
  });

  if (rstore != nullptr) rstore->flush();

  std::string report;
  char buf[512];
  std::snprintf(buf, sizeof(buf), "role=replica id=%u protocol=%s n=%u\n", args.id,
                manifest.protocol.c_str(), manifest.n);
  report += buf;
  std::snprintf(buf, sizeof(buf), "executed_requests=%llu executed_blocks=%llu\n",
                static_cast<unsigned long long>(sync.executed_requests()),
                static_cast<unsigned long long>(sync.executed_blocks()));
  report += buf;
  report += "exec_digest=" + sync.exec_digest().hex() + "\n";
  if (byz != nullptr) {
    const auto& bs = byz->stats();
    std::snprintf(buf, sizeof(buf),
                  "byzantine=%s byz_equivocations=%llu byz_suppressed=%llu "
                  "byz_corrupted=%llu byz_delayed=%llu\n",
                  args.byzantine.c_str(),
                  static_cast<unsigned long long>(bs.equivocations),
                  static_cast<unsigned long long>(bs.suppressed),
                  static_cast<unsigned long long>(bs.corrupted),
                  static_cast<unsigned long long>(bs.delayed));
    report += buf;
  }
  if (const auto* replica = dynamic_cast<const lp::core::LeopardReplica*>(inner_core)) {
    report += "state_digest=" + replica->state_digest().hex() + "\n";
    std::snprintf(buf, sizeof(buf), "view=%u executed_through=%llu\n", replica->view(),
                  static_cast<unsigned long long>(replica->executed_through()));
    report += buf;
  }
  print_stage_latency(report, registry, *tracer);
  if (rstore != nullptr) {
    const auto& st = rstore->stats();
    std::snprintf(buf, sizeof(buf),
                  "store_entries=%llu store_recovered_entries=%llu "
                  "store_snapshot_index=%llu store_torn_bytes=%llu "
                  "store_corrupt_dropped=%llu\n",
                  static_cast<unsigned long long>(rstore->entries()),
                  static_cast<unsigned long long>(recovery.entries),
                  static_cast<unsigned long long>(recovery.snapshot_index),
                  static_cast<unsigned long long>(recovery.torn_bytes),
                  static_cast<unsigned long long>(recovery.corrupt_dropped));
    report += buf;
    std::snprintf(buf, sizeof(buf),
                  "store_appends=%llu store_append_errors=%llu store_fsyncs=%llu "
                  "store_fsync_errors=%llu store_snapshots=%llu\n",
                  static_cast<unsigned long long>(st.appends),
                  static_cast<unsigned long long>(st.append_errors),
                  static_cast<unsigned long long>(st.fsyncs),
                  static_cast<unsigned long long>(st.fsync_errors),
                  static_cast<unsigned long long>(st.snapshots_written));
    report += buf;
  }
  {
    const auto& ss = sync.stats();
    std::snprintf(buf, sizeof(buf),
                  "sync_live=%d sync_rounds=%llu sync_entries=%llu "
                  "sync_duplicates=%llu sync_probes=%llu sync_pulls_served=%llu "
                  "sync_verify_failures=%llu\n",
                  sync.live() ? 1 : 0,
                  static_cast<unsigned long long>(ss.rounds_completed),
                  static_cast<unsigned long long>(ss.entries_transferred),
                  static_cast<unsigned long long>(ss.duplicates_dropped),
                  static_cast<unsigned long long>(ss.probes_sent),
                  static_cast<unsigned long long>(ss.pulls_served),
                  static_cast<unsigned long long>(ss.verify_failures));
    report += buf;
  }
  print_transport_stats(report, env);
  emit_report(args, report);
  return 0;
}

/// Aux-timer token for the cross-shard stall tick. StateSync owns tokens 1
/// and 2 on the same aux wheel; this namespace is disjoint by construction.
constexpr std::uint64_t kStallTimer = 0x100;
constexpr leopard::sim::SimTime kStallTickInterval = 100 * leopard::sim::kMillisecond;

int run_replica_sharded(const Args& args, const leopard::net::Manifest& manifest,
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
  // so the whole PR6 stack runs unchanged under sharding.
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
  // each shard's leader lands on a different machine.
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
  std::vector<lp::chaos::ByzantineInterposer*> byzs(shards, nullptr);
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
    if (!args.byzantine.empty()) {
      lp::chaos::InterposerOptions bopts;
      bopts.attack = *lp::chaos::parse_wire_attack(args.byzantine);
      bopts.n = n;
      bopts.f = f;
      bopts.lag =
          static_cast<lp::sim::SimTime>(args.byzantine_lag_ms) * lp::sim::kMillisecond;
      auto wrapped =
          std::make_unique<lp::chaos::ByzantineInterposer>(std::move(hosted), schemes[s], bopts);
      byzs[s] = wrapped.get();
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
    if (byzs[0] != nullptr) {
      payload = byzs[0]->filter_deployment_send(to, std::move(payload));
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
  registry.gauge_fn("leopard_seq_emitted", "Global records emitted by the sequencer", "",
                    [&sequencer] { return static_cast<double>(sequencer.emitted()); });
  registry.gauge_fn("leopard_seq_round", "Cross-shard sequencer round cursor", "",
                    [&sequencer] { return static_cast<double>(sequencer.round()); });
  bool metrics_bind_failed = false;
  auto http = make_metrics_server(args, env, &metrics_bind_failed);
  if (metrics_bind_failed) return 3;
  if (http != nullptr) {
    http->handle("/statusz", [&](std::string_view query) {
      lp::obs::JsonWriter w;
      w.object_begin();
      w.key("role").value("replica");
      w.key("id").value(static_cast<std::uint64_t>(args.id));
      w.key("protocol").value(manifest.protocol);
      w.key("n").value(static_cast<std::uint64_t>(n));
      w.key("shards").value(static_cast<std::uint64_t>(shards));
      w.key("executed_requests").value(sync.executed_requests());
      w.key("executed_blocks").value(sync.executed_blocks());
      w.key("exec_digest").value(sync.exec_digest().hex());
      w.key("sync_live").value(sync.live());
      // Sequencer cursors are transport-owned (the merge callback runs on the
      // transport thread), so they are always safe to read here.
      w.key("seq_emitted").value(sequencer.emitted());
      w.key("seq_round").value(sequencer.round());
      // Shard cores run on worker threads when io_threads > 1; their live
      // views are only coherently readable from this (transport) thread in
      // the single-io-thread layout.
      if (args.io_threads <= 1) {
        w.key("shard_views").array_begin();
        for (std::uint32_t s = 0; s < shards; ++s) {
          w.value(static_cast<std::uint64_t>(
              leopard_cores[s] != nullptr ? leopard_cores[s]->view() : 0));
        }
        w.array_end();
      }
      write_peers_json(w, env);
      w.key("metrics");
      registry.write_statusz(w);
      if (lp::obs::query_param(query, "traces") == "1") {
        w.key("traces");
        tracer->write_json(w);
      }
      w.object_end();
      lp::obs::HttpServer::Response resp;
      resp.content_type = "application/json";
      resp.body = w.str();
      return resp;
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

  std::string report;
  char buf[512];
  std::snprintf(buf, sizeof(buf), "role=replica id=%u protocol=%s n=%u shards=%u\n",
                args.id, manifest.protocol.c_str(), n, shards);
  report += buf;
  std::snprintf(buf, sizeof(buf), "executed_requests=%llu executed_blocks=%llu\n",
                static_cast<unsigned long long>(sync.executed_requests()),
                static_cast<unsigned long long>(sync.executed_blocks()));
  report += buf;
  report += "exec_digest=" + sync.exec_digest().hex() + "\n";
  for (std::uint32_t s = 0; s < shards; ++s) {
    std::snprintf(buf, sizeof(buf), "shard%u_executed=%llu shard%u_blocks=%llu ", s,
                  static_cast<unsigned long long>(per_shard[s].requests), s,
                  static_cast<unsigned long long>(per_shard[s].blocks));
    report += buf;
    if (leopard_cores[s] != nullptr) {
      std::snprintf(buf, sizeof(buf), "shard%u_view=%u ", s, leopard_cores[s]->view());
      report += buf;
    }
    report += "shard" + std::to_string(s) + "_digest=" + per_shard[s].fold.hex() + "\n";
  }
  std::snprintf(buf, sizeof(buf), "seq_emitted=%llu seq_round=%llu noops_injected=%llu\n",
                static_cast<unsigned long long>(sequencer.emitted()),
                static_cast<unsigned long long>(sequencer.round()),
                static_cast<unsigned long long>(noops_injected));
  report += buf;
  print_stage_latency(report, registry, *tracer);
  if (byzs[0] != nullptr) {
    lp::chaos::ByzantineInterposer::Stats total{};
    for (const auto* b : byzs) {
      if (b == nullptr) continue;
      total.equivocations += b->stats().equivocations;
      total.suppressed += b->stats().suppressed;
      total.corrupted += b->stats().corrupted;
      total.delayed += b->stats().delayed;
    }
    std::snprintf(buf, sizeof(buf),
                  "byzantine=%s byz_equivocations=%llu byz_suppressed=%llu "
                  "byz_corrupted=%llu byz_delayed=%llu\n",
                  args.byzantine.c_str(),
                  static_cast<unsigned long long>(total.equivocations),
                  static_cast<unsigned long long>(total.suppressed),
                  static_cast<unsigned long long>(total.corrupted),
                  static_cast<unsigned long long>(total.delayed));
    report += buf;
  }
  if (rstore != nullptr) {
    const auto& st = rstore->stats();
    std::snprintf(buf, sizeof(buf),
                  "store_entries=%llu store_recovered_entries=%llu "
                  "store_snapshot_index=%llu store_torn_bytes=%llu "
                  "store_corrupt_dropped=%llu\n",
                  static_cast<unsigned long long>(rstore->entries()),
                  static_cast<unsigned long long>(recovery.entries),
                  static_cast<unsigned long long>(recovery.snapshot_index),
                  static_cast<unsigned long long>(recovery.torn_bytes),
                  static_cast<unsigned long long>(recovery.corrupt_dropped));
    report += buf;
    std::snprintf(buf, sizeof(buf),
                  "store_appends=%llu store_append_errors=%llu store_fsyncs=%llu "
                  "store_fsync_errors=%llu store_snapshots=%llu\n",
                  static_cast<unsigned long long>(st.appends),
                  static_cast<unsigned long long>(st.append_errors),
                  static_cast<unsigned long long>(st.fsyncs),
                  static_cast<unsigned long long>(st.fsync_errors),
                  static_cast<unsigned long long>(st.snapshots_written));
    report += buf;
  }
  {
    const auto& ss = sync.stats();
    std::snprintf(buf, sizeof(buf),
                  "sync_live=%d sync_rounds=%llu sync_entries=%llu "
                  "sync_duplicates=%llu sync_probes=%llu sync_pulls_served=%llu "
                  "sync_verify_failures=%llu\n",
                  sync.live() ? 1 : 0,
                  static_cast<unsigned long long>(ss.rounds_completed),
                  static_cast<unsigned long long>(ss.entries_transferred),
                  static_cast<unsigned long long>(ss.duplicates_dropped),
                  static_cast<unsigned long long>(ss.probes_sent),
                  static_cast<unsigned long long>(ss.pulls_served),
                  static_cast<unsigned long long>(ss.verify_failures));
    report += buf;
  }
  print_transport_stats(report, env, args.io_threads);
  emit_report(args, report);
  return 0;
}

int run_client(const Args& args, const leopard::net::Manifest& manifest) {
  namespace lp = leopard;

  lp::core::ClientConfig cfg;
  cfg.payload_size = args.payload != 0 ? args.payload : manifest.payload_size;
  cfg.real_payload = true;  // a real deployment ships real bytes
  cfg.closed_loop_window = args.window;
  cfg.total_requests = args.requests;
  cfg.resubmit_timeout =
      static_cast<lp::sim::SimTime>(args.resubmit_ms) * lp::sim::kMillisecond;

  const auto leader = manifest.initial_leader();
  const bool leopard = manifest.protocol == "leopard";
  if (leopard) {
    cfg.route_by_mu = true;  // µ(req) load balancing over non-leader replicas
  }
  // Baselines accept client requests only at the leader, so the re-submission
  // rotation set is just {leader}; Leopard rotates over all non-leader
  // replicas.
  lp::core::LeopardClient client(cfg, /*target=*/leader,
                                 /*replica_count=*/leopard ? manifest.n : 1,
                                 /*avoid=*/leopard ? leader : manifest.n,
                                 manifest.seed + args.id);
  client.set_self_id(args.id);

  lp::net::SocketEnv env(manifest.client_env_options(args.id));
  env.attach(client);

  auto& registry = lp::obs::Registry::global();
  env.register_observability(registry);
  bool metrics_bind_failed = false;
  auto http = make_metrics_server(args, env, &metrics_bind_failed);
  if (metrics_bind_failed) return 3;
  if (http != nullptr) {
    http->handle("/statusz", [&](std::string_view) {
      lp::obs::JsonWriter w;
      w.object_begin();
      w.key("role").value("client");
      w.key("id").value(static_cast<std::uint64_t>(args.id));
      w.key("protocol").value(manifest.protocol);
      w.key("submitted").value(client.submitted());
      w.key("acked").value(client.acked());
      write_peers_json(w, env);
      w.key("metrics");
      registry.write_statusz(w);
      w.object_end();
      lp::obs::HttpServer::Response resp;
      resp.content_type = "application/json";
      resp.body = w.str();
      return resp;
    });
    http->serve_registry(registry);
  }

  const auto deadline = lp::sim::from_seconds(args.timeout);
  env.run([&] { return g_stop != 0 || client.done() || env.now() >= deadline; });
  const double elapsed = lp::sim::to_seconds(env.now());

  auto& metrics = env.metrics();
  std::string report;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "role=client id=%u protocol=%s n=%u\n", args.id,
                manifest.protocol.c_str(), manifest.n);
  report += buf;
  std::snprintf(buf, sizeof(buf),
                "submitted=%llu acked=%llu elapsed_s=%.3f kreq_s=%.3f\n",
                static_cast<unsigned long long>(client.submitted()),
                static_cast<unsigned long long>(client.acked()), elapsed,
                elapsed > 0 ? static_cast<double>(client.acked()) / elapsed / 1e3 : 0.0);
  report += buf;
  print_client_latency(report, metrics);
  print_transport_stats(report, env);
  emit_report(args, report);
  return client.done() ? 0 : 1;
}

int run_client_sharded(const Args& args, const leopard::net::Manifest& manifest,
                       std::uint32_t shards) {
  namespace lp = leopard;

  lp::core::ClientConfig cfg;
  cfg.payload_size = args.payload != 0 ? args.payload : manifest.payload_size;
  cfg.real_payload = true;
  cfg.resubmit_timeout =
      static_cast<lp::sim::SimTime>(args.resubmit_ms) * lp::sim::kMillisecond;

  const auto leader = manifest.initial_leader();
  const bool leopard = manifest.protocol == "leopard";
  if (leopard) cfg.route_by_mu = true;

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
    for (const auto& sub : subs) {
      if (!sub->done()) return false;
    }
    return true;
  };

  auto& registry = lp::obs::Registry::global();
  env.register_observability(registry);
  bool metrics_bind_failed = false;
  auto http = make_metrics_server(args, env, &metrics_bind_failed);
  if (metrics_bind_failed) return 3;
  if (http != nullptr) {
    http->handle("/statusz", [&](std::string_view) {
      std::uint64_t submitted = 0;
      std::uint64_t acked = 0;
      for (const auto& sub : subs) {
        submitted += sub->submitted();
        acked += sub->acked();
      }
      lp::obs::JsonWriter w;
      w.object_begin();
      w.key("role").value("client");
      w.key("id").value(static_cast<std::uint64_t>(args.id));
      w.key("protocol").value(manifest.protocol);
      w.key("shards").value(static_cast<std::uint64_t>(shards));
      w.key("submitted").value(submitted);
      w.key("acked").value(acked);
      write_peers_json(w, env);
      w.key("metrics");
      registry.write_statusz(w);
      w.object_end();
      lp::obs::HttpServer::Response resp;
      resp.content_type = "application/json";
      resp.body = w.str();
      return resp;
    });
    http->serve_registry(registry);
  }

  const auto deadline = lp::sim::from_seconds(args.timeout);
  env.run([&] { return g_stop != 0 || all_done() || env.now() >= deadline; });
  const double elapsed = lp::sim::to_seconds(env.now());

  std::uint64_t submitted = 0;
  std::uint64_t acked = 0;
  for (const auto& sub : subs) {
    submitted += sub->submitted();
    acked += sub->acked();
  }

  auto& metrics = env.metrics();
  std::string report;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "role=client id=%u protocol=%s n=%u shards=%u\n",
                args.id, manifest.protocol.c_str(), manifest.n, shards);
  report += buf;
  std::snprintf(buf, sizeof(buf),
                "submitted=%llu acked=%llu elapsed_s=%.3f kreq_s=%.3f\n",
                static_cast<unsigned long long>(submitted),
                static_cast<unsigned long long>(acked), elapsed,
                elapsed > 0 ? static_cast<double>(acked) / elapsed / 1e3 : 0.0);
  report += buf;
  print_client_latency(report, metrics);
  print_transport_stats(report, env);
  emit_report(args, report);
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
    if (args.client) {
      return shards > 1 ? run_client_sharded(args, manifest, shards)
                        : run_client(args, manifest);
    }
    return shards > 1 ? run_replica_sharded(args, manifest, shards)
                      : run_replica(args, manifest);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "leopard_node: %s\n", e.what());
    return 2;
  }
}
