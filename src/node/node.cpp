#include "node/node.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <span>
#include <thread>
#include <type_traits>

#include "chaos/interposer.hpp"
#include "core/client.hpp"
#include "core/replica.hpp"
#include "crypto/threshold_sig.hpp"
#include "net/socket_env.hpp"
#include "net/wire.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shard/mux_env.hpp"
#include "shard/sequencer.hpp"
#include "store/state_sync.hpp"
#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/worker_pool.hpp"

namespace leopard::node {

namespace {

/// The canonical digest of an executed block (what the exec_digest fold and
/// state transfer verify against): the cached digest of a Datablock/Baseline
/// block, the zero digest for anything else.
crypto::Digest block_digest_of(const sim::Payload& block) {
  if (const auto* db = dynamic_cast<const proto::DatablockMsg*>(&block)) {
    return db->cached_digest;
  }
  if (const auto* bb = dynamic_cast<const proto::BaselineBlockMsg*>(&block)) {
    return bb->cached_digest;
  }
  return {};
}

/// block_digest_of a block's wire frame, nullopt if the frame is malformed.
/// StateSync uses this to verify transferred entries.
std::optional<crypto::Digest> digest_of_frame(std::span<const std::uint8_t> frame) {
  if (frame.size() < net::kFrameHeaderBytes + 1) return std::nullopt;
  std::uint32_t len = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(frame[i]) << (8 * i);
  }
  if (len == 0 || len + net::kFrameHeaderBytes != frame.size()) return std::nullopt;
  const auto type = static_cast<net::MsgType>(frame[4]);
  const auto payload = net::decode_payload(type, frame.subspan(net::kFrameHeaderBytes + 1), 0);
  if (payload == nullptr) return std::nullopt;
  return block_digest_of(*payload);
}

/// Re-serializes an executed block's wire frame into `frame`, replacing its
/// contents but keeping its capacity: with one buffer kept for the whole
/// run, the execute path stops allocating once it has held the largest frame.
void encode_exec_frame(const sim::Payload& block, util::Bytes& frame) {
  frame.clear();
  const bool ok = net::encode_frame(block, /*instance=*/0, frame);
  util::ensures(ok, "executed block has no wire form");
}

/// Folds one executed block into a shard-local stream digest.
void fold_into(crypto::Digest& fold, const crypto::Digest& block_digest, std::uint64_t seq,
               std::uint32_t ordinal) {
  std::uint8_t buf[2 * crypto::Digest::kSize + 12];
  std::memcpy(buf, fold.bytes().data(), crypto::Digest::kSize);
  std::memcpy(buf + crypto::Digest::kSize, block_digest.bytes().data(), crypto::Digest::kSize);
  for (std::size_t i = 0; i < 8; ++i) {
    buf[2 * crypto::Digest::kSize + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    buf[2 * crypto::Digest::kSize + 8 + i] = static_cast<std::uint8_t>(ordinal >> (8 * i));
  }
  fold = crypto::Digest::of(buf);
}

/// Binds the observability endpoint, or returns nullptr when no address is
/// set. A bind failure is a StartError: an operator who asked for the
/// endpoint must not silently lose it.
std::unique_ptr<obs::HttpServer> make_metrics_server(
    const std::optional<obs::HttpServer::Options>& addr, net::SocketEnv& env) {
  if (!addr) return nullptr;
  auto http = std::make_unique<obs::HttpServer>(env.loop(), *addr);
  if (!http->listening()) {
    throw StartError("cannot bind --metrics-addr " + addr->host + ":" +
                     std::to_string(addr->port));
  }
  return http;
}

/// /statusz: the fields, the peer table, every registry series under
/// `metrics`, and (replicas, `?traces=1`) the sampled span ring.
obs::HttpServer::Response statusz(const Fields& fields, net::SocketEnv& env,
                                  obs::Registry& registry, const obs::StageTracer* traces) {
  obs::JsonWriter w;
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
  obs::HttpServer::Response resp;
  resp.content_type = "application/json";
  resp.body = w.str();
  return resp;
}

/// Aux-timer token for the cross-shard stall tick. StateSync owns tokens 1
/// and 2 on the same aux wheel; this namespace is disjoint by construction.
constexpr std::uint64_t kStallTimer = 0x100;

}  // namespace

std::string render_fields(const Fields& fields) {
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
            obs::append_number(report, static_cast<double>(v));
          }
        },
        value);
    report += '\n';
  }
  return report;
}

void size_worker_pool(const net::Manifest& manifest) {
  std::size_t lanes = manifest.encode_workers;
  if (lanes == 0) {
    const auto hw = std::thread::hardware_concurrency();
    lanes = hw != 0 ? hw : 1;
  }
  util::WorkerPool::global().resize(lanes);
}

Replica::Replica(net::Manifest manifest, ReplicaOptions opts, obs::Registry& registry)
    : manifest_(std::move(manifest)), opts_(std::move(opts)), registry_(registry) {
  util::expects(opts_.id < manifest_.n, "replica id out of range");
}

/// S >= 1 unmodified protocol cores, each behind a shard::MuxEnv over one
/// shared SocketEnv, merged by a shard::Sequencer into the one Execute stream
/// that the store and StateSync consume. At S = 1 the sequencer passes every
/// record through unchanged inside its own push, so the WAL, the wire bytes
/// and the executed stream are a lone core's.
Fields Replica::run() {
  const std::uint32_t n = manifest_.n;
  const std::uint32_t shards = opts_.shards != 0 ? opts_.shards : manifest_.shards;
  const auto spec = manifest_.spec();

  auto eopts = manifest_.replica_env_options(opts_.id);
  eopts.io_threads = opts_.io_threads;
  net::SocketEnv env(std::move(eopts));

  // Durability + state transfer: ONE store and ONE StateSync consuming the
  // MERGED global stream — (gseq, gordinal) is the durable-commit identity,
  // so the store and state transfer run unchanged for every S. A corrupt
  // store refuses to start under strict recovery: restarting on silently
  // damaged state is how a replica ends up voting against its past.
  std::unique_ptr<store::ReplicaStore> rstore;
  store::RecoveryResult recovery;
  if (!opts_.data_dir.empty()) {
    store::StoreOptions sopts;
    sopts.dir = opts_.data_dir;
    sopts.fsync_policy = opts_.fsync;
    sopts.fsync_interval = static_cast<sim::SimTime>(opts_.fsync_interval_ms) * sim::kMillisecond;
    sopts.snapshot_every = opts_.snapshot_every;
    rstore = std::make_unique<store::ReplicaStore>(sopts);
    recovery = rstore->open(opts_.recover);
    if (!recovery.ok()) {
      throw StartError("data dir '" + opts_.data_dir + "' unusable: " + recovery.detail);
    }
  }

  const std::uint32_t f = (n - 1) / 3;
  store::StateSyncOptions syncopts;
  syncopts.frame_digest = digest_of_frame;
  store::StateSync sync(opts_.id, n, f, rstore.get(), syncopts);
  sync.init_from_recovery(recovery);

  // Per-shard report state: the shard-LOCAL stream fold, comparable across
  // replicas per shard (each shard is its own consensus instance).
  struct PerShard {
    std::uint64_t requests = 0;
    std::uint64_t blocks = 0;
    crypto::Digest fold;
  };
  std::vector<PerShard> per_shard(shards);

  // Real (non-filler) records pushed but not yet merged — the stall
  // detector's trigger (see shard/sequencer.hpp for why filler must not
  // count). Resynced to zero whenever the sequencer drains completely, so a
  // recovery-time prune can only overcount transiently.
  std::uint64_t pending_real = 0;
  std::uint64_t noops_injected = 0;
  std::uint64_t noop_seq = 0;
  std::uint64_t last_emitted = 0;

  util::Bytes exec_frame;  // reused by every merged execute (encode_exec_frame)
  shard::Sequencer sequencer(shards, [&](const shard::GlobalRecord& r) {
    if (!shard::is_filler_block(*r.exec.block) && pending_real > 0) --pending_real;
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
  std::vector<crypto::ThresholdScheme> schemes;
  schemes.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    schemes.emplace_back(n, manifest_.quorum(), manifest_.seed + s);
  }
  // Request-stage tracer shared by every shard core. The stage hooks fire on
  // whichever worker thread runs the shard; the tracer's histograms record
  // through per-thread registry shards and its span ring is mutex-guarded, so
  // one tracer serves all shards.
  obs::StageTracer::Options topts;
  topts.sample_every = opts_.trace_sample;
  obs::StageTracer tracer(registry_, topts);

  std::vector<std::unique_ptr<protocol::Protocol>> cores;
  std::vector<std::unique_ptr<shard::MuxEnv>> muxes;
  std::vector<const core::LeopardReplica*> leopard_cores(shards, nullptr);
  chaos::ByzantineInterposer* byz0 = nullptr;  // shard 0's, for state-sync sends
  for (std::uint32_t s = 0; s < shards; ++s) {
    const auto core_id = static_cast<proto::ReplicaId>((opts_.id + n - s % n) % n);
    auto hosted = protocol::make_protocol(spec, schemes[s], core_id);
    leopard_cores[s] = dynamic_cast<const core::LeopardReplica*>(hosted.get());
    if (auto* lr = dynamic_cast<core::LeopardReplica*>(hosted.get())) {
      lr->set_stage_hooks(
          [&tracer](std::uint64_t client, std::uint64_t seq, sim::SimTime ingress,
                    sim::SimTime created) { tracer.on_generated(client, seq, ingress, created); },
          [&tracer](std::uint64_t client, std::uint64_t seq, sim::SimTime created,
                    sim::SimTime linked, sim::SimTime executed) {
            tracer.on_executed(client, seq, created, linked, executed);
          });
    }
    // A byzantine option wraps the unmodified core in the attack interposer
    // (chaos/interposer.hpp); leopard_cores keeps the inner core for reports.
    if (!opts_.byzantine.empty()) {
      chaos::InterposerOptions bopts;
      bopts.attack = *chaos::parse_wire_attack(opts_.byzantine);
      bopts.n = n;
      bopts.f = f;
      bopts.lag = static_cast<sim::SimTime>(opts_.byzantine_lag_ms) * sim::kMillisecond;
      auto wrapped =
          std::make_unique<chaos::ByzantineInterposer>(std::move(hosted), schemes[s], bopts);
      wrapped->register_observability(registry_);
      if (s == 0) byz0 = wrapped.get();
      hosted = std::move(wrapped);
    }
    // env.metrics() is the transport-owned ProtocolMetrics the registry's
    // core counter_fns read; MuxEnv posts its updates to the transport thread.
    auto mux = std::make_unique<shard::MuxEnv>(env, env.metrics(), n, s, shards);
    mux->attach(*hosted);
    mux->set_execute_observer([&, s](const protocol::Execute& e) {
      auto& ps = per_shard[s];
      ps.requests += e.requests;
      ++ps.blocks;
      fold_into(ps.fold, block_digest_of(*e.block), e.seq, e.ordinal);
      const bool real = !shard::is_filler_block(*e.block);
      if (real) ++pending_real;
      if (!sequencer.push(s, e) && real && pending_real > 0) --pending_real;
    });
    cores.push_back(std::move(hosted));
    muxes.push_back(std::move(mux));
  }

  sync.set_send([&](sim::NodeId to, sim::PayloadPtr payload) {
    // State-sync traffic bypasses the protocol cores, so the byzantine
    // interposer taps it here to keep the attack covering every byte sent.
    if (byz0 != nullptr) {
      payload = byz0->filter_deployment_send(to, std::move(payload));
      if (payload == nullptr) return;
    }
    env.apply(protocol::Send{to, std::move(payload)});
  });
  sync.set_timer_hooks(
      [&](std::uint64_t token, sim::SimTime delay) { env.arm_aux_timer(token, delay); },
      [&](std::uint64_t token) { env.cancel_aux_timer(token); });
  env.set_payload_interceptor([&](sim::NodeId from, const sim::PayloadPtr& payload) {
    return sync.on_payload(from, payload, env.now());
  });

  env.register_observability(registry_);
  sync.register_observability(registry_);
  if (rstore != nullptr) rstore->register_observability(registry_);
  registry_.gauge_fn("leopard_seq_emitted", "Global records emitted by the sequencer", "",
                    [&sequencer] { return static_cast<double>(sequencer.emitted()); });
  registry_.gauge_fn("leopard_seq_round", "Cross-shard sequencer round cursor", "",
                    [&sequencer] { return static_cast<double>(sequencer.round()); });
  // At S = 1 shard 0's core is the replica and runs on this (transport)
  // thread, so the single-instance keys read it directly.
  const core::LeopardReplica* lone = shards == 1 ? leopard_cores[0] : nullptr;
  if (lone != nullptr) {
    registry_.gauge_fn("leopard_view", "Current consensus view", "",
                      [lone] { return static_cast<double>(lone->view()); });
    registry_.gauge_fn("leopard_executed_through", "Highest contiguously executed sn", "",
                      [lone] { return static_cast<double>(lone->executed_through()); });
  }

  // The replica's fields, for the report and /statusz alike. Everything read
  // here is transport-owned (the sequencer's merge callback, the per-shard
  // folds and the stall tick all run on the transport thread) except the
  // shard cores' views: with io_threads > 1 their cores run on workers, so
  // shardK_view is only read when `cores_quiet` (one io thread, or the
  // workers have been joined).
  const auto replica_fields = [&](bool cores_quiet) {
    Fields fields = {
        {"role", std::string("replica")},
        {"id", std::uint64_t{opts_.id}},
        {"protocol", manifest_.protocol},
        {"n", std::uint64_t{n}},
        {"shards", std::uint64_t{shards}},
        {"executed_requests", sync.executed_requests()},
        {"executed_blocks", sync.executed_blocks()},
        {"exec_digest", sync.exec_digest().hex()},
    };
    if (lone != nullptr) {
      fields.push_back({"state_digest", lone->state_digest().hex()});
      fields.push_back({"view", std::uint64_t{lone->view()}});
      fields.push_back({"executed_through", lone->executed_through()});
    }
    for (std::uint32_t s = 0; s < shards; ++s) {
      const auto shard = "shard" + std::to_string(s);
      fields.push_back({shard + "_executed", per_shard[s].requests});
      fields.push_back({shard + "_blocks", per_shard[s].blocks});
      if (cores_quiet && leopard_cores[s] != nullptr) {
        fields.push_back({shard + "_view", std::uint64_t{leopard_cores[s]->view()}});
      }
      fields.push_back({shard + "_digest", per_shard[s].fold.hex()});
    }
    fields.push_back({"seq_emitted", sequencer.emitted()});
    fields.push_back({"seq_round", sequencer.round()});
    fields.push_back({"noops_injected", noops_injected});
    fields.push_back({"io_threads", std::uint64_t{env.io_threads()}});
    fields.push_back({"sync_live", sync.live()});
    if (!opts_.byzantine.empty()) fields.push_back({"byzantine", opts_.byzantine});
    // Health fields: the error and progress counts perfbench's correctness
    // gate reads from the report by these names (a missing key reads as 0
    // there, so they must not move). Each is also a registry series.
    fields.push_back({"decode_errors", env.stats().decode_errors});
    fields.push_back({"sync_verify_failures", sync.stats().verify_failures});
    if (rstore != nullptr) {
      const auto& st = rstore->stats();
      fields.push_back({"store_appends", st.appends});
      fields.push_back({"store_append_errors", st.append_errors});
      fields.push_back({"store_fsync_errors", st.fsync_errors});
      fields.push_back({"store_snapshots", st.snapshots_written});
    }
    return fields;
  };

  auto http = make_metrics_server(opts_.metrics_addr, env);
  if (http != nullptr) {
    http->handle("/statusz", [&](std::string_view query) {
      const bool traces = obs::query_param(query, "traces") == "1";
      return statusz(replica_fields(env.io_threads() <= 1), env, registry_,
                     traces ? &tracer : nullptr);
    });
    http->serve_registry(registry_);
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
      proto::Request req;
      req.client_id = shard::kFillerClientBase + opts_.id;
      req.seq = noop_seq++;
      req.payload_size = 1;
      req.submitted_at = env.now();
      muxes[s]->inject_request(static_cast<sim::NodeId>(shard::kFillerClientBase + opts_.id),
                               std::make_shared<proto::ClientRequestMsg>(std::move(req)));
      ++noops_injected;
    }
    last_emitted = sequencer.emitted();
    env.arm_aux_timer(kStallTimer, shard::kStallTickInterval);
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
  env.arm_aux_timer(kStallTimer, shard::kStallTickInterval);

  const auto deadline = opts_.run_for >= 0 ? sim::from_seconds(opts_.run_for) : -1;
  env.run([&] { return stop_.load() || (deadline >= 0 && env.now() >= deadline); });

  if (rstore != nullptr) rstore->flush();
  registry_.write_flat(final_series_);
  return replica_fields(/*cores_quiet=*/true);
}

Client::Client(net::Manifest manifest, ClientOptions opts, obs::Registry& registry)
    : manifest_(std::move(manifest)), opts_(std::move(opts)), registry_(registry) {}

/// The closed-loop client: one LeopardClient per shard with work,
/// each behind a shard::MuxEnv over one SocketEnv. At S = 1 that is one
/// client with the whole window, the whole request count and seed + id.
Fields Client::run() {
  const std::uint32_t shards = opts_.shards != 0 ? opts_.shards : manifest_.shards;

  core::ClientConfig cfg;
  cfg.payload_size = opts_.payload != 0 ? opts_.payload : manifest_.payload_size;
  cfg.real_payload = true;  // a real deployment ships real bytes
  cfg.resubmit_timeout = static_cast<sim::SimTime>(opts_.resubmit_ms) * sim::kMillisecond;

  const auto leader = manifest_.initial_leader();
  const bool leopard = manifest_.protocol == "leopard";
  if (leopard) cfg.route_by_mu = true;  // µ(req) load balancing over non-leader replicas

  // Hash-partition the request index space across shards (the split the
  // simulated client uses), with a per-shard slice of the closed-loop window.
  cfg.total_requests = opts_.requests;
  cfg.closed_loop_window = std::max(1u, opts_.window);
  const std::uint64_t seed = manifest_.seed + opts_.id;

  net::SocketEnv env(manifest_.client_env_options(opts_.id));

  std::vector<std::unique_ptr<core::LeopardClient>> subs;
  std::vector<std::unique_ptr<shard::MuxEnv>> muxes;
  for (const auto& slice : shard::split_client(cfg, seed, shards)) {
    // Baselines accept client requests only at the leader, so the
    // re-submission rotation set is just {leader}; Leopard rotates over all
    // non-leader replicas.
    auto sub = std::make_unique<core::LeopardClient>(
        slice.cfg, /*target=*/leader, /*replica_count=*/leopard ? manifest_.n : 1,
        /*avoid=*/leopard ? leader : manifest_.n, slice.seed);
    sub->set_self_id(opts_.id);
    // env.metrics() is shared across every shard's MuxEnv, so the latency
    // histogram merges and the report math below stays identical.
    auto mux =
        std::make_unique<shard::MuxEnv>(env, env.metrics(), manifest_.n, slice.shard, shards);
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
    const double elapsed = sim::to_seconds(env.now());
    const auto& metrics = env.metrics();
    // mean_latency_ms/p50_latency_ms are the historical keys scripts parse;
    // the tail percentiles are additive.
    return Fields{
        {"role", std::string("client")},
        {"id", std::uint64_t{opts_.id}},
        {"protocol", manifest_.protocol},
        {"n", std::uint64_t{manifest_.n}},
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

  env.register_observability(registry_);
  auto http = make_metrics_server(opts_.metrics_addr, env);
  if (http != nullptr) {
    http->handle("/statusz", [&](std::string_view) {
      return statusz(client_fields(), env, registry_, nullptr);
    });
    http->serve_registry(registry_);
  }

  const auto deadline = sim::from_seconds(opts_.timeout);
  env.run([&] { return stop_.load() || all_done() || env.now() >= deadline; });
  done_ = all_done();
  registry_.write_flat(final_series_);
  return client_fields();
}

// ---------------------------------------------------------------------------
// LoopbackCluster
// ---------------------------------------------------------------------------

std::vector<std::uint16_t> pick_free_ports(std::size_t count) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    util::ensures(fd >= 0, "socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    const bool ok = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0 &&
                    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    fds.push_back(fd);
    util::ensures(ok, "cannot bind a loopback port");
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

/// One replica id's incarnation: declared so the replica goes before the
/// registry it reports into.
struct LoopbackCluster::Slot {
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<Replica> replica;
  std::thread thread;
  Fields fields;
  std::exception_ptr error;

  Fields join() {
    thread.join();
    if (error) std::rethrow_exception(std::exchange(error, nullptr));
    return std::move(fields);
  }
};

LoopbackCluster::LoopbackCluster(net::Manifest manifest) : manifest_(std::move(manifest)) {
  const auto ports = pick_free_ports(manifest_.n);
  manifest_.nodes.clear();
  for (sim::NodeId id = 0; id < manifest_.n; ++id) {
    manifest_.nodes[id] = net::PeerAddr{"127.0.0.1", ports[id]};
    slots_.push_back(std::make_unique<Slot>());
  }
  size_worker_pool(manifest_);
}

LoopbackCluster::~LoopbackCluster() {
  for (auto& slot : slots_) {
    if (slot->thread.joinable()) {
      slot->replica->stop();
      slot->thread.join();
    }
  }
}

void LoopbackCluster::start(const ReplicaOptions& opts, std::optional<net::Manifest> manifest) {
  auto& slot = *slots_.at(opts.id);
  util::expects(!slot.thread.joinable(), "LoopbackCluster::start: replica already running");
  slot.replica.reset();
  slot.registry = std::make_unique<obs::Registry>();
  slot.replica =
      std::make_unique<Replica>(manifest ? std::move(*manifest) : manifest_, opts, *slot.registry);
  slot.thread = std::thread([&slot] {
    try {
      slot.fields = slot.replica->run();
    } catch (...) {
      slot.error = std::current_exception();
    }
  });
}

Fields LoopbackCluster::stop(sim::NodeId id) {
  auto& slot = *slots_.at(id);
  slot.replica->stop();
  return slot.join();
}

const std::string& LoopbackCluster::final_series(sim::NodeId id) const {
  return slots_.at(id)->replica->final_series();
}

Fields LoopbackCluster::run_client(const ClientOptions& opts) {
  obs::Registry registry;
  Client client(manifest_, opts, registry);
  return client.run();
}

}  // namespace leopard::node
