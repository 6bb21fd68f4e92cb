// Wire-speed transport benchmark: the zero-copy outbound path, the loopback
// stream path, and the per-shard io-thread scaling, in three sections:
//
//   zero_copy  — broadcasts a 64 KiB chunk to 15 peers and counter-asserts
//                that the whole fanout performed exactly ONE payload
//                serialization (the tentpole invariant: every peer queue
//                aliases the same refcounted body). fanout_per_copy is
//                deterministic — 15 enqueued frames per serialization — and
//                is the gated metric.
//   stream     — two SocketEnvs over real loopback TCP on two threads:
//                frames/s on 64-byte payloads, MB/s on 64 KiB payloads, and
//                p99 round-trip latency on a 1-deep ping-pong. Wall-clock on
//                shared hardware: recorded as trajectory, never gated.
//   io_threads — a real 4-replica S=4 loopback cluster (in process, through
//                node::LoopbackCluster) at io_threads 1 vs 4. The speedup ratio only
//                means anything with >= 4 hardware threads; the record
//                carries hw_threads so the regression checker can skip the
//                gate on small runners.
//
// Usage: bench_wire [--smoke] [--no-loopback] [--no-acceptance]
//   --smoke          tiny targets / short timings, for CI smoke runs.
//   --no-loopback    zero_copy section only (CI gate uses this: the fanout
//                    ratio is the portable signal; stream numbers are
//                    wall-clock noise on shared runners).
//   --no-acceptance  record but do not enforce the single-copy assertion.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "loopback_point.hpp"
#include "net/socket_env.hpp"
#include "net/wire.hpp"
#include "proto/messages.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace {

using namespace leopard;
using Clock = std::chrono::steady_clock;

std::string fmt1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string fmt2(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::shared_ptr<proto::ChunkResponseMsg> make_chunk(std::size_t bytes, std::uint64_t seed) {
  auto m = std::make_shared<proto::ChunkResponseMsg>();
  m->chunk.resize(bytes);
  util::Rng rng(seed);
  rng.fill(m->chunk.data(), m->chunk.size());
  m->chunk_size = static_cast<std::uint32_t>(bytes);
  m->leaf_count = 1;
  return m;
}

// ---------------------------------------------------------------------------
// zero_copy section
// ---------------------------------------------------------------------------

struct ZeroCopyResult {
  std::uint64_t broadcasts = 0;
  std::uint64_t peers = 0;
  std::uint64_t payload_copies = 0;
  std::uint64_t frames_shared = 0;
  double fanout_per_copy = 0;
  double ns_per_broadcast = 0;
};

/// Broadcasts `broadcasts` 64 KiB chunks into a 16-replica SocketEnv with no
/// live connections: every frame lands in a disconnected-peer queue, which is
/// exactly where a copy-per-peer transport would pay 15 memcpys. The env's
/// own counters prove the fanout aliased one serialization.
ZeroCopyResult run_zero_copy(std::uint64_t broadcasts) {
  net::SocketEnvOptions opts;
  opts.self = 0;
  opts.n_replicas = 16;
  // Hold the whole run: 15 queues x broadcasts x ~64KiB of WIRE bytes —
  // but only broadcasts x 64KiB of actual memory, which is the point.
  opts.peer_buffer_limit = std::size_t{2} << 30;
  net::SocketEnv env(opts);

  const auto msg = make_chunk(64 * 1024, 42);
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < broadcasts; ++i) {
    env.broadcast_payload(/*instance=*/0, *msg);
  }
  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();

  const auto& s = env.stats();
  ZeroCopyResult r;
  r.broadcasts = broadcasts;
  r.peers = opts.n_replicas - 1;
  r.payload_copies = s.payload_copies;
  r.frames_shared = s.frames_shared;
  r.fanout_per_copy = s.payload_copies > 0
                          ? static_cast<double>(r.peers) * static_cast<double>(broadcasts) /
                                static_cast<double>(s.payload_copies)
                          : 0;
  r.ns_per_broadcast = broadcasts > 0 ? elapsed * 1e9 / static_cast<double>(broadcasts) : 0;
  if (s.frames_dropped != 0) {
    std::fprintf(stderr, "zero_copy: unexpected drops (%llu) — raise peer_buffer_limit\n",
                 static_cast<unsigned long long>(s.frames_dropped));
  }
  return r;
}

// ---------------------------------------------------------------------------
// stream section (two real SocketEnvs over loopback TCP)
// ---------------------------------------------------------------------------

constexpr std::uint64_t kBurstTimer = 1;
constexpr std::uint32_t kBurst = 64;

struct StreamPoint {
  double frames_per_s = 0;
  double mb_per_s = 0;
};

/// One-way throughput: a sender env pumps `target` frames of `payload_bytes`
/// at a receiver env over one loopback connection; the receiver timestamps
/// its first and last delivery so dial/rampup never pollute the rate.
StreamPoint run_stream_point(std::size_t payload_bytes, std::uint64_t target) {
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> sent{0};
  Clock::time_point first_rx{}, last_rx{};

  net::SocketEnvOptions ropts;
  ropts.self = 0;
  ropts.n_replicas = 2;
  ropts.listen_host = "127.0.0.1";
  net::SocketEnv receiver(ropts);
  net::SocketEnv::InstanceHooks rhooks;
  rhooks.deliver = [&](sim::NodeId, const sim::PayloadPtr&) {
    const auto n = delivered.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n == 1) first_rx = Clock::now();
    if (n == target) last_rx = Clock::now();
  };
  receiver.register_instance(0, std::move(rhooks));

  net::SocketEnvOptions sopts;
  sopts.self = 1;
  sopts.n_replicas = 2;
  sopts.dial[0] = net::PeerAddr{"127.0.0.1", receiver.listen_port()};
  net::SocketEnv sender(sopts);
  const auto msg = make_chunk(payload_bytes, payload_bytes);
  net::SocketEnv::InstanceHooks shooks;
  shooks.deliver = [](sim::NodeId, const sim::PayloadPtr&) {};
  shooks.on_start = [&] { sender.arm_instance_timer(0, kBurstTimer, 0); };
  // Window = frames queued but not yet flushed to the kernel; keeping it
  // bounded means the bench measures the wire, never the shed path.
  const std::uint64_t window = payload_bytes >= 16384 ? 64 : 1024;
  shooks.on_timer = [&](std::uint64_t) {
    // on_timer runs on the transport thread (no io-threads here), so reading
    // stats() is safe.
    for (std::uint32_t i = 0; i < kBurst; ++i) {
      const auto s = sent.load(std::memory_order_relaxed);
      // Signed: frames_sent includes the Hello frame, so it can exceed s.
      const auto inflight = static_cast<std::int64_t>(s) -
                            static_cast<std::int64_t>(sender.stats().frames_sent);
      if (s >= target || inflight >= static_cast<std::int64_t>(window)) break;
      sender.send_payload(0, /*to=*/0, *msg);
      sent.fetch_add(1, std::memory_order_relaxed);
    }
    if (sent.load(std::memory_order_relaxed) < target) {
      sender.arm_instance_timer(0, kBurstTimer, 0);
    } else {
      sender.arm_instance_timer(0, kBurstTimer, sim::kMillisecond);  // idle keep-alive
    }
  };
  sender.register_instance(0, std::move(shooks));

  std::thread rx([&] { receiver.run([&] { return delivered.load() >= target; }); });
  std::thread tx([&] { sender.run(); });
  rx.join();
  sender.stop();
  tx.join();

  StreamPoint p;
  const double elapsed = std::chrono::duration<double>(last_rx - first_rx).count();
  if (elapsed > 0 && target > 1) {
    p.frames_per_s = static_cast<double>(target - 1) / elapsed;
    p.mb_per_s = p.frames_per_s * static_cast<double>(payload_bytes) / 1e6;
  }
  return p;
}

/// Round-trip p50/p99 on a 1-deep ping-pong of 64-byte chunks: each frame
/// crosses the full encode → sendmsg → recv-in-place → decode path twice.
void run_stream_pingpong(std::uint64_t samples, double& p50_us, double& p99_us) {
  std::vector<double> rtts_us;
  rtts_us.reserve(samples);
  std::atomic<bool> done{false};
  Clock::time_point sent_at{};

  net::SocketEnvOptions ropts;
  ropts.self = 0;
  ropts.n_replicas = 2;
  ropts.listen_host = "127.0.0.1";
  net::SocketEnv echo(ropts);
  const auto pong = make_chunk(64, 7);
  net::SocketEnv::InstanceHooks ehooks;
  ehooks.deliver = [&](sim::NodeId from, const sim::PayloadPtr&) {
    echo.send_payload(0, from, *pong);
  };
  echo.register_instance(0, std::move(ehooks));

  net::SocketEnvOptions sopts;
  sopts.self = 1;
  sopts.n_replicas = 2;
  sopts.dial[0] = net::PeerAddr{"127.0.0.1", echo.listen_port()};
  net::SocketEnv pinger(sopts);
  const auto ping = make_chunk(64, 8);
  net::SocketEnv::InstanceHooks phooks;
  phooks.on_start = [&] {
    sent_at = Clock::now();
    pinger.send_payload(0, 0, *ping);
  };
  phooks.deliver = [&](sim::NodeId, const sim::PayloadPtr&) {
    const auto now = Clock::now();
    rtts_us.push_back(std::chrono::duration<double, std::micro>(now - sent_at).count());
    if (rtts_us.size() >= samples) {
      done.store(true);
      return;
    }
    sent_at = now;
    pinger.send_payload(0, 0, *ping);
  };
  pinger.register_instance(0, std::move(phooks));

  std::thread et([&] { echo.run([&] { return done.load(); }); });
  std::thread pt([&] { pinger.run([&] { return done.load(); }); });
  pt.join();
  echo.stop();
  et.join();

  std::sort(rtts_us.begin(), rtts_us.end());
  p50_us = rtts_us.empty() ? 0 : rtts_us[rtts_us.size() / 2];
  p99_us = rtts_us.empty() ? 0 : rtts_us[rtts_us.size() * 99 / 100];
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool loopback = true;
  bool enforce_acceptance = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--no-loopback") == 0) {
      loopback = false;
    } else if (std::strcmp(argv[i], "--no-acceptance") == 0) {
      enforce_acceptance = false;
    } else {
      std::fprintf(stderr,
                   "unknown flag: %s\nusage: %s [--smoke] [--no-loopback] [--no-acceptance]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }

  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("{\"bench\":\"wire\",\"smoke\":%s,\"hw_threads\":%u", smoke ? "true" : "false",
              hw_threads);

  // --- zero_copy -------------------------------------------------------------
  const std::uint64_t broadcasts = smoke ? 64 : 512;
  const auto zc = run_zero_copy(broadcasts);
  std::printf(",\"zero_copy\":{\"peers\":%llu,\"payload_bytes\":65536,\"broadcasts\":%llu,"
              "\"payload_copies\":%llu,\"frames_shared\":%llu,\"fanout_per_copy\":%s,"
              "\"ns_per_broadcast\":%s}",
              static_cast<unsigned long long>(zc.peers),
              static_cast<unsigned long long>(zc.broadcasts),
              static_cast<unsigned long long>(zc.payload_copies),
              static_cast<unsigned long long>(zc.frames_shared),
              fmt2(zc.fanout_per_copy).c_str(), fmt1(zc.ns_per_broadcast).c_str());
  std::fflush(stdout);

  // --- stream ----------------------------------------------------------------
  if (loopback) {
    const std::uint64_t small_target = smoke ? 5000 : 200000;
    const std::uint64_t large_target = smoke ? 200 : 4000;
    const std::uint64_t pp_samples = smoke ? 200 : 2000;
    const auto small = run_stream_point(64, small_target);
    const auto large = run_stream_point(64 * 1024, large_target);
    double p50_us = 0, p99_us = 0;
    run_stream_pingpong(pp_samples, p50_us, p99_us);
    std::printf(",\"stream\":{\"small_frames_per_s\":%s,\"large_MBps\":%s,"
                "\"rtt_p50_us\":%s,\"rtt_p99_us\":%s}",
                fmt1(small.frames_per_s).c_str(), fmt1(large.mb_per_s).c_str(),
                fmt1(p50_us).c_str(), fmt1(p99_us).c_str());
  } else {
    std::printf(",\"stream\":null");
  }
  std::fflush(stdout);

  // --- io_threads ------------------------------------------------------------
  if (loopback) {
    const std::uint32_t requests = smoke ? 400 : 20000;
    double io1 = 0, io4 = 0;
    std::printf(",\"io_threads\":{\"shards\":4,\"requests\":%u,\"records\":[", requests);
    bool first = true;
    for (const std::uint32_t io : {1u, 4u}) {
      const double kreqs = bench::loopback_kreqs(/*shards=*/4, io, requests);
      if (io == 1) io1 = kreqs;
      if (io == 4) io4 = kreqs;
      std::printf("%s{\"io_threads\":%u,\"kreqs_per_s\":%s}", first ? "" : ",", io,
                  kreqs >= 0 ? fmt1(kreqs).c_str() : "null");
      first = false;
      std::fflush(stdout);
    }
    std::printf("],\"speedup_io4\":%s}",
                (io1 > 0 && io4 > 0) ? fmt2(io4 / io1).c_str() : "null");
  } else {
    std::printf(",\"io_threads\":null");
  }

  // --- acceptance ------------------------------------------------------------
  // The single-copy broadcast invariant is exact arithmetic, not a timing:
  // one serialization per broadcast means fanout_per_copy == peers (15).
  const bool single_copy = zc.payload_copies == zc.broadcasts &&
                           zc.frames_shared == zc.broadcasts * (zc.peers - 1);
  std::printf(",\"acceptance\":{\"single_copy_broadcast\":%s,\"fanout_target\":15.0,"
              "\"fanout_per_copy\":%s,\"pass\":%s}}\n",
              single_copy ? "true" : "false", fmt2(zc.fanout_per_copy).c_str(),
              single_copy ? "true" : "false");

  if (!single_copy) {
    std::fprintf(stderr,
                 "acceptance %s: %llu serializations for %llu broadcasts x %llu peers "
                 "(want 1 per broadcast, %llu shared)\n",
                 enforce_acceptance ? "FAILED" : "missed (not enforced)",
                 static_cast<unsigned long long>(zc.payload_copies),
                 static_cast<unsigned long long>(zc.broadcasts),
                 static_cast<unsigned long long>(zc.peers),
                 static_cast<unsigned long long>(zc.frames_shared));
    if (enforce_acceptance) return 1;
  }
  return 0;
}
