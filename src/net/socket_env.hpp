// SocketEnv: the real-wire twin of SimEnv. Hosts an unmodified sans-I/O
// protocol core (LeopardReplica or either baseline) over nonblocking TCP:
//
//   - Send/Broadcast serialize through net/wire.hpp and go out over per-peer
//     connections with outbound buffering; frames for a disconnected peer
//     queue (bounded) and flush on (re)connect;
//   - SetTimer/CancelTimer land in a hierarchical timer wheel keyed by the
//     core's opaque tokens (re-arm replaces, cancel is O(1));
//   - MetricsUpdate feeds the embedded ProtocolMetrics; Execute and
//     ChargeCpu are dropped (a directly attached core is a client driver,
//     replica cores run as registered instances whose shard::MuxEnv hands
//     Execute to the host, and real CPUs charge themselves);
//   - now() is the monotonic clock (ns since construction), costs() is
//     all-zero.
//
// Actions are applied synchronously in emission order, exactly per the Env
// contract. Everything runs on the single thread that calls run(); stop()
// is safe from other threads and signal handlers.
//
// Connection topology: each node dials the peers in `dial` (by convention a
// replica dials every lower-id replica and a client dials every replica) and
// accepts everyone else, so each pair shares exactly one TCP connection
// carrying traffic both ways. Dialed connections reconnect with exponential
// backoff; accepted ones are re-established by the dialing side. The dialer
// identifies itself with a Hello frame; a malformed frame (bad length,
// unknown tag, undecodable body) drops the connection, and reconnection
// re-synchronizes at a frame boundary.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "net/event_loop.hpp"
#include "net/mpsc_ring.hpp"
#include "net/send_queue.hpp"
#include "net/timer_wheel.hpp"
#include "net/wire.hpp"
#include "protocol/protocol.hpp"

namespace leopard::obs {
class Registry;
}  // namespace leopard::obs

namespace leopard::net {

struct PeerAddr {
  std::string host = "127.0.0.1";  // IPv4 dotted quad
  std::uint16_t port = 0;
};

struct SocketEnvOptions {
  /// This node's transport identity (replicas: 0..n-1; clients: >= n).
  sim::NodeId self = 0;
  /// Broadcast target set is replica ids 0..n_replicas-1 (minus self).
  std::uint32_t n_replicas = 4;

  /// Listening endpoint; port 0 with an empty host disables accepting
  /// (clients). Port 0 with a host binds an ephemeral port (tests).
  std::string listen_host;
  std::uint16_t listen_port = 0;

  /// Peers this node actively dials (and re-dials on disconnect).
  std::map<sim::NodeId, PeerAddr> dial;

  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Cap on frames queued for one disconnected/slow peer; beyond it the
  /// oldest queued frames are dropped (the protocol tolerates loss via
  /// retrieval and view-change, same as any real network).
  std::size_t peer_buffer_limit = 64u << 20;

  sim::SimTime reconnect_min = 50 * sim::kMillisecond;
  sim::SimTime reconnect_max = 2 * sim::kSecond;
  sim::SimTime timer_tick = sim::kMillisecond;

  /// Per-instance event-loop threads: with io_threads > 1 and registered
  /// instances, each shard instance (and its timer wheel) runs on a worker
  /// thread (instance order, round-robin across workers) while this thread
  /// keeps the sockets, the aux/internal wheels, and any directly-attached
  /// protocol. Handoff is lock-free MPSC rings both ways. io_threads <= 1 is
  /// the exact single-threaded path — bit-identical behavior.
  std::uint32_t io_threads = 1;
};

class SocketEnv final : public protocol::Env {
 public:
  explicit SocketEnv(SocketEnvOptions opts);
  ~SocketEnv() override;

  SocketEnv(const SocketEnv&) = delete;
  SocketEnv& operator=(const SocketEnv&) = delete;

  /// Binds a protocol core hosted directly on the transport thread (not
  /// owned), without an instance adapter. Its Execute actions are dropped:
  /// this is for client drivers; replicas register instances.
  void attach(protocol::Protocol& protocol) { protocol_ = &protocol; }

  /// Multi-instance hosting: a core multiplexed over this env's connections
  /// (how leopard_node hosts every replica core, S >= 1). The hooks live in the instance's own Env
  /// adapter (shard::MuxEnv) — the transport only routes. Instance 0 travels
  /// as bare frames (wire-compatible with unsharded peers); any other id
  /// rides a kShardFrame envelope. Instance ids must be registered before
  /// run(); a frame tagged with an unregistered id is counted and dropped
  /// (frame-level, the connection survives — a mixed-S cluster must not
  /// flap links).
  struct InstanceHooks {
    /// Delivered once when run() starts (call the core's on_start).
    std::function<void()> on_start;
    /// One decoded inbound payload addressed to this instance.
    std::function<void(sim::NodeId from, const sim::PayloadPtr&)> deliver;
    /// One due timer from this instance's wheel.
    std::function<void(std::uint64_t token)> on_timer;
  };
  void register_instance(std::uint32_t instance, InstanceHooks hooks);

  /// Outbound path for registered instances: encodes `payload` addressed to
  /// `instance` and sends/queues it toward `to` (a transport-level node id).
  /// Safe from instance worker threads: the serialization happens on the
  /// calling thread (that is the point — S shards serialize in parallel) and
  /// the refcounted frame is handed to the transport thread for queueing.
  void send_payload(std::uint32_t instance, sim::NodeId to, const sim::Payload& payload);
  /// ONE serialization fanned to every replica peer except self: each peer
  /// queue receives the same refcounted body, never a copy. Thread-safe like
  /// send_payload.
  void broadcast_payload(std::uint32_t instance, const sim::Payload& payload);

  /// Runs `fn` on the transport thread: inline when already there (or when
  /// no io-threads are running — the single-threaded path is unchanged),
  /// otherwise via the lock-free ring + wakeup. Cross-thread posts from one
  /// producer run in FIFO order. The inline call builds no std::function.
  template <typename Fn>
  void post_to_transport(Fn&& fn) {
    if (on_transport_thread()) {
      fn();
    } else {
      push_to_transport(std::function<void()>(std::forward<Fn>(fn)));
    }
  }

  /// Runs `fn` on the thread that owns `instance`'s core (inline outside
  /// io-thread mode). Must be called from the transport thread — this is the
  /// inbound half of the handoff (client-request injection, deliveries).
  void post_to_instance(std::uint32_t instance, std::function<void()> fn);

  /// Per-instance timer wheel (Env SetTimer/CancelTimer semantics: re-arm
  /// replaces, cancel of an unknown token is a no-op). `delay` is relative
  /// to now().
  void arm_instance_timer(std::uint32_t instance, std::uint64_t token, sim::SimTime delay);
  void cancel_instance_timer(std::uint32_t instance, std::uint64_t token);

  /// Deployment-layer tap on inbound payloads, called after decode and
  /// before the core sees the message. Return true to consume the payload
  /// (it is NOT delivered to the core) — how node-level subsystems like
  /// state transfer speak on the replica connections without the sans-I/O
  /// core knowing their message types.
  using PayloadInterceptor = std::function<bool(sim::NodeId from, const sim::PayloadPtr&)>;
  void set_payload_interceptor(PayloadInterceptor tap) {
    payload_interceptor_ = std::move(tap);
  }

  /// Auxiliary timers for deployment-layer subsystems: a third wheel whose
  /// tokens are private to the aux handler, so they can never collide with
  /// the core's SetTimer tokens. `delay` is relative to now(); re-arming a
  /// token replaces it.
  void set_aux_timer_handler(std::function<void(std::uint64_t)> handler) {
    aux_timer_handler_ = std::move(handler);
  }
  void arm_aux_timer(std::uint64_t token, sim::SimTime delay);
  void cancel_aux_timer(std::uint64_t token);

  /// Threads that run the hosted cores: min(io_threads option, registered
  /// instances) workers when that exceeds one, else 1 (everything on the
  /// transport thread). Fixed once the instances are registered.
  [[nodiscard]] std::uint32_t io_threads() const;

  /// Actual listening port (after ephemeral bind); 0 if not listening.
  [[nodiscard]] std::uint16_t listen_port() const { return bound_port_; }

  /// Delivers Start (first call only), then services sockets and timers
  /// until stop() or `should_stop` returns true (checked every iteration,
  /// at least every 100 ms).
  void run(const std::function<bool()>& should_stop = {});

  /// Ends a concurrent or future run(). Thread- and signal-safe.
  void stop();

  [[nodiscard]] core::ProtocolMetrics& metrics() { return metrics_; }

  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t decode_errors = 0;   // malformed frames → dropped connections
    std::uint64_t frames_dropped = 0;  // peer-buffer overflow
    std::uint64_t connects = 0;        // successful dials (incl. reconnects)
    std::uint64_t accepts = 0;
    std::uint64_t unknown_instance = 0;  // frames for an unregistered instance
    std::uint64_t writev_calls = 0;    // sendmsg() syscalls on the flush path
    std::uint64_t payload_copies = 0;  // outbound serializations (one per send/broadcast)
    std::uint64_t frames_shared = 0;   // broadcast enqueues that aliased an
                                       // existing body instead of copying it
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Per-peer attribution of the aggregate counters above: which links shed
  /// frames under pressure and which links flapped. register_observability
  /// exports them per replica peer (chaos tests assert them nonzero on
  /// attacked links) so oldest-first shedding is never silent.
  struct PeerCounters {
    std::uint64_t shed_frames = 0;        // frames dropped toward this peer
    std::uint64_t reconnect_attempts = 0; // dial retries scheduled
  };

  /// The transport event loop. Observability endpoints (obs::HttpServer)
  /// register on it so scrape handlers run on the transport thread and may
  /// read transport-owned state (stats_, metrics_, peers_) without locks.
  [[nodiscard]] EventLoop& loop() { return loop_; }

  /// Point-in-time view of one peer link for /statusz: connection state,
  /// outbound queue depth (pending + live-connection bytes), and the shed /
  /// reconnect counters. Transport thread only.
  struct PeerSnapshot {
    sim::NodeId id = 0;
    bool connected = false;
    std::uint64_t queued_bytes = 0;
    std::uint64_t shed_frames = 0;
    std::uint64_t reconnect_attempts = 0;
  };
  [[nodiscard]] std::vector<PeerSnapshot> peer_snapshots() const;

  /// Registers this env's transport stats as scrape-evaluated series
  /// (counter_fn/gauge_fn) in `registry`: aggregate frame/byte/shed/connect
  /// counters, total send-queue depth, and per-peer shed / reconnect / queue
  /// series for every currently-known peer. The registry must be scraped on
  /// the transport thread (serve the HTTP endpoints from loop()).
  void register_observability(obs::Registry& registry);

  // -- protocol::Env ---------------------------------------------------------
  [[nodiscard]] sim::SimTime now() const override;
  [[nodiscard]] const sim::CostModel& costs() const override;
  void apply(protocol::Action action) override;

 private:
  struct Conn {
    int fd = -1;
    bool dialed = false;
    bool connecting = false;  // nonblocking connect() still in flight
    bool bound = false;       // peer identity established
    sim::NodeId peer = 0;     // valid when bound
    FrameReader reader;
    SendQueue outq;
    bool want_write = false;

    explicit Conn(std::size_t max_frame) : reader(max_frame) {}
  };

  /// Internal-wheel token for re-arming a parked listener (peer-id tokens
  /// are node ids, which never reach this value).
  static constexpr TimerWheel::Token kListenerRetryToken = ~TimerWheel::Token{0};

  struct Peer {
    PeerAddr addr;
    bool dialable = false;
    int fd = -1;  // live connection, -1 when disconnected
    SendQueue pending;  // frames awaiting a connection
    sim::SimTime backoff = 0;
    std::uint64_t reconnect_attempts = 0;  // jitter key; resets on connect
  };

  void open_listener();
  void dial_peer(sim::NodeId id);
  void schedule_reconnect(sim::NodeId id);
  void on_listener_ready(std::uint32_t events);
  void on_conn_ready(int fd, std::uint32_t events);
  void finish_connect(Conn& conn);
  void read_conn(Conn& conn);
  void flush_conn(Conn& conn);
  void close_conn(int fd, bool reconnect);
  void bind_conn_to_peer(Conn& conn, sim::NodeId id);
  void deliver_frame(Conn& conn, const FrameReader::Frame& frame);
  /// False (and counts a drop) if the frame exceeds the receive-side frame
  /// ceiling — sending it would livelock every receiver on decode errors.
  bool check_frame_size(const SharedFrame& frame);
  void send_frame(sim::NodeId to, SharedFrame frame);
  /// send_frame with the copy/alias counters of an n-peer broadcast.
  void broadcast_frame(SharedFrame frame);
  /// Queues a frame (bounded) without any I/O; never invalidates `conn`.
  void append_frame(Conn& conn, SharedFrame frame);
  /// append_frame + flush; the flush may close and destroy `conn`.
  void enqueue_on_conn(Conn& conn, SharedFrame frame);
  void update_interest(Conn& conn);
  void fire_core_timer(TimerWheel::Token token);

  struct Worker;

  struct Instance {
    InstanceHooks hooks;
    TimerWheel timers;
    Worker* worker = nullptr;  // owning io-thread while run() is active

    explicit Instance(sim::SimTime tick) : timers(tick) {}
  };

  /// One io-thread: a private EventLoop used purely as a sleep/wake
  /// primitive (no fds — the sockets stay on the transport thread), the
  /// inbound work ring, and the instances whose cores and timer wheels this
  /// thread exclusively owns while running.
  struct Worker {
    std::thread thread;
    EventLoop loop;
    MpscRing<std::function<void()>> ring{kRingCapacity};
    std::vector<Instance*> instances;
    std::atomic<bool> idle{false};
    std::atomic<bool> stop{false};
  };

  static constexpr std::size_t kRingCapacity = 16384;

  [[nodiscard]] bool on_transport_thread() const;
  /// Cross-thread half of post_to_transport.
  void push_to_transport(std::function<void()> fn);
  void start_workers();
  void stop_workers();
  void worker_main(Worker& worker);
  void drain_transport_ring();
  void post_to_worker(Worker& worker, std::function<void()> fn);

  SocketEnvOptions opts_;
  protocol::Protocol* protocol_ = nullptr;
  std::map<std::uint32_t, Instance> instances_;
  PayloadInterceptor payload_interceptor_;
  std::function<void(std::uint64_t)> aux_timer_handler_;
  core::ProtocolMetrics metrics_;
  Stats stats_;

  EventLoop loop_;
  TimerWheel core_timers_;      // the protocol's SetTimer/CancelTimer tokens
  TimerWheel internal_timers_;  // transport housekeeping (reconnect backoff)
  TimerWheel aux_timers_;       // deployment-layer subsystems (state sync)
  sim::SimTime epoch_ns_ = 0;   // CLOCK_MONOTONIC at construction

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::map<sim::NodeId, Peer> peers_;
  std::map<sim::NodeId, PeerCounters> peer_counters_;

  bool started_ = false;
  bool oversized_frame_reported_ = false;  // one diagnostic per process
  // Lock-free atomic: stores are async-signal-safe and cross-thread visible
  // (a volatile bool would be neither — plain UB as a data race).
  std::atomic<bool> stop_requested_{false};

  // io-thread mode (opts_.io_threads > 1 with registered instances). All of
  // this is quiescent on the single-threaded path: mt_active_ false, rings
  // empty, no workers — zero behavior change.
  std::vector<std::unique_ptr<Worker>> workers_;
  MpscRing<std::function<void()>> transport_ring_{kRingCapacity};
  std::atomic<bool> transport_idle_{false};
  std::atomic<bool> mt_active_{false};
  std::thread::id transport_tid_{};
};

}  // namespace leopard::net
