#include "net/socket_env.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/metrics.hpp"
#include "protocol/sim_env.hpp"  // apply_metrics_update
#include "util/check.hpp"

namespace leopard::net {

namespace {

sim::SimTime monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<sim::SimTime>(ts.tv_sec) * sim::kSecond + ts.tv_nsec;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Real CPUs charge themselves: every modelled cost is zero under SocketEnv.
const sim::CostModel& zero_costs() {
  static const sim::CostModel zeroed = [] {
    sim::CostModel c;
    c.send_per_msg = 0;
    c.send_per_byte_ns = 0;
    c.recv_per_msg = 0;
    c.recv_per_byte_ns = 0;
    c.client_request_ingress = 0;
    c.client_request_shed = 0;
    c.datablock_per_request = 0;
    c.block_per_request = 0;
    c.execute_per_request = 0;
    c.share_sign = 0;
    c.share_verify = 0;
    c.combine_base = 0;
    c.combine_per_share = 0;
    c.combined_verify = 0;
    c.hash_per_byte_ns = 0;
    c.erasure_encode_per_byte_ns = 0;
    c.erasure_decode_per_byte_ns = 0;
    return c;
  }();
  return zeroed;
}

bool make_sockaddr(const PeerAddr& addr, sockaddr_in& out) {
  std::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_port = htons(addr.port);
  return ::inet_pton(AF_INET, addr.host.c_str(), &out.sin_addr) == 1;
}

}  // namespace

SocketEnv::SocketEnv(SocketEnvOptions opts)
    : opts_(std::move(opts)),
      core_timers_(opts_.timer_tick),
      internal_timers_(opts_.timer_tick),
      aux_timers_(opts_.timer_tick),
      epoch_ns_(monotonic_ns()) {
  for (const auto& [id, addr] : opts_.dial) {
    Peer peer;
    peer.addr = addr;
    peer.dialable = true;
    peer.backoff = opts_.reconnect_min;
    peers_.emplace(id, std::move(peer));
  }
  // Every replica gets a persistent peer slot even before it connects, so
  // frames sent toward a peer that dials US (higher id) queue during startup
  // and reconnect windows instead of being dropped. Only client slots
  // (id >= n_replicas) are ephemeral.
  for (sim::NodeId id = 0; id < opts_.n_replicas; ++id) {
    if (id != opts_.self) peers_.try_emplace(id);
  }
  if (!opts_.listen_host.empty()) open_listener();
}

SocketEnv::~SocketEnv() {
  for (auto& [fd, conn] : conns_) {
    loop_.remove(fd);
    ::close(fd);
    (void)conn;
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    loop_.remove(listen_fd_);
    ::close(listen_fd_);
  }
}

sim::SimTime SocketEnv::now() const { return monotonic_ns() - epoch_ns_; }

const sim::CostModel& SocketEnv::costs() const { return zero_costs(); }

void SocketEnv::stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  loop_.wakeup();
}

// ---------------------------------------------------------------------------
// Env actions
// ---------------------------------------------------------------------------

void SocketEnv::apply(protocol::Action action) {
  std::visit(
      [&](auto& a) {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, protocol::Send>) {
          send_payload(/*instance=*/0, a.to, *a.payload);
        } else if constexpr (std::is_same_v<T, protocol::Broadcast>) {
          broadcast_payload(/*instance=*/0, *a.payload);
        } else if constexpr (std::is_same_v<T, protocol::SetTimer>) {
          core_timers_.arm(a.token, now() + std::max<sim::SimTime>(a.delay, 0));
        } else if constexpr (std::is_same_v<T, protocol::CancelTimer>) {
          core_timers_.cancel(a.token);
        } else if constexpr (std::is_same_v<T, protocol::MetricsUpdate>) {
          protocol::apply_metrics_update(metrics_, a);
        } else {
          // Execute: a directly attached core is a client driver (replica
          // cores are instances, whose MuxEnv hands Execute to the host).
          // ChargeCpu: the real CPU already charged itself.
        }
      },
      action);
}

void SocketEnv::register_instance(std::uint32_t instance, InstanceHooks hooks) {
  util::expects(!started_, "register_instance after run()");
  util::expects(hooks.deliver != nullptr, "register_instance: deliver hook required");
  const auto [it, inserted] =
      instances_.try_emplace(instance, opts_.timer_tick);
  util::expects(inserted, "register_instance: duplicate instance id");
  it->second.hooks = std::move(hooks);
}

void SocketEnv::send_payload(std::uint32_t instance, sim::NodeId to, const sim::Payload& payload) {
  // Serialize on the CALLING thread (io-thread mode: S shards encode in
  // parallel), then queue on the transport thread, which owns all sockets
  // and stats.
  SharedFrame frame;
  if (!encode_shared_frame(payload, instance, frame)) return;
  post_to_transport([this, to, frame = std::move(frame)]() mutable {
    if (!check_frame_size(frame)) return;
    ++stats_.payload_copies;
    send_frame(to, std::move(frame));
  });
}

void SocketEnv::broadcast_payload(std::uint32_t instance, const sim::Payload& payload) {
  SharedFrame frame;
  if (!encode_shared_frame(payload, instance, frame)) return;
  post_to_transport([this, frame = std::move(frame)]() mutable {
    if (!check_frame_size(frame)) return;
    ++stats_.payload_copies;
    broadcast_frame(std::move(frame));
  });
}

void SocketEnv::broadcast_frame(SharedFrame frame) {
  // One serialization, zero per-peer copies: every queue gets the same
  // refcounted body (send_frame copies 9 inline header bytes + a shared_ptr).
  bool first = true;
  for (sim::NodeId id = 0; id < opts_.n_replicas; ++id) {
    if (id == opts_.self) continue;
    if (!first) ++stats_.frames_shared;
    first = false;
    send_frame(id, frame);
  }
}

void SocketEnv::arm_instance_timer(std::uint32_t instance, std::uint64_t token,
                                   sim::SimTime delay) {
  instances_.at(instance).timers.arm(token, now() + std::max<sim::SimTime>(delay, 0));
}

void SocketEnv::cancel_instance_timer(std::uint32_t instance, std::uint64_t token) {
  instances_.at(instance).timers.cancel(token);
}

bool SocketEnv::check_frame_size(const SharedFrame& frame) {
  // Enforce the receive-side frame ceiling at the SENDER too: an oversized
  // frame would be flagged as stream desync by every receiver, and each
  // reconnect would re-send it — a permanent decode-error livelock. Dropping
  // it here (with a loud one-time diagnostic: this is a config error, e.g.
  // datablock_requests × payload_size past the frame limit) keeps the
  // cluster alive.
  if (frame.wire_size() - kFrameHeaderBytes <= opts_.max_frame_bytes) return true;
  ++stats_.frames_dropped;
  if (!oversized_frame_reported_) {
    oversized_frame_reported_ = true;
    std::fprintf(stderr,
                 "leopard/net: dropping %zu-byte frame over the %zu-byte frame limit "
                 "(lower datablock_requests/batch_size x payload_size)\n",
                 frame.wire_size(), opts_.max_frame_bytes);
  }
  return false;
}

void SocketEnv::send_frame(sim::NodeId to, SharedFrame frame) {
  const auto pit = peers_.find(to);
  if (pit == peers_.end()) {
    // A destination we neither dial nor currently accept (e.g. an ack to a
    // spoofed client_id): drop rather than let an attacker-chosen id space
    // grow the peer map without bound.
    ++stats_.frames_dropped;
    ++peer_counters_[to].shed_frames;
    return;
  }
  auto& peer = pit->second;
  if (peer.fd >= 0) {
    const auto it = conns_.find(peer.fd);
    if (it != conns_.end() && !it->second->connecting) {
      enqueue_on_conn(*it->second, std::move(frame));
      return;
    }
  }
  if (!peer.dialable && to >= opts_.n_replicas) {
    // Disconnected client: only IT can re-establish the link, and it
    // re-submits unacked requests when it does — nothing to keep.
    ++stats_.frames_dropped;
    ++peer_counters_[to].shed_frames;
    return;
  }
  // Disconnected replica peer (one we re-dial, or one that dials us and
  // will flush on its Hello): queue bounded, dropping the oldest first.
  // Leopard tolerates the loss (retrieval, client re-submission,
  // view-change); the baselines are normal-case-only cores with no
  // retransmission, so sustained shedding can stall them — see
  // docs/DEPLOY.md "Differences from a hardened production deployment".
  // SendQueue accounts FULL wire bytes (header + body), so
  // peer_buffer_limit bounds what actually hits the wire.
  const auto result = peer.pending.push(std::move(frame), opts_.peer_buffer_limit);
  const auto dropped = result.shed + (result.queued ? 0 : 1);
  if (dropped > 0) {
    stats_.frames_dropped += dropped;
    peer_counters_[to].shed_frames += dropped;
  }
}

void SocketEnv::append_frame(Conn& conn, SharedFrame frame) {
  // Slow peer: shed rather than balloon, oldest first (matching the
  // disconnected-peer policy — stale frames are the least useful to a BFT
  // protocol). The queue front is pinned once partially written: a frame
  // must leave the wire whole or not at all.
  const auto result = conn.outq.push(std::move(frame), opts_.peer_buffer_limit);
  const auto dropped = result.shed + (result.queued ? 0 : 1);
  if (dropped > 0) {
    stats_.frames_dropped += dropped;
    if (conn.bound) peer_counters_[conn.peer].shed_frames += dropped;
  }
}

void SocketEnv::enqueue_on_conn(Conn& conn, SharedFrame frame) {
  append_frame(conn, std::move(frame));
  flush_conn(conn);  // NOTE: may close and destroy `conn` on a fatal error
}

// ---------------------------------------------------------------------------
// Listener / dialing
// ---------------------------------------------------------------------------

void SocketEnv::open_listener() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  util::ensures(listen_fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  const bool ok = make_sockaddr(PeerAddr{opts_.listen_host, opts_.listen_port}, addr);
  util::expects(ok, "listen_host must be an IPv4 dotted quad");
  int rc = ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  util::ensures(rc == 0, "bind() failed (address in use?)");
  rc = ::listen(listen_fd_, 128);
  util::ensures(rc == 0, "listen() failed");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port_ = ntohs(bound.sin_port);

  set_nonblocking(listen_fd_);
  loop_.add(listen_fd_, EventLoop::kReadable,
            [this](std::uint32_t events) { on_listener_ready(events); });
}

void SocketEnv::on_listener_ready(std::uint32_t) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED ||
          errno == EINTR) {
        return;  // drained (or transient): wait for the next readiness event
      }
      // Persistent failure (EMFILE/ENFILE/...): the level-triggered listener
      // would re-report readable immediately and busy-spin the loop. Park it
      // and retry after a beat — fds may have been released by then.
      loop_.remove(listen_fd_);
      internal_timers_.arm(kListenerRetryToken, now() + 100 * sim::kMillisecond);
      return;
    }
    set_nodelay(fd);
    auto conn = std::make_unique<Conn>(opts_.max_frame_bytes);
    conn->fd = fd;
    conns_.emplace(fd, std::move(conn));
    loop_.add(fd, EventLoop::kReadable,
              [this, fd](std::uint32_t events) { on_conn_ready(fd, events); });
    ++stats_.accepts;
  }
}

void SocketEnv::dial_peer(sim::NodeId id) {
  auto& peer = peers_.at(id);
  if (peer.fd >= 0) return;  // already connected / connecting

  sockaddr_in addr{};
  if (!make_sockaddr(peer.addr, addr)) return;  // unroutable manifest entry

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    schedule_reconnect(id);
    return;
  }
  set_nodelay(fd);

  auto conn = std::make_unique<Conn>(opts_.max_frame_bytes);
  conn->fd = fd;
  conn->dialed = true;
  conn->bound = true;  // the dialer knows who it dialed
  conn->peer = id;
  peer.fd = fd;

  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc == 0) {
    conns_.emplace(fd, std::move(conn));
    loop_.add(fd, EventLoop::kReadable,
              [this, fd](std::uint32_t events) { on_conn_ready(fd, events); });
    finish_connect(*conns_.at(fd));
  } else if (errno == EINPROGRESS) {
    conn->connecting = true;
    conns_.emplace(fd, std::move(conn));
    loop_.add(fd, EventLoop::kWritable,
              [this, fd](std::uint32_t events) { on_conn_ready(fd, events); });
  } else {
    ::close(fd);
    peer.fd = -1;
    schedule_reconnect(id);
  }
}

void SocketEnv::schedule_reconnect(sim::NodeId id) {
  auto& peer = peers_.at(id);
  // ±25% deterministic jitter keyed by (self, peer, attempt): a cluster
  // restarted in lockstep (or a downed peer everyone redials) decorrelates
  // its reconnect storms instead of thundering in phase every backoff step.
  const std::uint64_t key = (static_cast<std::uint64_t>(opts_.self) << 40) ^
                            (static_cast<std::uint64_t>(id) << 16) ^
                            peer.reconnect_attempts;
  ++peer.reconnect_attempts;
  ++peer_counters_[id].reconnect_attempts;
  internal_timers_.arm(id, now() + jittered(peer.backoff, key));
  peer.backoff = std::min(peer.backoff * 2, opts_.reconnect_max);
}

void SocketEnv::finish_connect(Conn& conn) {
  conn.connecting = false;
  auto& peer = peers_.at(conn.peer);
  peer.backoff = opts_.reconnect_min;  // link is good again
  peer.reconnect_attempts = 0;
  ++stats_.connects;

  // Identify ourselves first (TCP FIFO: the peer sees Hello before anything
  // else), then drain everything queued while disconnected. Queue it all
  // before the single flush: flush_conn may close and destroy `conn` on a
  // fatal send error, so nothing may touch it afterwards.
  append_frame(conn, SharedFrame::from_wire(encode_hello_frame(Hello{Hello::kMagic, opts_.self})));
  SharedFrame queued;
  while (peer.pending.pop_front(queued)) append_frame(conn, std::move(queued));
  flush_conn(conn);  // may destroy conn; must be the last use
}

void SocketEnv::bind_conn_to_peer(Conn& conn, sim::NodeId id) {
  conn.bound = true;
  conn.peer = id;
  auto& peer = peers_[id];
  if (peer.fd >= 0 && peer.fd != conn.fd) {
    close_conn(peer.fd, /*reconnect=*/false);  // stale duplicate: latest wins
  }
  peer.fd = conn.fd;
  SharedFrame queued;
  while (peer.pending.pop_front(queued)) append_frame(conn, std::move(queued));
  flush_conn(conn);  // may destroy conn; must be the last use
}

void SocketEnv::close_conn(int fd, bool reconnect) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  const auto conn = std::move(it->second);
  conns_.erase(it);
  loop_.remove(fd);
  ::close(fd);

  if (conn->bound) {
    if (const auto pit = peers_.find(conn->peer); pit != peers_.end() && pit->second.fd == fd) {
      pit->second.fd = -1;
      if (pit->second.dialable) {
        if (reconnect) schedule_reconnect(conn->peer);
      } else if (conn->peer >= opts_.n_replicas) {
        // Client slots exist while their connection does: dropping them here
        // keeps the peer map bounded by the live connection count, not by
        // the id space clients claim. Replica slots persist (the peer
        // re-dials us).
        peers_.erase(pit);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// I/O readiness
// ---------------------------------------------------------------------------

void SocketEnv::on_conn_ready(int fd, std::uint32_t events) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;

  if (conn.connecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if ((events & EventLoop::kError) != 0 || err != 0) {
      close_conn(fd, /*reconnect=*/true);
      return;
    }
    loop_.modify(fd, EventLoop::kReadable);
    finish_connect(conn);
    return;
  }

  if ((events & EventLoop::kError) != 0) {
    close_conn(fd, /*reconnect=*/true);
    return;
  }
  if ((events & EventLoop::kWritable) != 0) flush_conn(conn);
  if (!conns_.contains(fd)) return;  // write error closed it
  if ((events & EventLoop::kReadable) != 0) read_conn(conn);
}

void SocketEnv::flush_conn(Conn& conn) {
  // Scatter-gather flush: one sendmsg() per batch of up to kMaxIov spans
  // (header + body per frame), resuming at arbitrary byte offsets — a
  // partial write may stop mid-header, mid-body, or between frames, and the
  // next call picks up exactly there without copying or re-assembling.
  constexpr std::size_t kMaxIov = 64;
  iovec iov[kMaxIov];
  while (!conn.outq.empty()) {
    std::size_t total = 0;
    const auto n_iov = conn.outq.fill_iovecs(iov, kMaxIov, &total);
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    const auto n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    ++stats_.writev_calls;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn.fd, /*reconnect=*/true);
      return;
    }
    stats_.bytes_sent += static_cast<std::uint64_t>(n);
    stats_.frames_sent += conn.outq.consume(static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < total) break;  // kernel buffer full
  }
  update_interest(conn);
}

void SocketEnv::update_interest(Conn& conn) {
  const bool want_write = !conn.outq.empty();
  if (want_write == conn.want_write) return;
  conn.want_write = want_write;
  loop_.modify(conn.fd,
               EventLoop::kReadable | (want_write ? EventLoop::kWritable : 0u));
}

void SocketEnv::read_conn(Conn& conn) {
  const int fd = conn.fd;
  for (;;) {
    // Decode-in-place ingest: recv() lands bytes directly in the reader's
    // buffer, where next() parses them and hands out body spans — no
    // intermediate stack buffer, no memcpy per inbound byte.
    const auto dst = conn.reader.write_buffer(64 * 1024);
    const auto n = ::recv(fd, dst.data(), dst.size(), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(fd, /*reconnect=*/true);
      return;
    }
    if (n == 0) {  // orderly shutdown by the peer
      close_conn(fd, /*reconnect=*/true);
      return;
    }
    stats_.bytes_received += static_cast<std::uint64_t>(n);
    conn.reader.commit(static_cast<std::size_t>(n));

    FrameReader::Frame frame;
    for (;;) {
      const auto status = conn.reader.next(frame);
      if (status == FrameReader::Status::kNeedMore) break;
      if (status == FrameReader::Status::kError) {
        ++stats_.decode_errors;
        close_conn(fd, /*reconnect=*/true);  // desync: resync via reconnect
        return;
      }
      ++stats_.frames_received;
      deliver_frame(conn, frame);
      if (!conns_.contains(fd)) return;  // a malformed body closed it
    }
    if (static_cast<std::size_t>(n) < dst.size()) break;  // drained the socket
  }
}

void SocketEnv::deliver_frame(Conn& conn, const FrameReader::Frame& frame) {
  if (frame.type == MsgType::kHello) {
    const auto hello = decode_hello(frame.body);
    if (!hello) {
      ++stats_.decode_errors;
      close_conn(conn.fd, /*reconnect=*/true);
      return;
    }
    if (!conn.bound) bind_conn_to_peer(conn, hello->node_id);
    return;  // repeated hellos on a bound connection are ignored
  }
  if (!conn.bound) {
    // Frames before the handshake: protocol violation by the peer.
    ++stats_.decode_errors;
    close_conn(conn.fd, /*reconnect=*/false);
    return;
  }

  // Resolve the destination instance before decoding: a frame for an id we
  // never registered (a peer running more shards than us, or a hostile tag)
  // is dropped at frame level — the connection carries other instances'
  // traffic and must survive.
  Instance* instance = nullptr;
  if (frame.instance != 0 || protocol_ == nullptr) {
    const auto it = instances_.find(frame.instance);
    if (it == instances_.end()) {
      ++stats_.unknown_instance;
      return;
    }
    instance = &it->second;
  }

  const auto payload = decode_payload(frame.type, frame.body, now());
  if (payload == nullptr) {
    ++stats_.decode_errors;
    close_conn(conn.fd, /*reconnect=*/true);
    return;
  }

  const auto from = conn.peer;
  // Node-level subsystems (state sync) speak untagged frames: the tap sees
  // only instance-0 traffic, whichever core hosts it.
  if (frame.instance == 0 && payload_interceptor_ && payload_interceptor_(from, payload)) {
    return;
  }
  if (instance != nullptr) {
    // Io-thread mode: hop to the owning worker. `payload` is a refcounted
    // heap message independent of the reader buffer, so it survives the
    // handoff; the closure copy keeps it alive.
    if (instance->worker != nullptr && mt_active_.load(std::memory_order_relaxed)) {
      post_to_worker(*instance->worker,
                     [inst = instance, from, payload] { inst->hooks.deliver(from, payload); });
    } else {
      instance->hooks.deliver(from, payload);
    }
    return;
  }
  if (auto cr = std::dynamic_pointer_cast<const proto::ClientRequestMsg>(payload)) {
    protocol_->on_client_request(*this, from, cr);
  } else {
    protocol_->on_message(*this, from, payload);
  }
}

// ---------------------------------------------------------------------------
// Io-thread machinery
// ---------------------------------------------------------------------------

bool SocketEnv::on_transport_thread() const {
  // Before start_workers()/after stop_workers() everything is the transport
  // thread: the single-threaded path never pays for an id compare.
  return !mt_active_.load(std::memory_order_acquire) ||
         std::this_thread::get_id() == transport_tid_;
}

void SocketEnv::push_to_transport(std::function<void()> fn) {
  // The transport drains its ring every loop iteration, so spinning here is
  // bounded; per-producer FIFO (Vyukov ticket order) keeps each shard's
  // frames in submission order.
  while (!transport_ring_.try_push(std::move(fn))) std::this_thread::yield();
  // Dekker-style wake: our push must be visible before we read the idle
  // flag, and the transport sets the flag before checking the ring.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (transport_idle_.load(std::memory_order_relaxed)) loop_.wakeup();
}

void SocketEnv::post_to_instance(std::uint32_t instance, std::function<void()> fn) {
  auto& inst = instances_.at(instance);
  if (!mt_active_.load(std::memory_order_acquire) || inst.worker == nullptr) {
    fn();
    return;
  }
  post_to_worker(*inst.worker, std::move(fn));
}

void SocketEnv::post_to_worker(Worker& worker, std::function<void()> fn) {
  while (!worker.ring.try_push(std::move(fn))) {
    // Drain our own inbox while waiting: the worker may be blocked pushing
    // toward the transport ring, and we are its only consumer — draining
    // breaks the cycle (classic two-ring deadlock).
    drain_transport_ring();
    std::this_thread::yield();
  }
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (worker.idle.load(std::memory_order_relaxed)) worker.loop.wakeup();
}

void SocketEnv::drain_transport_ring() {
  std::function<void()> fn;
  while (transport_ring_.try_pop(fn)) fn();
}

std::uint32_t SocketEnv::io_threads() const {
  const auto workers = std::min<std::size_t>(opts_.io_threads, instances_.size());
  return static_cast<std::uint32_t>(std::max<std::size_t>(workers, 1));
}

void SocketEnv::start_workers() {
  const std::size_t n_workers = io_threads();
  if (n_workers <= 1) return;  // single-thread path
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) workers_.push_back(std::make_unique<Worker>());
  // Round-robin by registration order (instance ids ascend in the map):
  // deterministic placement, balanced within one instance.
  std::size_t idx = 0;
  for (auto& [id, instance] : instances_) {
    auto& worker = *workers_[idx % n_workers];
    instance.worker = &worker;
    worker.instances.push_back(&instance);
    ++idx;
  }
  mt_active_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { worker_main(*w); });
  }
}

void SocketEnv::stop_workers() {
  if (workers_.empty()) return;
  for (auto& worker : workers_) {
    worker->stop.store(true, std::memory_order_release);
    worker->loop.wakeup();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  mt_active_.store(false, std::memory_order_release);
  for (auto& [id, instance] : instances_) instance.worker = nullptr;
  workers_.clear();
  // Workers flushed their final sends/Executes into our ring before exiting.
  drain_transport_ring();
}

void SocketEnv::worker_main(Worker& worker) {
  constexpr int kMaxPollMs = 100;
  while (!worker.stop.load(std::memory_order_acquire)) {
    std::function<void()> fn;
    while (worker.ring.try_pop(fn)) fn();

    const auto t = now();
    sim::SimTime wake = -1;
    for (auto* instance : worker.instances) {
      instance->timers.advance(t, [instance](TimerWheel::Token token) {
        if (instance->hooks.on_timer) instance->hooks.on_timer(token);
      });
      const auto instance_wake = instance->timers.next_wake();
      if (wake < 0 || (instance_wake >= 0 && instance_wake < wake)) wake = instance_wake;
    }

    int timeout_ms = kMaxPollMs;
    if (wake >= 0) {
      const auto delta = wake - now();
      timeout_ms = delta <= 0
                       ? 0
                       : static_cast<int>(std::min<sim::SimTime>(
                             (delta + sim::kMillisecond - 1) / sim::kMillisecond, kMaxPollMs));
    }
    // Sleep via the idle-flag protocol: publish idle, then re-check the ring
    // (the producer's fence pairs with ours). The bounded poll caps the cost
    // of any missed wake at one slice.
    worker.idle.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (worker.ring.empty() && !worker.stop.load(std::memory_order_acquire)) {
      worker.loop.poll(timeout_ms);
    }
    worker.idle.store(false, std::memory_order_relaxed);
  }
  // Final drain: deliveries posted between the last pop and stop.
  std::function<void()> fn;
  while (worker.ring.try_pop(fn)) fn();
}

// ---------------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------------

void SocketEnv::fire_core_timer(TimerWheel::Token token) { protocol_->on_timer(*this, token); }

void SocketEnv::arm_aux_timer(std::uint64_t token, sim::SimTime delay) {
  aux_timers_.arm(token, now() + std::max<sim::SimTime>(delay, 0));
}

void SocketEnv::cancel_aux_timer(std::uint64_t token) { aux_timers_.cancel(token); }

void SocketEnv::run(const std::function<bool()>& should_stop) {
  util::expects(protocol_ != nullptr || !instances_.empty(),
                "SocketEnv::run without an attached protocol or registered instances");
  transport_tid_ = std::this_thread::get_id();
  if (!started_) {
    started_ = true;
    // on_start hooks run on THIS thread before any worker exists: everything
    // they touch is published to workers by the thread-spawn happens-before.
    if (protocol_ != nullptr) protocol_->on_start(*this);
    for (auto& [id, instance] : instances_) {
      if (instance.hooks.on_start) instance.hooks.on_start();
    }
    for (const auto& [id, peer] : peers_) {
      if (peer.dialable) dial_peer(id);
    }
  }
  start_workers();

  // Poll in bounded slices so stop()/should_stop and coarse timers are
  // honoured even when the sockets are idle.
  constexpr int kMaxPollMs = 100;
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    if (should_stop && should_stop()) break;

    const bool mt = mt_active_.load(std::memory_order_relaxed);
    if (mt) drain_transport_ring();

    const auto t = now();
    core_timers_.advance(t, [this](TimerWheel::Token token) { fire_core_timer(token); });
    if (!mt) {
      // Instance wheels belong to their workers in io-thread mode.
      for (auto& [id, instance] : instances_) {
        instance.timers.advance(t, [&instance](TimerWheel::Token token) {
          if (instance.hooks.on_timer) instance.hooks.on_timer(token);
        });
      }
    }
    aux_timers_.advance(t, [this](TimerWheel::Token token) {
      if (aux_timer_handler_) aux_timer_handler_(token);
    });
    internal_timers_.advance(t, [this](TimerWheel::Token token) {
      if (token == kListenerRetryToken) {
        loop_.add(listen_fd_, EventLoop::kReadable,
                  [this](std::uint32_t events) { on_listener_ready(events); });
        on_listener_ready(EventLoop::kReadable);  // drain the parked backlog
      } else {
        dial_peer(static_cast<sim::NodeId>(token));
      }
    });

    sim::SimTime wake = core_timers_.next_wake();
    const auto internal_wake = internal_timers_.next_wake();
    if (wake < 0 || (internal_wake >= 0 && internal_wake < wake)) wake = internal_wake;
    const auto aux_wake = aux_timers_.next_wake();
    if (wake < 0 || (aux_wake >= 0 && aux_wake < wake)) wake = aux_wake;
    if (!mt) {
      for (const auto& [id, instance] : instances_) {
        const auto instance_wake = instance.timers.next_wake();
        if (wake < 0 || (instance_wake >= 0 && instance_wake < wake)) wake = instance_wake;
      }
    }

    int timeout_ms = kMaxPollMs;
    if (wake >= 0) {
      const auto delta = wake - now();
      timeout_ms = delta <= 0
                       ? 0
                       : static_cast<int>(std::min<sim::SimTime>(
                             (delta + sim::kMillisecond - 1) / sim::kMillisecond, kMaxPollMs));
    }
    if (mt) {
      // Same idle-flag protocol as the workers, with the poll bounded so a
      // missed wake costs at most one slice.
      transport_idle_.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (!transport_ring_.empty()) timeout_ms = 0;
      loop_.poll(timeout_ms);
      transport_idle_.store(false, std::memory_order_relaxed);
    } else {
      loop_.poll(timeout_ms);
    }
  }
  stop_workers();
  stop_requested_.store(false, std::memory_order_relaxed);  // later run() may resume
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

std::vector<SocketEnv::PeerSnapshot> SocketEnv::peer_snapshots() const {
  std::vector<PeerSnapshot> out;
  out.reserve(peer_counters_.size());
  // Every id that ever dialed, was dialed, or shed appears in at least one of
  // peers_ / peer_counters_; merge both maps so accepted-only peers show too.
  std::map<sim::NodeId, PeerSnapshot> merged;
  for (const auto& [id, peer] : peers_) {
    auto& snap = merged[id];
    snap.id = id;
    snap.connected = peer.fd >= 0;
    snap.queued_bytes += peer.pending.bytes();
    if (peer.fd >= 0) {
      if (const auto it = conns_.find(peer.fd); it != conns_.end()) {
        snap.queued_bytes += it->second->outq.bytes();
      }
    }
  }
  for (const auto& [fd, conn] : conns_) {
    if (!conn->bound || peers_.contains(conn->peer)) continue;
    auto& snap = merged[conn->peer];
    snap.id = conn->peer;
    snap.connected = true;
    snap.queued_bytes += conn->outq.bytes();
  }
  for (const auto& [id, counters] : peer_counters_) {
    auto& snap = merged[id];
    snap.id = id;
    snap.shed_frames = counters.shed_frames;
    snap.reconnect_attempts = counters.reconnect_attempts;
  }
  for (auto& [id, snap] : merged) out.push_back(snap);
  return out;
}

void SocketEnv::register_observability(obs::Registry& registry) {
  registry.counter_fields({
      {"leopard_net_frames_sent_total", "Frames written to peer connections",
       &stats_.frames_sent},
      {"leopard_net_bytes_sent_total", "Wire bytes written to peer connections",
       &stats_.bytes_sent},
      {"leopard_net_frames_received_total", "Frames decoded from peer connections",
       &stats_.frames_received},
      {"leopard_net_bytes_received_total", "Wire bytes read from peer connections",
       &stats_.bytes_received},
      {"leopard_net_decode_errors_total", "Malformed frames (connection dropped)",
       &stats_.decode_errors},
      {"leopard_net_frames_shed_total", "Frames dropped by peer-buffer overflow",
       &stats_.frames_dropped},
      {"leopard_net_connects_total", "Successful dials including reconnects",
       &stats_.connects},
      {"leopard_net_accepts_total", "Accepted inbound connections", &stats_.accepts},
      {"leopard_net_unknown_instance_total",
       "Frames addressed to an unregistered shard instance", &stats_.unknown_instance},
      {"leopard_net_writev_calls_total", "sendmsg() syscalls on the flush path",
       &stats_.writev_calls},
      {"leopard_net_payload_copies_total", "Outbound payload serializations",
       &stats_.payload_copies},
      {"leopard_net_frames_shared_total",
       "Broadcast enqueues aliasing an existing frame body", &stats_.frames_shared},
  });

  registry.gauge_fn("leopard_net_send_queue_bytes",
                    "Outbound bytes queued across all peer links", {}, [this] {
                      double total = 0;
                      for (const auto& snap : peer_snapshots()) {
                        total += static_cast<double>(snap.queued_bytes);
                      }
                      return total;
                    });
  registry.gauge_fn("leopard_net_connected_peers", "Peer links currently established",
                    {}, [this] {
                      double n = 0;
                      for (const auto& snap : peer_snapshots()) n += snap.connected ? 1 : 0;
                      return n;
                    });

  const auto peer_label = [](sim::NodeId id) {
    return "peer=\"" + std::to_string(id) + "\"";
  };
  for (const auto& [id, peer] : peers_) {
    const auto pid = id;
    // std::map nodes never move, so the callbacks may hold the counters.
    const auto* counters = &peer_counters_[pid];
    registry.counter_fn("leopard_net_peer_shed_frames_total", "Frames dropped toward one peer",
                        peer_label(pid),
                        [counters] { return static_cast<double>(counters->shed_frames); });
    registry.counter_fn(
        "leopard_net_peer_reconnects_total", "Dial retries scheduled toward one peer",
        peer_label(pid), [counters] { return static_cast<double>(counters->reconnect_attempts); });
    registry.gauge_fn("leopard_net_peer_queue_bytes",
                      "Outbound bytes queued toward one peer", peer_label(pid),
                      [this, pid] {
                        for (const auto& snap : peer_snapshots()) {
                          if (snap.id == pid) return static_cast<double>(snap.queued_bytes);
                        }
                        return 0.0;
                      });
  }

  // Protocol-core counters derived from MetricsUpdate actions. metrics_ is
  // mutated only on the transport thread (MuxEnv posts its updates here), the
  // same thread that scrapes.
  registry.counter_fn("leopard_executed_requests_total",
                      "Requests executed (counted at the designated observer)", {},
                      [this] { return static_cast<double>(metrics_.executed_requests); });
  registry.counter_fn("leopard_view_changes_total", "View changes completed", {},
                      [this] { return static_cast<double>(metrics_.view_changes_completed); });
  registry.counter_fn("leopard_datablocks_recovered_total",
                      "Datablocks reconstructed via erasure retrieval", {},
                      [this] { return static_cast<double>(metrics_.datablocks_recovered); });
  const auto core_counter = [&](const char* name, const char* help, const std::string& labels,
                                const std::uint64_t* field) {
    registry.counter_fn(name, help, labels, [field] { return static_cast<double>(*field); });
  };
  core_counter("leopard_proposals_total", "Leader proposals, by trigger", "trigger=\"full\"",
               &metrics_.proposals_full);
  core_counter("leopard_proposals_total", "Leader proposals, by trigger", "trigger=\"idle\"",
               &metrics_.proposals_idle);
  core_counter("leopard_proposals_total", "Leader proposals, by trigger", "trigger=\"timer\"",
               &metrics_.proposals_timer);
  core_counter("leopard_checkpoint_adoptions_total",
               "Stable checkpoints adopted: executed through, or skipped to", "kind=\"caught_up\"",
               &metrics_.checkpoints_caught_up);
  core_counter("leopard_checkpoint_adoptions_total",
               "Stable checkpoints adopted: executed through, or skipped to", "kind=\"skipped\"",
               &metrics_.checkpoints_skipped);
  core_counter("leopard_vote_combine_fallbacks_total",
               "Vote quorums whose combined signature failed, then checked share by share", {},
               &metrics_.vote_combine_fallbacks);
  registry.gauge_fn("leopard_safety_violation",
                    "1 if this node ever observed conflicting confirmations", {},
                    [this] { return metrics_.safety_violation ? 1.0 : 0.0; });
}

}  // namespace leopard::net
