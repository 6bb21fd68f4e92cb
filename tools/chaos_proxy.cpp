// chaos_proxy: a standalone TCP forwarder that degrades links on purpose.
//
//   chaos_proxy --route 5100:127.0.0.1:4100 [--route ...]
//               [--delay-ms N] [--jitter-ms N] [--drop-pct P] [--reorder-pct P]
//               [--rate-kbps N] [--partition LPORT@START_MS+DUR_MS ...]
//               [--seed N] [--run-for SEC] [--report FILE]
//
// Each --route listens on 127.0.0.1:LPORT and forwards every accepted
// connection to HOST:PORT, both directions, chunk by chunk through a delay
// queue:
//
//   delay/jitter — every chunk is released `delay ± jitter` after it arrived
//     (deterministic jitter from --seed);
//   drop         — a chunk is discarded with probability P%. NOTE: dropping
//     bytes from a TCP stream desyncs the leopard wire framing; the receiving
//     node counts a decode error, drops the connection, and reconnects —
//     exactly the failure mode the transport is built to absorb;
//   reorder      — with probability P% a chunk swaps with its queue
//     predecessor (same byte-desync caveat as drop);
//   rate         — a per-direction token bucket caps throughput at N kbit/s,
//     so outbound buffers upstream of the proxy fill and shed;
//   partition    — at START_MS every connection through LPORT is severed and
//     new ones are refused until START_MS+DUR_MS (repeat the flag for
//     flapping schedules). Healing is just accepting again: the cluster's
//     own reconnect machinery restores the links.
//
// The proxy is protocol-agnostic (it never parses frames) and exits with a
// key=value stats report (`role=chaos_proxy`, then every leopard_proxy_*
// series) on SIGTERM/SIGINT or when --run-for elapses.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/event_loop.hpp"
#include "net/timer_wheel.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace {

namespace lp = leopard;

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

constexpr std::size_t kReadChunk = 16 * 1024;
/// A direction whose delay queue exceeds this is torn down: the proxy bounds
/// its own memory instead of absorbing an unbounded backlog.
constexpr std::size_t kMaxHeldBytes = 32u << 20;

struct Options {
  struct RouteSpec {
    std::uint16_t lport = 0;
    std::string host;
    std::uint16_t port = 0;
  };
  struct PartitionSpec {
    std::uint16_t lport = 0;
    lp::sim::SimTime start = 0;
    lp::sim::SimTime duration = 0;
  };

  std::vector<RouteSpec> routes;
  std::vector<PartitionSpec> partitions;
  lp::sim::SimTime delay = 0;
  lp::sim::SimTime jitter = 0;
  double drop_pct = 0;
  double reorder_pct = 0;
  std::uint64_t rate_kbps = 0;  // 0 = uncapped
  std::uint64_t seed = 1;
  double run_for = -1;
  std::string report_path;
  std::optional<lp::obs::HttpServer::Options> metrics_addr;  // unset disables
};

struct Stats {
  std::uint64_t links_opened = 0;
  std::uint64_t links_closed = 0;
  std::uint64_t chunks_forwarded = 0;
  std::uint64_t bytes_forwarded = 0;
  std::uint64_t chunks_dropped = 0;
  std::uint64_t bytes_dropped = 0;
  std::uint64_t chunks_reordered = 0;
  std::uint64_t accepts_refused = 0;
  std::uint64_t partitions_started = 0;
  std::uint64_t partitions_healed = 0;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: chaos_proxy --route LPORT:HOST:PORT [--route ...]\n"
               "                   [--delay-ms N] [--jitter-ms N] [--drop-pct P]\n"
               "                   [--reorder-pct P] [--rate-kbps N]\n"
               "                   [--partition LPORT@START_MS+DUR_MS ...]\n"
               "                   [--seed N] [--run-for SEC] [--report FILE]\n"
               "                   [--metrics-addr HOST:PORT]\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--route") {
      const std::string spec = next();
      const auto c1 = spec.find(':');
      const auto c2 = spec.rfind(':');
      if (c1 == std::string::npos || c2 == c1) usage();
      Options::RouteSpec r;
      r.lport = static_cast<std::uint16_t>(std::strtoul(spec.substr(0, c1).c_str(), nullptr, 10));
      r.host = spec.substr(c1 + 1, c2 - c1 - 1);
      r.port = static_cast<std::uint16_t>(std::strtoul(spec.substr(c2 + 1).c_str(), nullptr, 10));
      if (r.lport == 0 || r.port == 0 || r.host.empty()) usage();
      opts.routes.push_back(std::move(r));
    } else if (arg == "--partition") {
      unsigned lport = 0;
      unsigned long long start_ms = 0;
      unsigned long long dur_ms = 0;
      if (std::sscanf(next(), "%u@%llu+%llu", &lport, &start_ms, &dur_ms) != 3 || lport == 0 ||
          dur_ms == 0) {
        usage();
      }
      opts.partitions.push_back(
          {static_cast<std::uint16_t>(lport),
           static_cast<lp::sim::SimTime>(start_ms) * lp::sim::kMillisecond,
           static_cast<lp::sim::SimTime>(dur_ms) * lp::sim::kMillisecond});
    } else if (arg == "--delay-ms") {
      opts.delay = static_cast<lp::sim::SimTime>(std::strtoull(next(), nullptr, 10)) *
                   lp::sim::kMillisecond;
    } else if (arg == "--jitter-ms") {
      opts.jitter = static_cast<lp::sim::SimTime>(std::strtoull(next(), nullptr, 10)) *
                    lp::sim::kMillisecond;
    } else if (arg == "--drop-pct") {
      opts.drop_pct = std::strtod(next(), nullptr);
    } else if (arg == "--reorder-pct") {
      opts.reorder_pct = std::strtod(next(), nullptr);
    } else if (arg == "--rate-kbps") {
      opts.rate_kbps = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--run-for") {
      opts.run_for = std::strtod(next(), nullptr);
    } else if (arg == "--report") {
      opts.report_path = next();
    } else if (arg == "--metrics-addr") {
      opts.metrics_addr = lp::obs::parse_listen_addr(next());
      if (!opts.metrics_addr) {
        std::fprintf(stderr, "--metrics-addr must be HOST:PORT, :PORT or PORT (port <= 65535)\n");
        usage();
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", std::string(arg).c_str());
      usage();
    }
  }
  if (opts.routes.empty()) usage();
  return opts;
}

void set_nonblocking(int fd) { ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK); }

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

class Proxy {
 public:
  Proxy(Options opts) : opts_(std::move(opts)), rng_(opts_.seed) {
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    epoch_ = static_cast<lp::sim::SimTime>(ts.tv_sec) * lp::sim::kSecond + ts.tv_nsec;
  }

  [[nodiscard]] lp::sim::SimTime now() const {
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<lp::sim::SimTime>(ts.tv_sec) * lp::sim::kSecond + ts.tv_nsec - epoch_;
  }

  int run() {
    for (auto& spec : opts_.routes) {
      if (!open_route(spec)) return 1;
    }
    if (!setup_metrics()) return 1;
    for (std::size_t i = 0; i < opts_.partitions.size(); ++i) {
      timers_.arm(kPartitionBit | (i << 1), opts_.partitions[i].start);
      timers_.arm(kPartitionBit | (i << 1) | 1,
                  opts_.partitions[i].start + opts_.partitions[i].duration);
    }

    const auto deadline =
        opts_.run_for >= 0 ? lp::sim::from_seconds(opts_.run_for) : lp::sim::SimTime{-1};
    while (g_stop == 0 && (deadline < 0 || now() < deadline)) {
      timers_.advance(now(), [this](std::uint64_t token) { on_timer(token); });
      const auto wake = timers_.next_wake();
      int timeout_ms = 100;
      if (wake >= 0) {
        const auto delta = wake - now();
        timeout_ms = delta <= 0 ? 0 : static_cast<int>(
            std::min<lp::sim::SimTime>(delta / lp::sim::kMillisecond + 1, 100));
      }
      loop_.poll(timeout_ms);
    }
    report();
    return 0;
  }

 private:
  struct Route;
  struct Link;

  /// One forwarding direction of a link: src fd -> delay queue -> dst fd.
  struct Pipe {
    Link* link = nullptr;
    int src = -1;
    int dst = -1;
    std::uint64_t timer_token = 0;
    struct Chunk {
      lp::sim::SimTime release = 0;
      std::vector<std::uint8_t> bytes;
      std::size_t offset = 0;  // written prefix
    };
    std::deque<Chunk> held;
    std::size_t held_bytes = 0;
    lp::sim::SimTime bucket_free_at = 0;  // token-bucket virtual clock
    bool src_eof = false;
  };

  struct Link {
    std::uint64_t id = 0;
    Route* route = nullptr;
    int cfd = -1;  // accepted (cluster-node) side
    int ufd = -1;  // upstream side
    Pipe in;       // cfd -> ufd
    Pipe out;      // ufd -> cfd
  };

  struct Route {
    Options::RouteSpec spec;
    int listen_fd = -1;
    bool partitioned = false;
    std::vector<Link*> links;
  };

  static constexpr std::uint64_t kPartitionBit = 1ull << 62;

  bool open_route(const Options::RouteSpec& spec) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(spec.lport);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
      std::fprintf(stderr, "chaos_proxy: cannot listen on 127.0.0.1:%u: %s\n", spec.lport,
                   std::strerror(errno));
      ::close(fd);
      return false;
    }
    auto route = std::make_unique<Route>();
    route->spec = spec;
    route->listen_fd = fd;
    Route* r = route.get();
    routes_.push_back(std::move(route));
    loop_.add(fd, lp::net::EventLoop::kReadable, [this, r](std::uint32_t) { on_accept(*r); });
    return true;
  }

  void on_accept(Route& route) {
    for (;;) {
      const int cfd = ::accept4(route.listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (cfd < 0) return;
      if (route.partitioned) {
        ++stats_.accepts_refused;
        ::close(cfd);
        continue;
      }
      // Loopback connect is effectively instant; a refused upstream simply
      // closes the accepted side (the dialer backs off and retries).
      const int ufd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(route.spec.port);
      if (ufd < 0 || ::inet_pton(AF_INET, route.spec.host.c_str(), &addr.sin_addr) != 1 ||
          ::connect(ufd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        if (ufd >= 0) ::close(ufd);
        ::close(cfd);
        continue;
      }
      set_nonblocking(ufd);
      set_nodelay(cfd);
      set_nodelay(ufd);

      auto link = std::make_unique<Link>();
      link->id = next_link_id_++;
      link->route = &route;
      link->cfd = cfd;
      link->ufd = ufd;
      link->in = Pipe{link.get(), cfd, ufd, link->id * 4, {}, 0, 0, false};
      link->out = Pipe{link.get(), ufd, cfd, link->id * 4 + 1, {}, 0, 0, false};
      Link* l = link.get();
      route.links.push_back(l);
      links_.emplace_back(std::move(link));
      ++stats_.links_opened;

      loop_.add(cfd, lp::net::EventLoop::kReadable,
                [this, l](std::uint32_t ev) { on_io(*l, l->in, ev); });
      loop_.add(ufd, lp::net::EventLoop::kReadable,
                [this, l](std::uint32_t ev) { on_io(*l, l->out, ev); });
    }
  }

  void on_io(Link& link, Pipe& pipe, std::uint32_t events) {
    if ((events & lp::net::EventLoop::kError) != 0) {
      close_link(link);
      return;
    }
    std::uint8_t buf[kReadChunk];
    for (;;) {
      const auto got = ::read(pipe.src, buf, sizeof(buf));
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_link(link);
        return;
      }
      if (got == 0) {
        pipe.src_eof = true;
        maybe_finish(link, pipe);
        return;
      }
      ingest(link, pipe, buf, static_cast<std::size_t>(got));
      if (pipe.held_bytes > kMaxHeldBytes) {
        close_link(link);  // bounded memory: a hopeless backlog tears down
        return;
      }
    }
  }

  void ingest(Link& link, Pipe& pipe, const std::uint8_t* data, std::size_t len) {
    if (opts_.drop_pct > 0 && rng_.uniform_real() * 100.0 < opts_.drop_pct) {
      ++stats_.chunks_dropped;
      stats_.bytes_dropped += len;
      return;
    }
    auto release = now() + opts_.delay;
    if (opts_.jitter > 0) {
      release += static_cast<lp::sim::SimTime>(rng_.uniform_real() * 2.0 *
                                               static_cast<double>(opts_.jitter)) -
                 opts_.jitter;
    }
    if (opts_.rate_kbps > 0) {
      // Token bucket as a virtual clock: each byte occupies 8/rate seconds of
      // line time; a chunk releases no earlier than the line frees up.
      const auto line_time = static_cast<lp::sim::SimTime>(
          (static_cast<double>(len) * 8.0 * 1e9) / (static_cast<double>(opts_.rate_kbps) * 1e3));
      pipe.bucket_free_at = std::max(pipe.bucket_free_at, now()) + line_time;
      release = std::max(release, pipe.bucket_free_at);
    }
    // FIFO per direction: a chunk never releases before its predecessor.
    if (!pipe.held.empty()) release = std::max(release, pipe.held.back().release);

    Pipe::Chunk chunk;
    chunk.release = release;
    chunk.bytes.assign(data, data + len);
    pipe.held_bytes += len;
    pipe.held.push_back(std::move(chunk));

    if (opts_.reorder_pct > 0 && pipe.held.size() >= 2 &&
        rng_.uniform_real() * 100.0 < opts_.reorder_pct) {
      auto& a = pipe.held[pipe.held.size() - 2];
      auto& b = pipe.held.back();
      std::swap(a.bytes, b.bytes);
      std::swap(a.offset, b.offset);
      ++stats_.chunks_reordered;
    }
    arm_pipe(pipe);
  }

  void arm_pipe(Pipe& pipe) {
    if (!pipe.held.empty()) timers_.arm(pipe.timer_token, pipe.held.front().release);
  }

  void on_timer(std::uint64_t token) {
    if ((token & kPartitionBit) != 0) {
      const std::size_t idx = (token & ~kPartitionBit) >> 1;
      const bool heal = (token & 1) != 0;
      apply_partition(opts_.partitions[idx], heal);
      return;
    }
    // Pipe timer: find the live link it belongs to (links are few; a map
    // would outlive closed links anyway).
    for (auto& link : links_) {
      if (link->in.timer_token == token) {
        drain(*link, link->in);
        return;
      }
      if (link->out.timer_token == token) {
        drain(*link, link->out);
        return;
      }
    }
  }

  void drain(Link& link, Pipe& pipe) {
    const auto t = now();
    while (!pipe.held.empty() && pipe.held.front().release <= t) {
      auto& front = pipe.held.front();
      const auto wrote =
          ::write(pipe.dst, front.bytes.data() + front.offset, front.bytes.size() - front.offset);
      if (wrote < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          // Receiver backpressure: retry on the next tick rather than adding
          // writability plumbing — pacing is timer-driven anyway.
          timers_.arm(pipe.timer_token, t + lp::sim::kMillisecond);
          return;
        }
        close_link(link);
        return;
      }
      front.offset += static_cast<std::size_t>(wrote);
      if (front.offset < front.bytes.size()) {
        timers_.arm(pipe.timer_token, t + lp::sim::kMillisecond);
        return;
      }
      pipe.held_bytes -= front.bytes.size();
      stats_.bytes_forwarded += front.bytes.size();
      ++stats_.chunks_forwarded;
      pipe.held.pop_front();
    }
    arm_pipe(pipe);
    maybe_finish(link, pipe);
  }

  void maybe_finish(Link& link, Pipe& pipe) {
    if (pipe.src_eof && pipe.held.empty()) {
      // Half-close propagates: the peer sees EOF once the queue drains.
      ::shutdown(pipe.dst, SHUT_WR);
      if (link.in.src_eof && link.in.held.empty() && link.out.src_eof && link.out.held.empty()) {
        close_link(link);
      }
    }
  }

  void close_link(Link& link) {
    timers_.cancel(link.in.timer_token);
    timers_.cancel(link.out.timer_token);
    if (loop_.watching(link.cfd)) loop_.remove(link.cfd);
    if (loop_.watching(link.ufd)) loop_.remove(link.ufd);
    ::close(link.cfd);
    ::close(link.ufd);
    auto& siblings = link.route->links;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), &link), siblings.end());
    ++stats_.links_closed;
    const auto it = std::find_if(links_.begin(), links_.end(),
                                 [&](const auto& l) { return l.get() == &link; });
    if (it != links_.end()) links_.erase(it);
  }

  void apply_partition(const Options::PartitionSpec& spec, bool heal) {
    for (auto& route : routes_) {
      if (route->spec.lport != spec.lport) continue;
      route->partitioned = !heal;
      if (!heal) {
        ++stats_.partitions_started;
        while (!route->links.empty()) close_link(*route->links.front());
      } else {
        ++stats_.partitions_healed;
      }
    }
  }

  /// `role=chaos_proxy`, then Registry::write_flat's dump of every series
  /// (the leopard_proxy_* counters and gauges), like leopard_node's report.
  void report() {
    std::string out = "role=chaos_proxy\n";
    lp::obs::Registry::global().write_flat(out);
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
    if (!opts_.report_path.empty()) {
      std::ofstream f(opts_.report_path);
      f << out;
    }
  }

  /// Registers the proxy's series, which report() prints, and binds the
  /// /metrics endpoint when --metrics-addr is set. The fault counters are then
  /// live scrape targets, so an experiment can watch drops/reorders/partitions
  /// while the cluster runs through the proxy.
  bool setup_metrics() {
    auto& reg = lp::obs::Registry::global();
    reg.counter_fields({
        {"leopard_proxy_links_opened_total", "Accepted client links", &stats_.links_opened},
        {"leopard_proxy_links_closed_total", "Links torn down", &stats_.links_closed},
        {"leopard_proxy_chunks_forwarded_total", "Chunks relayed", &stats_.chunks_forwarded},
        {"leopard_proxy_bytes_forwarded_total", "Bytes relayed", &stats_.bytes_forwarded},
        {"leopard_proxy_chunks_dropped_total", "Chunks dropped by fault injection",
         &stats_.chunks_dropped},
        {"leopard_proxy_bytes_dropped_total", "Bytes dropped by fault injection",
         &stats_.bytes_dropped},
        {"leopard_proxy_chunks_reordered_total", "Chunks delivered out of order",
         &stats_.chunks_reordered},
        {"leopard_proxy_accepts_refused_total", "Accepts refused while partitioned",
         &stats_.accepts_refused},
        {"leopard_proxy_partitions_started_total", "Partition windows opened",
         &stats_.partitions_started},
        {"leopard_proxy_partitions_healed_total", "Partition windows closed",
         &stats_.partitions_healed},
    });
    reg.gauge_fn("leopard_proxy_routes", "Configured listen routes", {},
                 [this] { return static_cast<double>(routes_.size()); });
    reg.gauge_fn("leopard_proxy_live_links", "Currently open links", {},
                 [this] { return static_cast<double>(links_.size()); });
    if (!opts_.metrics_addr) return true;
    http_ = std::make_unique<lp::obs::HttpServer>(loop_, *opts_.metrics_addr);
    if (!http_->listening()) {
      std::fprintf(stderr, "chaos_proxy: cannot bind --metrics-addr %s:%u\n",
                   opts_.metrics_addr->host.c_str(), opts_.metrics_addr->port);
      return false;
    }
    http_->serve_registry(reg);
    return true;
  }

  Options opts_;
  lp::util::Rng rng_;
  lp::net::EventLoop loop_;
  lp::net::TimerWheel timers_;
  lp::sim::SimTime epoch_ = 0;
  std::vector<std::unique_ptr<Route>> routes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::uint64_t next_link_id_ = 1;
  Stats stats_;
  std::unique_ptr<lp::obs::HttpServer> http_;
};

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
  Proxy proxy(parse_args(argc, argv));
  return proxy.run();
}
