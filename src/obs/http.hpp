// Minimal HTTP/1.0 exposition server for observability endpoints, hooked
// into an existing epoll EventLoop (net/event_loop.hpp) — no thread of its
// own. Single-threaded by construction: every callback (accept, read,
// write, handler dispatch) runs on whichever thread polls the loop, which in
// leopard_node is the transport thread. That is a feature, not a limitation:
// /statusz handlers may read transport-owned state directly.
//
// Protocol support is deliberately tiny: GET only, request line + headers
// read and discarded (8 KiB cap), response is HTTP/1.0 with Content-Length
// and Connection: close. Exactly what `curl` and a Prometheus scraper need.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "net/event_loop.hpp"

namespace leopard::obs {

class Registry;

class HttpServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  // 0 binds an ephemeral port (tests)
  };

  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  /// The handler receives the raw query string (text after '?', possibly
  /// empty) and runs on the loop's polling thread.
  using Handler = std::function<Response(std::string_view query)>;

  HttpServer(net::EventLoop& loop, Options opts);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// False when the listen socket could not be bound (port in use, bad host).
  [[nodiscard]] bool listening() const { return listen_fd_ >= 0; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Registers `handler` for an exact path (e.g. "/metrics"). Re-registering
  /// a path replaces the handler. Unknown paths answer 404.
  void handle(std::string path, Handler handler);

  /// Registers the standard trio: /metrics (Prometheus text from `registry`),
  /// /healthz ("ok"), and — unless the caller installs its own — a /statusz
  /// serving the registry's JSON dump.
  void serve_registry(Registry& registry);

 private:
  struct Client {
    std::string in;
    std::string out;
    std::size_t sent = 0;
    bool responding = false;
  };

  static constexpr std::size_t kMaxRequestBytes = 8192;

  void on_accept();
  void on_client(int fd, std::uint32_t events);
  void respond(int fd, Client& client);
  void close_client(int fd);

  net::EventLoop& loop_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::map<std::string, Handler> handlers_;
  std::unordered_map<int, Client> clients_;
};

/// Parses `key` out of a query string ("a=1&b=2"); empty when absent.
[[nodiscard]] std::string query_param(std::string_view query, std::string_view key);

/// `text` as an unsigned decimal no greater than `max`; nullopt when it is
/// empty, holds anything but digits, or exceeds `max`.
[[nodiscard]] std::optional<std::uint64_t> parse_decimal(std::string_view text,
                                                         std::uint64_t max);

/// A `--metrics-addr` value: "HOST:PORT", ":PORT" or "PORT" (the host
/// defaults to 127.0.0.1; port 0 binds an ephemeral port). Nullopt when the
/// port is not a decimal no greater than 65535.
[[nodiscard]] std::optional<HttpServer::Options> parse_listen_addr(std::string_view addr);

}  // namespace leopard::obs
