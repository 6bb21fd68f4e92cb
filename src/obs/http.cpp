#include "obs/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace leopard::obs {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Error";
  }
}

}  // namespace

std::string query_param(std::string_view query, std::string_view key) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    auto end = query.find('&', pos);
    if (end == std::string_view::npos) end = query.size();
    const auto pair = query.substr(pos, end - pos);
    const auto eq = pair.find('=');
    const auto k = eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (k == key) {
      return std::string(eq == std::string_view::npos ? std::string_view{}
                                                      : pair.substr(eq + 1));
    }
    pos = end + 1;
  }
  return {};
}

std::optional<std::uint64_t> parse_decimal(std::string_view text, std::uint64_t max) {
  std::uint64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end || value > max) return std::nullopt;
  return value;
}

std::optional<HttpServer::Options> parse_listen_addr(std::string_view addr) {
  HttpServer::Options opts;
  const auto colon = addr.rfind(':');
  if (colon != std::string_view::npos) {
    if (colon > 0) opts.host = std::string(addr.substr(0, colon));
    addr.remove_prefix(colon + 1);
  }
  const auto port = parse_decimal(addr, 65535);
  if (!port) return std::nullopt;
  opts.port = static_cast<std::uint16_t>(*port);
  return opts;
}

HttpServer::HttpServer(net::EventLoop& loop, Options opts) : loop_(loop) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts.port);
  if (::inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  loop_.add(fd, net::EventLoop::kReadable, [this](std::uint32_t) { on_accept(); });
}

HttpServer::~HttpServer() {
  for (const auto& [fd, client] : clients_) {
    loop_.remove(fd);
    ::close(fd);
    (void)client;
  }
  clients_.clear();
  if (listen_fd_ >= 0) {
    loop_.remove(listen_fd_);
    ::close(listen_fd_);
  }
}

void HttpServer::handle(std::string path, Handler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

void HttpServer::serve_registry(Registry& registry) {
  handle("/metrics", [&registry](std::string_view) {
    Response r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = registry.render_prometheus();
    return r;
  });
  handle("/healthz", [](std::string_view) {
    Response r;
    r.body = "ok\n";
    return r;
  });
  if (handlers_.find("/statusz") == handlers_.end()) {
    handle("/statusz", [&registry](std::string_view) {
      JsonWriter w;
      registry.write_statusz(w);
      Response r;
      r.content_type = "application/json";
      r.body = w.str();
      return r;
    });
  }
}

void HttpServer::on_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    clients_.emplace(fd, Client{});
    loop_.add(fd, net::EventLoop::kReadable,
              [this, fd](std::uint32_t events) { on_client(fd, events); });
  }
}

void HttpServer::close_client(int fd) {
  loop_.remove(fd);
  ::close(fd);
  clients_.erase(fd);
}

void HttpServer::on_client(int fd, std::uint32_t events) {
  const auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  Client& client = it->second;

  if ((events & net::EventLoop::kError) != 0) {
    close_client(fd);
    return;
  }

  if (!client.responding && (events & net::EventLoop::kReadable) != 0) {
    char buf[4096];
    for (;;) {
      const auto n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        client.in.append(buf, static_cast<std::size_t>(n));
        if (client.in.size() > kMaxRequestBytes) {
          close_client(fd);
          return;
        }
        continue;
      }
      if (n == 0) {  // EOF before a full request
        close_client(fd);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_client(fd);
      return;
    }
    if (client.in.find("\r\n\r\n") != std::string::npos ||
        client.in.find("\n\n") != std::string::npos) {
      respond(fd, client);  // may close and invalidate `client`
      return;
    }
  }

  if ((events & net::EventLoop::kWritable) != 0 && client.responding) {
    while (client.sent < client.out.size()) {
      const auto n =
          ::write(fd, client.out.data() + client.sent, client.out.size() - client.sent);
      if (n > 0) {
        client.sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      close_client(fd);
      return;
    }
    close_client(fd);  // HTTP/1.0: close after the response
  }
}

void HttpServer::respond(int fd, Client& client) {
  // Request line: METHOD SP path[?query] SP version.
  Response resp;
  const auto line_end = client.in.find_first_of("\r\n");
  const std::string_view line(client.in.data(),
                              line_end == std::string::npos ? client.in.size() : line_end);
  const auto sp1 = line.find(' ');
  const auto sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                                 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    resp.status = 400;
    resp.body = "bad request\n";
  } else if (line.substr(0, sp1) != "GET") {
    resp.status = 405;
    resp.body = "only GET is served here\n";
  } else {
    auto target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    std::string_view query;
    if (const auto q = target.find('?'); q != std::string_view::npos) {
      query = target.substr(q + 1);
      target = target.substr(0, q);
    }
    const auto handler = handlers_.find(std::string(target));
    if (handler == handlers_.end()) {
      resp.status = 404;
      resp.body = "unknown path\n";
    } else {
      resp = handler->second(query);
    }
  }

  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                resp.status, status_text(resp.status), resp.content_type.c_str(),
                resp.body.size());
  client.out = header;
  client.out += resp.body;
  client.responding = true;
  client.in.clear();
  loop_.modify(fd, net::EventLoop::kWritable);
  on_client(fd, net::EventLoop::kWritable);  // try the write immediately
}

}  // namespace leopard::obs
