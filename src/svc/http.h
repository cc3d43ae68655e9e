// Minimal HTTP/1.1 server on the svc::Reactor: keep-alive by default,
// pipelining-safe, Content-Length bodies only (no chunked encoding — the
// control API never needs it). Handlers may respond asynchronously: the
// HttpResponder handle is a value the handler can park inside a coroutine,
// and responses always flush in request order per connection (a later
// request finishing first waits for the earlier one — pipelined clients
// would otherwise mis-attribute responses).
//
// Defensive limits, each answered with a status rather than a crash or an
// unbounded buffer:
//   * request head (request line + headers) over kMaxHeaderBytes -> 431;
//   * body over kMaxBodyBytes -> 413;
//   * malformed request line / headers / Content-Length -> 400;
// all three close the connection afterwards (framing can no longer be
// trusted).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "svc/reactor.h"
#include "svc/socket.h"

namespace ioc::svc {

inline constexpr std::size_t kMaxHeaderBytes = 8 * 1024;
inline constexpr std::size_t kMaxBodyBytes = 1024 * 1024;

struct HttpRequest {
  std::string method;
  std::string target;
  std::string body;
  std::vector<std::pair<std::string, std::string>> headers;

  /// Case-insensitive header lookup; empty string when absent.
  std::string header(std::string_view name) const;
};

class HttpServer;

/// Completion handle for one request. Copyable; respond() may be called at
/// most once (later calls are ignored). Responding after the connection
/// died is safe — the response is dropped.
class HttpResponder {
 public:
  void respond(int status, std::string content_type, std::string body) const;

 private:
  friend class HttpServer;
  struct Slot {
    bool ready = false;
    bool responded = false;
    int status = 500;
    std::string content_type;
    std::string body;
    HttpServer* server = nullptr;
    std::uint64_t conn_id = 0;
  };
  std::shared_ptr<Slot> slot_;
};

using HttpHandler = std::function<void(const HttpRequest&, HttpResponder)>;

class HttpServer {
 public:
  /// Listens on 127.0.0.1:port (0 = ephemeral); throws on failure.
  HttpServer(Reactor& reactor, std::uint16_t port, HttpHandler handler);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  friend class HttpResponder;

  struct HConn {
    std::unique_ptr<Conn> io;
    std::uint64_t id = 0;
    std::deque<std::shared_ptr<HttpResponder::Slot>> queue;  // request order
    bool close_after = false;  // close once the queue flushes
  };

  void on_accept();
  void on_conn(std::uint64_t id, std::uint32_t events);
  /// Parse as many complete requests as the buffer holds; dispatch each.
  void parse_and_dispatch(HConn& c);
  /// Serialize an immediate error, mark the connection for close.
  void reject(HConn& c, int status, const std::string& reason);
  /// Write every ready response at the queue front, in order.
  void flush_ready(std::uint64_t conn_id);
  void drop_conn(std::uint64_t id);
  void update_interest(HConn& c);

  Reactor* reactor_;
  HttpHandler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, HConn> conns_;
  std::map<int, std::uint64_t> by_fd_;
};

}  // namespace ioc::svc
