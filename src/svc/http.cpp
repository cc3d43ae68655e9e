#include "svc/http.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace ioc::svc {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

std::string serialize(int status, const std::string& content_type,
                      const std::string& body, bool close_after) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    status_text(status) + "\r\n";
  if (!content_type.empty()) {
    out += "Content-Type: " + content_type + "\r\n";
  }
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  if (close_after) out += "Connection: close\r\n";
  out += "\r\n";
  out += body;
  return out;
}

}  // namespace

std::string HttpRequest::header(std::string_view name) const {
  for (const auto& [k, v] : headers) {
    if (iequals(k, name)) return v;
  }
  return {};
}

void HttpResponder::respond(int status, std::string content_type,
                            std::string body) const {
  if (slot_ == nullptr || slot_->responded) return;
  slot_->responded = true;
  slot_->ready = true;
  slot_->status = status;
  slot_->content_type = std::move(content_type);
  slot_->body = std::move(body);
  if (slot_->server != nullptr) slot_->server->flush_ready(slot_->conn_id);
}

HttpServer::HttpServer(Reactor& reactor, std::uint16_t port,
                       HttpHandler handler)
    : reactor_(&reactor), handler_(std::move(handler)) {
  listen_fd_ = listen_loopback(port, &port_);
  if (listen_fd_ < 0) {
    throw std::runtime_error("HttpServer: cannot open loopback listener");
  }
  reactor_->add(listen_fd_, EPOLLIN, [this](std::uint32_t) { on_accept(); });
}

HttpServer::~HttpServer() {
  for (auto& [id, c] : conns_) {
    reactor_->del(c.io->fd());
    // Slots outlive the server inside parked responders; sever the back
    // pointer so a late respond() is a no-op instead of a dangling call.
    for (auto& slot : c.queue) slot->server = nullptr;
  }
  if (listen_fd_ >= 0) {
    reactor_->del(listen_fd_);
    ::close(listen_fd_);
  }
}

void HttpServer::on_accept() {
  for (;;) {
    const int fd = accept_nonblocking(listen_fd_);
    if (fd < 0) return;
    const std::uint64_t id = next_id_++;
    HConn c;
    c.io = std::make_unique<Conn>(fd);
    c.id = id;
    by_fd_[fd] = id;
    conns_.emplace(id, std::move(c));
    reactor_->add(fd, EPOLLIN,
                  [this, id](std::uint32_t ev) { on_conn(id, ev); });
  }
}

void HttpServer::on_conn(std::uint64_t id, std::uint32_t) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  HConn& c = it->second;
  const bool alive = c.io->read_some();
  if (!c.io->flush()) {
    drop_conn(id);
    return;
  }
  if (!c.close_after) parse_and_dispatch(c);
  // parse_and_dispatch may have dropped the connection (handler responded
  // synchronously on a close-marked connection); re-find before touching it.
  it = conns_.find(id);
  if (it == conns_.end()) return;
  if (!alive) {
    drop_conn(id);
    return;
  }
  flush_ready(id);
}

void HttpServer::parse_and_dispatch(HConn& c) {
  for (;;) {
    const std::string& buf = c.io->rbuf();
    const std::size_t head_end = buf.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (buf.size() > kMaxHeaderBytes) {
        reject(c, 431, "request head too large");
      }
      return;
    }
    if (head_end + 4 > kMaxHeaderBytes) {
      reject(c, 431, "request head too large");
      return;
    }

    // Request line.
    const std::size_t line_end = buf.find("\r\n");
    const std::string line = buf.substr(0, line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = line.rfind(' ');
    if (sp1 == std::string::npos || sp2 == sp1 ||
        line.compare(sp2 + 1, 5, "HTTP/") != 0) {
      reject(c, 400, "malformed request line");
      return;
    }
    HttpRequest req;
    req.method = line.substr(0, sp1);
    req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const bool http10 = line.compare(sp2 + 1, std::string::npos, "HTTP/1.0") == 0;

    // Headers.
    std::size_t pos = line_end + 2;
    while (pos < head_end) {
      std::size_t eol = buf.find("\r\n", pos);
      if (eol == std::string::npos || eol > head_end) eol = head_end;
      const std::size_t colon = buf.find(':', pos);
      if (colon == std::string::npos || colon >= eol) {
        reject(c, 400, "malformed header");
        return;
      }
      std::string name = buf.substr(pos, colon - pos);
      std::size_t vstart = colon + 1;
      while (vstart < eol && buf[vstart] == ' ') ++vstart;
      req.headers.emplace_back(std::move(name),
                               buf.substr(vstart, eol - vstart));
      pos = eol + 2;
    }

    // Body (Content-Length only).
    std::size_t body_len = 0;
    const std::string cl = req.header("Content-Length");
    if (!cl.empty()) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(cl.c_str(), &end, 10);
      if (end == cl.c_str() || *end != '\0') {
        reject(c, 400, "malformed Content-Length");
        return;
      }
      if (v > kMaxBodyBytes) {
        reject(c, 413, "body too large");
        return;
      }
      body_len = static_cast<std::size_t>(v);
    }
    const std::size_t total = head_end + 4 + body_len;
    if (buf.size() < total) return;  // truncated: wait for the rest
    req.body = buf.substr(head_end + 4, body_len);
    c.io->consume(total);

    const std::string conn_hdr = req.header("Connection");
    const bool close_req = iequals(conn_hdr, "close") ||
                           (http10 && !iequals(conn_hdr, "keep-alive"));

    auto slot = std::make_shared<HttpResponder::Slot>();
    slot->server = this;
    slot->conn_id = c.id;
    c.queue.push_back(slot);
    if (close_req) c.close_after = true;
    HttpResponder responder;
    responder.slot_ = slot;
    handler_(req, responder);
    // The handler may have responded synchronously and, on a close-marked
    // connection, flush_ready may already have dropped it — or it queued a
    // coroutine and the slot completes later. Either way, re-check.
    if (conns_.find(c.id) == conns_.end()) return;
    if (c.close_after) return;  // no pipelining past an announced close
  }
}

void HttpServer::reject(HConn& c, int status, const std::string& reason) {
  auto slot = std::make_shared<HttpResponder::Slot>();
  slot->server = this;
  slot->conn_id = c.id;
  slot->ready = true;
  slot->responded = true;
  slot->status = status;
  slot->content_type = "text/plain";
  slot->body = reason + "\n";
  c.queue.push_back(std::move(slot));
  c.close_after = true;
  // Framing is gone; whatever else sits in the buffer must not be parsed.
  c.io->consume(c.io->rbuf().size());
  flush_ready(c.id);
}

void HttpServer::flush_ready(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  HConn& c = it->second;
  while (!c.queue.empty() && c.queue.front()->ready) {
    const auto& slot = c.queue.front();
    const bool last = c.close_after && c.queue.size() == 1;
    c.io->queue_write(
        serialize(slot->status, slot->content_type, slot->body, last));
    c.queue.pop_front();
  }
  if (!c.io->flush()) {
    drop_conn(conn_id);
    return;
  }
  if (c.close_after && c.queue.empty() && !c.io->want_write()) {
    drop_conn(conn_id);
    return;
  }
  update_interest(c);
}

void HttpServer::drop_conn(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  HConn& c = it->second;
  for (auto& slot : c.queue) slot->server = nullptr;
  reactor_->del(c.io->fd());
  by_fd_.erase(c.io->fd());
  conns_.erase(it);
}

void HttpServer::update_interest(HConn& c) {
  reactor_->mod(c.io->fd(),
                c.io->want_write() ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
}

}  // namespace ioc::svc
