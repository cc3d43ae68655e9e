// Nonblocking loopback sockets with buffered reads and writes — the
// kernel-level substrate under svc::SocketBus and svc::HttpServer. All
// listeners bind 127.0.0.1 only (the service plane is a local control
// surface, not an exposed network daemon); port 0 asks the kernel for an
// ephemeral port, which the tests and the self-hosted loadgen rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ioc::svc {

/// Create a nonblocking loopback listener. Returns the fd (>= 0) and
/// stores the actually-bound port (meaningful with port 0) in *bound_port.
/// Returns -1 on failure.
int listen_loopback(std::uint16_t port, std::uint16_t* bound_port);

/// Begin a nonblocking connect to 127.0.0.1:port. Returns the fd; the
/// connection typically completes asynchronously (EINPROGRESS) and the fd
/// becomes writable when established. Returns -1 on failure.
int connect_loopback(std::uint16_t port);

/// Accept one pending connection as a nonblocking fd, or -1 if none. When
/// `peer` is given it receives the connecting socket's address, in the
/// form local_address() gives for the socket at the other end.
int accept_nonblocking(int listen_fd, std::uint64_t* peer = nullptr);

/// `fd`'s own IPv4 address and port as one comparable key; 0 on error.
std::uint64_t local_address(int fd);

/// One established connection with userspace read/write buffering. The
/// owner reads with read_some(), parses out of rbuf()/consume(), and queues
/// responses with queue_write(); flush() pushes whatever the kernel will
/// take and the owner uses want_write() to decide its EPOLLOUT interest.
class Conn {
 public:
  explicit Conn(int fd) : fd_(fd) {}
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }

  /// Drain everything currently readable into the buffer. Returns false on
  /// EOF or a hard error (the connection is dead; the owner tears it down).
  bool read_some();

  const std::string& rbuf() const { return rbuf_; }
  /// Discard `n` parsed bytes from the front of the read buffer.
  void consume(std::size_t n) { rbuf_.erase(0, n); }

  /// Queue bytes and opportunistically flush.
  void queue_write(std::string_view data);
  /// Push buffered bytes to the kernel. Returns false on a hard error.
  bool flush();
  bool want_write() const { return woff_ < wbuf_.size(); }

 private:
  int fd_;
  std::string rbuf_;
  std::string wbuf_;
  std::size_t woff_ = 0;  // flushed prefix of wbuf_
};

}  // namespace ioc::svc
