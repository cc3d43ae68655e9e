#include "svc/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ioc::svc {

int listen_loopback(std::uint16_t port, std::uint16_t* bound_port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in got{};
    socklen_t len = sizeof(got);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len) != 0) {
      ::close(fd);
      return -1;
    }
    *bound_port = ntohs(got.sin_port);
  }
  return fd;
}

int connect_loopback(std::uint16_t port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

namespace {

std::uint64_t address_key(const sockaddr_in& a) {
  return (std::uint64_t{ntohl(a.sin_addr.s_addr)} << 16) | ntohs(a.sin_port);
}

}  // namespace

int accept_nonblocking(int listen_fd, std::uint64_t* peer) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  const int fd = ::accept4(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (peer != nullptr) *peer = address_key(addr);
  }
  return fd;
}

std::uint64_t local_address(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return address_key(addr);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::read_some() {
  char chunk[16 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      rbuf_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;  // orderly EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

void Conn::queue_write(std::string_view data) {
  wbuf_.append(data);
  flush();
}

bool Conn::flush() {
  while (woff_ < wbuf_.size()) {
    const ssize_t n =
        ::write(fd_, wbuf_.data() + woff_, wbuf_.size() - woff_);
    if (n > 0) {
      woff_ += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOTCONN ||
        errno == EINPROGRESS) {
      break;  // not writable yet (possibly still connecting)
    }
    if (errno == EINTR) continue;
    return false;
  }
  if (woff_ == wbuf_.size()) {
    wbuf_.clear();
    woff_ = 0;
  } else if (woff_ > 64 * 1024) {
    wbuf_.erase(0, woff_);
    woff_ = 0;
  }
  return true;
}

}  // namespace ioc::svc
