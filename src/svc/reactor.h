// Single-threaded epoll event loop: the live service plane's execution
// heart. Everything the svc layer does — accepting control-bus frames,
// serving the HTTP API — is a nonblocking fd registered here with a
// callback; poll() waits for readiness and dispatches on the calling
// thread. There is exactly one thread inside a Reactor at a time, which is
// what lets the coroutine control plane (des::Simulator) interleave with
// socket I/O without any locking: the host pumps the simulator to idle,
// polls, and repeats.
//
// Invariants:
//  * handlers run only inside poll(), on the polling thread;
//  * a handler may add/mod/del any fd, including its own (dispatch
//    re-checks registration per event, and runs a copy of the handler so
//    self-removal cannot free the std::function mid-call);
//  * wake() is the only cross-thread-safe entry point (an eventfd write);
//    it makes a concurrent/subsequent poll() return early.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

namespace ioc::svc {

class Reactor {
 public:
  using Handler = std::function<void(std::uint32_t events)>;

  Reactor();
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Register `fd` for `events` (EPOLLIN / EPOLLOUT bits). The reactor does
  /// not own the fd; the caller closes it after del().
  void add(int fd, std::uint32_t events, Handler handler);
  /// Change the event mask of a registered fd.
  void mod(int fd, std::uint32_t events);
  /// Unregister; pending events for the fd in the current batch are
  /// discarded.
  void del(int fd);

  /// Wait up to `timeout_ms` (0 = nonblocking probe, -1 = forever) and
  /// dispatch ready handlers. Returns the number of handlers dispatched
  /// (0 on timeout). EINTR is retried internally.
  int poll(int timeout_ms);

  /// Thread-safe: make poll() return promptly. Used by ServiceHost::stop().
  void wake();

 private:
  int epfd_ = -1;
  int wakefd_ = -1;
  std::unordered_map<int, Handler> handlers_;
};

}  // namespace ioc::svc
