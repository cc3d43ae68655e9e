// ServiceHost: the live-mode composition root (the cbftp-style "global
// context" of named managers). Owns the reactor, the HTTP control API, and
// the registry of managed StagedPipelines, each built with a SocketBus
// factory so its control plane runs over real kernel sockets. One thread
// runs everything: the loop alternates "pump every pipeline's simulator to
// idle (virtual time free-runs), flush its transport" with one reactor
// poll for HTTP traffic.
//
// stop() is the only cross-thread entry point (atomic flag + reactor
// wake), which is what lets tests and the self-hosted loadgen run the host
// on a std::thread while driving it with ordinary blocking clients.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/runtime.h"
#include "svc/http.h"
#include "svc/reactor.h"

namespace ioc::svc {

class RestApi;

class ServiceHost {
 public:
  struct Options {
    /// HTTP listen port; 0 picks an ephemeral port (tests, loadgen).
    std::uint16_t http_port = 0;
  };

  explicit ServiceHost(Options opt);
  ServiceHost() : ServiceHost(Options{}) {}
  ~ServiceHost();
  ServiceHost(const ServiceHost&) = delete;
  ServiceHost& operator=(const ServiceHost&) = delete;

  std::uint16_t http_port() const;

  /// Serve until stop(). Pumps pipelines between polls.
  void run();
  /// One loop iteration (poll up to timeout_ms, then pump). Exposed for
  /// single-threaded tests.
  void poll_once(int timeout_ms);
  /// Thread-safe shutdown request.
  void stop();

  // --- pipeline registry (single-threaded: handlers + pump only) ----------
  struct Entry {
    std::uint64_t id = 0;
    std::string name;
    std::unique_ptr<core::StagedPipeline> pipeline;
  };

  /// Create + start a pipeline; returns the registry entry.
  Entry& create(core::PipelineSpec spec, const std::string& name);
  Entry* find(std::uint64_t id);
  /// Remove a pipeline. Destruction is deferred to the next pump so a
  /// DELETE handler running inside a reactor dispatch never re-enters the
  /// reactor through the pipeline's teardown drain.
  bool erase(std::uint64_t id);
  const std::map<std::uint64_t, Entry>& entries() const { return pipelines_; }

  /// Drive every pipeline to quiescence (sim idle + transport flushed) and
  /// reap deferred deletions.
  void pump();

  /// Prometheus text across all managed pipelines (GET /metrics).
  std::string metrics_text() const;

 private:
  Reactor reactor_;
  std::unique_ptr<RestApi> rest_;
  std::unique_ptr<HttpServer> http_;
  std::map<std::uint64_t, Entry> pipelines_;
  std::vector<std::unique_ptr<core::StagedPipeline>> doomed_;
  std::uint64_t next_id_ = 1;
  std::atomic<bool> stop_{false};
};

}  // namespace ioc::svc
