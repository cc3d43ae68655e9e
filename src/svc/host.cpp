#include "svc/host.h"

#include "svc/rest.h"
#include "svc/socket_bus.h"

namespace ioc::svc {

ServiceHost::ServiceHost(Options opt) {
  rest_ = std::make_unique<RestApi>(*this);
  http_ = std::make_unique<HttpServer>(
      reactor_, opt.http_port,
      [this](const HttpRequest& req, HttpResponder res) {
        rest_->handle(req, res);
      });
}

ServiceHost::~ServiceHost() {
  // Pipelines drain through their own transports in ~StagedPipeline; the
  // HTTP server must go first so no handler can reference a dead registry.
  http_.reset();
  pipelines_.clear();
  doomed_.clear();
}

std::uint16_t ServiceHost::http_port() const { return http_->port(); }

void ServiceHost::run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    poll_once(50);
  }
}

void ServiceHost::poll_once(int timeout_ms) {
  reactor_.poll(timeout_ms);
  pump();
}

void ServiceHost::stop() {
  stop_.store(true, std::memory_order_relaxed);
  reactor_.wake();
}

ServiceHost::Entry& ServiceHost::create(core::PipelineSpec spec,
                                        const std::string& name) {
  core::StagedPipeline::Options popt;
  popt.bus_factory = [](net::Network& n) -> std::unique_ptr<ev::BusIf> {
    return std::make_unique<SocketBus>(n);
  };
  const std::uint64_t id = next_id_++;
  Entry e;
  e.id = id;
  e.name = name.empty() ? ("pipeline-" + std::to_string(id)) : name;
  e.pipeline =
      std::make_unique<core::StagedPipeline>(std::move(spec), popt);
  e.pipeline->start();
  auto [it, inserted] = pipelines_.emplace(id, std::move(e));
  return it->second;
}

ServiceHost::Entry* ServiceHost::find(std::uint64_t id) {
  auto it = pipelines_.find(id);
  return it == pipelines_.end() ? nullptr : &it->second;
}

bool ServiceHost::erase(std::uint64_t id) {
  auto it = pipelines_.find(id);
  if (it == pipelines_.end()) return false;
  doomed_.push_back(std::move(it->second.pipeline));
  pipelines_.erase(it);
  return true;
}

void ServiceHost::pump() {
  for (auto& [id, e] : pipelines_) {
    // Virtual time free-runs (but stays gated behind in-flight frames, see
    // StagedPipeline::pump_to_idle) until sim and transport are quiescent.
    e.pipeline->pump_to_idle();
  }
  doomed_.clear();  // deferred DELETEs: safe here, outside reactor dispatch
}

std::string ServiceHost::metrics_text() const {
  std::string out;
  for (const auto& [id, e] : pipelines_) {
    out += "# pipeline " + std::to_string(id) + " " + e.name + "\n";
    out += e.pipeline->gm().hub().prometheus();
  }
  return out;
}

}  // namespace ioc::svc
