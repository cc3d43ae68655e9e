// The REST control surface over a ServiceHost (see docs/SERVICE.md for the
// endpoint reference and curl quickstart):
//
//   POST   /v1/pipelines               create + start a pipeline
//   GET    /v1/pipelines               list
//   GET    /v1/pipelines/{id}          detail
//   DELETE /v1/pipelines/{id}          tear down
//   POST   /v1/pipelines/{id}/resize   run an increase/decrease round
//   GET    /metrics                    Prometheus text (MonitoringHub)
//
// Resize is genuinely asynchronous: the handler spawns a coroutine on the
// pipeline's simulator that drives the real GM protocol (the same
// Coordinator::run_round ladder as simulation mode) and completes the parked
// HttpResponder when the DONE lands.
#pragma once

#include "svc/http.h"

namespace ioc::svc {

class ServiceHost;

class RestApi {
 public:
  explicit RestApi(ServiceHost& host) : host_(&host) {}

  /// The HttpServer handler.
  void handle(const HttpRequest& req, HttpResponder res);

 private:
  ServiceHost* host_;
};

}  // namespace ioc::svc
