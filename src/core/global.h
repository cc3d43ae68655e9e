// The global manager: keeps the naming registry and the aggregate
// monitoring view, detects pipeline bottlenecks, and enforces cross-
// container goals — the latency SLA and "never block the application" — by
// driving the increase / decrease / offline protocols against the local
// managers, trading staging resources between containers when the spare
// pool runs dry.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/container.h"
#include "core/protocol.h"
#include "core/resources.h"
#include "core/rounds.h"
#include "core/spec.h"
#include "des/process.h"
#include "mon/hub.h"

namespace ioc::core {

class GlobalManager {
 public:
  struct Options {
    /// Retry ladder for GM -> CM control rounds. The default timeout of 0
    /// waits forever — the pre-robustness behaviour, kept for runs on a
    /// fabric known lossless. With a deadline set, an unanswered round is
    /// retried `round.retries` times with capped exponential backoff and
    /// then escalates: the container is fenced (see docs/ROBUSTNESS.md).
    ev::RoundOptions round;
  };

  GlobalManager(Container::Env env, const PipelineSpec& spec,
                ResourcePool& pool, std::vector<Container*> containers,
                Options opt);
  GlobalManager(Container::Env env, const PipelineSpec& spec,
                ResourcePool& pool, std::vector<Container*> containers)
      : GlobalManager(std::move(env), spec, pool, std::move(containers),
                      Options{}) {}
  ~GlobalManager();
  GlobalManager(const GlobalManager&) = delete;
  GlobalManager& operator=(const GlobalManager&) = delete;

  /// Spawn the monitoring sink and (if management is enabled in the spec)
  /// the policy loop.
  void start();
  /// Ask the policy loop to exit at its next tick.
  void stop() { stopping_ = true; }
  /// Simulate a global-manager crash: endpoints close, loops end. The paper
  /// notes ZooKeeper-style methods can keep this single point of failure
  /// resilient; StagedPipeline::failover_gm() promotes a fresh manager that
  /// rebuilds its (soft) monitoring state from the live sample stream.
  void fail();
  bool failed() const { return failed_; }
  /// Quiet teardown: stop the policy loop and close the control/monitoring
  /// endpoints so the blocked loops can finish once remaining events drain.
  void shutdown();

  mon::MonitoringHub& hub() { return hub_; }
  const mon::MonitoringHub& hub() const { return hub_; }
  const std::vector<ManagementEvent>& events() const { return events_; }
  /// Every control message this manager exchanged with a CM, in order; feed
  /// it to lint::check_trace to audit a run offline.
  const std::vector<ControlTraceEvent>& control_trace() const {
    return rounds_.trace();
  }
  Container* find(const std::string& name) const;

  // --- protocol drivers ---------------------------------------------------
  // Exposed so the microbenchmarks (Figs. 4-5) and examples can invoke the
  // exact protocol paths the policy uses.

  /// Grant up to `n` spare nodes to the container and run the increase
  /// protocol. The report's ok flag is false when nothing could be granted.
  des::Task<ProtocolReport> increase(std::string name, std::uint32_t n);
  /// Shrink a container by `k`, returning its nodes to the spare pool.
  des::Task<ProtocolReport> decrease(std::string name, std::uint32_t k);
  /// Move `k` nodes from donor to recipient (decrease then increase).
  des::Task<ProtocolReport> steal(std::string donor, std::string recipient,
                                  std::uint32_t k);
  /// Take `name` and all its dependents offline; the last online upstream
  /// container switches its output to disk with provenance labels.
  des::Task<ProtocolReport> offline_cascade(std::string name,
                                            std::string reason);
  /// Bring a dormant container online with `n` spare nodes (the dynamic
  /// branch: CSym detects the break, CNA starts; also usable interactively
  /// mid-run). Sink flags are recomputed so end-to-end accounting follows
  /// the new pipeline tail.
  des::Task<ProtocolReport> activate(std::string name, std::uint32_t n);

  /// Toggle soft-error data hashes on a container's output at run time
  /// (Section III-D's control feature).
  des::Task<bool> enable_hashes(std::string name, bool enabled = true);

  /// Re-derive which online containers are pipeline sinks (no online
  /// downstream); called after topology-changing actions.
  void recompute_sinks();

  /// One policy evaluation (the loop calls this; tests can call it
  /// directly).
  des::Task<void> evaluate();

  /// Try to satisfy a container's resource needs from spares, then by
  /// stealing from an over-provisioned donor. Returns true if an action was
  /// taken.
  des::Task<bool> try_feed(Container* c, std::string why);

 private:
  des::Process monitor_loop();
  des::Process policy_loop();
  des::Task<ev::Message> request_cm(Container* c, ev::Message m);
  /// Escalation ladder's last rung before offline fallback: switch the
  /// fenced container's upstream survivor to disk (provenance-labeled, as
  /// in offline_cascade), fence the container, and repair the pool. Returns
  /// the kErrFenced reply request_cm hands to its caller.
  des::Task<ev::Message> escalate_fence(Container* c, std::uint64_t token);
  void log_event(const std::string& action, const std::string& container,
                 const std::string& reason, int delta,
                 ProtocolReport report);
  /// Provenance chain: analytics applied from the source up to and
  /// including `upto`; pending: everything downstream of it.
  std::pair<std::string, std::string> provenance_labels(
      const std::string& upto) const;
  /// What increase() and decrease() share once their round ended: adopt
  /// the CM's report (`done`; null fails the action), time the whole
  /// action from `t0` and credit what the CM's phases leave to GM <-> CM
  /// messaging, check the pool and restart the container's latency window.
  ProtocolReport finish_resize(ProtocolReport rep, const DonePayload* done,
                               des::SimTime t0);

  Container::Env env_;
  const PipelineSpec* spec_;
  ResourcePool& pool_;
  std::vector<Container*> containers_;
  Options opt_;
  mon::MonitoringHub hub_;
  ev::EndpointId mon_ep_ = ev::kInvalidEndpoint;
  ev::EndpointId ctl_ep_ = ev::kInvalidEndpoint;
  std::vector<ManagementEvent> events_;
  /// Control trace and per-container Fig. 3 state, advanced together so
  /// debug builds catch illegal sequences at the moment they happen.
  Coordinator rounds_;
  bool stopping_ = false;
  bool failed_ = false;
  des::Process mon_proc_;
  des::Process policy_proc_;
};

}  // namespace ioc::core
