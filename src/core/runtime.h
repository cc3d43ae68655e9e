// The deployment: builds a complete staged-analytics run from a
// PipelineSpec — modeled cluster, network, bus, filesystem, streams,
// containers, global manager, and the simulation-output source — and runs
// it to completion on the virtual clock. This is the entry point the
// examples and the Figs. 7-10 benches drive.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/container.h"
#include "core/global.h"
#include "core/resources.h"
#include "core/spec.h"
#include "des/simulator.h"
#include "dt/stream.h"
#include "ev/bus.h"
#include "fault/injector.h"
#include "md/workload.h"
#include "net/cluster.h"
#include "net/network.h"
#include "net/scheduler.h"
#include "sio/method.h"
#include "sp/costmodel.h"

namespace ioc::core {

class StagedPipeline {
 public:
  struct Options {
    GlobalManager::Options gm;
    std::uint64_t seed = 1;
    bool scheduled_pulls = true;
    /// Writer-side staging buffer per stream (the aggregate memory the
    /// writing container can devote to DataTap buffering); small values
    /// surface application blocking sooner.
    std::uint64_t stream_buffer_bytes = 16ull * 1024 * 1024 * 1024;
    /// Hard wall for the virtual clock, as a safety net.
    des::SimTime horizon = 4 * 3600 * des::kSecond;
    /// When set, containers record per-timestep spans and the global
    /// manager records control-round/policy spans here (caller-owned; must
    /// outlive the pipeline). Export with trace::to_chrome_json or inspect
    /// with tools/ioc_trace — see docs/OBSERVABILITY.md.
    trace::TraceSink* trace = nullptr;
    /// Deterministic fault injection for the whole run (chaos testing; see
    /// docs/ROBUSTNESS.md). Off by default. Crash/partition schedules can
    /// be added afterwards through injector().
    bool faults_enabled = false;
    fault::FaultConfig faults;
    /// CM -> GM heartbeat cadence; 0 disables. Heartbeats are how a live
    /// container notices a dead global manager.
    des::SimTime heartbeat_interval = 0;
    /// Promote a standby GM automatically when heartbeats detect a crash
    /// (requires heartbeat_interval > 0).
    bool auto_failover = false;
    /// Control-plane transport. Null (the default) builds the DES ev::Bus;
    /// a live deployment installs a factory returning svc::SocketBus so the
    /// same Container/FSM/GM code runs over real kernel sockets. This is
    /// the composition-time transport switch — there is no #ifdef anywhere.
    std::function<std::unique_ptr<ev::BusIf>(net::Network&)> bus_factory;
  };

  StagedPipeline(PipelineSpec spec, Options opt);
  explicit StagedPipeline(PipelineSpec spec)
      : StagedPipeline(std::move(spec), Options{}) {}
  ~StagedPipeline();
  StagedPipeline(const StagedPipeline&) = delete;
  StagedPipeline& operator=(const StagedPipeline&) = delete;

  /// Run the whole campaign: the source emits spec.steps timesteps at the
  /// output interval; returns once every container has drained (or the
  /// horizon hit). Returns the final virtual time.
  des::SimTime run();

  /// Spawn the container/GM/source loops without stepping the clock. A live
  /// host (svc::ServiceHost) calls this once, then pumps sim() itself
  /// between socket events; run() calls it implicitly. Idempotent.
  void start();
  /// Drive the pipeline until both the simulator queue and the transport
  /// are quiescent. With a live transport, virtual time is gated: events at
  /// the current instant run first, in-flight frames land next, and the
  /// clock only advances once the wire is empty — otherwise protocol
  /// timeouts would outrun deliveries that are already in kernel buffers.
  void pump_to_idle();
  /// True once every online container drained its input.
  bool all_done() const { return all_done_; }

  // --- results ------------------------------------------------------------
  GlobalManager& gm() { return *gm_; }
  /// Crash the current global manager and promote a standby in its place
  /// (paper Section III-B: ZooKeeper-like resilience for the otherwise
  /// single point of failure). Containers re-point their monitoring to the
  /// new manager; its aggregate view rebuilds from the live stream.
  GlobalManager& failover_gm();
  const mon::MonitoringHub& hub() const { return gm_->hub(); }
  const std::vector<ManagementEvent>& events() const {
    return gm_->events();
  }
  Container* container(const std::string& name) { return gm_->find(name); }
  const PipelineSpec& spec() const { return spec_; }
  sio::Filesystem& fs() { return *fs_; }
  ResourcePool& pool() { return *pool_; }
  dt::Stream& source_stream() { return *source_stream_; }
  net::Network& network() { return *net_; }
  des::Simulator& sim() { return sim_; }
  ev::BusIf& bus() { return *bus_; }
  /// The fault injector, or nullptr when Options::faults_enabled is false.
  fault::Injector* injector() { return injector_.get(); }
  /// GM promotions performed by the heartbeat-driven auto-failover path.
  std::size_t auto_failovers() const { return auto_failovers_; }
  /// Virtual seconds the simulation spent blocked on a full staging buffer.
  double sim_blocked_seconds() const;
  /// Timesteps emitted by the source so far.
  std::uint64_t steps_emitted() const { return steps_emitted_; }

 private:
  des::Process source_loop();
  des::Process completion_watch();

  PipelineSpec spec_;
  Options opt_;
  des::Simulator sim_;
  std::unique_ptr<net::Cluster> cluster_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<net::BatchScheduler> batch_;
  std::unique_ptr<ev::BusIf> bus_;
  std::unique_ptr<fault::Injector> injector_;
  std::unique_ptr<sio::Filesystem> fs_;
  /// The default Table-I calibration, the one lint's feasibility rules
  /// (src/lint/feasibility.h) predict with.
  const sp::CostModel cost_;
  Container::Env env_;
  std::unique_ptr<ResourcePool> pool_;
  std::unique_ptr<dt::Stream> source_stream_;
  std::vector<std::unique_ptr<Container>> containers_;
  std::unique_ptr<GlobalManager> gm_;
  /// Managers replaced by failover_gm(). A failed manager's loops may still
  /// be suspended (e.g. on a policy timer) when the standby takes over;
  /// they must outlive those frames, which finish during the destructor's
  /// event drain.
  std::vector<std::unique_ptr<GlobalManager>> retired_gms_;
  std::uint64_t steps_emitted_ = 0;
  bool all_done_ = false;
  bool started_ = false;
  bool tearing_down_ = false;
  std::size_t auto_failovers_ = 0;
  /// Last promotion time; failure reports already in flight when the
  /// standby took over must not trigger a second promotion.
  des::SimTime last_failover_ = 0;
};

}  // namespace ioc::core
