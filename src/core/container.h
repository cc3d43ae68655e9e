// The I/O container: a run-time abstraction wrapping one analytics
// component in a managed execution environment. It owns the component's
// replicas (or its single tree/parallel instance), its input/output
// transport, and a *local manager* — the only entity that understands this
// component's compute model, speedup behaviour, and monitoring data — which
// executes the control protocols on behalf of the global manager.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "core/spec.h"
#include "des/event.h"
#include "des/process.h"
#include "dt/stream.h"
#include "ev/bus_if.h"
#include "mon/metric.h"
#include "net/scheduler.h"
#include "sio/method.h"
#include "sio/writer.h"
#include "sp/costmodel.h"

namespace ioc::trace {
class TraceSink;
}

namespace ioc::core {

class Container {
 public:
  /// Shared runtime services, owned by the deployment.
  struct Env {
    des::Simulator* sim = nullptr;
    ev::BusIf* bus = nullptr;
    net::BatchScheduler* batch = nullptr;
    sio::Filesystem* fs = nullptr;
    const sp::CostModel* cost = nullptr;
    const PipelineSpec* pipeline = nullptr;
    /// Optional span sink; when set, every processed timestep and control
    /// round is recorded (see src/trace and docs/OBSERVABILITY.md). Null
    /// keeps the hot path allocation- and branch-cheap.
    trace::TraceSink* trace = nullptr;
    /// Buffering/scheduling configuration applied to the container's output
    /// stream.
    dt::StreamConfig stream_config;
    /// Width of the writer group feeding a stream: the upstream container's
    /// replica count, or the simulation's I/O writer count for the source.
    std::function<std::uint32_t(const std::string& upstream)> upstream_width;
    /// CM -> GM liveness probe cadence; 0 (the default) disables the
    /// heartbeat loop entirely, keeping message counts of existing runs
    /// unchanged. See docs/ROBUSTNESS.md.
    des::SimTime heartbeat_interval = 0;
    /// Invoked by a container whose heartbeat could not be delivered while
    /// its own endpoint is still alive — i.e. the GM endpoint is gone. The
    /// deployment uses this to trigger failover_gm().
    std::function<void()> on_gm_unreachable;
  };

  enum class State { kOnline, kOffline };

  Container(Env env, ContainerSpec spec, std::vector<net::NodeId> nodes,
            net::NodeId head_node, dt::Stream* input);
  ~Container();
  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  // --- identity & state -------------------------------------------------
  const std::string& name() const { return spec_.name; }
  /// The name, interned once at construction (the GM's trace peer).
  util::NameId name_id() const { return name_id_; }
  const ContainerSpec& spec() const { return spec_; }
  State state() const { return state_; }
  bool online() const { return state_ == State::kOnline; }
  std::uint32_t width() const {
    return static_cast<std::uint32_t>(replicas_.size());
  }
  /// The nodes the replicas run on, in replica order.
  std::vector<net::NodeId> nodes() const;
  ev::EndpointId manager_endpoint() const { return mgr_ep_; }
  dt::Stream* input() const { return input_; }
  dt::Stream& output() { return *output_; }
  bool disk_mode() const { return disk_mode_; }
  /// Set when the container has drained its input to end-of-stream (or has
  /// been taken offline) — the deployment joins on these.
  des::Event& done() { return done_; }

  // --- lifecycle ---------------------------------------------------------
  /// Spawn the manager loop and (unless the spec starts offline) the
  /// component replicas. Call once, after set_gm_endpoint().
  void start();
  /// Cooperative teardown: close the control endpoints and output stream and
  /// signal the replica stop events, so every loop blocked on them finishes
  /// the next time the simulator pumps (instead of leaking its coroutine
  /// frame). The deployment calls this, then drains remaining events.
  void shutdown();
  void set_gm_endpoint(ev::EndpointId gm) { gm_ep_ = gm; }
  /// Stop the liveness heartbeat. The deployment calls this once the whole
  /// pipeline has drained — heartbeats are pure background traffic at that
  /// point and would keep the event loop alive forever.
  void stop_heartbeats() { heartbeats_stopped_ = true; }
  /// STONITH-style eviction, called by the GM when this container's manager
  /// stopped answering (retries exhausted or endpoint gone): close every
  /// endpoint, stop and drop the replicas, and mark the container
  /// offline-done. Safe to call on an already-crashed container —
  /// that is its main use. The caller repairs the resource pool.
  void fence();
  /// Sink containers report pipeline end-to-end latency (Fig. 10).
  void set_sink(bool s) { is_sink_ = s; }
  bool is_sink() const { return is_sink_; }

  // --- observability -----------------------------------------------------
  const util::OnlineStats& latency_stats() const { return latency_; }
  std::uint64_t steps_processed() const { return steps_processed_; }
  /// Per-step service time at the current width for `items` elements.
  double service_seconds(std::uint64_t items) const;
  /// Extra nodes needed to sustain one step per output interval — the local
  /// manager's answer to the global manager's QUERY_NEEDS.
  std::uint32_t nodes_needed(std::uint64_t items) const;
  /// Soft-error hashing state (spec default; togglable via control plane).
  bool hashing_enabled() const { return hashing_enabled_; }

 private:
  struct Replica {
    net::NodeId node = net::kInvalidNode;
    ev::EndpointId ep = ev::kInvalidEndpoint;
    std::unique_ptr<des::Event> stop;
    des::Process proc;
    bool eof = false;
  };

  des::Process manager_loop();
  des::Process heartbeat_loop();
  des::Process replica_loop(Replica* r);
  des::Task<void> process_step(Replica* r, dt::StepData step);
  des::Task<void> emit_output(dt::StepData in);
  des::Task<void> post_metric(mon::MetricKind kind, std::uint64_t step,
                              double value, const std::string& source);

  // Control-protocol handlers (run inside the manager loop).
  des::Task<DonePayload> do_increase(std::vector<net::NodeId> add);
  des::Task<DonePayload> do_decrease(std::uint32_t count);
  des::Task<DonePayload> do_offline();
  des::Task<void> do_switch_to_disk(const SwitchToDiskPayload& p);
  des::Task<DonePayload> do_activate(std::vector<net::NodeId> nodes);

  void add_replica(net::NodeId node);
  /// Stop the replicas from `from` on and wait for them to exit.
  des::Task<void> stop_replicas(std::size_t from);
  /// Drop the (stopped) replicas from `from` on: close their endpoints and
  /// hand back their nodes, in replica order.
  std::vector<net::NodeId> release(std::size_t from);
  /// The launch step of a resize: aprun, then a replica on each of `nodes`
  /// and the metadata exchange that introduces them. False, with nothing
  /// added, if fence() evicted the container while aprun ran.
  des::Task<bool> launch(std::vector<net::NodeId> nodes,
                         ProtocolReport& report);
  /// The exit of a resize handler that fence() evicted while it was
  /// suspended: the fence already closed every endpoint and the GM repairs
  /// the ledger, so it only resumes the input if the handler paused it.
  DonePayload evicted(DonePayload done, bool paused);
  /// The contact-information rounds that dominate resize cost (Fig. 4).
  des::Task<void> metadata_exchange(std::size_t new_replicas,
                                    std::size_t existing,
                                    ProtocolReport& report);
  /// Stateful components: move per-replica state to/from the head replica
  /// during a resize (paper future work: "stateful rather than stateless
  /// analytics methods").
  des::Task<void> migrate_state(std::size_t replica_count,
                                bool to_replicas, ProtocolReport& report);
  des::Task<void> endpoint_update(ProtocolReport& report);
  void maybe_done();

  Env env_;
  ContainerSpec spec_;
  util::NameId name_id_;
  net::NodeId head_node_;
  dt::Stream* input_;
  std::unique_ptr<dt::Stream> output_;
  ev::EndpointId mgr_ep_ = ev::kInvalidEndpoint;
  ev::EndpointId gm_ep_ = ev::kInvalidEndpoint;

  State state_ = State::kOnline;
  std::vector<std::unique_ptr<Replica>> replicas_;
  /// Replicas removed by fence(). Their loops may still be suspended on the
  /// input stream or a stop event; the objects must outlive those frames,
  /// which finish during the deployment's teardown drain.
  std::vector<std::unique_ptr<Replica>> fenced_replicas_;
  bool is_sink_ = false;
  bool started_ = false;
  /// Set by fence() so a resize handler suspended mid-protocol (on a pause,
  /// aprun, or state migration) notices on resume that the GM evicted the
  /// container and bails out instead of resurrecting replicas the resource
  /// ledger no longer records. Cleared if the container is later activated.
  bool fenced_ = false;
  bool heartbeats_stopped_ = false;

  // Disk path used after downstream stages go offline.
  bool disk_mode_ = false;
  sio::Group disk_group_;
  std::unique_ptr<sio::Writer> disk_writer_;
  std::string provenance_;
  std::string pending_;

  des::Event done_;
  bool hashing_enabled_ = false;
  util::OnlineStats latency_;
  std::uint64_t steps_processed_ = 0;
  std::uint64_t last_items_ = 0;
  des::Process manager_proc_;
  des::Process heartbeat_proc_;
};

}  // namespace ioc::core
