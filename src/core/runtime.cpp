#include "core/runtime.h"

#include <map>
#include <stdexcept>

#include "util/log.h"

namespace ioc::core {

StagedPipeline::StagedPipeline(PipelineSpec spec, Options opt)
    : spec_(std::move(spec)), opt_(opt) {
  spec_.validate();

  // Node plan: 0 = simulation I/O proxy, 1 = global manager, 2.. = staging.
  cluster_ = std::make_unique<net::Cluster>(sim_, 2 + spec_.staging_nodes);
  net_ = std::make_unique<net::Network>(*cluster_, opt_.network);
  batch_ = std::make_unique<net::BatchScheduler>(*cluster_,
                                                 util::Rng(opt_.seed));
  if (opt_.bus_factory) {
    bus_ = opt_.bus_factory(*net_);
  } else {
    bus_ = std::make_unique<ev::Bus>(*net_);
  }
  if (opt_.faults_enabled) {
    injector_ = std::make_unique<fault::Injector>(*bus_, opt_.faults);
    injector_->set_trace(opt_.trace);
  }
  fs_ = std::make_unique<sio::Filesystem>(sim_);
  cost_ = sp::CostModel(opt_.cost);

  std::vector<net::NodeId> staging;
  for (std::size_t i = 0; i < spec_.staging_nodes; ++i) {
    staging.push_back(static_cast<net::NodeId>(2 + i));
  }
  pool_ = std::make_unique<ResourcePool>(staging);

  dt::StreamConfig scfg;
  scfg.buffer_capacity = opt_.stream_buffer_bytes;
  scfg.scheduled_pulls = opt_.scheduled_pulls;
  source_stream_ = std::make_unique<dt::Stream>(*net_, 0, scfg);

  Container::Env& env = env_;
  env.sim = &sim_;
  env.bus = bus_.get();
  env.batch = batch_.get();
  env.fs = fs_.get();
  env.cost = &cost_;
  env.pipeline = &spec_;
  env.trace = opt_.trace;
  env.stream_config = scfg;
  env.heartbeat_interval = opt_.heartbeat_interval;
  env.on_gm_unreachable = [this] {
    if (!opt_.auto_failover || tearing_down_) return;
    // Detection is edge-triggered but reports can pile up: heartbeats sent
    // before the standby took over still bounce afterwards. One promotion
    // per heartbeat interval is enough; and while the GM's node itself is
    // down, a replacement on the same node would be equally unreachable.
    if (injector_ != nullptr && injector_->node_down(1)) return;
    if (auto_failovers_ > 0 &&
        sim_.now() < last_failover_ + opt_.heartbeat_interval) {
      return;
    }
    ++auto_failovers_;
    last_failover_ = sim_.now();
    failover_gm();
  };
  env.upstream_width = [this](const std::string& upstream) -> std::uint32_t {
    if (upstream.empty()) {
      // Simulation-side DataTap writers: one I/O aggregator per 64 ranks.
      return static_cast<std::uint32_t>(std::max<std::uint64_t>(
          1, spec_.sim_nodes / 64));
    }
    for (const auto& c : containers_) {
      if (c->name() == upstream) return std::max<std::uint32_t>(1, c->width());
    }
    return 1;
  };

  // Build containers in dependency order so each finds its input stream.
  std::map<std::string, dt::Stream*> outputs;
  std::vector<const ContainerSpec*> pending;
  for (const auto& c : spec_.containers) pending.push_back(&c);
  while (!pending.empty()) {
    bool progress = false;
    for (auto it = pending.begin(); it != pending.end();) {
      const ContainerSpec& cs = **it;
      dt::Stream* input = nullptr;
      if (cs.upstream.empty()) {
        input = source_stream_.get();
      } else if (auto oit = outputs.find(cs.upstream); oit != outputs.end()) {
        input = oit->second;
      } else {
        ++it;
        continue;
      }
      std::vector<net::NodeId> nodes;
      if (!cs.starts_offline) nodes = pool_->grant(cs.name, cs.initial_nodes);
      const net::NodeId head = nodes.empty() ? net::NodeId{1} : nodes.front();
      auto container =
          std::make_unique<Container>(env, cs, nodes, head, input);
      outputs[cs.name] = &container->output();
      containers_.push_back(std::move(container));
      it = pending.erase(it);
      progress = true;
    }
    if (!progress) {
      throw std::runtime_error("StagedPipeline: unresolvable pipeline order");
    }
  }

  std::vector<Container*> ptrs;
  for (const auto& c : containers_) ptrs.push_back(c.get());
  gm_ = std::make_unique<GlobalManager>(env, spec_, *pool_, ptrs, opt_.gm);

  // The sink: the most-downstream container that starts online.
  for (const auto& c : containers_) {
    if (!c->online()) continue;
    bool has_online_downstream = false;
    for (const auto& d : containers_) {
      if (d->online() && d->spec().upstream == c->name()) {
        has_online_downstream = true;
      }
    }
    c->set_sink(!has_online_downstream);
  }
}

StagedPipeline::~StagedPipeline() {
  tearing_down_ = true;  // heartbeat bounces during the drain are expected
  // Cooperative teardown: the manager/monitor/replica loops block on
  // mailboxes and streams, and a process abandoned while suspended leaks
  // its coroutine frame (see des/process.h). Close everything they wait on
  // while the simulator can still run, then drain the remaining events so
  // every loop observes the close and finishes.
  if (gm_) gm_->shutdown();
  for (const auto& c : containers_) {
    c->shutdown();
    // completion_watch() parks on each online container's done event, and
    // a container torn down before it drained never sets it.
    c->done().set();
  }
  if (source_stream_) source_stream_->close();
  // Interleave the transport pump: a socket transport may hold frames in
  // kernel buffers whose delivery resumes suspended post() coroutines — the
  // simulator alone cannot make that progress. The DES bus pumps nothing
  // and the loop degenerates to the plain drain.
  pump_to_idle();
}

void StagedPipeline::pump_to_idle() {
  // A live transport gates virtual time: while frames are in flight, only
  // events at the current instant may run. Letting the clock free-run past
  // them would fire protocol timeouts ahead of deliveries that are already
  // on the wire, and the resulting retries re-arm those timers forever.
  // The DES bus never reports in-flight work, so this degenerates to a
  // plain drain of the event queue.
  for (;;) {
    sim_.run_until(sim_.now());
    if (bus_ != nullptr && bus_->pump_transport()) continue;
    if (!sim_.step()) break;
  }
}

des::Process StagedPipeline::source_loop() {
  const md::WorkloadPoint workload = md::WorkloadModel::point(spec_.sim_nodes);
  const des::SimTime interval = des::from_seconds(spec_.output_interval_s);
  for (std::uint64_t step = 0; step < spec_.steps; ++step) {
    co_await des::delay(sim_, interval);
    dt::StepData d;
    d.step = step;
    d.bytes = workload.bytes_per_step;
    d.items = workload.atoms;
    d.created = sim_.now();
    d.origin = sim_.now();
    const bool ok = co_await source_stream_->write(std::move(d));
    if (!ok) break;
    ++steps_emitted_;
  }
  source_stream_->close();
}

des::Process StagedPipeline::completion_watch() {
  bool waited = true;
  while (waited) {
    waited = false;
    for (const auto& c : containers_) {
      if (c->done().is_set()) continue;
      if (!c->online()) continue;  // dormant stage, never activated
      co_await c->done().wait();
      waited = true;
    }
  }
  all_done_ = true;
  gm_->stop();
  // Heartbeats exist to detect a dead GM while work is in flight; once the
  // pipeline has drained they only keep the event loop alive forever.
  for (const auto& c : containers_) c->stop_heartbeats();
}

void StagedPipeline::start() {
  if (started_) return;
  started_ = true;
  for (const auto& c : containers_) c->start();
  gm_->start();
  spawn(sim_, source_loop());
  spawn(sim_, completion_watch());
}

des::SimTime StagedPipeline::run() {
  start();
  // Runs past all_done_ on purpose: in-flight control work (e.g. a cascade
  // that was mid-protocol when the last stage finished) still has to drain,
  // and the policy loop has to observe the stop flag. Same time-gating rule
  // as pump_to_idle(): the clock only advances when the wire is empty.
  while (sim_.now() < opt_.horizon) {
    sim_.run_until(sim_.now());
    if (bus_->pump_transport()) continue;
    if (!sim_.step()) break;
  }
  if (!all_done_) {
    IOC_WARN << "StagedPipeline: run stopped before pipeline drained (t="
             << des::format_time(sim_.now()) << ")";
  }
  return sim_.now();
}

GlobalManager& StagedPipeline::failover_gm() {
  gm_->fail();
  std::vector<Container*> ptrs;
  for (const auto& c : containers_) ptrs.push_back(c.get());
  // A crash can strand a half-completed control round: the CM applied a
  // resize but the DONE died with the manager, so the old ledger granted or
  // reclaimed nodes the container never saw (or vice versa). The standby
  // must not inherit that skew — re-sync the ledger against each
  // container's actual node list before it starts managing.
  for (Container* c : ptrs) {
    const auto [reclaimed, claimed] = pool_->reconcile(c->name(), c->nodes());
    if (reclaimed + claimed > 0) {
      IOC_WARN << "failover: ledger reconciled for " << c->name() << " (-"
               << reclaimed << " stale, +" << claimed << " unrecorded)";
    }
  }
  // The standby takes over: fresh endpoints, containers re-pointed, soft
  // state (monitoring windows) rebuilt from the ongoing sample stream. The
  // failed manager is retired, not destroyed: its policy loop may still be
  // parked on a timer and needs the object alive to observe stopping_.
  retired_gms_.push_back(std::move(gm_));
  gm_ = std::make_unique<GlobalManager>(env_, spec_, *pool_, ptrs, opt_.gm);
  gm_->recompute_sinks();
  gm_->start();
  return *gm_;
}

double StagedPipeline::sim_blocked_seconds() const {
  return source_stream_->total_block_seconds();
}

}  // namespace ioc::core
