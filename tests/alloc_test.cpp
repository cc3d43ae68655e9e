// Allocation-regression guard for the control plane's hot paths. The
// tentpole claim of the allocation-free rework is not "few" allocations but
// ZERO in steady state: after a short warmup (intern tables populated,
// coroutine frame pools primed, ring buffers at their high-water marks),
//
//   * posting a control message across the bus, payload included (a
//     trade round's TradeWire among them),
//   * capturing a span into a TraceSink ring, and
//   * ingesting a monitoring sample into a MonitoringHub
//
// must not touch the global heap at all. A single operator new anywhere in
// these paths fails this suite, which is a far sharper tripwire than the
// fleet bench's allocs_per_event < 1 gate (that one tolerates rare
// percolations like interner growth; this one tolerates nothing inside the
// measured loop).
//
// The counter (alloc_count.h) hooks every form of the replaceable
// global operator new, aligned ones included, so everything — std::function
// nodes, vector growth, mailbox ring growth, coroutine frames that escaped
// the pool — is visible to it.
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_count.h"
#include "des/process.h"
#include "des/simulator.h"
#include "des/time.h"
#include "ev/bus.h"
#include "fed/wire.h"
#include "mon/hub.h"
#include "mon/metric.h"
#include "net/cluster.h"
#include "net/network.h"
#include "trace/sink.h"
#include "txn/d2t_model.h"
#include "util/ring_deque.h"

namespace ioc {
namespace {

/// A typical control payload: small, trivially copyable, inline in the
/// message's small-buffer slot.
struct PingPayload {
  std::uint64_t seq = 0;
  std::uint64_t detail = 0;
};

/// Posts `count` messages of type `mid`, one per simulated millisecond,
/// the i-th carrying payload(i).
template <class MakePayload>
des::Process publish_loop(ev::Bus& bus, ev::EndpointId from, ev::EndpointId to,
                          ev::MessageId mid, int count, int* sent,
                          MakePayload payload) {
  for (int i = 0; i < count; ++i) {
    co_await des::delay(bus.sim(), des::kMillisecond);
    ev::Message m;
    m.type_id = mid;
    m.size_bytes = 64;
    m.payload = payload(static_cast<std::uint64_t>(i));
    if (co_await bus.post(from, to, std::move(m),
                          ev::TrafficClass::kMonitoring)) {
      ++*sent;
    }
  }
}

des::Process drain_loop(ev::Endpoint& ep, int* got) {
  for (;;) {
    auto m = co_await ep.mailbox().get();
    if (!m.has_value()) co_return;
    ++*got;
  }
}

/// Allocations across 256 steady-state posts of type `mid` carrying
/// payload(i), after a warmup leg of 32.
template <class MakePayload>
std::uint64_t steady_state_post_allocs(ev::MessageId mid,
                                       MakePayload payload) {
  des::Simulator sim;
  net::Cluster cluster{sim, 4};
  net::Network net{cluster};
  ev::Bus bus{net};
  auto& a = bus.open(0, "alloc-test-src");
  auto& b = bus.open(1, "alloc-test-dst");

  int sent = 0;
  int got = 0;
  // Warmup leg: first posts populate the frame pools, the mailbox ring, the
  // ladder queue's vectors, and the traffic ledger. 32 messages is far past
  // every one-time growth in that list.
  spawn(sim, drain_loop(b, &got));
  spawn(sim, publish_loop(bus, a.id(), b.id(), mid, 32, &sent, payload));
  sim.run();
  EXPECT_EQ(sent, 32);
  EXPECT_EQ(got, 32);

  // Steady-state leg: every allocation between these two reads is a
  // regression — the publish path (message + inline payload + network
  // protocol + mailbox handoff) must run entirely pool- and stack-side.
  const std::uint64_t before = alloc_count();
  spawn(sim, publish_loop(bus, a.id(), b.id(), mid, 256, &sent, payload));
  sim.run();
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(sent, 32 + 256);
  EXPECT_EQ(got, 32 + 256);

  bus.close(b.id());  // end-of-stream for the drain loop
  sim.run();
  return after - before;
}

TEST(AllocFree, SteadyStateBusPublishAllocatesNothing) {
  const std::uint64_t allocs = steady_state_post_allocs(
      ev::intern_type("ALLOC_TEST/ping"),
      [](std::uint64_t i) { return PingPayload{i, 7}; });
  EXPECT_EQ(allocs, 0u) << allocs
                        << " allocations across 256 steady-state posts";
}

TEST(AllocFree, BeginRoundTradeWirePostAllocatesNothing) {
  // A trade round's request before the donor escrowed carries no nodes; the
  // wire then fits the payload's inline slot instead of being boxed.
  const std::uint64_t allocs = steady_state_post_allocs(
      txn::kMidBegin, [](std::uint64_t i) {
        return fed::TradeWire{i, /*donor=*/0, /*recipient=*/1, 2, {}};
      });
  EXPECT_EQ(allocs, 0u) << allocs << " allocations across 256 trade posts";
}

TEST(AllocFree, CounterSeesMailboxRingGrowth) {
  // The counter must see every allocation the steady-state cases could
  // hide. util::RingDeque backs every des::Queue, so every endpoint mailbox,
  // and grows through the aligned operator new; a hook that counts only the
  // plain form would pass the bus case above with the mailbox growing.
  util::RingDeque<ev::Message> ring;
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 9; ++i) ring.push_back(ev::Message{});  // 0 -> 8 -> 16
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 2u) << "ring growth went uncounted";
}

TEST(AllocFree, SteadyStateSpanCaptureAllocatesNothing) {
  trace::TraceSink sink(1024);

  // Warmup: interns the name/category/source/detail/key strings and lets
  // gtest's own machinery settle.
  for (int i = 0; i < 8; ++i) {
    sink.span("alloc.span", "alloc-test", "cm0", static_cast<std::uint64_t>(i),
              i * des::kMillisecond, i * des::kMillisecond + 10,
              {{"width", 4.0}, {"backlog", 1.0}}, "steady");
  }

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 512; ++i) {
    sink.span("alloc.span", "alloc-test", "cm0",
              static_cast<std::uint64_t>(8 + i), i * des::kMillisecond,
              i * des::kMillisecond + 10,
              {{"width", 5.0}, {"backlog", 2.0}}, "steady");
  }
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across 512 span captures";
  EXPECT_EQ(sink.size(), 8u + 512u);
}

TEST(AllocFree, SteadyStateMonitoringIngestAllocatesNothing) {
  // The GM's monitoring endpoint feeds every sample to its hub. Once each
  // (source, kind) pair has been seen, its series handles are resolved and
  // the source's latency window is sized, so a further sample only writes
  // into what exists.
  mon::MonitoringHub hub(8, /*keep_history=*/false);
  const char* const sources[] = {"helper", "bonds", "csym", "pipeline"};
  const mon::MetricKind kinds[] = {
      mon::MetricKind::kLatency, mon::MetricKind::kQueueDepth,
      mon::MetricKind::kThroughput, mon::MetricKind::kEndToEnd};
  std::vector<mon::MetricSample> samples;
  for (const char* source : sources) {
    for (mon::MetricKind kind : kinds) {
      mon::MetricSample s;
      s.source = source;
      s.kind = kind;
      samples.push_back(s);
    }
  }
  for (const auto& s : samples) hub.ingest(s);  // warmup: one of each pair

  const std::uint64_t before = alloc_count();
  for (std::size_t i = 0; i < 256; ++i) {
    mon::MetricSample& s = samples[i % samples.size()];
    s.step = 1 + i / samples.size();
    s.value = 0.25 * static_cast<double>(i % 7);
    hub.ingest(s);
  }
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " allocations across 256 monitoring ingests";
  EXPECT_EQ(hub.samples_seen(), samples.size() + 256);
  EXPECT_EQ(hub.latency_window_count("bonds"), 8u);
}

}  // namespace
}  // namespace ioc
