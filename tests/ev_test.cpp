#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "des/process.h"
#include "des/simulator.h"
#include "ev/bus.h"
#include "ev/stone.h"
#include "net/cluster.h"
#include "net/network.h"

namespace ioc::ev {
namespace {

struct BusFixture {
  des::Simulator sim;
  net::Cluster cluster{sim, 4};
  net::Network net{cluster};
  Bus bus{net};
};

des::Process sender(Bus& bus, EndpointId from, EndpointId to,
                    std::string type, bool* ok) {
  Message m;
  m.set_type(type);
  *ok = co_await bus.post(from, to, std::move(m));
}

des::Process receiver(Endpoint& ep, std::vector<Message>* got, int n) {
  for (int i = 0; i < n; ++i) {
    auto m = co_await ep.mailbox().get();
    if (!m.has_value()) break;
    got->push_back(std::move(*m));
  }
}

TEST(Bus, PostDeliversAcrossNodes) {
  BusFixture f;
  auto& a = f.bus.open(0, "a");
  auto& b = f.bus.open(1, "b");
  bool ok = false;
  std::vector<Message> got;
  spawn(f.sim, receiver(b, &got, 1));
  spawn(f.sim, sender(f.bus, a.id(), b.id(), "HELLO", &ok));
  f.sim.run();
  EXPECT_TRUE(ok);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type(), "HELLO");
  EXPECT_EQ(got[0].from, a.id());
  EXPECT_GT(f.sim.now(), 0);  // delivery paid network time
}

// A fan-in into node 0 with contention at both NICs: node 1 sends twice back
// to back (the second waits for its egress), nodes 1-3 all land on node 0's
// ingress, and the last message is co-located.
struct FanInMessage {
  net::NodeId src;
  std::uint64_t bytes;
};
constexpr FanInMessage kFanIn[] = {
    {1, 400000}, {1, 4096}, {2, 250000}, {3, 1024}, {0, 512}};

struct FanInRun {
  std::vector<des::SimTime> done;  // per message, when it arrived
  std::uint64_t transfers = 0;
  std::uint64_t bytes = 0;
  std::size_t waits = 0;
  double wait_sum = 0;
  double wait_max = 0;
  std::uint64_t events = 0;
};

des::Process post_one(Bus& bus, EndpointId from, EndpointId to,
                      std::uint64_t bytes, des::SimTime* done) {
  Message m;
  m.size_bytes = bytes;
  co_await bus.post(from, to, std::move(m));
  *done = bus.sim().now();
}

des::Process transfer_one(net::Network& net, net::NodeId src,
                          std::uint64_t bytes, des::SimTime* done) {
  co_await net.transfer(src, 0, bytes);
  *done = net.cluster().sim().now();
}

FanInRun run_fan_in(bool via_post) {
  BusFixture f;
  FanInRun r;
  r.done.resize(std::size(kFanIn));
  const EndpointId to = f.bus.open(0, "sink").id();
  EndpointId from[4];
  for (net::NodeId n = 0; n < 4; ++n) from[n] = f.bus.open(n, "src").id();
  for (std::size_t i = 0; i < std::size(kFanIn); ++i) {
    const FanInMessage& k = kFanIn[i];
    if (via_post) {
      spawn(f.sim, post_one(f.bus, from[k.src], to, k.bytes, &r.done[i]));
    } else {
      spawn(f.sim, transfer_one(f.net, k.src, k.bytes, &r.done[i]));
    }
  }
  f.sim.run();
  r.transfers = f.net.transfer_count();
  r.bytes = f.net.bytes_moved();
  r.waits = f.net.contention_wait().count();
  r.wait_sum = f.net.contention_wait().sum();
  r.wait_max = f.net.contention_wait().max();
  r.events = f.sim.events_processed();
  return r;
}

TEST(Bus, PostPaysExactlyOneTransfer) {
  // Bus::post runs Network::transfer's await sequence inline; both paths
  // must move every message at the same instants with the same ledger.
  const FanInRun post = run_fan_in(true);
  const FanInRun transfer = run_fan_in(false);
  EXPECT_EQ(post.done, transfer.done);
  EXPECT_EQ(post.transfers, transfer.transfers);
  EXPECT_EQ(post.transfers, std::size(kFanIn));
  EXPECT_EQ(post.bytes, transfer.bytes);
  EXPECT_EQ(post.waits, transfer.waits);
  EXPECT_GE(post.waits, 3u);  // the fan-in did contend
  EXPECT_EQ(post.wait_sum, transfer.wait_sum);
  EXPECT_EQ(post.wait_max, transfer.wait_max);
  EXPECT_EQ(post.events, transfer.events);
}

TEST(Bus, PostToUnknownEndpointFails) {
  BusFixture f;
  auto& a = f.bus.open(0, "a");
  bool ok = true;
  spawn(f.sim, sender(f.bus, a.id(), 999, "X", &ok));
  f.sim.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(f.bus.dropped(), 1u);
}

TEST(Bus, PostToClosedEndpointDuringFlightFails) {
  BusFixture f;
  auto& a = f.bus.open(0, "a");
  auto& b = f.bus.open(1, "b");
  bool ok = true;
  spawn(f.sim, sender(f.bus, a.id(), b.id(), "X", &ok));
  // Close b before the message can arrive (network latency > 0).
  f.bus.close(b.id());
  f.sim.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(f.bus.dropped(), 1u);
}

des::Process responder(Bus& bus, Endpoint& ep) {
  while (true) {
    auto m = co_await ep.mailbox().get();
    if (!m.has_value()) break;
    Message reply;
    reply.set_type("ACK/" + std::string(m->type()));
    reply.token = m->token;
    co_await bus.post(ep.id(), m->from, std::move(reply));
  }
}

des::Process requester(Bus& bus, EndpointId from, EndpointId to,
                       std::string* reply_type) {
  Message m;
  m.set_type("PING");
  Message reply = co_await bus.request(from, to, std::move(m));
  *reply_type = std::string(reply.type());
}

TEST(Bus, RequestReplyCorrelatesByToken) {
  BusFixture f;
  auto& a = f.bus.open(0, "client");
  auto& b = f.bus.open(1, "server");
  std::string reply;
  spawn(f.sim, responder(f.bus, b));
  spawn(f.sim, requester(f.bus, a.id(), b.id(), &reply));
  f.sim.run_until(des::kSecond);
  EXPECT_EQ(reply, "ACK/PING");
  f.bus.close(b.id());  // stop responder loop
  f.sim.run();
}

TEST(Bus, RequestToUnreachableReturnsError) {
  BusFixture f;
  auto& a = f.bus.open(0, "client");
  std::string reply;
  spawn(f.sim, requester(f.bus, a.id(), 424242, &reply));
  f.sim.run();
  EXPECT_EQ(reply, "ERROR/unreachable");
}

TEST(Bus, TrafficLedgerSeparatesClasses) {
  BusFixture f;
  auto& a = f.bus.open(0, "a");
  auto& b = f.bus.open(1, "b");
  std::vector<Message> got;
  spawn(f.sim, receiver(b, &got, 2));
  bool ok1 = false, ok2 = false;
  auto send_cls = [&](TrafficClass cls, bool* ok) -> des::Process {
    Message m;
    m.set_type("T");
    m.size_bytes = 100;
    *ok = co_await f.bus.post(a.id(), b.id(), std::move(m), cls);
  };
  spawn(f.sim, send_cls(TrafficClass::kControl, &ok1));
  spawn(f.sim, send_cls(TrafficClass::kMetadata, &ok2));
  f.sim.run();
  EXPECT_EQ(f.bus.stats(TrafficClass::kControl).messages, 1u);
  EXPECT_EQ(f.bus.stats(TrafficClass::kMetadata).messages, 1u);
  EXPECT_EQ(f.bus.stats(TrafficClass::kMetadata).bytes, 100u);
  EXPECT_EQ(f.bus.stats(TrafficClass::kMonitoring).messages, 0u);
}

TEST(Bus, FindByName) {
  BusFixture f;
  f.bus.open(0, "alpha");
  auto& b = f.bus.open(1, "beta");
  EXPECT_EQ(f.bus.find_by_name("beta"), &b);
  EXPECT_EQ(f.bus.find_by_name("gamma"), nullptr);
}

struct Sample {
  std::string source;
  double value;
};

TEST(StoneGraph, FilterTransformSinkChain) {
  StoneGraph<Sample> g;
  std::vector<double> out;
  auto filter = g.add_filter([](const Sample& s) { return s.value > 1.0; });
  auto scale = g.add_transform([](const Sample& s) -> std::optional<Sample> {
    return Sample{s.source, s.value * 10};
  });
  auto sink = g.add_terminal([&](const Sample& s) { out.push_back(s.value); });
  g.link(filter, scale);
  g.link(scale, sink);
  g.submit(filter, {"x", 0.5});
  g.submit(filter, {"x", 2.0});
  g.submit(filter, {"x", 3.0});
  EXPECT_EQ(out, (std::vector<double>{20.0, 30.0}));
  EXPECT_EQ(g.seen(filter), 3u);
  EXPECT_EQ(g.passed(filter), 2u);
}

TEST(StoneGraph, TransformCanDrop) {
  StoneGraph<Sample> g;
  int count = 0;
  auto t = g.add_transform([](const Sample& s) -> std::optional<Sample> {
    if (s.value < 0) return std::nullopt;
    return s;
  });
  auto sink = g.add_terminal([&](const Sample&) { ++count; });
  g.link(t, sink);
  g.submit(t, {"x", -1.0});
  g.submit(t, {"x", 1.0});
  EXPECT_EQ(count, 1);
}

TEST(StoneGraph, SplitFansOut) {
  StoneGraph<Sample> g;
  int a = 0, b = 0;
  auto split = g.add_split();
  auto s1 = g.add_terminal([&](const Sample&) { ++a; });
  auto s2 = g.add_terminal([&](const Sample&) { ++b; });
  g.link(split, s1);
  g.link(split, s2);
  g.submit(split, {"x", 1.0});
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST(Bus, RequestSkipsStaleTraffic) {
  BusFixture f;
  auto& a = f.bus.open(0, "client");
  auto& b = f.bus.open(1, "server");
  // A stale message with a mismatched token sits in the client mailbox.
  ev::Message stale;
  stale.set_type("OLD");
  stale.token = 424242;
  a.mailbox().try_put(std::move(stale));
  std::string reply;
  spawn(f.sim, responder(f.bus, b));
  spawn(f.sim, requester(f.bus, a.id(), b.id(), &reply));
  f.sim.run_until(des::kSecond);
  EXPECT_EQ(reply, "ACK/PING");
  f.bus.close(b.id());
  f.sim.run();
}

TEST(Bus, MessagePayloadRoundTrip) {
  Message m;
  m.payload = std::string("hello");
  ASSERT_NE(m.as<std::string>(), nullptr);
  EXPECT_EQ(*m.as<std::string>(), "hello");
  EXPECT_EQ(m.as<int>(), nullptr);  // wrong type: null, no throw
}

TEST(Bus, CloseIsIdempotentAndUnknownIgnored) {
  BusFixture f;
  auto& a = f.bus.open(0, "a");
  const auto id = a.id();
  f.bus.close(id);
  f.bus.close(id);     // second close: no-op
  f.bus.close(99999);  // unknown: no-op
  EXPECT_EQ(f.bus.find(id), nullptr);
}

}  // namespace
}  // namespace ioc::ev
