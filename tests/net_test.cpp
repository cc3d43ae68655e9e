#include <gtest/gtest.h>

#include "des/process.h"
#include "des/simulator.h"
#include "net/cluster.h"
#include "net/network.h"
#include "net/scheduler.h"
#include "util/units.h"

namespace ioc::net {
namespace {

using des::SimTime;
using des::kMicrosecond;
using des::kSecond;

struct NetFixture {
  des::Simulator sim;
  Cluster cluster{sim, 8};
  Network net{cluster};
};

des::Process do_transfer(Network& net, NodeId src, NodeId dst,
                         std::uint64_t bytes, SimTime* done_at,
                         des::Simulator& sim) {
  co_await net.transfer(src, dst, bytes);
  *done_at = sim.now();
}

TEST(Network, TransferTimeMatchesModel) {
  NetFixture f;
  SimTime done = -1;
  const std::uint64_t bytes = 2'000'000'000;  // exactly 1 s at 2 GB/s
  spawn(f.sim, do_transfer(f.net, 0, 1, bytes, &done, f.sim));
  f.sim.run();
  const SimTime expect = f.net.config().message_overhead +
                         des::from_seconds(1.0) + f.net.config().latency;
  EXPECT_EQ(done, expect);
  EXPECT_EQ(f.net.bytes_moved(), bytes);
  EXPECT_EQ(f.net.transfer_count(), 1u);
}

TEST(Network, LocalTransferCostsOnlyOverhead) {
  NetFixture f;
  SimTime done = -1;
  spawn(f.sim, do_transfer(f.net, 3, 3, 1 * util::GiB, &done, f.sim));
  f.sim.run();
  EXPECT_EQ(done, f.net.config().message_overhead);
}

TEST(Network, SendersSerializeAtEgress) {
  NetFixture f;
  SimTime d1 = -1, d2 = -1;
  const std::uint64_t bytes = 200'000'000;  // 0.1 s wire time
  spawn(f.sim, do_transfer(f.net, 0, 1, bytes, &d1, f.sim));
  spawn(f.sim, do_transfer(f.net, 0, 2, bytes, &d2, f.sim));
  f.sim.run();
  // Second transfer waits for the first to release node 0's NIC.
  EXPECT_GT(d2, d1);
  EXPECT_GE(d2 - d1, des::from_seconds(0.1));
  EXPECT_GT(f.net.contention_wait().max(), 0.0);
}

TEST(Network, ReceiversSerializeAtIngress) {
  NetFixture f;
  SimTime d1 = -1, d2 = -1;
  const std::uint64_t bytes = 200'000'000;
  spawn(f.sim, do_transfer(f.net, 0, 2, bytes, &d1, f.sim));
  spawn(f.sim, do_transfer(f.net, 1, 2, bytes, &d2, f.sim));
  f.sim.run();
  EXPECT_GT(d2, d1);
}

TEST(Network, DisjointPairsProceedInParallel) {
  NetFixture f;
  SimTime d1 = -1, d2 = -1;
  const std::uint64_t bytes = 200'000'000;
  spawn(f.sim, do_transfer(f.net, 0, 1, bytes, &d1, f.sim));
  spawn(f.sim, do_transfer(f.net, 2, 3, bytes, &d2, f.sim));
  f.sim.run();
  EXPECT_EQ(d1, d2);
}

TEST(BatchScheduler, AllocateReleaseRoundTrip) {
  NetFixture f;
  BatchScheduler bs(f.cluster);
  EXPECT_EQ(bs.free_nodes(), 8u);
  auto a = bs.allocate(5);
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(bs.free_nodes(), 3u);
  EXPECT_EQ(bs.nodes_in_use(), 5u);
  bs.release(a);
  EXPECT_EQ(bs.free_nodes(), 8u);
}

TEST(BatchScheduler, ExhaustionThrows) {
  NetFixture f;
  BatchScheduler bs(f.cluster);
  (void)bs.allocate(8);
  EXPECT_THROW(bs.allocate(1), AllocationError);
}

TEST(BatchScheduler, NodesAreExclusive) {
  NetFixture f;
  BatchScheduler bs(f.cluster);
  auto a = bs.allocate(4);
  auto b = bs.allocate(4);
  for (NodeId n : a.nodes) {
    for (NodeId m : b.nodes) EXPECT_NE(n, m);
  }
}

TEST(BatchScheduler, AprunCostInObservedRange) {
  NetFixture f;
  BatchScheduler bs(f.cluster, util::Rng(99));
  for (int i = 0; i < 200; ++i) {
    SimTime c = bs.sample_aprun_cost();
    EXPECT_GE(c, 3 * kSecond);
    EXPECT_LE(c, 27 * kSecond);
  }
}

des::Process launch_once(BatchScheduler& bs, SimTime* done,
                         des::Simulator& sim) {
  co_await bs.aprun_launch();
  *done = sim.now();
}

TEST(BatchScheduler, AprunLaunchElapsesAndCounts) {
  NetFixture f;
  BatchScheduler bs(f.cluster, util::Rng(7));
  SimTime done = -1;
  spawn(f.sim, launch_once(bs, &done, f.sim));
  f.sim.run();
  EXPECT_GE(done, 3 * kSecond);
  EXPECT_LE(done, 27 * kSecond);
  EXPECT_EQ(bs.aprun_launches(), 1u);
  EXPECT_EQ(bs.total_aprun_cost(), done);
}

TEST(BatchScheduler, DeterministicGivenSeed) {
  NetFixture f1, f2;
  BatchScheduler a(f1.cluster, util::Rng(5)), b(f2.cluster, util::Rng(5));
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.sample_aprun_cost(), b.sample_aprun_cost());
  }
}

TEST(Cluster, SpecAccessible) {
  des::Simulator sim;
  NodeSpec spec;
  spec.cores = 16;
  Cluster c(sim, 4, spec);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.spec().cores, 16u);
}

TEST(Network, WireTimeMath) {
  NetFixture f;
  // 2 GB/s: 1 GB takes 0.5 s plus the per-message overhead.
  EXPECT_EQ(f.net.wire_time(1'000'000'000),
            f.net.config().message_overhead + des::from_seconds(0.5));
  EXPECT_EQ(f.net.wire_time(0), f.net.config().message_overhead);
}

TEST(BatchScheduler, ReleaseUnallocatedAsserts) {
  NetFixture f;
  BatchScheduler bs(f.cluster);
  auto a = bs.allocate(2);
  bs.release(a);
  // Nodes can be re-allocated after release.
  auto b = bs.allocate(8);
  EXPECT_EQ(b.size(), 8u);
}

}  // namespace
}  // namespace ioc::net
