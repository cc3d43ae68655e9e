// Management-plane fuzzing: drive long random (seeded) sequences of
// increase / decrease / steal / offline / activate actions against a live
// pipeline and assert the invariants that must survive ANY action order:
//   * staging-node conservation (nothing lost, nothing duplicated),
//   * container width bookkeeping matches the pool's ledger,
//   * the run always drains (no deadlock),
//   * every emitted timestep is either analyzed by the sink or
//     provenance-labeled on disk.
#include <gtest/gtest.h>

#include <string_view>

#include "core/runtime.h"
#include "core/spec.h"
#include "util/hash.h"
#include "util/intern.h"
#include "util/rng.h"

namespace ioc::core {
namespace {

des::Process fuzz_driver(StagedPipeline& p, util::Rng rng, int actions) {
  const std::vector<std::string> names = {"helper", "bonds", "csym", "cna"};
  for (int i = 0; i < actions; ++i) {
    co_await des::delay(p.sim(),
                        des::from_seconds(5.0 + rng.next_double() * 20.0));
    const std::string& target = names[rng.below(names.size())];
    Container* c = p.container(target);
    switch (rng.below(5)) {
      case 0:
        co_await p.gm().increase(target, 1 + static_cast<std::uint32_t>(
                                              rng.below(3)));
        break;
      case 1:
        if (c->online() && c->width() > 1) {
          co_await p.gm().decrease(target, 1);
        }
        break;
      case 2: {
        const std::string& donor = names[rng.below(names.size())];
        Container* d = p.container(donor);
        if (donor != target && d->online() && d->width() > 1 &&
            c->online()) {
          co_await p.gm().steal(donor, target, 1);
        }
        break;
      }
      case 3:
        if (!c->spec().essential && c->online() && rng.chance(0.2)) {
          co_await p.gm().offline_cascade(target, "fuzz");
        }
        break;
      case 4:
        if (!c->online() && c->spec().starts_offline) {
          co_await p.gm().activate(target, 1);
        }
        break;
    }
    // The core invariant after EVERY action. (EXPECT_*: gtest's fatal
    // ASSERT_* macros plain-return, which a coroutine cannot.)
    EXPECT_TRUE(p.pool().conserved());
    // Ledger and container bookkeeping agree.
    for (const auto& n : names) {
      Container* cc = p.container(n);
      EXPECT_EQ(p.pool().owned_by(n), cc->width())
          << "ledger mismatch for " << n << " after action " << i;
    }
  }
}

class ManagementFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ManagementFuzz, InvariantsSurviveRandomActionSequences) {
  // A small workload (8 simulation ranks) keeps every component — even
  // full-data CNA, should the fuzzer activate it — cheap, so any action
  // sequence drains; the invariants under test are pure bookkeeping.
  auto spec = PipelineSpec::lammps_smartpointer(8, 13);
  spec.steps = 16;
  spec.management_enabled = false;  // the fuzzer is the only manager
  StagedPipeline p(std::move(spec));
  spawn(p.sim(), fuzz_driver(p, util::Rng(GetParam()), 24));
  const des::SimTime end = p.run();
  EXPECT_LT(end, 2 * 3600 * des::kSecond);  // drained, not hung
  EXPECT_TRUE(p.pool().conserved());
  EXPECT_EQ(p.steps_emitted(), 16u);

  // Accounting: steps analyzed by the (current) sink plus steps labeled on
  // disk plus steps dropped in closed streams add up sanely — at minimum
  // the helper saw everything that was emitted while it was online.
  Container* helper = p.container("helper");
  if (helper->online()) {
    EXPECT_GT(helper->steps_processed(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManagementFuzz,
                         ::testing::Values(1ull, 7ull, 42ull, 1234ull,
                                           987654321ull));

// The same fuzz, but on a lossy fabric: control messages are dropped,
// duplicated, and delayed while the random action sequence runs. The
// per-action invariants (inside fuzz_driver) must hold through every retry,
// reply replay, and — if a round exhausts its retries — fence: a fenced
// container reads zero on both sides of the ledger comparison.
class ManagementFuzzUnderFaults
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ManagementFuzzUnderFaults, InvariantsSurviveActionsOnALossyFabric) {
  auto spec = PipelineSpec::lammps_smartpointer(8, 13);
  spec.steps = 16;
  spec.management_enabled = false;  // the fuzzer is the only manager
  StagedPipeline::Options opt;
  // Above an honest round's worst case (aprun is 3-27 s plus pause/drain):
  // only genuine message loss should trip the retry ladder.
  opt.gm.round.timeout = 60 * des::kSecond;
  opt.gm.round.retries = 3;
  opt.gm.round.backoff = 2 * des::kSecond;
  opt.faults_enabled = true;
  opt.faults.seed = GetParam();
  opt.faults.control.drop_rate = 0.05;
  opt.faults.control.duplicate_rate = 0.10;
  opt.faults.control.delay_rate = 0.25;
  opt.faults.control.delay_min = 10 * des::kMillisecond;
  opt.faults.control.delay_max = 80 * des::kMillisecond;
  StagedPipeline p(std::move(spec), opt);
  spawn(p.sim(), fuzz_driver(p, util::Rng(GetParam()), 24));
  const des::SimTime end = p.run();
  EXPECT_LT(end, 2 * 3600 * des::kSecond);  // drained despite the chaos
  EXPECT_TRUE(p.pool().conserved());
  EXPECT_EQ(p.steps_emitted(), 16u);
  const auto& st = p.injector()->stats();
  EXPECT_GT(st.dropped + st.duplicated + st.delayed, 0u);  // faults did bite
  // Golden fold of the GM's control trace and the run's event and fault
  // counts, recorded per seed: retries, reply replays and fences must keep
  // landing at the same simulated instants.
  std::uint64_t h = util::kFnvOffset;
  for (const auto& ev : p.gm().control_trace()) {
    h = util::fnv1a_value(ev.at, h);
    const std::string_view peer = util::name_of(ev.peer);
    h = util::fnv1a(peer.data(), peer.size(), h);
    const std::string_view type = ev::type_name(ev.type);
    h = util::fnv1a(type.data(), type.size(), h);
    h = util::fnv1a_value(ev.to_cm, h);
    h = util::fnv1a_value(ev.delta, h);
  }
  for (std::uint64_t v : {p.sim().events_processed(), st.dropped,
                          st.duplicated, st.delayed}) {
    h = util::fnv1a_value(v, h);
  }
  const std::uint64_t golden[][2] = {{11, 0xc0f38098debb8672ull},
                                     {29, 0xfbc102dd3706a69full},
                                     {4242, 0x850469035fe1fe19ull}};
  for (const auto& g : golden) {
    if (g[0] == GetParam()) {
      EXPECT_EQ(h, g[1]) << std::hex << h;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManagementFuzzUnderFaults,
                         ::testing::Values(11ull, 29ull, 4242ull));

}  // namespace
}  // namespace ioc::core
