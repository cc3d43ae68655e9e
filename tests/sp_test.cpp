#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "md/lattice.h"
#include "md/sim.h"
#include "sp/adjacency.h"
#include "sp/bonds.h"
#include "sp/cna.h"
#include "sp/costmodel.h"
#include "sp/csym.h"
#include "sp/helper.h"

namespace ioc::sp {
namespace {

constexpr double kA = md::kLjFccLatticeConstant;

TEST(Adjacency, FromListsAndQueries) {
  Adjacency a = Adjacency::from_lists({{2, 1}, {0}, {0}});
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.degree(0), 2u);
  EXPECT_TRUE(a.bonded(0, 1));
  EXPECT_TRUE(a.bonded(0, 2));
  EXPECT_FALSE(a.bonded(1, 2));
  EXPECT_EQ(a.bond_count(), 2u);
  // Neighbor list is sorted regardless of input order.
  auto n = a.neighbors_of(0);
  EXPECT_EQ(n[0], 1u);
  EXPECT_EQ(n[1], 2u);
}

TEST(Bonds, CellListMatchesNaive) {
  auto atoms = md::make_fcc(4, 4, 4, kA);
  BondAnalysis bonds;
  EXPECT_EQ(bonds.compute(atoms), bonds.compute_naive(atoms));
}

TEST(Bonds, FccCoordinationIsTwelve) {
  auto atoms = md::make_fcc(4, 4, 4, kA);
  auto adj = BondAnalysis().compute(atoms);
  for (std::size_t i = 0; i < adj.size(); ++i) EXPECT_EQ(adj.degree(i), 12u);
}

TEST(Bonds, BrokenBondsDetectedAfterDisplacement) {
  auto atoms = md::make_fcc(4, 4, 4, kA);
  BondAnalysis bonds;
  auto ref = bonds.compute(atoms);
  // Rip one atom far from its site.
  atoms.pos[10].x += 3.0;
  atoms.pos[10] = atoms.box.wrap(atoms.pos[10]);
  auto cur = bonds.compute(atoms);
  auto broken = BondAnalysis::broken_bonds(ref, cur);
  EXPECT_GE(broken.size(), 10u);  // it had 12 bonds; most must be gone
  for (auto [i, j] : broken) {
    EXPECT_LT(i, j);
    EXPECT_TRUE(ref.bonded(i, j));
    EXPECT_FALSE(cur.bonded(i, j));
  }
}

TEST(Bonds, NoBrokenBondsOnIdenticalConfigs) {
  auto atoms = md::make_fcc(3, 3, 3, kA);
  auto adj = BondAnalysis().compute(atoms);
  EXPECT_TRUE(BondAnalysis::broken_bonds(adj, adj).empty());
}

TEST(Csym, ZeroOnPerfectFcc) {
  auto atoms = md::make_fcc(4, 4, 4, kA);
  auto csp = CentralSymmetry().compute(atoms);
  for (double v : csp) EXPECT_NEAR(v, 0.0, 1e-18);
}

TEST(Csym, ElevatedAtVacancy) {
  auto atoms = md::make_fcc(4, 4, 4, kA);
  // Create a vacancy.
  std::vector<bool> kill(atoms.size(), false);
  kill[32] = true;
  atoms.remove_if(kill);
  auto csp = CentralSymmetry().compute(atoms);
  double max = 0;
  for (double v : csp) max = std::max(max, v);
  EXPECT_GT(max, 0.1);  // the vacancy's former neighbors lost symmetry
}

TEST(Csym, BreakDetectorThresholds) {
  BreakDetector det;
  det.threshold = 0.5;
  det.min_fraction = 0.1;
  std::vector<double> quiet(100, 0.01);
  EXPECT_FALSE(det.detect(quiet));
  std::vector<double> cracked(100, 0.01);
  for (int i = 0; i < 15; ++i) cracked[i] = 1.0;
  EXPECT_TRUE(det.detect(cracked));
  EXPECT_EQ(det.region(cracked).size(), 15u);
  EXPECT_FALSE(det.detect({}));
}

TEST(Cna, PerfectFccLabeledFcc) {
  auto atoms = md::make_fcc(4, 4, 4, kA);
  CnaConfig cfg;
  cfg.cutoff = 0.854 * kA;
  auto res = CommonNeighborAnalysis(cfg).classify(atoms);
  EXPECT_EQ(res.count(CnaLabel::kFcc), atoms.size());
}

TEST(Cna, SimpleCubicIsOther) {
  auto atoms = md::make_sc(5, 5, 5, 1.1);
  CnaConfig cfg;
  cfg.cutoff = 1.2;  // first shell only: 6 neighbors
  auto res = CommonNeighborAnalysis(cfg).classify(atoms);
  EXPECT_EQ(res.count(CnaLabel::kFcc), 0u);
  EXPECT_EQ(res.count(CnaLabel::kOther), atoms.size());
}

TEST(Cna, PairSignatureFcc421) {
  auto atoms = md::make_fcc(4, 4, 4, kA);
  CnaConfig cfg;
  cfg.cutoff = 0.854 * kA;
  auto adj = BondAnalysis({cfg.cutoff}).compute(atoms);
  auto sig = CommonNeighborAnalysis::pair_signature(
      adj, 0, adj.neighbors_of(0)[0]);
  EXPECT_EQ(sig, (CnaSignature{4, 2, 1}));
}

TEST(Cna, SubsetOnlyLabelsRequestedAtoms) {
  auto atoms = md::make_fcc(3, 3, 3, kA);
  CnaConfig cfg;
  cfg.cutoff = 0.854 * kA;
  auto res = CommonNeighborAnalysis(cfg).classify_subset(atoms, {0, 1, 2});
  EXPECT_EQ(res.labels[0], CnaLabel::kFcc);
  EXPECT_EQ(res.labels[5], CnaLabel::kOther);  // untouched default
  EXPECT_EQ(res.count(CnaLabel::kFcc), 3u);
}

TEST(Cna, DisorderedCrackRegionNotFcc) {
  md::MdConfig cfg;
  cfg.thermostat_every = 0;
  md::MdSim sim(md::make_fcc(5, 5, 4, kA), cfg, 3);
  const double hx = sim.atoms().box.hi.x;
  sim.carve_notch(0.0, hx * 0.4, 1.0);
  auto csp = CentralSymmetry().compute(sim.atoms());
  BreakDetector det;
  det.threshold = 0.5;
  auto region = det.region(csp);
  ASSERT_FALSE(region.empty());
  CnaConfig ccfg;
  ccfg.cutoff = 0.854 * kA;
  auto res = CommonNeighborAnalysis(ccfg).classify_subset(sim.atoms(), region);
  // Crack-face atoms are not perfect FCC.
  std::size_t fcc = 0;
  for (auto i : region) {
    if (res.labels[i] == CnaLabel::kFcc) ++fcc;
  }
  EXPECT_LT(fcc, region.size() / 2);
}

TEST(Helper, AggregateRoundTripsScatter) {
  auto atoms = md::make_fcc(3, 3, 3, kA);
  auto chunks = AggregationTree::scatter(atoms, 7);
  EXPECT_EQ(chunks.size(), 7u);
  auto merged = AggregationTree(2).aggregate(chunks);
  ASSERT_EQ(merged.size(), atoms.size());
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    EXPECT_EQ(merged.id[i], atoms.id[i]);
    EXPECT_EQ(merged.pos[i].x, atoms.pos[i].x);
  }
}

TEST(Helper, DepthMatchesFanin) {
  AggregationTree t2(2), t4(4);
  EXPECT_EQ(t2.depth_for(1), 0u);
  EXPECT_EQ(t2.depth_for(2), 1u);
  EXPECT_EQ(t2.depth_for(8), 3u);
  EXPECT_EQ(t2.depth_for(9), 4u);
  EXPECT_EQ(t4.depth_for(16), 2u);
  EXPECT_EQ(t4.depth_for(17), 3u);
}

TEST(Helper, MismatchedBoxesRejected) {
  auto a = md::make_fcc(2, 2, 2, kA);
  auto b = md::make_fcc(3, 3, 3, kA);
  EXPECT_THROW(AggregationTree(2).aggregate({a, b}), std::invalid_argument);
}

TEST(CostModel, TableITraits) {
  EXPECT_EQ(traits(ComponentKind::kHelper).complexity_exponent, 1);
  EXPECT_EQ(traits(ComponentKind::kBonds).complexity_exponent, 2);
  EXPECT_EQ(traits(ComponentKind::kCsym).complexity_exponent, 1);
  EXPECT_EQ(traits(ComponentKind::kCna).complexity_exponent, 3);
  EXPECT_TRUE(traits(ComponentKind::kBonds).dynamic_branching);
  EXPECT_FALSE(traits(ComponentKind::kHelper).dynamic_branching);
  EXPECT_EQ(traits(ComponentKind::kHelper).supported_models[0],
            ComputeModel::kTree);
}

TEST(CostModel, ComplexityScaling) {
  CostModel cm;
  const auto t1 = cm.step_seconds(ComponentKind::kBonds,
                                  ComputeModel::kSerial, 1'000'000, 1);
  const auto t2 = cm.step_seconds(ComponentKind::kBonds,
                                  ComputeModel::kSerial, 2'000'000, 1);
  EXPECT_NEAR(t2 / t1, 4.0, 1e-9);  // O(n^2)
  const auto c1 = cm.step_seconds(ComponentKind::kCna, ComputeModel::kSerial,
                                  1'000'000, 1);
  const auto c2 = cm.step_seconds(ComponentKind::kCna, ComputeModel::kSerial,
                                  2'000'000, 1);
  EXPECT_NEAR(c2 / c1, 8.0, 1e-9);  // O(n^3)
}

TEST(CostModel, RoundRobinScalesThroughputNotLatency) {
  CostModel cm;
  const std::uint64_t n = 8'819'989;
  const double lat1 =
      cm.step_seconds(ComponentKind::kBonds, ComputeModel::kRoundRobin, n, 1);
  const double lat4 =
      cm.step_seconds(ComponentKind::kBonds, ComputeModel::kRoundRobin, n, 4);
  EXPECT_DOUBLE_EQ(lat1, lat4);
  const double th1 =
      cm.throughput(ComponentKind::kBonds, ComputeModel::kRoundRobin, n, 1);
  const double th4 =
      cm.throughput(ComponentKind::kBonds, ComputeModel::kRoundRobin, n, 4);
  EXPECT_NEAR(th4 / th1, 4.0, 1e-9);
}

TEST(CostModel, ParallelHasAmdahlCeiling) {
  CostModel cm;
  const std::uint64_t n = 8'819'989;
  const double t1 =
      cm.step_seconds(ComponentKind::kBonds, ComputeModel::kParallel, n, 1);
  const double t64 =
      cm.step_seconds(ComponentKind::kBonds, ComputeModel::kParallel, n, 64);
  EXPECT_LT(t64, t1);
  // Bounded by the serial fraction.
  EXPECT_GT(t64, t1 * cm.config().amdahl_serial_fraction * 0.9);
}

TEST(CostModel, WidthForThroughputInvertsThroughput) {
  CostModel cm;
  const std::uint64_t n = 8'819'989;
  const double target = 1.0 / 15.0;  // the paper's 15 s output interval
  const std::uint32_t w = cm.width_for_throughput(
      ComponentKind::kBonds, ComputeModel::kRoundRobin, n, target);
  EXPECT_GE(cm.throughput(ComponentKind::kBonds, ComputeModel::kRoundRobin, n,
                          w),
            target);
  if (w > 1) {
    EXPECT_LT(cm.throughput(ComponentKind::kBonds, ComputeModel::kRoundRobin,
                            n, w - 1),
              target);
  }
}

TEST(CostModel, BottleneckStructureMatchesPaper) {
  // At the 256-node workload, Bonds is the bottleneck; Helper on 6 nodes is
  // comfortably over-provisioned against the 15 s interval.
  CostModel cm;
  const std::uint64_t n = 8'819'989;
  const double interval = 15.0;
  const double helper =
      cm.step_seconds(ComponentKind::kHelper, ComputeModel::kTree, n, 6);
  const double bonds_one =
      cm.step_seconds(ComponentKind::kBonds, ComputeModel::kRoundRobin, n, 1);
  EXPECT_LT(helper, interval / 3);
  EXPECT_GT(bonds_one, interval);  // needs replicas: the managed resource
}

TEST(Csym, ScalesWithLatticeDistortion) {
  // A uniformly compressed lattice stays centrosymmetric (CSP ~ 0); a
  // sheared one does not.
  auto atoms = md::make_fcc(4, 4, 4, kA);
  for (auto& p : atoms.pos) p = p * 0.98;
  atoms.box.hi = atoms.box.hi * 0.98;
  auto csp = CentralSymmetry().compute(atoms);
  for (double v : csp) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Cna, HcpLatticeLabeledHcp) {
  // Build an HCP-like stacking by hand is overkill; instead verify the
  // signature discrimination directly: an atom with 6 (4,2,1) and 6 (4,2,2)
  // pairs is HCP, anything else with 12 neighbors is not FCC.
  // Here: the FCC crystal must contain zero HCP-labeled atoms.
  auto atoms = md::make_fcc(4, 4, 4, kA);
  CnaConfig cfg;
  cfg.cutoff = 0.854 * kA;
  auto res = CommonNeighborAnalysis(cfg).classify(atoms);
  EXPECT_EQ(res.count(CnaLabel::kHcp), 0u);
  EXPECT_STREQ(cna_label_name(CnaLabel::kHcp), "hcp");
  EXPECT_STREQ(cna_label_name(CnaLabel::kBcc), "bcc");
}

TEST(CostModel, TreeDepthTermGrowsSlowly) {
  CostModel cm;
  const std::uint64_t n = 8'819'989;
  const double t4 =
      cm.step_seconds(ComponentKind::kHelper, ComputeModel::kTree, n, 4);
  const double t8 =
      cm.step_seconds(ComponentKind::kHelper, ComputeModel::kTree, n, 8);
  EXPECT_LT(t8, t4);  // more width still wins despite the extra level
}

TEST(CostModel, VizExtensionCosts) {
  CostModel cm;
  const double v = cm.step_seconds(ComponentKind::kViz,
                                   ComputeModel::kRoundRobin, 1'000'000, 1);
  EXPECT_DOUBLE_EQ(v, cm.config().viz_coeff);
}

md::AtomData distorted_crystal() {
  auto atoms = md::make_fcc(4, 4, 4, kA);
  std::uint64_t s = 99;
  auto next = [&s] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(s >> 11) / 9007199254740992.0 - 0.5;
  };
  for (auto& p : atoms.pos) {
    p.x += 0.06 * next();
    p.y += 0.06 * next();
    p.z += 0.06 * next();
  }
  return atoms;
}

TEST(Bonds, ThreadedMatchesSerial) {
  auto atoms = distorted_crystal();
  const Adjacency serial = BondAnalysis{}.compute(atoms);
  for (unsigned threads : {2u, 4u, 8u}) {
    BondsConfig cfg;
    cfg.threads = threads;
    EXPECT_EQ(BondAnalysis(cfg).compute(atoms), serial)
        << "threads=" << threads;
  }
}

TEST(Csym, ThreadedBitIdentical) {
  auto atoms = distorted_crystal();
  const auto serial = CentralSymmetry{}.compute(atoms);
  CsymConfig cfg;
  cfg.threads = 4;
  const auto par = CentralSymmetry(cfg).compute(atoms);
  ASSERT_EQ(par.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(par[i], serial[i]) << "atom " << i;  // per-atom independent
  }
}

TEST(Cna, ThreadedMatchesSerial) {
  auto atoms = distorted_crystal();
  const auto serial = CommonNeighborAnalysis({0.854 * kA}).classify(atoms);
  CnaConfig cfg;
  cfg.cutoff = 0.854 * kA;
  cfg.threads = 4;
  const auto par = CommonNeighborAnalysis(cfg).classify(atoms);
  EXPECT_EQ(par.labels, serial.labels);
}

TEST(CostModel, ThreadsOneReproducesLegacyCalibration) {
  CostModel cm;
  EXPECT_DOUBLE_EQ(cm.thread_speedup(0), 1.0);
  EXPECT_DOUBLE_EQ(cm.thread_speedup(1), 1.0);
  const std::uint64_t n = 8'819'989;
  for (auto m : {ComputeModel::kRoundRobin, ComputeModel::kParallel}) {
    EXPECT_DOUBLE_EQ(cm.step_seconds(ComponentKind::kBonds, m, n, 4, 1),
                     cm.step_seconds(ComponentKind::kBonds, m, n, 4));
  }
}

TEST(CostModel, ThreadSpeedupIsAmdahlBounded) {
  CostModel cm;
  double prev = 1.0;
  for (unsigned t : {2u, 4u, 8u, 16u}) {
    const double s = cm.thread_speedup(t);
    EXPECT_GT(s, prev);           // monotonic in threads
    EXPECT_LT(s, t);              // below ideal (serial fraction)
    prev = s;
  }
  // Ceiling: 1 / serial_fraction.
  EXPECT_LT(cm.thread_speedup(100000),
            1.0 / cm.config().thread_serial_fraction);
  // And the expected >= 3x at 8 threads the microbench baseline targets.
  EXPECT_GE(cm.thread_speedup(8), 3.0);
}

TEST(CostModel, ThreadsShortenStepsAndNarrowWidth) {
  CostModel cm;
  const std::uint64_t n = 8'819'989;
  const double t1 = cm.step_seconds(ComponentKind::kBonds,
                                    ComputeModel::kRoundRobin, n, 1, 1);
  const double t8 = cm.step_seconds(ComponentKind::kBonds,
                                    ComputeModel::kRoundRobin, n, 1, 8);
  EXPECT_DOUBLE_EQ(t8, t1 / cm.thread_speedup(8));
  const double rate = 1.0 / 15.0;
  EXPECT_LE(cm.width_for_throughput(ComponentKind::kBonds,
                                    ComputeModel::kRoundRobin, n, rate, 8),
            cm.width_for_throughput(ComponentKind::kBonds,
                                    ComputeModel::kRoundRobin, n, rate, 1));
}

TEST(KernelSpan, ParallelKernelsEmitComputeSpans) {
  auto atoms = distorted_crystal();
  trace::TraceSink sink(64);

  BondsConfig bc;
  bc.threads = 2;
  bc.sink = &sink;
  BondAnalysis(bc).compute(atoms);

  CsymConfig cc;
  cc.threads = 2;
  cc.sink = &sink;
  CentralSymmetry(cc).compute(atoms);

  const auto spans = sink.spans();
  ASSERT_EQ(spans.size(), 2u);
  for (const auto& s : spans) {
    EXPECT_EQ(s.name(), "kernel.compute");
    EXPECT_EQ(s.category(), "kernel");
    EXPECT_DOUBLE_EQ(s.arg_or("threads"), 2.0);
    EXPECT_DOUBLE_EQ(s.arg_or("atoms"), static_cast<double>(atoms.size()));
    EXPECT_GE(s.end, s.start);
  }
  EXPECT_EQ(spans[0].source(), "bonds");
  EXPECT_EQ(spans[1].source(), "csym");

  // Disabled sink: nothing recorded, kernels still run.
  sink.clear();
  sink.set_enabled(false);
  BondAnalysis(bc).compute(atoms);
  EXPECT_EQ(sink.size(), 0u);
}

// --- CSym and CNA against their whole-crystal formulations ----------------

/// CSym as it was computed from a full neighbour CSR: Box::min_image for
/// every neighbour, the k nearest by partial_sort over (r2, displacement)
/// in ascending-j order, then the k/2 smallest pair sums by a second
/// partial_sort. The adjacency comes from the O(n^2) Bonds reference, so
/// nothing here shares code with the row visitor.
std::vector<double> reference_csym(const md::AtomData& atoms,
                                   const CsymConfig& cfg) {
  const Adjacency adj = BondAnalysis({cfg.cutoff}).compute_naive(atoms);
  std::vector<double> csp(atoms.size(), 0.0);
  std::vector<std::pair<double, md::Vec3>> nn;
  std::vector<double> pair_sums;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    nn.clear();
    for (std::uint32_t j : adj.neighbors_of(i)) {
      const md::Vec3 d = atoms.box.min_image(atoms.pos[j], atoms.pos[i]);
      nn.emplace_back(d.norm2(), d);
    }
    const std::size_t k = std::min<std::size_t>(
        nn.size(), static_cast<std::size_t>(cfg.num_neighbors));
    if (k < 2) {
      csp[i] = cfg.cutoff * cfg.cutoff;
      continue;
    }
    std::partial_sort(
        nn.begin(), nn.begin() + static_cast<std::ptrdiff_t>(k), nn.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    pair_sums.clear();
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) {
        pair_sums.push_back((nn[a].second + nn[b].second).norm2());
      }
    }
    const std::size_t take = k / 2;
    std::partial_sort(pair_sums.begin(),
                      pair_sums.begin() + static_cast<std::ptrdiff_t>(take),
                      pair_sums.end());
    double sum = 0;
    for (std::size_t t = 0; t < take; ++t) sum += pair_sums[t];
    csp[i] = sum;
  }
  return csp;
}

void expect_csym_matches_reference(const md::AtomData& atoms) {
  const CsymConfig cfg;
  const auto want = reference_csym(atoms, cfg);
  const auto got = CentralSymmetry(cfg).compute(atoms);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "atom " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(Csym, MatchesReferenceOnSlabWithTiesAtTheTwelfth) {
  // a = 1.5 puts every coordinate on a multiple of 0.75, so distances are
  // exact: surface atoms have 8 first-shell and 5 second-shell (r = a < 1.6)
  // neighbours, and the 12th nearest is an exact five-way tie.
  auto atoms = md::make_fcc(4, 4, 4, 1.5);
  atoms.box.hi.z += 4.0;  // free surfaces at z = 0 and z = 4.5
  std::size_t straddled = 0;
  const Adjacency adj = BondAnalysis({1.6}).compute_naive(atoms);
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    std::vector<double> r2;
    for (std::uint32_t j : adj.neighbors_of(i)) {
      r2.push_back(atoms.box.min_image(atoms.pos[j], atoms.pos[i]).norm2());
    }
    std::sort(r2.begin(), r2.end());
    if (r2.size() > 12 && r2[11] == r2[12]) ++straddled;
  }
  ASSERT_GT(straddled, 0u);  // the case under test really occurs
  expect_csym_matches_reference(atoms);
}

TEST(Csym, MatchesReferenceOnSmallBoxFallback) {
  auto atoms = md::make_fcc(2, 2, 2, kA);
  std::uint64_t s = 5;
  for (auto& p : atoms.pos) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    p.x += 0.08 * (static_cast<double>(s >> 11) / 9007199254740992.0 - 0.5);
  }
  ASSERT_LT(atoms.box.hi.x, 3 * CsymConfig{}.cutoff);  // under 3 bins
  expect_csym_matches_reference(atoms);
}

md::MdSim notched_thermal_crystal() {
  md::MdConfig cfg;
  cfg.target_temperature = 0.05;
  md::MdSim sim(md::make_fcc(6, 5, 4, kA), cfg, 11);
  sim.carve_notch(0.0, 0.4 * sim.atoms().box.hi.x, 1.0);
  sim.initialize_velocities();
  sim.run(30);
  return sim;
}

TEST(Csym, MatchesReferenceOnNotchedThermalCrystal) {
  const auto sim = notched_thermal_crystal();
  expect_csym_matches_reference(sim.atoms());
}

void expect_subset_matches_classify(const md::AtomData& atoms,
                                    const std::vector<std::uint32_t>& subset) {
  const CommonNeighborAnalysis cna({0.854 * kA});
  const auto all = cna.classify(atoms);
  const auto part = cna.classify_subset(atoms, subset);
  ASSERT_EQ(part.labels.size(), atoms.size());
  std::vector<bool> in(atoms.size(), false);
  for (std::uint32_t i : subset) in[i] = true;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    EXPECT_EQ(part.labels[i], in[i] ? all.labels[i] : CnaLabel::kOther)
        << "atom " << i;
  }
}

TEST(Cna, SubsetMatchesClassifyOnCsymRegion) {
  const auto sim = notched_thermal_crystal();
  const auto region =
      BreakDetector{}.region(CentralSymmetry{}.compute(sim.atoms()));
  ASSERT_FALSE(region.empty());
  expect_subset_matches_classify(sim.atoms(), region);
}

TEST(Cna, SubsetMatchesClassifyOnRandomSubsets) {
  const auto sim = notched_thermal_crystal();
  const std::size_t n = sim.atoms().size();
  std::uint64_t s = 17;
  for (std::size_t size : {std::size_t{1}, std::size_t{40}, n / 2, n}) {
    std::vector<std::uint32_t> all(n);
    for (std::uint32_t i = 0; i < n; ++i) all[i] = i;
    for (std::size_t t = 0; t + 1 < n; ++t) {  // Fisher-Yates
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(all[t], all[t + (s >> 33) % (n - t)]);
    }
    all.resize(size);
    expect_subset_matches_classify(sim.atoms(), all);
  }
}

TEST(Cna, PairSignatureBeyondSixtyFourCommonNeighbours) {
  // Atoms 0 and 1 share 70 neighbours (2..71) that form a simple path:
  // 70 common, 69 bonds among them, longest chain 69.
  std::vector<std::vector<std::uint32_t>> lists(72);
  for (std::uint32_t c = 2; c < 72; ++c) {
    for (std::uint32_t end : {0u, 1u}) {
      lists[end].push_back(c);
      lists[c].push_back(end);
    }
    if (c + 1 < 72) {
      lists[c].push_back(c + 1);
      lists[c + 1].push_back(c);
    }
  }
  lists[0].push_back(1);
  lists[1].push_back(0);
  const auto adj = Adjacency::from_lists(lists);
  EXPECT_EQ(CommonNeighborAnalysis::pair_signature(adj, 0, 1),
            (CnaSignature{70, 69, 69}));
}

}  // namespace
}  // namespace ioc::sp
