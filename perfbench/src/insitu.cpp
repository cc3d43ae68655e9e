// insitu: the real mini-LAMMPS on a notched LJ crystal (~8k atoms, Verlet
// skin 0.3) feeding the real analytics chain. Each frame advances k MD
// steps, then runs Helper -> Bonds (+ bonds broken against the reference)
// -> CSym -> CNA on the CSym region. The only workload that runs md, sp
// and par; the control plane is bypassed. MD forces and the analytics both
// build md::CellList neighbourhoods, in different ways.
//
// MD forces run on two threads. The timed chain runs on one: at two
// threads every parallel region waits for the slower vCPU, and on a shared
// host that wait made the chain's tail latency swing by half from run to
// run. par.speedup_2t measures the chain at one and two threads instead.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "md/lattice.h"
#include "md/sim.h"
#include "sp/bonds.h"
#include "sp/cna.h"
#include "sp/costmodel.h"
#include "sp/csym.h"
#include "sp/helper.h"

namespace perfbench {
namespace {

using namespace ioc;

constexpr unsigned kMdThreads = 2;
constexpr unsigned kChainThreads = 1;
constexpr int kStepsPerFrame = 2;
constexpr double kFramesPerWallSecond = 10;
/// Throwaway set-ups timed during an untraced run, about 50 ms each.
constexpr std::size_t kSetups = 31;
/// Ranks whose output chunks the Helper aggregates.
constexpr std::size_t kRanks = 8;

struct Dims {
  std::size_t nx = 16, ny = 12, nz = 11;
};

std::unique_ptr<md::MdSim> make_sim(const Dims& d, std::uint64_t seed,
                                    unsigned threads,
                                    trace::TraceSink* sink) {
  md::MdConfig cfg;
  cfg.target_temperature = 0.02;
  cfg.thermostat_every = 25;
  cfg.threads = threads;
  cfg.neighbor_skin = 0.3;
  cfg.trace_sink = sink;
  auto sim = std::make_unique<md::MdSim>(
      md::make_fcc(d.nx, d.ny, d.nz, md::kLjFccLatticeConstant), cfg, seed);
  // A notch 35% of the box deep; the seed sets only the velocities.
  sim->carve_notch(0.0, 0.35 * sim->atoms().box.hi.x, 1.0);
  sim->initialize_velocities();
  return sim;
}

/// The analytics chain with its kernels configured for `threads`.
struct Chain {
  sp::AggregationTree helper{2};
  sp::BondAnalysis bonds;
  sp::CentralSymmetry csym;
  sp::BreakDetector detector;
  sp::CommonNeighborAnalysis cna;

  Chain(unsigned threads, trace::TraceSink* sink)
      : bonds(sp::BondsConfig{1.3, threads, sink}),
        csym(sp::CsymConfig{12, 1.6, threads, sink}),
        cna(sp::CnaConfig{0.854 * md::kLjFccLatticeConstant, threads, sink}) {}
};

struct FrameOut {
  sp::Adjacency adj;
  std::size_t broken = 0;
  std::vector<double> csp;
  std::vector<std::uint32_t> region;
  sp::CnaResult labels;
  double ms[4] = {0, 0, 0, 0};  ///< helper, bonds, csym, cna
};

FrameOut analyze(const Chain& c, const md::AtomData& atoms,
                 const sp::Adjacency& reference, const WallSpans& spans) {
  FrameOut o;
  double t = now_s();
  auto lap = [&t](double* slot) {
    const double n = now_s();
    *slot = (n - t) * 1e3;
    t = n;
  };
  md::AtomData frame;
  {
    auto s = spans("sp", "AggregationTree::aggregate");
    frame = c.helper.aggregate(sp::AggregationTree::scatter(atoms, kRanks));
  }
  lap(&o.ms[0]);
  {
    auto s = spans("sp", "BondAnalysis::compute");
    o.adj = c.bonds.compute(frame);
    o.broken = sp::BondAnalysis::broken_bonds(reference, o.adj).size();
  }
  lap(&o.ms[1]);
  {
    auto s = spans("sp", "CentralSymmetry::compute");
    o.csp = c.csym.compute(frame);
    o.region = c.detector.region(o.csp);
  }
  lap(&o.ms[2]);
  {
    auto s = spans("sp", "CommonNeighborAnalysis::classify_subset");
    o.labels = c.cna.classify_subset(frame, o.region);
  }
  lap(&o.ms[3]);
  return o;
}

double chain_ms(const FrameOut& o) {
  return o.ms[0] + o.ms[1] + o.ms[2] + o.ms[3];
}

/// The service time the DES cost model charges for this frame's chain.
double modeled_ms(const sp::CostModel& m, std::size_t atoms,
                  std::size_t region) {
  using sp::ComponentKind;
  using sp::ComputeModel;
  const double helper =
      m.step_seconds(ComponentKind::kHelper, ComputeModel::kTree, atoms, 1);
  const double bonds =
      m.step_seconds(ComponentKind::kBonds, ComputeModel::kParallel, atoms, 1);
  const double csym =
      m.step_seconds(ComponentKind::kCsym, ComputeModel::kRoundRobin, atoms, 1);
  const double cna =
      m.step_seconds(ComponentKind::kCna, ComputeModel::kRoundRobin, region, 1);
  return (helper + bonds + csym + cna) * 1e3;
}

/// Gates: the chain at two threads equals the serial chain on the first
/// frame (CSP to the 1e-9 relative tolerance tests/md_test.cpp uses for
/// threaded kernels), and Bonds equals its O(n^2) reference on a small
/// thermalised frame.
void check_chain(const md::AtomData& atoms, const sp::Adjacency& ref,
                 std::uint64_t seed, Report& r) {
  const FrameOut one = analyze(Chain(1, nullptr), atoms, ref, WallSpans());
  const FrameOut two = analyze(Chain(2, nullptr), atoms, ref,
                               WallSpans());
  r.gate(one.adj == two.adj, "insitu: threaded Bonds differs from serial");
  bool csp_ok = one.csp.size() == two.csp.size();
  for (std::size_t i = 0; csp_ok && i < one.csp.size(); ++i) {
    csp_ok = std::abs(one.csp[i] - two.csp[i]) <=
             1e-9 * std::max(1.0, std::abs(one.csp[i]));
  }
  r.gate(csp_ok, "insitu: threaded CSym differs from serial");
  r.gate(one.region == two.region && one.labels.labels == two.labels.labels,
         "insitu: threaded CNA labels differ from serial");
  r.gate(!one.region.empty(), "insitu: CSym found no region for CNA");

  Dims small{4, 4, 4};
  auto sim = make_sim(small, seed, 1, nullptr);
  sim->run(20);
  sp::BondAnalysis bonds;
  r.gate(bonds.compute(sim->atoms()) == bonds.compute_naive(sim->atoms()),
         "insitu: Bonds differs from compute_naive");
}

struct Pass {
  std::vector<double> frame_ms;  ///< MD steps plus the chain
  std::vector<double> chain_ms;
  std::vector<double> model_ms;
  std::vector<double> stage_ms[4];
  std::vector<double> md_ms;  ///< per MD step
  std::size_t cna_atoms = 0;
  std::uint64_t steps = 0;
  std::uint64_t builds = 0;
  double wall_s = 0;
};

/// `before(f)` runs ahead of frame f, outside the frame's timing.
Pass run_frames(md::MdSim& sim, const Chain& chain,
                const sp::Adjacency& reference, std::size_t frames,
                const WallSpans& spans,
                const std::function<void(std::size_t)>& before = {}) {
  Pass p;
  const sp::CostModel model;
  const std::uint64_t b0 = sim.cell_builds();
  for (std::size_t f = 0; f < frames; ++f) {
    if (before) before(f);
    const double m0 = now_s();
    {
      auto s = spans("md", "MdSim::run");
      sim.run(kStepsPerFrame);
    }
    p.md_ms.push_back((now_s() - m0) * 1e3 / kStepsPerFrame);
    const FrameOut o = analyze(chain, sim.atoms(), reference, spans);
    const double frame_s = now_s() - m0;
    p.wall_s += frame_s;
    p.frame_ms.push_back(frame_s * 1e3);
    p.chain_ms.push_back(chain_ms(o));
    for (int k = 0; k < 4; ++k) p.stage_ms[k].push_back(o.ms[k]);
    p.model_ms.push_back(
        modeled_ms(model, sim.atoms().size(), o.region.size()));
    p.cna_atoms += o.region.size();
  }
  p.steps = frames * kStepsPerFrame;
  p.builds = sim.cell_builds() - b0;
  return p;
}

}  // namespace

Report run_insitu(const Args& a) {
  Report r;
  Dims dims;
  double rate = kFramesPerWallSecond;
  if (a.smoke) {
    dims = Dims{6, 5, 5};
    rate = 4;
  }
  const std::size_t frames = std::max<std::size_t>(
      a.smoke ? 3 : 20,
      static_cast<std::size_t>((a.trace ? a.seconds / 2 : a.seconds) * rate));

  // Set-up: build and thermalise the crystal, take the reference bonds.
  auto set_up = [&](std::unique_ptr<md::MdSim>& s, sp::Adjacency& ref,
                    trace::TraceSink* sink) {
    s.reset();
    const double t0 = now_s();
    s = make_sim(dims, a.seed, kMdThreads, sink);
    ref = Chain(kChainThreads, nullptr).bonds.compute(s->atoms());
    return now_s() - t0;
  };
  std::unique_ptr<md::MdSim> sim;
  sp::Adjacency reference;

  if (!a.trace) {
    std::vector<double> setups{set_up(sim, reference, nullptr)};
    check_chain(sim->atoms(), reference, a.seed, r);
    const Chain chain(kChainThreads, nullptr);
    const Pass p = run_frames(
        *sim, chain, reference, frames, WallSpans(), [&](std::size_t f) {
          if (!setup_due(f, frames, kSetups)) return;
          std::unique_ptr<md::MdSim> spare;
          sp::Adjacency spare_reference;
          setups.push_back(set_up(spare, spare_reference, nullptr));
        });
    r.attempted = frames;
    // The chain's floor is the sum of its four stages' floors: a stage is
    // short enough to fall between a neighbour's bursts more often than
    // the whole chain does.
    double floor_ms = 0;
    for (const auto& stage : p.stage_ms) floor_ms += floor_of(stage);
    r.set("latency_floor_ms", floor_ms, "ms");
    r.floors["latency_floor_ms"] = p.chain_ms.size();
    r.set_latency("sim_latency_p50_ms", "sim_latency_tail_ms", p.model_ms,
                  "sim_ms");
    r.set_floor("setup_s", setups, "s");
    r.note_wall(p.chain_ms, static_cast<double>(frames) / p.wall_s, setups);
    r.record["atoms"] = std::to_string(sim->atoms().size());
    r.record["frames"] = std::to_string(frames);
    return r;
  }

  // Traced run: the same frames untraced, then traced from a fresh set-up.
  set_up(sim, reference, nullptr);
  check_chain(sim->atoms(), reference, a.seed, r);
  const Pass plain = run_frames(*sim, Chain(kChainThreads, nullptr), reference,
                                frames, WallSpans());

  trace::TraceSink kernels;  // the kernels' own kernel.compute spans
  trace::TraceSink wall;     // the benchmark's spans
  set_up(sim, reference, &kernels);
  // par.speedup_2t: the chain on one frame at 1 thread vs 2.
  std::vector<double> serial_ms, threaded_ms;
  for (int k = 0; k < 5; ++k) {
    serial_ms.push_back(chain_ms(
        analyze(Chain(1, nullptr), sim->atoms(), reference, WallSpans())));
    threaded_ms.push_back(chain_ms(analyze(Chain(2, nullptr),
                                           sim->atoms(), reference,
                                           WallSpans())));
  }
  const Pass p = run_frames(*sim, Chain(kChainThreads, &kernels), reference,
                            frames, WallSpans(&wall));
  r.attempted = 2 * frames;
  const double ops = static_cast<double>(frames);
  r.set("md.step_ms", median(p.md_ms), "ms");
  r.set("md.steps_per_cell_build",
        static_cast<double>(p.steps) /
            static_cast<double>(std::max<std::uint64_t>(1, p.builds)),
        "count");
  r.set("sp.helper_ms", median(p.stage_ms[0]), "ms");
  r.set("sp.bonds_ms", median(p.stage_ms[1]), "ms");
  r.set("sp.csym_ms", median(p.stage_ms[2]), "ms");
  r.set("sp.cna_ms", median(p.stage_ms[3]), "ms");
  r.set("sp.cna_atoms", static_cast<double>(p.cna_atoms) / ops, "count");
  r.set("par.speedup_2t", median(serial_ms) / median(threaded_ms), "ratio");
  r.set("trace.spans_per_op",
        static_cast<double>(kernels.recorded() + wall.recorded()) / ops,
        "count");
  r.set("trace.dropped",
        static_cast<double>(kernels.dropped() + wall.dropped()), "count");
  r.set("trace.overhead_pct",
        (floor_of(p.frame_ms) / floor_of(plain.frame_ms) - 1.0) * 100.0, "%");
  write_trace(a.trace_out, {&kernels, &wall});
  return r;
}

}  // namespace perfbench
