// Reproduces Table I: characteristics of the SmartPointer analysis actions
// (complexity class, compute model, dynamic branching), and validates the
// complexity column empirically by timing the real kernels over a sweep of
// atom counts and fitting power laws.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "md/lattice.h"
#include "sp/bonds.h"
#include "sp/cna.h"
#include "sp/costmodel.h"
#include "sp/csym.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Lowers `best` to the wall time of one run of `fn`.
void time_run(double& best, const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  best = std::min(best,
                  std::chrono::duration<double>(Clock::now() - t0).count());
}

}  // namespace

int main() {
  using namespace ioc;
  bench::heading("Table I: SmartPointer analysis action characteristics",
                 "Table I (complexity, compute model, dynamic branching)");

  util::Table t({"component", "complexity", "compute models", "branching"});
  for (const auto& tr : sp::all_traits()) {
    if (tr.extension) continue;  // Table I lists only the paper's four
    std::string models;
    for (auto m : tr.supported_models) {
      if (!models.empty()) models += ", ";
      models += sp::compute_model_name(m);
    }
    t.add_row({tr.name, "O(n^" + std::to_string(tr.complexity_exponent) + ")",
               models, tr.dynamic_branching ? "yes" : "no"});
  }
  t.print("declared characteristics (as the paper's Table I):");

  // Empirical validation: time the real kernels on FCC crystals of growing
  // size and fit log-log slopes. The naive Bonds path is the O(n^2)
  // formulation the paper characterizes; CSym is O(n). Each time is the
  // fastest of five runs, and every round runs every size, so a burst of
  // host noise slows one run of a point rather than all five (the fits
  // amplify a slow point).
  std::vector<md::AtomData> crystals;
  std::vector<double> sizes;
  for (std::size_t c : {6, 8, 10, 12}) {
    crystals.push_back(md::make_fcc(c, c, c, md::kLjFccLatticeConstant));
    sizes.push_back(static_cast<double>(crystals.back().size()));
  }
  const double never = std::numeric_limits<double>::infinity();
  std::vector<double> t_bonds_naive(sizes.size(), never);
  std::vector<double> t_csym(sizes.size(), never);
  std::vector<double> t_cna(sizes.size(), never);
  const sp::BondAnalysis bonds;
  const sp::CentralSymmetry csym;
  const sp::CommonNeighborAnalysis cna({0.854 * md::kLjFccLatticeConstant});
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = 0; i < crystals.size(); ++i) {
      const md::AtomData& atoms = crystals[i];
      time_run(t_bonds_naive[i], [&] { bonds.compute_naive(atoms); });
      time_run(t_csym[i], [&] { csym.compute(atoms); });
      time_run(t_cna[i], [&] { cna.classify(atoms); });
    }
  }
  auto fb = util::fit_power_law(sizes, t_bonds_naive);
  auto fc = util::fit_power_law(sizes, t_csym);
  auto fn = util::fit_power_law(sizes, t_cna);

  util::Table m({"kernel", "fitted exponent", "r^2", "note"});
  m.add_row({"bonds (naive)", util::Table::num(fb.exponent, 2),
             util::Table::num(fb.r2, 3), "paper: O(n^2)"});
  m.add_row({"csym", util::Table::num(fc.exponent, 2),
             util::Table::num(fc.r2, 3), "paper: O(n)"});
  m.add_row({"cna (cell-list impl)", util::Table::num(fn.exponent, 2),
             util::Table::num(fn.r2, 3),
             "paper characterizes O(n^3) worst case; cell lists give ~O(n)"});
  m.print("\nempirical scaling of the real kernels:");

  bench::shape_check(fb.exponent > 1.6 && fb.exponent < 2.4,
                     "Bonds naive formulation scales ~quadratically");
  bench::shape_check(fc.exponent > 0.7 && fc.exponent < 1.4,
                     "CSym scales ~linearly");
  bench::shape_check(
      sp::traits(sp::ComponentKind::kBonds).dynamic_branching &&
          !sp::traits(sp::ComponentKind::kCsym).dynamic_branching,
      "only Bonds carries the dynamic branch");
  return 0;
}
