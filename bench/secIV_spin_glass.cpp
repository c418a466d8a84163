// E8 — Sec. IV spin-glass claim (ref [56]): on frustrated-loop Ising
// instances, DMM dynamics reach the (planted) ground state through
// COLLECTIVE spin flips — avalanches spanning a finite fraction of the
// lattice — where single-spin-flip simulated annealing needs many more
// elementary moves.
//
// Exit-gated: exits 1 when the DMM misses the planted ground energy on any
// instance of any size (the claim is 4/4 everywhere). The verdict goes to
// stderr, so stdout is the tables alone.
#include <iostream>
#include <string>
#include <vector>

#include "core/stats.h"
#include "core/table.h"
#include "memcomputing/dmm.h"
#include "memcomputing/ising.h"

using namespace rebooting;
using namespace rebooting::memcomputing;

int main() {
  core::print_banner(std::cout,
                     "E8 / Sec. IV — frustrated-loop Ising spin glass: DMM vs "
                     "simulated annealing");

  core::Rng rng(404);
  core::Table table({"side", "spins", "bonds", "DMM ground hit",
                     "DMM steps to ground", "SA ground hit",
                     "SA flips attempted",
                     "max avalanche [spins]", "avalanches >= 4 spins"},
                    2);

  core::Histogram avalanche_hist(0.5, 24.5, 24);
  std::vector<std::string> failures;

  for (const std::size_t side : {4u, 6u, 8u}) {
    constexpr int kInstances = 4;
    int dmm_hits = 0;
    int sa_hits = 0;
    std::vector<core::Real> dmm_steps, sa_flips;
    std::size_t max_avalanche = 0;
    std::size_t big_avalanches = 0;

    for (int i = 0; i < kInstances; ++i) {
      const auto inst =
          make_frustrated_loops(rng, side, 2 * side, 2 * side);
      const Cnf cnf = ising_to_cnf(inst.model);

      DmmOptions dopts;
      dopts.maxsat_mode = true;
      dopts.max_steps = 60'000;
      dopts.track_avalanches = true;
      const DmmResult dr = DmmSolver(cnf, dopts).solve(rng);
      const core::Real dmm_energy =
          cnf_assignment_energy(inst.model, dr.assignment);
      if (std::abs(dmm_energy - inst.ground_energy) < 1e-9) {
        ++dmm_hits;
        dmm_steps.push_back(static_cast<core::Real>(dr.steps_to_best));
      }
      for (const std::size_t a : dr.avalanche_sizes) {
        avalanche_hist.add(static_cast<core::Real>(a));
        max_avalanche = std::max(max_avalanche, a);
        if (a >= 4) ++big_avalanches;
      }

      AnnealOptions aopts;
      aopts.sweeps = 3000;
      aopts.restarts = 2;
      const AnnealResult ar = simulated_annealing(inst.model, rng, aopts);
      if (std::abs(ar.best_energy - inst.ground_energy) < 1e-9) {
        ++sa_hits;
        sa_flips.push_back(static_cast<core::Real>(ar.total_flips_attempted));
      }
    }

    if (dmm_hits != kInstances)
      failures.push_back("side " + std::to_string(side) + ": DMM reached the "
                         "ground energy on " + std::to_string(dmm_hits) +
                         "/" + std::to_string(kInstances) + " instances");
    auto frac = [&](int hits) {
      return std::string(std::to_string(hits) + "/" +
                         std::to_string(kInstances));
    };
    table.add_row({static_cast<std::int64_t>(side),
                   static_cast<std::int64_t>(side * side),
                   static_cast<std::int64_t>(4 * side),  // approximate
                   frac(dmm_hits),
                   dmm_steps.empty() ? 0.0 : core::median(dmm_steps),
                   frac(sa_hits),
                   sa_flips.empty() ? 0.0 : core::median(sa_flips),
                   static_cast<std::int64_t>(max_avalanche),
                   static_cast<std::int64_t>(big_avalanches)});
  }
  std::cout << '\n';
  table.print(std::cout);

  std::cout << "\nDMM avalanche-size distribution (spins flipped per "
               "integration step):\n";
  core::Table hist({"avalanche size", "fraction of events"}, 4);
  for (std::size_t b = 0; b < avalanche_hist.bins(); ++b) {
    if (avalanche_hist.bin_count(b) == 0) continue;
    hist.add_row({static_cast<std::int64_t>(
                      static_cast<long long>(avalanche_hist.bin_center(b))),
                  avalanche_hist.bin_fraction(b)});
  }
  hist.print(std::cout);
  std::cout << "\nPaper shape: the DMM performs collective (multi-spin) "
               "flips — the heavy tail above size 1 — while SA is restricted "
               "to single-spin moves by construction.\n";

  for (const std::string& f : failures)
    std::cerr << "E8 gate FAIL: " << f << '\n';
  if (!failures.empty()) return 1;
  std::cerr << "E8 gate: PASS\n";
  return 0;
}
