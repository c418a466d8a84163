// E6 — Sec. IV robustness claim (ref [59]): the DMM solution search is
// robust to dynamical noise because its critical points are topological.
//
// Workload: planted 3-SAT, Langevin noise of increasing amplitude injected
// into the voltage dynamics; reports success rate and median slowdown.
//
// Exit-gated: exits 1 when any amplitude up to sigma = 1.6 solves fewer than
// 10/10 instances, or when the median slowdown exceeds 3x at any amplitude
// up to sigma = 0.8. The verdict goes to stderr, so stdout is the table alone.
#include <iostream>
#include <string>
#include <vector>

#include "core/stats.h"
#include "core/table.h"
#include "memcomputing/dmm.h"

using namespace rebooting;
using namespace rebooting::memcomputing;

int main() {
  core::print_banner(std::cout,
                     "E6 / Sec. IV — DMM robustness to dynamical noise");

  constexpr std::size_t kN = 80;
  constexpr std::size_t kM = 340;
  constexpr int kInstances = 10;

  core::Rng rng(11);
  std::vector<PlantedInstance> instances;
  for (int i = 0; i < kInstances; ++i)
    instances.push_back(planted_ksat(rng, kN, kM, 3));

  core::Table table({"noise stddev", "solved", "median steps",
                     "slowdown vs noiseless"},
                    3);
  core::Real baseline_steps = 0.0;
  std::vector<std::string> failures;
  for (const core::Real noise :
       {0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6}) {
    int solved = 0;
    std::vector<core::Real> steps;
    core::Rng run_rng(99);
    for (const auto& inst : instances) {
      DmmOptions opts;
      opts.max_steps = 400'000;
      opts.params.noise_stddev = noise;
      const DmmResult r = DmmSolver(inst.cnf, opts).solve(run_rng);
      if (r.satisfied) {
        ++solved;
        steps.push_back(static_cast<core::Real>(r.steps));
      }
    }
    const core::Real med = steps.empty() ? 0.0 : core::median(steps);
    if (noise == 0.0) baseline_steps = med;
    const core::Real slowdown =
        baseline_steps > 0.0 ? med / baseline_steps : 0.0;
    if (solved != kInstances)
      failures.push_back("sigma = " + std::to_string(noise) + " solved " +
                         std::to_string(solved) + "/" +
                         std::to_string(kInstances));
    if (noise <= 0.8 && !(slowdown <= 3.0))
      failures.push_back("sigma = " + std::to_string(noise) + " slowdown " +
                         std::to_string(slowdown) + "x > 3x");
    table.add_row(
        {noise,
         std::string(std::to_string(solved) + "/" + std::to_string(kInstances)),
         med, slowdown});
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nPaper shape: success persists over a wide noise range, with "
               "graceful slowdown;\nonly noise comparable to the signal "
               "amplitude (v in [-1,1]) destroys the search.\n";

  for (const std::string& f : failures)
    std::cerr << "E6 gate FAIL: " << f << '\n';
  if (!failures.empty()) return 1;
  std::cerr << "E6 gate: PASS\n";
  return 0;
}
