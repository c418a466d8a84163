// E1 — Fig. 3 reproduction: two RC-coupled VO2 relaxation oscillators lock
// to a common frequency inside a finite detuning window.
//
// Prints (a) the free-running tuning curve f(Vgs), (b) coupled-pair series:
// free-running detuning vs locked/unlocked state, common frequency and phase,
// for three coupling strengths, and (c) the lock-range summary.
//
// Exit-gated: exits 1 when the lock range (the plateau of locked points
// starting at dVgs = 0) narrows as Rc goes 40k -> 15k -> 5k, when the two
// frequencies of a plateau point differ by more than 0.5 %, or when the
// matched pair (dVgs = 0) locks further than 0.1 rad from pi. The verdict
// goes to stderr, so stdout is the tables alone.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/ensemble.h"
#include "core/table.h"
#include "oscillator/analysis.h"
#include "oscillator/network.h"

using namespace rebooting;
using namespace rebooting::oscillator;

namespace {

constexpr core::Real kCenterVgs = 1.0;

SimulationOptions sim_options() {
  SimulationOptions so;
  so.duration = 120e-6;
  so.dt = 1e-9;
  so.sample_stride = 4;
  return so;
}

struct PairResult {
  bool locked = false;
  core::Real f0 = 0.0;
  core::Real f1 = 0.0;
  core::Real phase = 0.0;
};

PairResult run_pair(core::Real delta_vgs, core::Real rc, core::Workspace& ws) {
  CoupledOscillatorNetwork net(OscillatorParams{}, 2);
  net.set_gate_voltage(0, kCenterVgs - 0.5 * delta_vgs);
  net.set_gate_voltage(1, kCenterVgs + 0.5 * delta_vgs);
  net.add_coupling({.a = 0, .b = 1, .r = rc, .c = 1e-12});
  const Trace tr = net.simulate(sim_options(), ws);
  PairResult r;
  r.locked = is_locked(tr, 0, 1);
  r.f0 = trace_frequency(tr, 0);
  r.f1 = trace_frequency(tr, 1);
  r.phase = phase_difference(tr, 0, 1);
  return r;
}

/// One (detuning, coupling) grid point of the Fig. 3 sweep.
struct SweepPoint {
  core::Real d = 0.0;
  core::Real rc = 0.0;
  PairResult result;
};

}  // namespace

int main() {
  core::print_banner(std::cout, "E1 / Fig. 3 — VO2 oscillator frequency locking");

  {
    // Free-running tuning curve: every Vgs point is an independent
    // trajectory, so the grid runs as a parallel ensemble.
    std::vector<core::Real> grid;
    for (core::Real vgs = 0.85; vgs <= 1.351; vgs += 0.05)
      grid.push_back(vgs);
    std::vector<core::Real> freq(grid.size(), 0.0);
    core::EnsembleOptions eopts;
    eopts.telemetry_label = "fig3.tuning";
    core::run_ensemble(grid.size(), eopts,
                       [&](std::size_t i, core::Workspace& ws) {
                         CoupledOscillatorNetwork net(OscillatorParams{}, 1);
                         net.set_gate_voltage(0, grid[i]);
                         const Trace tr = net.simulate(sim_options(), ws);
                         freq[i] = trace_frequency(tr, 0);
                         return true;
                       });
    core::Table tuning({"Vgs [V]", "free-running f [MHz]"}, 3);
    for (std::size_t i = 0; i < grid.size(); ++i)
      tuning.add_row({grid[i], freq[i] / 1e6});
    std::cout << "\nFree-running tuning curve (the Vgs input encoding):\n";
    tuning.print(std::cout);
  }

  // The full (coupling x detuning) grid is one flat ensemble; each point's
  // slot is written independently, so the table below is identical at any
  // thread count.
  std::vector<SweepPoint> points;
  for (const core::Real rc : {40e3, 15e3, 5e3})
    for (core::Real d = 0.0; d <= 0.321; d += 0.04)
      points.push_back({d, rc, {}});
  core::EnsembleOptions eopts;
  eopts.telemetry_label = "fig3.pairs";
  core::run_ensemble(points.size(), eopts,
                     [&](std::size_t i, core::Workspace& ws) {
                       points[i].result = run_pair(points[i].d, points[i].rc, ws);
                       return true;
                     });

  std::vector<std::string> failures;
  core::Real previous_plateau = 0.0;
  for (const core::Real rc : {40e3, 15e3, 5e3}) {
    const std::string label = "Rc = " + std::to_string(rc / 1e3) + " kOhm";
    core::Table table({"dVgs [V]", "f_osc1 [MHz]", "f_osc2 [MHz]", "locked",
                       "phase [rad]"},
                      3);
    core::Real lock_edge = 0.0;
    // The gated lock range is the plateau: the run of locked points from
    // dVgs = 0 outward.
    bool in_plateau = true;
    core::Real plateau = 0.0;
    for (const SweepPoint& p : points) {
      if (p.rc != rc) continue;
      table.add_row({p.d, p.result.f0 / 1e6, p.result.f1 / 1e6,
                     std::string(p.result.locked ? "yes" : "no"),
                     p.result.phase});
      if (p.result.locked) lock_edge = p.d;

      if (p.d == 0.0 && !p.result.locked)
        failures.push_back(label + ": matched pair does not lock");
      if (p.d == 0.0 && !(std::abs(p.result.phase - core::kPi) <= 0.1))
        failures.push_back(label + ": matched-pair phase " +
                           std::to_string(p.result.phase) +
                           " rad, not pi +- 0.1");
      in_plateau = in_plateau && p.result.locked;
      if (!in_plateau) continue;
      plateau = p.d;
      const core::Real mean = 0.5 * (p.result.f0 + p.result.f1);
      if (!(std::abs(p.result.f0 - p.result.f1) <= 0.005 * mean))
        failures.push_back(label + ", dVgs = " + std::to_string(p.d) +
                           ": plateau frequencies differ by > 0.5 %");
    }
    if (plateau < previous_plateau)
      failures.push_back(label + ": lock range " + std::to_string(plateau) +
                         " V narrower than at weaker coupling (" +
                         std::to_string(previous_plateau) + " V)");
    previous_plateau = plateau;

    std::cout << "\nCoupled pair, Rc = " << rc / 1e3
              << " kOhm (series RC, Cc = 1 pF):\n";
    table.print(std::cout);
    std::cout << "Lock range: |dVgs| <= ~" << lock_edge
              << " V (paper shape: finite plateau of equal frequencies,\n"
              << "widening with stronger coupling; matched pair locks "
                 "anti-phase ~pi).\n";
  }

  for (const std::string& f : failures)
    std::cerr << "E1 gate FAIL: " << f << '\n';
  if (!failures.empty()) return 1;
  std::cerr << "E1 gate: PASS\n";
  return 0;
}
