// E2 — Fig. 4/5 reproduction: the thresholded, time-averaged XOR readout of
// a coupled pair traces [1 - Avg(XOR)] curves whose shape around the minimum
// follows an lk norm, with the exponent k tunable through the coupling
// configuration (paper: k ~ 1.6 -> 2.0 -> 3.4 as coupling strengthens).
//
// Our calibrated two-state device reproduces the same family through the
// coupling configuration (Rc + operating point on the f(Vgs) tuning curve):
// operating in the linear tuning region gives k ~ 1, approaching the tuning
// extremum gives strongly super-linear curves (k ~ 3). See EXPERIMENTS.md
// for the paper-vs-measured discussion.
//
// Exit-gated: exits 1 when a configuration's curve does not bottom out at
// dVgs = 0 (the measure there must lie within 15 % of the curve's height
// above its floor: the XOR readout's floor is flat over the first grid
// points, and the measured gaps are 10 %, 7 % and 5 %), or when the
// width-estimator k does not strictly increase over C1 < C2 < C3. The
// verdict goes to stderr, so stdout is the tables alone.
#include <iostream>
#include <string>
#include <vector>

#include "core/stats.h"
#include "core/table.h"
#include "oscillator/analysis.h"
#include "oscillator/network.h"

using namespace rebooting;
using namespace rebooting::oscillator;

namespace {

struct CouplingConfig {
  const char* label;
  core::Real rc;
  core::Real center;
  core::Real max_delta;
};

core::Real averaged_measure(const CouplingConfig& cfg, core::Real delta,
                            std::size_t readout_cycles) {
  SimulationOptions so;
  so.duration = 240e-6;
  so.dt = 1e-9;
  so.sample_stride = 4;
  core::Real sum = 0.0;
  int reps = 0;
  for (const core::Real offset : {0.8, 1.2, 1.6}) {
    so.initial_offset = offset;
    CoupledOscillatorNetwork net(OscillatorParams{}, 2);
    net.set_gate_voltage(0, cfg.center - 0.5 * delta);
    net.set_gate_voltage(1, cfg.center + 0.5 * delta);
    net.add_coupling({.a = 0, .b = 1, .r = cfg.rc, .c = 1e-12});
    const Trace tr = net.simulate(so);
    sum += readout_cycles == 0
               ? xor_distance_measure(tr, 0, 1)
               : xor_distance_measure_windowed(tr, 0, 1, readout_cycles);
    ++reps;
  }
  return sum / static_cast<core::Real>(reps);
}

}  // namespace

int main() {
  core::print_banner(std::cout,
                     "E2 / Fig. 5 — lk-norm family of the XOR distance readout");

  const std::vector<CouplingConfig> configs = {
      {"C1: weak    (Rc=30k, linear tuning point Vgs=1.00)", 30e3, 1.00, 0.16},
      {"C2: medium  (Rc=15k, knee of tuning curve Vgs=1.06)", 15e3, 1.06, 0.20},
      {"C3: strong  (Rc=40k, tuning extremum   Vgs=1.12)", 40e3, 1.12, 0.28},
  };

  core::Table summary({"config", "k (width est.)", "k (power-law fit)",
                       "fit r^2", "measure floor", "measure max"},
                      3);

  std::vector<std::string> failures;
  core::Real previous_k = 0.0;
  for (const auto& cfg : configs) {
    const std::string tag = std::string(cfg.label).substr(0, 2);
    std::vector<core::Real> deltas;
    std::vector<core::Real> measures;
    core::Table curve({"dVgs [V]", "1-Avg(XOR)"}, 4);
    const core::Real step = cfg.max_delta / 8.0;
    for (core::Real d = 0.0; d <= cfg.max_delta + 1e-9; d += step) {
      const core::Real m = averaged_measure(cfg, d, 0);
      curve.add_row({d, m});
      deltas.push_back(d);
      measures.push_back(m);
      if (d > 0.0) {
        deltas.insert(deltas.begin(), -d);
        measures.insert(measures.begin(), m);
      }
    }
    std::cout << '\n' << cfg.label << ":\n";
    curve.print(std::cout);

    core::Real k_width = 0.0;
    core::Real k_fit = 0.0;
    core::Real r2 = 0.0;
    try {
      k_width = estimate_lk_by_widths(deltas, measures);
    } catch (const std::exception& e) {
      std::cout << "  width estimate unavailable: " << e.what() << '\n';
    }
    try {
      const LkFit fit = fit_lk_exponent(deltas, measures);
      k_fit = fit.k;
      r2 = fit.r_squared;
    } catch (const std::exception& e) {
      std::cout << "  regression fit unavailable: " << e.what() << '\n';
    }
    const core::Real floor = core::min_value(measures);
    const core::Real height = core::max_value(measures) - floor;
    // deltas run -max..0..+max, so the d = 0 point sits in the middle.
    const core::Real at_zero = measures[measures.size() / 2];
    if (!(at_zero - floor <= 0.15 * height))
      failures.push_back(tag + ": measure at dVgs = 0 is " +
                         std::to_string(at_zero) + ", more than 15 % of the "
                         "curve's height above its floor " +
                         std::to_string(floor));
    if (!(k_width > previous_k))
      failures.push_back(tag + ": width-estimator k " +
                         std::to_string(k_width) + " does not exceed " +
                         std::to_string(previous_k));
    previous_k = k_width;
    summary.add_row(
        {tag, k_width, k_fit, r2, floor, core::max_value(measures)});
  }

  std::cout << "\nFitted lk-norm exponents (paper: 1.6 / 2.0 / 3.4):\n";
  summary.print(std::cout);

  // Ablation (DESIGN.md Sec. 4): readout accuracy vs averaging window — the
  // accuracy-tunable co-processor idea of ref [44].
  core::print_banner(std::cout,
                     "Ablation — readout cycles vs measure stability (ref [44])");
  core::Table ab({"readout cycles", "measure @ d=0.04", "measure @ d=0.12"}, 4);
  const CouplingConfig& cfg = configs[0];
  for (const std::size_t cycles : {4u, 16u, 64u, 0u}) {
    ab.add_row({static_cast<std::int64_t>(cycles),
                averaged_measure(cfg, 0.04, cycles),
                averaged_measure(cfg, 0.12, cycles)});
  }
  std::cout << "(cycles = 0 means the full trace window)\n";
  ab.print(std::cout);

  for (const std::string& f : failures)
    std::cerr << "E2 gate FAIL: " << f << '\n';
  if (!failures.empty()) return 1;
  std::cerr << "E2 gate: PASS\n";
  return 0;
}
