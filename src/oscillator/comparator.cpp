#include "oscillator/comparator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/energy.h"

namespace rebooting::oscillator {

namespace {

/// Gate inventory of the Fig. 4 readout: two threshold comparators (modelled
/// as a few gates each), one XOR, and an averaging counter.
core::GateInventory readout_logic() {
  core::GateInventory g;
  g.inverters = 4;
  g.nand2 = 6;
  g.xor2 = 1;
  g.flipflops = 8;  // 8-bit averaging counter
  return g;
}

}  // namespace

OscillatorComparator::OscillatorComparator(ComparatorConfig config)
    : config_(std::move(config)) {
  config_.params.validate();
  if (config_.calibration_points < 4)
    throw std::invalid_argument(
        "OscillatorComparator: need >= 4 calibration points per side");
  if (config_.vgs_half_span <= 0.0)
    throw std::invalid_argument("OscillatorComparator: vgs_half_span must be > 0");

  const std::size_t side = config_.calibration_points;
  const Real max_delta = 2.0 * config_.vgs_half_span;

  std::vector<Real>& grid = calibration_.delta_vgs;
  std::vector<Real>& meas = calibration_.measure;
  grid.reserve(2 * side + 1);
  for (std::size_t i = 0; i <= 2 * side; ++i) {
    const Real frac = static_cast<Real>(i) / static_cast<Real>(2 * side);
    grid.push_back(-max_delta + 2.0 * max_delta * frac);
  }
  meas.reserve(grid.size());

  core::Real power_sum = 0.0;
  for (const Real delta : grid) {
    CoupledOscillatorNetwork net(config_.params, 2);
    net.set_gate_voltage(0, config_.vgs_center - 0.5 * delta);
    net.set_gate_voltage(1, config_.vgs_center + 0.5 * delta);
    net.add_coupling(CouplingBranch{
        .a = 0, .b = 1, .r = config_.coupling_r, .c = config_.coupling_c,
        .topology = config_.topology});
    const Trace trace = net.simulate(config_.sim);
    meas.push_back(
        xor_distance_measure(trace, 0, 1, config_.sim.settle_fraction));
    power_sum += net.average_power(trace, config_.sim.settle_fraction);
    if (delta == 0.0 || std::abs(delta) < 1e-12) {
      calibration_.oscillation_hz =
          trace_frequency(trace, 0, config_.sim.settle_fraction);
    }
  }
  calibration_.pair_power_watts = power_sum / static_cast<Real>(grid.size());
  if (calibration_.oscillation_hz <= 0.0) {
    // Fallback when the matched pair (delta = 0) showed no measurable
    // frequency: one cycle per simulated duration.
    calibration_.oscillation_hz = 1.0 / (config_.sim.duration);
  }

  // Monotonize outward from the minimum so interpolation is a valid distance.
  monotone_measure_ = meas;
  const auto min_it =
      std::min_element(monotone_measure_.begin(), monotone_measure_.end());
  const auto min_idx = static_cast<std::size_t>(
      std::distance(monotone_measure_.begin(), min_it));
  for (std::size_t i = min_idx + 1; i < monotone_measure_.size(); ++i)
    monotone_measure_[i] =
        std::max(monotone_measure_[i], monotone_measure_[i - 1]);
  for (std::size_t i = min_idx; i-- > 0;)
    monotone_measure_[i] =
        std::max(monotone_measure_[i], monotone_measure_[i + 1]);

  try {
    calibration_.norm_fit = fit_lk_exponent(grid, meas);
  } catch (const std::invalid_argument&) {
    calibration_.norm_fit = LkFit{};  // flat curve; fit left empty
  }

  const auto tech = core::CmosTechnology::node_32nm();
  readout_power_watts_ =
      core::estimate_block_power(tech, readout_logic(),
                                 calibration_.oscillation_hz, 0.5)
          .total();
}

Real OscillatorComparator::input_to_vgs(Real x) const {
  const Real clamped = std::clamp(x, 0.0, 1.0);
  return config_.vgs_center + (2.0 * clamped - 1.0) * config_.vgs_half_span;
}

Real OscillatorComparator::interpolate_measure(Real delta_vgs) const {
  const auto& grid = calibration_.delta_vgs;
  const Real lo = grid.front();
  const Real hi = grid.back();
  const Real d = std::clamp(delta_vgs, lo, hi);
  const auto it = std::upper_bound(grid.begin(), grid.end(), d);
  if (it == grid.begin()) return monotone_measure_.front();
  if (it == grid.end()) return monotone_measure_.back();
  const auto j = static_cast<std::size_t>(std::distance(grid.begin(), it));
  const Real x0 = grid[j - 1];
  const Real x1 = grid[j];
  const Real frac = (x1 > x0) ? (d - x0) / (x1 - x0) : 0.0;
  return monotone_measure_[j - 1] * (1.0 - frac) + monotone_measure_[j] * frac;
}

Real OscillatorComparator::distance(Real a, Real b) const {
  // Average the two lookup directions: the calibrated curve carries per-side
  // measurement noise, and a distance must be exactly symmetric.
  const Real delta = input_to_vgs(a) - input_to_vgs(b);
  return 0.5 * (interpolate_measure(delta) + interpolate_measure(-delta));
}

Real OscillatorComparator::distance_simulated(Real a, Real b) const {
  CoupledOscillatorNetwork net(config_.params, 2);
  net.set_gate_voltage(0, input_to_vgs(a));
  net.set_gate_voltage(1, input_to_vgs(b));
  net.add_coupling(CouplingBranch{
      .a = 0, .b = 1, .r = config_.coupling_r, .c = config_.coupling_c,
        .topology = config_.topology});
  const Trace trace = net.simulate(config_.sim);
  return xor_distance_measure(trace, 0, 1, config_.sim.settle_fraction);
}

Real OscillatorComparator::threshold_for_input_delta(Real delta_input) const {
  // Same symmetrization as distance(), so thresholds and measures compare on
  // the same scale.
  const Real delta_vgs = 2.0 * std::abs(delta_input) * config_.vgs_half_span;
  return 0.5 * (interpolate_measure(delta_vgs) + interpolate_measure(-delta_vgs));
}

Real OscillatorComparator::unit_power_watts() const {
  return calibration_.pair_power_watts + readout_power_watts_;
}

Real OscillatorComparator::comparison_seconds() const {
  const Real f = calibration_.oscillation_hz;
  if (f <= 0.0) return config_.sim.duration;
  return static_cast<Real>(std::max<std::size_t>(config_.readout_cycles, 1)) / f;
}

}  // namespace rebooting::oscillator
