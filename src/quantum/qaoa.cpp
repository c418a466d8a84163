#include "quantum/qaoa.h"

#include <cmath>
#include <stdexcept>

#include "quantum/circuit.h"

namespace rebooting::quantum {

using core::kPi;
using core::Real;

Real ising_energy(const std::vector<IsingBondView>& bonds,
                  const std::vector<std::int8_t>& spins) {
  Real e = 0.0;
  for (const IsingBondView& b : bonds)
    e -= b.coupling * static_cast<Real>(spins[b.i]) *
         static_cast<Real>(spins[b.j]);
  return e;
}

namespace {

/// Ising energy of a basis state (bit = 1 means spin up).
Real basis_energy(const std::vector<IsingBondView>& bonds, std::uint64_t s) {
  Real e = 0.0;
  for (const IsingBondView& b : bonds) {
    const Real si = (s >> b.i) & 1ull ? 1.0 : -1.0;
    const Real sj = (s >> b.j) & 1ull ? 1.0 : -1.0;
    e -= b.coupling * si * sj;
  }
  return e;
}

struct Evaluator {
  std::size_t n;
  const std::vector<IsingBondView>& bonds;
  std::vector<Real> energies;  ///< per basis state, precomputed
  std::size_t evaluations = 0;

  Evaluator(std::size_t num_spins, const std::vector<IsingBondView>& b)
      : n(num_spins), bonds(b), energies(1ull << num_spins) {
    for (std::uint64_t s = 0; s < energies.size(); ++s)
      energies[s] = basis_energy(bonds, s);
  }

  /// Prepares the QAOA state for the given angle schedule.
  StateVector prepare(const std::vector<Real>& gammas,
                      const std::vector<Real>& betas) {
    ++evaluations;
    StateVector state(n);
    const Gate2x2 h = gate_matrix(GateKind::kH);
    for (std::size_t q = 0; q < n; ++q) state.apply_1q(h, q);
    for (std::size_t layer = 0; layer < gammas.size(); ++layer) {
      const Real gamma = gammas[layer];
      state.apply_diagonal([this, gamma](std::uint64_t s) {
        return std::polar(1.0, -gamma * energies[s]);
      });
      const Gate2x2 mixer = gate_matrix(GateKind::kRx, 2.0 * betas[layer]);
      for (std::size_t q = 0; q < n; ++q) state.apply_1q(mixer, q);
    }
    return state;
  }

  Real expectation(const std::vector<Real>& gammas,
                   const std::vector<Real>& betas) {
    const StateVector state = prepare(gammas, betas);
    Real e = 0.0;
    for (std::uint64_t s = 0; s < energies.size(); ++s)
      e += std::norm(state.amplitude(s)) * energies[s];
    return e;
  }
};

}  // namespace

QaoaResult qaoa_ising(std::size_t num_spins,
                      const std::vector<IsingBondView>& bonds, core::Rng& rng,
                      const QaoaOptions& opts) {
  if (num_spins == 0 || num_spins > 20)
    throw std::invalid_argument("qaoa_ising: spins in [1, 20]");
  if (opts.layers == 0 || opts.grid_points < 3)
    throw std::invalid_argument("qaoa_ising: bad options");
  for (const IsingBondView& b : bonds)
    if (b.i >= num_spins || b.j >= num_spins || b.i == b.j)
      throw std::invalid_argument("qaoa_ising: bad bond");

  Evaluator eval(num_spins, bonds);

  // Linear ramp initialization (the adiabatic-inspired schedule).
  std::vector<Real> gammas(opts.layers), betas(opts.layers);
  for (std::size_t l = 0; l < opts.layers; ++l) {
    const Real frac = (static_cast<Real>(l) + 0.5) /
                      static_cast<Real>(opts.layers);
    gammas[l] = 0.4 * frac;
    betas[l] = 0.4 * (1.0 - frac);
  }

  // Coordinate grid descent: optimize one angle at a time on a grid, a few
  // sweeps over all angles.
  Real best_expect = eval.expectation(gammas, betas);
  for (std::size_t sweep = 0; sweep < opts.sweeps; ++sweep) {
    for (std::size_t l = 0; l < opts.layers; ++l) {
      for (const bool is_gamma : {true, false}) {
        const Real hi = is_gamma ? kPi : kPi / 2.0;
        Real best_angle = is_gamma ? gammas[l] : betas[l];
        for (std::size_t g = 0; g < opts.grid_points; ++g) {
          const Real angle =
              hi * static_cast<Real>(g) / static_cast<Real>(opts.grid_points);
          (is_gamma ? gammas[l] : betas[l]) = angle;
          const Real e = eval.expectation(gammas, betas);
          if (e < best_expect) {
            best_expect = e;
            best_angle = angle;
          }
        }
        (is_gamma ? gammas[l] : betas[l]) = best_angle;
      }
    }
  }

  QaoaResult result;
  result.gammas = gammas;
  result.betas = betas;
  result.expected_energy = best_expect;

  // Sample the optimized state, keep the best measured configuration.
  const StateVector state = eval.prepare(gammas, betas);
  result.best_energy = 1e300;
  for (const std::uint64_t s : state.sample(opts.samples, rng)) {
    const Real e = eval.energies[s];
    if (e < result.best_energy) {
      result.best_energy = e;
      result.best_spins.assign(num_spins, -1);
      for (std::size_t q = 0; q < num_spins; ++q)
        if ((s >> q) & 1ull) result.best_spins[q] = 1;
    }
  }
  result.circuit_evaluations = eval.evaluations;
  return result;
}

}  // namespace rebooting::quantum
