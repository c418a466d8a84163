// Dense state-vector simulator — the "device layer" of the Fig. 2 quantum
// accelerator stack. Practical up to ~22 qubits (2^22 complex amplitudes).
//
// The paper's Sec. II describes superconducting qubits at 20 mK; per the
// substitution rule the physical chip is replaced by this simulator, which
// exercises the identical upper stack (QISA, compiler, runtime).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/random.h"
#include "core/types.h"

namespace rebooting::quantum {

using core::Complex;
using core::Real;

/// A 2x2 unitary in row-major order.
struct Gate2x2 {
  Complex m00, m01, m10, m11;
};

class StateVector {
 public:
  /// Initializes |0...0>.
  explicit StateVector(std::size_t num_qubits);

  std::size_t num_qubits() const { return num_qubits_; }
  std::size_t dimension() const { return amps_.size(); }
  std::span<const Complex> amplitudes() const { return amps_; }

  Complex amplitude(std::uint64_t basis_state) const {
    return amps_[basis_state];
  }

  /// Applies a single-qubit unitary to `target`.
  void apply_1q(const Gate2x2& g, std::size_t target);

  /// Applies the unitary to `target` controlled on all `controls` being 1.
  /// Only the 2^(n-k) amplitudes whose k controls are all set are touched;
  /// a diagonal gate touches only the ones it scales (a quarter for CZ).
  void apply_controlled(const Gate2x2& g, std::span<const std::size_t> controls,
                        std::size_t target);

  /// Multiplies amplitude of every basis state s by phase(s) — used for
  /// oracle diagonals (Grover) where the phase is +/-1 or exp(i theta).
  template <typename PhaseFn>
  void apply_diagonal(PhaseFn&& phase) {
    for (std::uint64_t s = 0; s < amps_.size(); ++s) amps_[s] *= phase(s);
  }

  /// Applies a basis-state permutation |s> -> |perm(s)>. perm must be a
  /// bijection on [0, 2^n). Used for classical-reversible oracles (modular
  /// multiplication in Shor, substring-match marking).
  template <typename PermFn>
  void apply_permutation(PermFn&& perm) {
    std::vector<Complex> next(amps_.size());
    for (std::uint64_t s = 0; s < amps_.size(); ++s)
      next[perm(s)] += amps_[s];
    amps_ = std::move(next);
  }

  /// Swaps two qubits' labels (implemented as amplitude permutation).
  void swap_qubits(std::size_t a, std::size_t b);

  /// Probability of measuring `qubit` as 1.
  Real probability_one(std::size_t qubit) const;

  /// Probability distribution over all basis states (|amp|^2).
  std::vector<Real> probabilities() const;

  /// Samples a full computational-basis measurement without collapsing.
  /// Same as sample(1, rng)[0].
  std::uint64_t sample(core::Rng& rng) const;

  /// Samples `shots` measurements without collapsing: prefix sums of |amp|^2
  /// once, then one rng.uniform() per shot, in order, mapped by
  /// pick_outcome. O(2^n + shots * n).
  std::vector<std::uint64_t> sample(std::size_t shots, core::Rng& rng) const;

  /// Measures one qubit, collapses the state, returns the outcome.
  bool measure_qubit(std::size_t qubit, core::Rng& rng);

  /// L2 norm of the state (1 within numerical error for unitary evolution).
  Real norm() const;

  /// |<this|other>|^2.
  Real fidelity(const StateVector& other) const;

 private:
  /// The one gate kernel: applies g to every (|..0..>, |..1..>) pair on
  /// `target` whose `cmask` bits are all set, visiting only those pairs.
  void apply_strided(const Gate2x2& g, std::uint64_t cmask,
                     std::size_t target);

  std::size_t num_qubits_;
  std::vector<Complex> amps_;
};

/// The sampling rule. `cumulative` holds the prefix sums of a distribution
/// over basis states; returns the first s with r <= cumulative[s], with r
/// clamped into (0, cumulative.back()] first, so a draw of exactly 0 or one
/// that rounding leaves above the total still lands on a state of nonzero
/// probability (the last such state, for a draw above the total). Binary
/// search, O(log size).
std::uint64_t pick_outcome(std::span<const Real> cumulative, Real r);

}  // namespace rebooting::quantum
