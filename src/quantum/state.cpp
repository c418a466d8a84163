#include "quantum/state.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "telemetry/telemetry.h"

namespace rebooting::quantum {

StateVector::StateVector(std::size_t num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits == 0 || num_qubits > 26)
    throw std::invalid_argument("StateVector: qubit count out of range [1,26]");
  amps_.assign(1ull << num_qubits, Complex{0.0, 0.0});
  amps_[0] = Complex{1.0, 0.0};
}

void StateVector::apply_1q(const Gate2x2& g, std::size_t target) {
  TELEM_SPAN("quantum.apply_1q");
  if (target >= num_qubits_)
    throw std::invalid_argument("apply_1q: target out of range");
  apply_strided(g, 0, target);
}

void StateVector::apply_controlled(const Gate2x2& g,
                                   std::span<const std::size_t> controls,
                                   std::size_t target) {
  TELEM_SPAN("quantum.apply_controlled");
  if (target >= num_qubits_)
    throw std::invalid_argument("apply_controlled: target out of range");
  std::uint64_t cmask = 0;
  for (const std::size_t c : controls) {
    if (c >= num_qubits_ || c == target)
      throw std::invalid_argument("apply_controlled: bad control");
    cmask |= 1ull << c;
  }
  apply_strided(g, cmask, target);
}

namespace {

/// In-place amp *= (cr + i ci) on one interleaved re/im pair: the products
/// and sums std::complex forms on finite values, without the __muldc3 call.
inline void scale(double* amp, double cr, double ci) {
  const double re = amp[0];
  const double im = amp[1];
  amp[0] = cr * re - ci * im;
  amp[1] = cr * im + ci * re;
}

}  // namespace

// The pairs to visit are the indices with every cmask bit set and the target
// bit clear. The lowest fixed bit (a control or the target) bounds a run of
// contiguous indices that all qualify; the runs' starts are the subsets of
// the free bits above it, stepped through in increasing order by a carry
// that skips the fixed bits ((y | ~free) + 1) & free, with cmask OR-ed in.
// Nothing is scanned and thrown away. Diagonal gates only scale each half
// and anti-diagonal ones only exchange the halves (times their entries):
// the dense update's products with an exact zero coefficient add nothing,
// so each amplitude equals the dense result. The coefficients live in locals, so
// stores through the amplitude pointer cannot force them to be reloaded.
void StateVector::apply_strided(const Gate2x2& g, std::uint64_t cmask,
                                std::size_t target) {
  const double g00r = g.m00.real(), g00i = g.m00.imag();
  const double g01r = g.m01.real(), g01i = g.m01.imag();
  const double g10r = g.m10.real(), g10i = g.m10.imag();
  const double g11r = g.m11.real(), g11i = g.m11.imag();
  const bool diagonal = g.m01 == Complex{} && g.m10 == Complex{};
  // X, Y (and so CX, CCX) only exchange the halves of each pair, Y times a
  // phase; X exchanges them as they are.
  const bool antidiagonal = g.m00 == Complex{} && g.m11 == Complex{};
  const bool exchange =
      antidiagonal && g.m01 == Complex{1.0, 0.0} && g.m10 == Complex{1.0, 0.0};
  // Multiplying by exactly 1 leaves a finite amplitude unchanged, so the
  // diagonal path skips that half (Z, S, T, phase: only the |1> half moves).
  const bool scale0 = !diagonal || g.m00 != Complex{1.0, 0.0};
  const bool scale1 = !diagonal || g.m11 != Complex{1.0, 0.0};
  if (!scale0 && !scale1) return;

  const std::uint64_t bit = 1ull << target;
  const std::uint64_t fixed = cmask | bit;
  const std::uint64_t run = fixed & -fixed;  // 2^(lowest fixed position)
  const std::uint64_t free = (amps_.size() - 1) & ~fixed & ~(run - 1);
  const std::uint64_t blocks = 1ull << std::popcount(free);
  const std::uint64_t end = 2 * run;  // a run in doubles

  // std::complex<T> arrays may be accessed as interleaved T re/im pairs.
  double* const amps = reinterpret_cast<double*>(amps_.data());
  std::uint64_t y = 0;
  for (std::uint64_t b = 0; b < blocks; ++b, y = ((y | ~free) + 1) & free) {
    double* const p0 = amps + 2 * (y | cmask);
    double* const p1 = amps + 2 * (y | cmask | bit);
    if (diagonal) {
      if (scale0)
        for (std::uint64_t j = 0; j < end; j += 2) scale(p0 + j, g00r, g00i);
      if (scale1)
        for (std::uint64_t j = 0; j < end; j += 2) scale(p1 + j, g11r, g11i);
      continue;
    }
    if (exchange) {
      for (std::uint64_t j = 0; j < end; ++j) std::swap(p0[j], p1[j]);
      continue;
    }
    if (antidiagonal) {
      for (std::uint64_t j = 0; j < end; j += 2) {
        const double a0r = p0[j], a0i = p0[j + 1];
        p0[j] = p1[j];
        p0[j + 1] = p1[j + 1];
        p1[j] = a0r;
        p1[j + 1] = a0i;
        scale(p0 + j, g01r, g01i);
        scale(p1 + j, g10r, g10i);
      }
      continue;
    }
    for (std::uint64_t j = 0; j < end; j += 2) {
      const double a0r = p0[j], a0i = p0[j + 1];
      const double a1r = p1[j], a1i = p1[j + 1];
      p0[j] = (g00r * a0r - g00i * a0i) + (g01r * a1r - g01i * a1i);
      p0[j + 1] = (g00r * a0i + g00i * a0r) + (g01r * a1i + g01i * a1r);
      p1[j] = (g10r * a0r - g10i * a0i) + (g11r * a1r - g11i * a1i);
      p1[j + 1] = (g10r * a0i + g10i * a0r) + (g11r * a1i + g11i * a1r);
    }
  }
}

void StateVector::swap_qubits(std::size_t a, std::size_t b) {
  if (a >= num_qubits_ || b >= num_qubits_)
    throw std::invalid_argument("swap_qubits: out of range");
  if (a == b) return;
  const std::uint64_t ba = 1ull << a;
  const std::uint64_t bb = 1ull << b;
  for (std::uint64_t s = 0; s < amps_.size(); ++s) {
    const bool va = s & ba;
    const bool vb = s & bb;
    if (va && !vb) std::swap(amps_[s], amps_[(s ^ ba) | bb]);
  }
}

Real StateVector::probability_one(std::size_t qubit) const {
  if (qubit >= num_qubits_)
    throw std::invalid_argument("probability_one: out of range");
  const std::uint64_t bit = 1ull << qubit;
  Real p = 0.0;
  for (std::uint64_t s = 0; s < amps_.size(); ++s)
    if (s & bit) p += std::norm(amps_[s]);
  return p;
}

std::vector<Real> StateVector::probabilities() const {
  std::vector<Real> p(amps_.size());
  for (std::uint64_t s = 0; s < amps_.size(); ++s) p[s] = std::norm(amps_[s]);
  return p;
}

std::uint64_t StateVector::sample(core::Rng& rng) const {
  return sample(1, rng)[0];
}

std::vector<std::uint64_t> StateVector::sample(std::size_t shots,
                                               core::Rng& rng) const {
  std::vector<Real> cumulative(amps_.size());
  Real sum = 0.0;
  for (std::uint64_t s = 0; s < amps_.size(); ++s)
    cumulative[s] = sum += std::norm(amps_[s]);
  std::vector<std::uint64_t> outcomes(shots);
  for (std::uint64_t& outcome : outcomes)
    outcome = pick_outcome(cumulative, rng.uniform());
  return outcomes;
}

bool StateVector::measure_qubit(std::size_t qubit, core::Rng& rng) {
  TELEM_SPAN("quantum.measure");
  const Real p1 = probability_one(qubit);
  const bool outcome = rng.uniform() < p1;
  const Real keep = outcome ? p1 : 1.0 - p1;
  const Real scale = keep > 0.0 ? 1.0 / std::sqrt(keep) : 0.0;
  const std::uint64_t bit = 1ull << qubit;
  for (std::uint64_t s = 0; s < amps_.size(); ++s) {
    if (((s & bit) != 0) == outcome)
      amps_[s] *= scale;
    else
      amps_[s] = Complex{0.0, 0.0};
  }
  return outcome;
}

Real StateVector::norm() const {
  Real n = 0.0;
  for (const Complex& a : amps_) n += std::norm(a);
  return std::sqrt(n);
}

Real StateVector::fidelity(const StateVector& other) const {
  if (other.dimension() != dimension())
    throw std::invalid_argument("fidelity: dimension mismatch");
  Complex overlap{0.0, 0.0};
  for (std::uint64_t s = 0; s < amps_.size(); ++s)
    overlap += std::conj(amps_[s]) * other.amps_[s];
  return std::norm(overlap);
}

std::uint64_t pick_outcome(std::span<const Real> cumulative, Real r) {
  if (cumulative.empty())
    throw std::invalid_argument("pick_outcome: empty distribution");
  r = std::min(std::max(r, std::numeric_limits<Real>::denorm_min()),
               cumulative.back());
  return static_cast<std::uint64_t>(
      std::lower_bound(cumulative.begin(), cumulative.end(), r) -
      cumulative.begin());
}

}  // namespace rebooting::quantum
