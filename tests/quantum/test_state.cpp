#include "quantum/state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "quantum/circuit.h"

namespace rebooting::quantum {
namespace {

TEST(StateVector, InitializesToGroundState) {
  StateVector s(3);
  EXPECT_EQ(s.dimension(), 8u);
  EXPECT_NEAR(std::abs(s.amplitude(0)), 1.0, 1e-15);
  EXPECT_NEAR(s.norm(), 1.0, 1e-15);
}

TEST(StateVector, QubitCountLimits) {
  EXPECT_THROW(StateVector(0), std::invalid_argument);
  EXPECT_THROW(StateVector(27), std::invalid_argument);
}

TEST(StateVector, HadamardCreatesEqualSuperposition) {
  StateVector s(1);
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  EXPECT_NEAR(std::norm(s.amplitude(0)), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(s.amplitude(1)), 0.5, 1e-12);
}

TEST(StateVector, PauliXFlipsBasisState) {
  StateVector s(2);
  s.apply_1q(gate_matrix(GateKind::kX), 1);
  EXPECT_NEAR(std::norm(s.amplitude(0b10)), 1.0, 1e-12);
}

class UnitarityTest : public ::testing::TestWithParam<GateKind> {};

TEST_P(UnitarityTest, NormPreservedByGate) {
  StateVector s(3);
  // Scramble a bit first.
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  s.apply_1q(gate_matrix(GateKind::kH), 2);
  s.apply_1q(gate_matrix(GetParam(), 0.7), 1);
  EXPECT_NEAR(s.norm(), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Gates, UnitarityTest,
                         ::testing::Values(GateKind::kX, GateKind::kY,
                                           GateKind::kZ, GateKind::kH,
                                           GateKind::kS, GateKind::kT,
                                           GateKind::kRx, GateKind::kRy,
                                           GateKind::kRz, GateKind::kPhase));

TEST(StateVector, ControlledGateActsOnlyWhenControlSet) {
  StateVector s(2);
  const std::size_t controls[] = {0};
  // Control |0>: nothing happens.
  s.apply_controlled(gate_matrix(GateKind::kX), controls, 1);
  EXPECT_NEAR(std::norm(s.amplitude(0b00)), 1.0, 1e-12);
  // Set the control, now the target flips.
  s.apply_1q(gate_matrix(GateKind::kX), 0);
  s.apply_controlled(gate_matrix(GateKind::kX), controls, 1);
  EXPECT_NEAR(std::norm(s.amplitude(0b11)), 1.0, 1e-12);
}

TEST(StateVector, MultiControlledRequiresAllControls) {
  StateVector s(3);
  s.apply_1q(gate_matrix(GateKind::kX), 0);  // only one of two controls set
  const std::size_t controls[] = {0, 1};
  s.apply_controlled(gate_matrix(GateKind::kX), controls, 2);
  EXPECT_NEAR(std::norm(s.amplitude(0b001)), 1.0, 1e-12);
}

TEST(StateVector, SwapQubitsPermutesAmplitudes) {
  StateVector s(2);
  s.apply_1q(gate_matrix(GateKind::kX), 0);  // |01> (qubit0 = 1)
  s.swap_qubits(0, 1);
  EXPECT_NEAR(std::norm(s.amplitude(0b10)), 1.0, 1e-12);
}

TEST(StateVector, DiagonalAppliesPhases) {
  StateVector s(1);
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  s.apply_diagonal([](std::uint64_t b) { return b == 1 ? -1.0 : 1.0; });
  // H then Z-phase then H == X up to global phase.
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  EXPECT_NEAR(std::norm(s.amplitude(1)), 1.0, 1e-12);
}

TEST(StateVector, PermutationMovesAmplitudes) {
  StateVector s(2);
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  s.apply_permutation([](std::uint64_t b) { return b ^ 0b10u; });
  EXPECT_NEAR(std::norm(s.amplitude(0b10)), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(s.amplitude(0b11)), 0.5, 1e-12);
  EXPECT_NEAR(s.norm(), 1.0, 1e-12);
}

TEST(StateVector, ProbabilityOne) {
  StateVector s(2);
  s.apply_1q(gate_matrix(GateKind::kRy, 2.0 * std::acos(std::sqrt(0.25))), 0);
  EXPECT_NEAR(s.probability_one(0), 0.75, 1e-9);
  EXPECT_NEAR(s.probability_one(1), 0.0, 1e-12);
}

TEST(StateVector, SampleFollowsDistribution) {
  core::Rng rng(1);
  StateVector s(1);
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  int ones = 0;
  const int shots = 20000;
  for (int i = 0; i < shots; ++i)
    if (s.sample(rng) == 1) ++ones;
  EXPECT_NEAR(static_cast<double>(ones) / shots, 0.5, 0.02);
}

TEST(StateVector, MeasureCollapsesState) {
  core::Rng rng(3);
  StateVector s(2);
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  const std::size_t controls[] = {0};
  s.apply_controlled(gate_matrix(GateKind::kX), controls, 1);  // Bell pair
  const bool outcome = s.measure_qubit(0, rng);
  // After measuring qubit 0, qubit 1 is perfectly correlated.
  EXPECT_NEAR(s.probability_one(1), outcome ? 1.0 : 0.0, 1e-12);
  EXPECT_NEAR(s.norm(), 1.0, 1e-12);
}

TEST(StateVector, FidelityOfIdenticalAndOrthogonalStates) {
  StateVector a(1);
  StateVector b(1);
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-12);
  b.apply_1q(gate_matrix(GateKind::kX), 0);
  EXPECT_NEAR(a.fidelity(b), 0.0, 1e-12);
}

TEST(StateVector, BadTargetsThrow) {
  StateVector s(2);
  EXPECT_THROW(s.apply_1q(gate_matrix(GateKind::kX), 2), std::invalid_argument);
  const std::size_t controls[] = {1};
  EXPECT_THROW(s.apply_controlled(gate_matrix(GateKind::kX), controls, 1),
               std::invalid_argument);
  EXPECT_THROW(s.probability_one(5), std::invalid_argument);
}

TEST(StateVector, BadTargetsThrowAndLeaveTheStateAlone) {
  StateVector s(3);
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  const StateVector before = s;
  EXPECT_THROW(s.apply_1q(gate_matrix(GateKind::kX), 3), std::invalid_argument);
  const std::size_t ok[] = {0};
  EXPECT_THROW(s.apply_controlled(gate_matrix(GateKind::kX), ok, 3),
               std::invalid_argument);
  const std::size_t out_of_range[] = {0, 3};
  EXPECT_THROW(s.apply_controlled(gate_matrix(GateKind::kX), out_of_range, 1),
               std::invalid_argument);
  const std::size_t on_target[] = {0, 2};
  EXPECT_THROW(s.apply_controlled(gate_matrix(GateKind::kX), on_target, 2),
               std::invalid_argument);
  for (std::uint64_t b = 0; b < s.dimension(); ++b)
    EXPECT_EQ(s.amplitude(b), before.amplitude(b)) << "basis " << b;
}

// --- Kernel oracles --------------------------------------------------------

/// The gate kernels as first written: scan all 2^n indices and skip the ones
/// that are not a pair's |0> member with every control set. Kept verbatim
/// (on a copied amplitude vector) as the reference the strided kernel must
/// match amplitude for amplitude.
void reference_apply_1q(std::vector<Complex>& amps_, const Gate2x2& g,
                        std::size_t target) {
  const std::uint64_t bit = 1ull << target;
  const std::uint64_t dim = amps_.size();
  for (std::uint64_t base = 0; base < dim; ++base) {
    if (base & bit) continue;  // visit each pair once, from its |0> member
    const std::uint64_t other = base | bit;
    const Complex a0 = amps_[base];
    const Complex a1 = amps_[other];
    amps_[base] = g.m00 * a0 + g.m01 * a1;
    amps_[other] = g.m10 * a0 + g.m11 * a1;
  }
}

void reference_apply_controlled(std::vector<Complex>& amps_, const Gate2x2& g,
                                std::span<const std::size_t> controls,
                                std::size_t target) {
  std::uint64_t cmask = 0;
  for (const std::size_t c : controls) cmask |= 1ull << c;
  const std::uint64_t bit = 1ull << target;
  const std::uint64_t dim = amps_.size();
  for (std::uint64_t base = 0; base < dim; ++base) {
    if (base & bit) continue;
    if ((base & cmask) != cmask) continue;
    const std::uint64_t other = base | bit;
    const Complex a0 = amps_[base];
    const Complex a1 = amps_[other];
    amps_[base] = g.m00 * a0 + g.m01 * a1;
    amps_[other] = g.m10 * a0 + g.m11 * a1;
  }
}

const GateKind kSingleQubitKinds[] = {
    GateKind::kI,  GateKind::kX,   GateKind::kY,  GateKind::kZ,
    GateKind::kH,  GateKind::kS,   GateKind::kSdg, GateKind::kT,
    GateKind::kTdg, GateKind::kRx, GateKind::kRy, GateKind::kRz,
    GateKind::kPhase};

/// A 2^n x 2^n matrix, row-major.
using Dense = std::vector<Complex>;

/// The dense unitary of `g` on `target` controlled on `cmask`, built column
/// by column from the definition (not from any kernel).
Dense dense_gate(std::size_t n, const Gate2x2& g, std::uint64_t cmask,
                 std::size_t target) {
  const std::uint64_t dim = 1ull << n;
  const std::uint64_t bit = 1ull << target;
  Dense u(dim * dim);
  for (std::uint64_t col = 0; col < dim; ++col) {
    if ((col & cmask) != cmask) {
      u[col * dim + col] = 1.0;
      continue;
    }
    const bool one = col & bit;
    u[(col & ~bit) * dim + col] = one ? g.m01 : g.m00;
    u[(col | bit) * dim + col] = one ? g.m11 : g.m10;
  }
  return u;
}

Dense dense_op(std::size_t n, const Operation& op) {
  const auto& q = op.qubits;
  switch (op.kind) {
    case GateKind::kCx:
      return dense_gate(n, gate_matrix(GateKind::kX), 1ull << q[0], q[1]);
    case GateKind::kCz:
      return dense_gate(n, gate_matrix(GateKind::kZ), 1ull << q[0], q[1]);
    case GateKind::kCcx:
      return dense_gate(n, gate_matrix(GateKind::kX),
                        (1ull << q[0]) | (1ull << q[1]), q[2]);
    case GateKind::kSwap: {
      const std::uint64_t dim = 1ull << n;
      Dense u(dim * dim);
      for (std::uint64_t col = 0; col < dim; ++col) {
        const bool a = col >> q[0] & 1, b = col >> q[1] & 1;
        std::uint64_t row = col & ~((1ull << q[0]) | (1ull << q[1]));
        row |= std::uint64_t{b} << q[0] | std::uint64_t{a} << q[1];
        u[row * dim + col] = 1.0;
      }
      return u;
    }
    default:
      return dense_gate(n, gate_matrix(op.kind, op.angle), 0, q[0]);
  }
}

Dense multiply(const Dense& a, const Dense& b, std::uint64_t dim) {
  Dense c(dim * dim);
  for (std::uint64_t i = 0; i < dim; ++i)
    for (std::uint64_t k = 0; k < dim; ++k) {
      const Complex aik = a[i * dim + k];
      if (aik == Complex{}) continue;
      for (std::uint64_t j = 0; j < dim; ++j) c[i * dim + j] += aik * b[k * dim + j];
    }
  return c;
}

/// Distinct random qubits.
std::vector<std::size_t> pick_qubits(core::Rng& rng, std::size_t n,
                                     std::size_t count) {
  std::vector<std::size_t> all(n);
  for (std::size_t q = 0; q < n; ++q) all[q] = q;
  for (std::size_t i = 0; i < count; ++i)
    std::swap(all[i], all[i + rng.uniform_index(n - i)]);
  all.resize(count);
  return all;
}

TEST(StateVectorOracle, RandomCircuitsMatchDenseUnitaryProduct) {
  std::vector<GateKind> kinds(std::begin(kSingleQubitKinds),
                              std::end(kSingleQubitKinds));
  for (const GateKind k :
       {GateKind::kCx, GateKind::kCz, GateKind::kSwap, GateKind::kCcx})
    kinds.push_back(k);
  core::Rng rng(2019);
  for (std::size_t n = 1; n <= 6; ++n) {
    for (int trial = 0; trial < 3; ++trial) {
      // Every kind that fits, twice, in random order.
      std::vector<GateKind> order;
      for (int rep = 0; rep < 2; ++rep)
        for (const GateKind k : kinds)
          if (qubit_count(k) <= n) order.push_back(k);
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.uniform_index(i)]);

      Circuit c(n);
      for (std::size_t q = 0; q < n; ++q) c.h(q);  // leave |0..0> behind
      for (const GateKind k : order)
        c.add(k, pick_qubits(rng, n, qubit_count(k)),
              rng.uniform(-core::kPi, core::kPi));

      const std::uint64_t dim = 1ull << n;
      Dense product(dim * dim);
      for (std::uint64_t i = 0; i < dim; ++i) product[i * dim + i] = 1.0;
      for (const Operation& op : c.operations())
        product = multiply(dense_op(n, op), product, dim);

      const StateVector s = simulate(c);
      for (std::uint64_t b = 0; b < dim; ++b)
        EXPECT_LT(std::abs(s.amplitude(b) - product[b * dim]), 1e-12)
            << "n=" << n << " trial " << trial << " basis " << b;
    }
  }
}

/// A 10-qubit state with no zero real or imaginary part anywhere.
StateVector random_state(core::Rng& rng) {
  StateVector s(10);
  for (int layer = 0; layer < 2; ++layer) {
    for (std::size_t q = 0; q < 10; ++q) {
      s.apply_1q(gate_matrix(GateKind::kRy, rng.uniform(0.3, 2.8)), q);
      s.apply_1q(gate_matrix(GateKind::kRz, rng.uniform(0.3, 2.8)), q);
    }
    for (std::size_t q = 0; q + 1 < 10; ++q) {
      const std::size_t controls[] = {q};
      s.apply_controlled(gate_matrix(GateKind::kRx, rng.uniform(0.3, 2.8)),
                         controls, q + 1);
    }
  }
  return s;
}

TEST(StateVectorOracle, StridedKernelEqualsScanLoopExactly) {
  core::Rng rng(7);
  const StateVector start = random_state(rng);
  for (std::uint64_t b = 0; b < start.dimension(); ++b)
    ASSERT_TRUE(start.amplitude(b).real() != 0.0 &&
                start.amplitude(b).imag() != 0.0);
  const std::vector<Complex> start_amps(start.amplitudes().begin(),
                                        start.amplitudes().end());

  // Every single-qubit kind, then two general matrices: none of the named
  // gates has a dense entry with both parts nonzero, which is where the
  // order of the real products and sums shows, and one has ones on the
  // diagonal with nonzero off-diagonal entries.
  std::vector<std::pair<std::string, Gate2x2>> gates;
  for (const GateKind kind : kSingleQubitKinds)
    gates.emplace_back(to_string(kind), gate_matrix(kind, 0.7));
  gates.emplace_back("general",
                     Gate2x2{Complex{0.31, -0.77}, Complex{-0.52, 0.18},
                             Complex{0.64, 0.29}, Complex{-0.13, -0.91}});
  gates.emplace_back("unit-diagonal",
                     Gate2x2{Complex{1.0, 0.0}, Complex{0.4, -0.3},
                             Complex{-0.2, 0.6}, Complex{1.0, 0.0}});

  std::size_t cases = 0;
  const auto check = [&](const std::pair<std::string, Gate2x2>& gate,
                         std::vector<std::size_t> controls,
                         std::size_t target) {
    const Gate2x2& g = gate.second;
    StateVector s = start;
    std::vector<Complex> ref = start_amps;
    if (controls.empty()) {
      s.apply_1q(g, target);
      reference_apply_1q(ref, g, target);
    } else {
      s.apply_controlled(g, controls, target);
      reference_apply_controlled(ref, g, controls, target);
    }
    std::size_t mismatches = 0;
    for (std::uint64_t b = 0; b < ref.size(); ++b)
      if (!(s.amplitude(b) == ref[b])) ++mismatches;
    EXPECT_EQ(mismatches, 0u) << gate.first << " target " << target
                              << " controls " << controls.size();
    ++cases;
  };

  for (const auto& gate : gates)
    for (std::size_t t = 0; t < 10; ++t) {
      check(gate, {}, t);
      for (std::size_t c1 = 0; c1 < 10; ++c1) {
        if (c1 == t) continue;
        check(gate, {c1}, t);
        for (std::size_t c2 = c1 + 1; c2 < 10; ++c2)
          if (c2 != t) check(gate, {c1, c2}, t);
      }
    }
  EXPECT_EQ(cases, gates.size() * 10u * (1u + 9u + 36u));
}

// --- Sampling --------------------------------------------------------------

/// The sampling rule as a linear scan: the first s with r <= cumulative[s],
/// else the last state.
std::uint64_t linear_pick(const std::vector<Real>& cumulative, Real r) {
  for (std::uint64_t s = 0; s < cumulative.size(); ++s)
    if (r <= cumulative[s]) return s;
  return cumulative.size() - 1;
}

std::vector<Real> prefix_sums(const std::vector<Real>& p) {
  std::vector<Real> cumulative(p.size());
  Real sum = 0.0;
  for (std::size_t s = 0; s < p.size(); ++s) cumulative[s] = sum += p[s];
  return cumulative;
}

TEST(Sampling, PickMatchesLinearScanOnBoundariesAndAboveTheTotal) {
  // 0.4 + 0.3 + 0.2 + 0.1 rounds to 0.9999999999999999 < 1, so draws in
  // (total, 1) exist and must give the last state.
  const std::vector<Real> cumulative =
      prefix_sums({0.4, 0.0, 0.3, 0.2, 0.0, 0.1});
  ASSERT_LT(cumulative.back(), 1.0);
  std::vector<Real> draws = {std::nextafter(cumulative.back(), 1.0),
                             std::nextafter(1.0, 0.0)};
  for (const Real c : cumulative) {
    draws.push_back(c);  // exactly on a boundary
    draws.push_back(std::nextafter(c, 0.0));
    draws.push_back(std::nextafter(c, 1.0));
  }
  core::Rng rng(11);
  for (int i = 0; i < 1000; ++i) draws.push_back(rng.uniform());
  for (const Real r : draws) {
    if (r <= 0.0) continue;  // covered by the zero-probability test
    EXPECT_EQ(pick_outcome(cumulative, r), linear_pick(cumulative, r))
        << "r = " << r;
  }
  EXPECT_EQ(pick_outcome(cumulative, cumulative[2]), 2u);
  EXPECT_EQ(pick_outcome(cumulative, cumulative[3]), 3u);
  EXPECT_EQ(pick_outcome(cumulative, std::nextafter(cumulative.back(), 1.0)),
            5u);
}

TEST(Sampling, ZeroProbabilityStatesAreNeverReturned) {
  const std::vector<Real> p = {0.0, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0};
  const std::vector<Real> cumulative = prefix_sums(p);
  std::vector<Real> draws = {0.0, std::numeric_limits<Real>::denorm_min(),
                             0.5, std::nextafter(0.5, 1.0), 1.0,
                             std::nextafter(1.0, 0.0), 2.0};
  core::Rng rng(5);
  for (int i = 0; i < 1000; ++i) draws.push_back(rng.uniform());
  for (const Real r : draws) {
    const std::uint64_t s = pick_outcome(cumulative, r);
    ASSERT_LT(s, p.size());
    EXPECT_GT(p[s], 0.0) << "r = " << r << " picked " << s;
  }
  // A draw of 0 lands on the first possible state, one above the total on
  // the last possible one.
  EXPECT_EQ(pick_outcome(cumulative, 0.0), 1u);
  EXPECT_EQ(pick_outcome(cumulative, 2.0), 4u);
  EXPECT_THROW(pick_outcome({}, 0.5), std::invalid_argument);

  // Through the state vector: a GHZ state has two possible outcomes.
  StateVector ghz(5);
  ghz.apply_1q(gate_matrix(GateKind::kH), 0);
  for (std::size_t q = 1; q < 5; ++q) {
    const std::size_t controls[] = {0};
    ghz.apply_controlled(gate_matrix(GateKind::kX), controls, q);
  }
  core::Rng shots_rng(9);
  for (const std::uint64_t s : ghz.sample(4000, shots_rng))
    EXPECT_TRUE(s == 0 || s == 0b11111) << s;
}

TEST(Sampling, ShotsDrawOneUniformEachInOrder) {
  core::Rng rng(3);
  const StateVector s = random_state(rng);
  std::vector<Real> p(s.dimension());
  for (std::uint64_t b = 0; b < s.dimension(); ++b)
    p[b] = std::norm(s.amplitude(b));
  const std::vector<Real> cumulative = prefix_sums(p);

  core::Rng draws(42);
  core::Rng shots(42);
  const std::vector<std::uint64_t> got = s.sample(3000, shots);
  ASSERT_EQ(got.size(), 3000u);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], linear_pick(cumulative, draws.uniform())) << "shot " << i;
  // Both generators are at the same point afterwards: one draw per shot.
  EXPECT_EQ(draws(), shots());

  // The single-shot form is the batch of one.
  core::Rng one(42);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(s.sample(one), got[i]);
}

}  // namespace
}  // namespace rebooting::quantum
