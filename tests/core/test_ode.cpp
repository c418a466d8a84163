// Accuracy and control-flow properties of the core/dynamics.h integrators:
// convergence orders, observer stops, landing on t1, step-size adaptation,
// and argument checks.
#include "core/dynamics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace rebooting::core {
namespace {

/// dy/dt = -y, y(0)=1 -> y(t) = exp(-t).
struct Decay {
  void rhs(Real, std::span<const Real> y, std::span<Real> dy) const {
    dy[0] = -y[0];
  }
};

/// Harmonic oscillator: y = (pos, vel), omega = 1.
struct Oscillator {
  void rhs(Real, std::span<const Real> y, std::span<Real> dy) const {
    dy[0] = y[1];
    dy[1] = -y[0];
  }
};

const Decay kDecay{};
const Oscillator kOscillator{};

/// The drivers over a caller-owned vector, each call with a fresh workspace.
template <typename Kernel, typename... Observer>
Real run_fixed(Kernel& f, Scheme scheme, Real t0, Real t1, Real dt,
               std::vector<Real>& y, Observer&&... observe) {
  Workspace ws;
  return integrate_fixed(f, scheme, t0, t1, dt, std::span<Real>(y), ws,
                         std::forward<Observer>(observe)...);
}

template <typename Kernel, typename... Observer>
AdaptiveResult run_adaptive(Kernel& f, Real t0, Real t1,
                            std::vector<Real>& y, const AdaptiveOptions& opts,
                            Observer&&... observe) {
  Workspace ws;
  return integrate_adaptive(f, t0, t1, std::span<Real>(y), opts, ws,
                            std::forward<Observer>(observe)...);
}

TEST(FixedStep, EulerDecaysApproximately) {
  std::vector<Real> y{1.0};
  run_fixed(kDecay, Scheme::kEuler, 0.0, 1.0, 1e-4, y);
  EXPECT_NEAR(y[0], std::exp(-1.0), 1e-3);
}

TEST(FixedStep, Rk4IsMuchMoreAccurateThanEuler) {
  std::vector<Real> ye{1.0};
  std::vector<Real> yr{1.0};
  run_fixed(kDecay, Scheme::kEuler, 0.0, 2.0, 0.01, ye);
  run_fixed(kDecay, Scheme::kRk4, 0.0, 2.0, 0.01, yr);
  const Real exact = std::exp(-2.0);
  EXPECT_LT(std::abs(yr[0] - exact), std::abs(ye[0] - exact) / 100.0);
}

/// Convergence-order property: halving dt should reduce the error by ~2^p.
class ConvergenceOrder
    : public ::testing::TestWithParam<std::pair<Scheme, Real>> {};

TEST_P(ConvergenceOrder, MatchesTheory) {
  const auto [scheme, expected_order] = GetParam();
  const Real exact = std::exp(-1.0);
  auto error_at = [&](Real dt) {
    std::vector<Real> y{1.0};
    run_fixed(kDecay, scheme, 0.0, 1.0, dt, y);
    return std::abs(y[0] - exact);
  };
  const Real e1 = error_at(0.01);
  const Real e2 = error_at(0.005);
  const Real observed_order = std::log2(e1 / e2);
  EXPECT_NEAR(observed_order, expected_order, 0.35);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ConvergenceOrder,
    ::testing::Values(std::pair{Scheme::kEuler, 1.0},
                      std::pair{Scheme::kHeun, 2.0},
                      std::pair{Scheme::kRk4, 4.0}));

TEST(FixedStep, ObserverStopsEarly) {
  std::vector<Real> y{1.0};
  const Real t_stop = run_fixed(
      kDecay, Scheme::kRk4, 0.0, 10.0, 0.01, y,
      [](Real, std::span<const Real> s) { return s[0] > 0.5; });
  EXPECT_LT(t_stop, 1.0);
  EXPECT_NEAR(y[0], 0.5, 0.01);
}

TEST(FixedStep, FinalStepLandsExactlyOnT1) {
  std::vector<Real> y{1.0};
  const Real t_final = run_fixed(kDecay, Scheme::kRk4, 0.0, 0.95, 0.1, y);
  EXPECT_DOUBLE_EQ(t_final, 0.95);
}

TEST(FixedStep, RejectsNonPositiveDt) {
  std::vector<Real> y{1.0};
  EXPECT_THROW(run_fixed(kDecay, Scheme::kEuler, 0.0, 1.0, 0.0, y),
               std::invalid_argument);
}

TEST(Adaptive, DecayAccurateToTolerance) {
  std::vector<Real> y{1.0};
  AdaptiveOptions opts;
  opts.abs_tol = 1e-10;
  opts.rel_tol = 1e-10;
  const auto res = run_adaptive(kDecay, 0.0, 3.0, y, opts);
  EXPECT_NEAR(y[0], std::exp(-3.0), 1e-7);
  EXPECT_DOUBLE_EQ(res.t_final, 3.0);
  EXPECT_GT(res.accepted_steps, 0u);
}

TEST(Adaptive, HarmonicOscillatorConservesAmplitude) {
  std::vector<Real> y{1.0, 0.0};
  AdaptiveOptions opts;
  opts.rel_tol = 1e-9;
  opts.abs_tol = 1e-9;
  run_adaptive(kOscillator, 0.0, 2.0 * kPi, y, opts);
  EXPECT_NEAR(y[0], 1.0, 1e-6);
  EXPECT_NEAR(y[1], 0.0, 1e-6);
}

TEST(Adaptive, StepsAdaptToStiffness) {
  // A RHS that changes speed: slow then fast; the adaptive driver should use
  // far fewer steps than fixed stepping at the smallest needed dt.
  struct {
    void rhs(Real t, std::span<const Real> y, std::span<Real> dy) const {
      dy[0] = (t < 5.0 ? -0.01 : -50.0) * y[0];
    }
  } rhs;
  std::vector<Real> y{1.0};
  AdaptiveOptions opts;
  opts.max_dt = 1.0;
  const auto res = run_adaptive(rhs, 0.0, 6.0, y, opts);
  EXPECT_LT(res.accepted_steps, 2000u);
  EXPECT_GE(y[0], -1e-6);
}

TEST(Adaptive, ObserverStops) {
  std::vector<Real> y{1.0};
  const auto res = run_adaptive(
      kDecay, 0.0, 100.0, y, AdaptiveOptions{},
      [](Real, std::span<const Real> s) { return s[0] > 0.1; });
  EXPECT_TRUE(res.stopped_by_observer);
  EXPECT_LT(res.t_final, 100.0);
}

TEST(Adaptive, StepLimitReported) {
  AdaptiveOptions opts;
  opts.max_steps = 5;
  std::vector<Real> y{1.0, 0.0};
  const auto res = run_adaptive(kOscillator, 0.0, 1000.0, y, opts);
  EXPECT_TRUE(res.hit_step_limit);
  EXPECT_LT(res.t_final, 1000.0);
}

TEST(Steps, ScratchTooSmallThrows) {
  std::vector<Real> y{1.0};
  std::vector<Real> scratch(2);  // rk4 needs 5n
  EXPECT_THROW(rk4_step(kDecay, 0.0, 0.1, y, scratch), std::invalid_argument);
}

}  // namespace
}  // namespace rebooting::core
