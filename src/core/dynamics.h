// Static-dispatch dynamics kernels: the integration hot path of both physics
// engines, without std::function.
//
// Typing a right-hand side as a std::function costs an indirect call per RHS
// evaluation (2 per Heun step, 6 per RKF45 step) and blocks inlining of the
// step arithmetic into the RHS loop. The ensemble workloads of Sec. III/IV (restart sweeps, noise seeds, coupling
// ablations) evaluate the RHS billions of times, so here the kernel is a
// *type*: any struct with an inlinable
//
//   void rhs(Real t, std::span<const Real> y, std::span<Real> dydt)
//
// member (const or not — stateful kernels such as the SOLG gate-memory sweep
// mutate themselves) can be passed to the templated steppers and drivers
// below, and the compiler fuses RHS and stepper into one loop nest. A caller
// that wants type erasure wraps a std::function in such a struct itself
// (bench/dynamics_ensemble measures what that costs).
//
// Scratch ownership moves to the caller: a Workspace is a grow-only arena of
// Real/byte blocks that a trajectory body acquires from once per solve and
// the ensemble runner (core/ensemble.h) hands each worker thread its own, so
// repeated trajectories allocate nothing after the first.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/types.h"

namespace rebooting::core {

/// Requirements on a dynamics kernel: writes dy/dt(t, y) into dydt. Both
/// spans have the system dimension; rhs must not resize or alias them.
template <typename K>
concept DynamicsKernel =
    requires(K k, Real t, std::span<const Real> y, std::span<Real> dydt) {
      { k.rhs(t, y, dydt) };
    };

/// Grow-only scratch arena owned by the caller of a solve. Each acquire()
/// hands out one stable block (blocks never move once created), so nested
/// holders cannot invalidate each other; a Scope rewinds the cursor on exit
/// so the *next* trajectory reuses the same blocks without reallocating.
class Workspace {
 public:
  /// RAII cursor checkpoint: blocks acquired inside the scope are recycled
  /// (not freed) when it ends. Take one per trajectory/solve.
  class Scope {
   public:
    explicit Scope(Workspace& ws)
        : ws_(&ws), real_mark_(ws.real_cursor_), byte_mark_(ws.byte_cursor_) {}
    ~Scope() {
      ws_->real_cursor_ = real_mark_;
      ws_->byte_cursor_ = byte_mark_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace* ws_;
    std::size_t real_mark_;
    std::size_t byte_mark_;
  };

  Scope scope() { return Scope(*this); }

  /// Next Real block of at least n elements. Contents are unspecified (reused
  /// blocks keep stale values); callers must initialize what they read.
  std::span<Real> real(std::size_t n) {
    if (real_cursor_ == real_blocks_.size()) real_blocks_.emplace_back();
    std::vector<Real>& block = real_blocks_[real_cursor_++];
    if (block.size() < n) block.resize(n);
    return {block.data(), n};
  }

  /// Next byte block of at least n elements (flags, sign bits, ...).
  std::span<unsigned char> bytes(std::size_t n) {
    if (byte_cursor_ == byte_blocks_.size()) byte_blocks_.emplace_back();
    std::vector<unsigned char>& block = byte_blocks_[byte_cursor_++];
    if (block.size() < n) block.resize(n);
    return {block.data(), n};
  }

  /// Rewinds both cursors (top-level reuse without a Scope). Must not be
  /// called while blocks from this workspace are still in use.
  void reset() {
    real_cursor_ = 0;
    byte_cursor_ = 0;
  }

 private:
  // Blocks are separate vectors (not one slab) so growing one never moves
  // another — acquired spans stay valid for the workspace's lifetime.
  std::vector<std::vector<Real>> real_blocks_;
  std::vector<std::vector<unsigned char>> byte_blocks_;
  std::size_t real_cursor_ = 0;
  std::size_t byte_cursor_ = 0;
};

/// Fixed-step integration schemes.
enum class Scheme { kEuler, kHeun, kRk4 };

/// Tag type for "no observer": the drivers compile the observer branch out.
struct NoObserver {};

namespace detail {

inline void check_scratch(std::span<Real> y, std::span<Real> scratch,
                          std::size_t multiple) {
  if (scratch.size() < multiple * y.size())
    throw std::invalid_argument("ode step: scratch too small");
}

template <typename Observer>
inline constexpr bool kHasObserver =
    !std::is_same_v<std::remove_cvref_t<Observer>, NoObserver>;

}  // namespace detail

/// Stateless single steps (y updated in place). `scratch` must provide at
/// least 1x / 3x / 5x y.size() reals respectively; callers that manage their
/// own loops (the oscillator engine interleaves hysteresis events between
/// steps) acquire it once from a Workspace outside the loop.
template <DynamicsKernel Kernel>
inline void euler_step(Kernel& f, Real t, Real dt, std::span<Real> y,
                       std::span<Real> scratch) {
  detail::check_scratch(y, scratch, 1);
  const std::size_t n = y.size();
  auto k1 = scratch.subspan(0, n);
  f.rhs(t, y, k1);
  for (std::size_t i = 0; i < n; ++i) y[i] += dt * k1[i];
}

template <DynamicsKernel Kernel>
inline void heun_step(Kernel& f, Real t, Real dt, std::span<Real> y,
                      std::span<Real> scratch) {
  detail::check_scratch(y, scratch, 3);
  const std::size_t n = y.size();
  auto k1 = scratch.subspan(0, n);
  auto k2 = scratch.subspan(n, n);
  auto tmp = scratch.subspan(2 * n, n);
  f.rhs(t, y, k1);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + dt * k1[i];
  f.rhs(t + dt, tmp, k2);
  for (std::size_t i = 0; i < n; ++i) y[i] += 0.5 * dt * (k1[i] + k2[i]);
}

template <DynamicsKernel Kernel>
inline void rk4_step(Kernel& f, Real t, Real dt, std::span<Real> y,
                     std::span<Real> scratch) {
  detail::check_scratch(y, scratch, 5);
  const std::size_t n = y.size();
  auto k1 = scratch.subspan(0, n);
  auto k2 = scratch.subspan(n, n);
  auto k3 = scratch.subspan(2 * n, n);
  auto k4 = scratch.subspan(3 * n, n);
  auto tmp = scratch.subspan(4 * n, n);
  f.rhs(t, y, k1);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + 0.5 * dt * k1[i];
  f.rhs(t + 0.5 * dt, tmp, k2);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + 0.5 * dt * k2[i];
  f.rhs(t + 0.5 * dt, tmp, k3);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + dt * k3[i];
  f.rhs(t + dt, tmp, k4);
  for (std::size_t i = 0; i < n; ++i)
    y[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
}

/// Resume cursor for a fixed-step integration. The drift-free time grid
/// (t = t0 + i*dt) makes the step index the *entire* stepper state besides y:
/// resuming at step i reproduces the remaining steps bit-exactly because
/// every time instant is recomputed from i, never accumulated.
struct FixedCursor {
  std::uint64_t step = 0;  ///< next step index to execute
};

/// What one bounded slice of integration did.
struct SliceOutcome {
  bool done = false;                ///< reached t1 or stopped by observer
  Real t_reached = 0.0;             ///< time the trajectory is parked at
  std::size_t steps_taken = 0;      ///< steps executed within this slice
  bool stopped_by_observer = false;
};

namespace detail {

/// Slice stopwatch: wall budgets are checked between steps only, and only
/// after at least one step, so every slice makes forward progress.
class SliceClock {
 public:
  explicit SliceClock(const SliceBudget& budget)
      : budget_(budget),
        start_(budget.max_seconds > 0.0
                   ? std::chrono::steady_clock::now()
                   : std::chrono::steady_clock::time_point{}) {}

  bool exhausted(std::size_t steps_taken) const {
    if (steps_taken == 0) return false;
    if (budget_.max_steps != 0 && steps_taken >= budget_.max_steps)
      return true;
    if (budget_.max_seconds > 0.0) {
      const auto elapsed = std::chrono::duration<Real>(
          std::chrono::steady_clock::now() - start_);
      if (elapsed.count() >= budget_.max_seconds) return true;
    }
    return false;
  }

 private:
  SliceBudget budget_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace detail

/// One budget-bounded slice of the fixed-step driver below. Advances y from
/// the cursor's step until t1 is reached, the observer stops the run, or the
/// budget is exhausted; the cursor always points at the next step to execute,
/// so calling again splices the trajectory with no seam. The arithmetic per
/// step is identical to an uninterrupted run — slicing can never change a
/// result, only where the pauses fall.
template <DynamicsKernel Kernel, typename Observer = NoObserver>
SliceOutcome integrate_fixed_slice(Kernel& f, Scheme scheme, Real t0, Real t1,
                                   Real dt, std::span<Real> y,
                                   FixedCursor& cursor,
                                   const SliceBudget& budget, Workspace& ws,
                                   Observer&& observe = {}) {
  if (!(dt > 0.0))
    throw std::invalid_argument("integrate_fixed: dt must be > 0");
  const auto ws_scope = ws.scope();
  std::span<Real> scratch = ws.real(5 * y.size());
  const detail::SliceClock clock(budget);
  SliceOutcome out;
  for (std::uint64_t i = cursor.step;; ++i) {
    const Real t = t0 + static_cast<Real>(i) * dt;
    if (t >= t1) {
      cursor.step = i;
      out.done = true;
      out.t_reached = t1;
      return out;
    }
    if (clock.exhausted(out.steps_taken)) {
      cursor.step = i;
      out.t_reached = t;
      return out;
    }
    const Real step = std::min(dt, t1 - t);
    switch (scheme) {
      case Scheme::kEuler:
        euler_step(f, t, step, y, scratch);
        break;
      case Scheme::kHeun:
        heun_step(f, t, step, y, scratch);
        break;
      case Scheme::kRk4:
        rk4_step(f, t, step, y, scratch);
        break;
    }
    ++out.steps_taken;
    const Real t_next = std::min(t0 + static_cast<Real>(i + 1) * dt, t1);
    if constexpr (detail::kHasObserver<Observer>) {
      if (!observe(t_next, std::span<const Real>(y))) {
        cursor.step = i + 1;
        out.done = true;
        out.t_reached = t_next;
        out.stopped_by_observer = true;
        return out;
      }
    }
  }
}

/// Fixed-step driver: integrates from t0 to t1 in steps of dt (final step
/// shortened to land exactly on t1). Time is tracked as t0 + i*dt — an
/// accumulating `t += dt` drifts by an ulp per step, which over the millions
/// of steps of an oscillator run shifts every sample instant and the final
/// time. Observer (bool(Real t, std::span<const Real> y)) is called after
/// each step; returns the final time reached (== t1 unless stopped early).
/// Implemented as a single unlimited slice of integrate_fixed_slice.
template <DynamicsKernel Kernel, typename Observer = NoObserver>
Real integrate_fixed(Kernel& f, Scheme scheme, Real t0, Real t1, Real dt,
                     std::span<Real> y, Workspace& ws,
                     Observer&& observe = {}) {
  FixedCursor cursor;
  return integrate_fixed_slice(f, scheme, t0, t1, dt, y, cursor, SliceBudget{},
                               ws, std::forward<Observer>(observe))
      .t_reached;
}

/// Adaptive Runge–Kutta–Fehlberg 4(5) controls.
struct AdaptiveOptions {
  Real abs_tol = 1e-8;
  Real rel_tol = 1e-6;
  Real initial_dt = 1e-3;
  Real min_dt = 1e-12;
  Real max_dt = 1.0;
  /// Step-count guard: integration aborts (returning the time reached) after
  /// this many accepted steps, so a stiff runaway cannot hang a benchmark.
  std::size_t max_steps = 50'000'000;
};

struct AdaptiveResult {
  Real t_final = 0.0;
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;
  bool stopped_by_observer = false;
  bool hit_step_limit = false;
};

/// Resume cursor for the adaptive driver. Unlike the fixed grid, RKF45
/// accumulates t and carries the controller's step size across steps, so
/// both are part of the resumable state alongside the accept/reject tallies.
struct AdaptiveCursor {
  Real t = 0.0;
  Real dt = 0.0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  bool initialized = false;  ///< first slice seeds t/dt from (t0, opts)
};

/// Slice outcome of the adaptive driver: `result` carries the *cumulative*
/// tallies so far (mirroring the cursor); its flags are only final once
/// done is true.
struct AdaptiveSliceOutcome {
  bool done = false;
  AdaptiveResult result;
  std::size_t attempts_taken = 0;  ///< accepted + rejected steps this slice
};

/// One budget-bounded slice of the adaptive RKF45 driver. Identical
/// arithmetic to integrate_adaptive; the budget counts attempted steps
/// (accepted + rejected) so a stiff rejecting region still yields promptly.
template <DynamicsKernel Kernel, typename Observer = NoObserver>
AdaptiveSliceOutcome integrate_adaptive_slice(Kernel& f, Real t0, Real t1,
                                              std::span<Real> y,
                                              const AdaptiveOptions& opts,
                                              AdaptiveCursor& cursor,
                                              const SliceBudget& budget,
                                              Workspace& ws,
                                              Observer&& observe = {}) {
  // Classic RKF45 (Fehlberg) tableau.
  static constexpr Real a21 = 1.0 / 4.0;
  static constexpr Real a31 = 3.0 / 32.0, a32 = 9.0 / 32.0;
  static constexpr Real a41 = 1932.0 / 2197.0, a42 = -7200.0 / 2197.0,
                        a43 = 7296.0 / 2197.0;
  static constexpr Real a51 = 439.0 / 216.0, a52 = -8.0, a53 = 3680.0 / 513.0,
                        a54 = -845.0 / 4104.0;
  static constexpr Real a61 = -8.0 / 27.0, a62 = 2.0, a63 = -3544.0 / 2565.0,
                        a64 = 1859.0 / 4104.0, a65 = -11.0 / 40.0;
  static constexpr Real b41 = 25.0 / 216.0, b43 = 1408.0 / 2565.0,
                        b44 = 2197.0 / 4104.0, b45 = -1.0 / 5.0;
  static constexpr Real b51 = 16.0 / 135.0, b53 = 6656.0 / 12825.0,
                        b54 = 28561.0 / 56430.0, b55 = -9.0 / 50.0,
                        b56 = 2.0 / 55.0;
  static constexpr Real c2 = 1.0 / 4.0, c3 = 3.0 / 8.0, c4 = 12.0 / 13.0,
                        c6 = 1.0 / 2.0;

  const std::size_t n = y.size();
  const auto ws_scope = ws.scope();
  std::span<Real> stages = ws.real(8 * n);
  auto k1 = stages.subspan(0, n), k2 = stages.subspan(n, n),
       k3 = stages.subspan(2 * n, n), k4 = stages.subspan(3 * n, n),
       k5 = stages.subspan(4 * n, n), k6 = stages.subspan(5 * n, n),
       tmp = stages.subspan(6 * n, n), y5 = stages.subspan(7 * n, n);

  if (!cursor.initialized) {
    cursor.t = t0;
    cursor.dt = std::clamp(opts.initial_dt, opts.min_dt, opts.max_dt);
    cursor.initialized = true;
  }

  const detail::SliceClock clock(budget);
  AdaptiveSliceOutcome out;
  AdaptiveResult res;
  res.accepted_steps = static_cast<std::size_t>(cursor.accepted);
  res.rejected_steps = static_cast<std::size_t>(cursor.rejected);
  Real t = cursor.t;
  Real dt = cursor.dt;
  out.done = true;  // cleared below if the budget interrupts the loop

  while (t < t1) {
    if (res.accepted_steps >= opts.max_steps) {
      res.hit_step_limit = true;
      break;
    }
    if (clock.exhausted(out.attempts_taken)) {
      out.done = false;
      break;
    }
    dt = std::min(dt, t1 - t);

    f.rhs(t, y, k1);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + dt * a21 * k1[i];
    f.rhs(t + c2 * dt, tmp, k2);
    for (std::size_t i = 0; i < n; ++i)
      tmp[i] = y[i] + dt * (a31 * k1[i] + a32 * k2[i]);
    f.rhs(t + c3 * dt, tmp, k3);
    for (std::size_t i = 0; i < n; ++i)
      tmp[i] = y[i] + dt * (a41 * k1[i] + a42 * k2[i] + a43 * k3[i]);
    f.rhs(t + c4 * dt, tmp, k4);
    for (std::size_t i = 0; i < n; ++i)
      tmp[i] =
          y[i] + dt * (a51 * k1[i] + a52 * k2[i] + a53 * k3[i] + a54 * k4[i]);
    f.rhs(t + dt, tmp, k5);
    for (std::size_t i = 0; i < n; ++i)
      tmp[i] = y[i] + dt * (a61 * k1[i] + a62 * k2[i] + a63 * k3[i] +
                            a64 * k4[i] + a65 * k5[i]);
    f.rhs(t + c6 * dt, tmp, k6);

    // 4th- and 5th-order solutions; the difference estimates the local error.
    Real err_norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Real y4 =
          y[i] + dt * (b41 * k1[i] + b43 * k3[i] + b44 * k4[i] + b45 * k5[i]);
      y5[i] = y[i] + dt * (b51 * k1[i] + b53 * k3[i] + b54 * k4[i] +
                           b55 * k5[i] + b56 * k6[i]);
      const Real scale = opts.abs_tol +
                         opts.rel_tol * std::max(std::abs(y[i]), std::abs(y5[i]));
      const Real e = (y5[i] - y4) / scale;
      err_norm += e * e;
    }
    err_norm = std::sqrt(err_norm / static_cast<Real>(n));

    ++out.attempts_taken;
    bool observer_stop = false;
    if (err_norm <= 1.0 || dt <= opts.min_dt) {
      // Accept (forcibly when already at the minimum step).
      t += dt;
      std::copy(y5.begin(), y5.end(), y.begin());
      ++res.accepted_steps;
      if constexpr (detail::kHasObserver<Observer>) {
        if (!observe(t, std::span<const Real>(y))) {
          res.stopped_by_observer = true;
          observer_stop = true;
        }
      }
    } else {
      ++res.rejected_steps;
    }

    const Real factor =
        (err_norm > 0.0) ? std::clamp(0.9 * std::pow(err_norm, -0.2), 0.2, 5.0)
                         : 5.0;
    dt = std::clamp(dt * factor, opts.min_dt, opts.max_dt);
    if (observer_stop) break;
  }

  cursor.t = t;
  cursor.dt = dt;
  cursor.accepted = res.accepted_steps;
  cursor.rejected = res.rejected_steps;
  res.t_final = t;
  out.result = res;
  return out;
}

/// Adaptive RKF45 driver with PI-free classic step control (factor clamped to
/// [0.2, 5]). All stage storage comes from the workspace. Implemented as a
/// single unlimited slice of integrate_adaptive_slice.
template <DynamicsKernel Kernel, typename Observer = NoObserver>
AdaptiveResult integrate_adaptive(Kernel& f, Real t0, Real t1,
                                  std::span<Real> y,
                                  const AdaptiveOptions& opts, Workspace& ws,
                                  Observer&& observe = {}) {
  AdaptiveCursor cursor;
  return integrate_adaptive_slice(f, t0, t1, y, opts, cursor, SliceBudget{},
                                  ws, std::forward<Observer>(observe))
      .result;
}

}  // namespace rebooting::core
