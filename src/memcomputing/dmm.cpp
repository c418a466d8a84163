#include "memcomputing/dmm.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "telemetry/telemetry.h"

namespace rebooting::memcomputing {

DmmSolver::DmmSolver(const Cnf& cnf, DmmOptions options)
    : opts_(options), n_(cnf.num_variables()) {
  const std::size_t m = cnf.num_clauses();
  if (n_ == 0 || m == 0)
    throw std::invalid_argument("DmmSolver: empty formula");
  std::size_t literals = 0;
  for (const Clause& c : cnf.clauses()) literals += c.literals.size();
  constexpr std::size_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();
  if (n_ > kMaxIndex || m > kMaxIndex || literals > kMaxIndex)
    throw std::invalid_argument("DmmSolver: formula too large");

  start_.reserve(m + 1);
  var_.reserve(literals);
  q_.reserve(literals);
  weight_.reserve(m);
  occ_start_.assign(n_ + 1, 0);
  width3_ = true;
  start_.push_back(0);
  for (const Clause& c : cnf.clauses()) {
    for (const Literal lit : c.literals) {
      const auto var = static_cast<std::uint32_t>(std::abs(lit)) - 1;
      var_.push_back(var);
      q_.push_back(lit > 0 ? 1.0 : -1.0);
      ++occ_start_[var + 1];
    }
    start_.push_back(static_cast<std::uint32_t>(var_.size()));
    weight_.push_back(c.weight);
    width3_ = width3_ && c.literals.size() == 3;
  }

  // Occurrence counts -> offsets, then scatter each literal into its
  // variable's list; scanning clauses in order keeps every list in order.
  for (std::size_t i = 0; i < n_; ++i) occ_start_[i + 1] += occ_start_[i];
  occ_clause_.resize(literals);
  occ_positive_.resize(literals);
  std::vector<std::uint32_t> next(occ_start_.begin(), occ_start_.end() - 1);
  for (std::uint32_t c = 0; c < m; ++c) {
    for (std::uint32_t j = start_[c]; j < start_[c + 1]; ++j) {
      const std::uint32_t o = next[var_[j]]++;
      occ_clause_[o] = c;
      occ_positive_[o] = q_[j] > 0.0 ? 1 : 0;
    }
  }
}

// The one clause sweep of Eqs. 1-2. The packed state is y = [v | xs | xl]
// (n voltages, then m fast memories, then m slow memories) and dydt is laid
// out the same way. The parameters and array bases are __restrict locals, so
// a store to dv[...] cannot force a reload of v, q or the clause's memories,
// and the running smallest / second-smallest (1 - q v) and its index are
// selects, not an if / else-if chain. With K = 3 the literal loops have a
// fixed trip count and unroll; K = 0 reads each width from start_. Every
// expression, and the clause order of the dv[var] += updates, must stay
// that of the reference loop in tests/memcomputing/test_dmm.cpp
// (DmmOracle): the trajectory is bit-identical to it for either K.
template <std::size_t K>
Real DmmSolver::sweep(const Real* __restrict y, Real* __restrict dydt) const {
  const std::size_t n = n_;
  const std::size_t m = weight_.size();
  const Real* __restrict v = y;
  const Real* __restrict xs = y + n;
  const Real* __restrict xl = y + n + m;
  Real* __restrict dv = dydt;
  Real* __restrict dxs = dydt + n;
  Real* __restrict dxl = dydt + n + m;
  const std::uint32_t* __restrict start = start_.data();
  const std::uint32_t* __restrict var = var_.data();
  const Real* __restrict q = q_.data();
  const Real* __restrict weight = weight_.data();
  const DmmParams& p = opts_.params;
  const Real alpha = p.alpha, beta = p.beta, gamma = p.gamma;
  const Real delta = p.delta, epsilon = p.epsilon, zeta = p.zeta;
  const bool rigidity = p.rigidity;
  const bool long_term_memory = p.long_term_memory;

  std::fill(dv, dv + n, 0.0);
  Real energy = 0.0;
  for (std::size_t cm = 0; cm < m; ++cm) {
    const std::size_t lo = K > 0 ? K * cm : start[cm];
    const std::size_t k = K > 0 ? K : start[cm + 1] - lo;
    const std::uint32_t* const cvar = var + lo;
    const Real* const cq = q + lo;

    // Smallest and second-smallest (1 - q v) over the clause's literals.
    Real min1 = 2.0, min2 = 2.0;
    std::size_t arg1 = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const Real s = 1.0 - cq[i] * v[cvar[i]];
      const bool below1 = s < min1;
      const bool below2 = s < min2;
      min2 = below1 ? min1 : (below2 ? s : min2);
      min1 = below1 ? s : min1;
      arg1 = below1 ? i : arg1;
    }
    const Real cmeas = 0.5 * min1;  // C_m in [0, 1]
    energy += cmeas;

    const Real gate_g = xl[cm] * xs[cm];
    const Real gate_r = (1.0 + zeta * xl[cm]) * (1.0 - xs[cm]);
    const Real w = weight[cm];
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint32_t vi = cvar[i];
      const bool critical = i == arg1;
      // Gradient-like term: push literal i toward satisfaction, scaled by
      // how far the *other* literals are from satisfying the clause.
      const Real min_excl = critical ? min2 : min1;
      const Real g_term = 0.5 * cq[i] * min_excl;
      // Rigidity holds the critical literal at its target.
      const Real r_term =
          rigidity && critical ? 0.5 * (cq[i] - v[vi]) : 0.0;
      dv[vi] += w * (gate_g * g_term + gate_r * r_term);
    }

    dxs[cm] = beta * (xs[cm] + epsilon) * (cmeas - gamma);
    dxl[cm] = long_term_memory ? alpha * (cmeas - delta) : 0.0;
  }
  return energy;
}

std::size_t DmmSolver::count_true_literals(std::span<const unsigned char> sign,
                                           std::span<Real> true_count) const {
  std::size_t unsat = 0;
  for (std::size_t c = 0; c < weight_.size(); ++c) {
    std::uint32_t count = 0;
    for (std::uint32_t j = start_[c]; j < start_[c + 1]; ++j)
      count += (sign[var_[j]] != 0) == (q_[j] > 0.0);
    true_count[c] = count;
    unsat += count == 0;
  }
  return unsat;
}

Real DmmSolver::unsatisfied_weight(std::span<const Real> true_count) const {
  Real total = 0.0;
  for (std::size_t c = 0; c < weight_.size(); ++c)
    if (true_count[c] == 0.0) total += weight_[c];
  return total;
}

namespace {

// Checkpoint layout for tag "dmm". The packed state vector [v | xs | xl]
// lives in Checkpoint::state; everything else fans out over the envelope's
// side channels at the fixed offsets below. All of it together is the
// *entire* mutable state of the solve loop, which is what makes a resumed
// trajectory bit-identical to an uninterrupted one.
constexpr const char kDmmTag[] = "dmm";
// flags: [finished, satisfied, hit_limit, sign_bit[n], best assignment[n+1]]
constexpr std::size_t kFlagFinished = 0;
constexpr std::size_t kFlagSatisfied = 1;
constexpr std::size_t kFlagHitLimit = 2;
constexpr std::size_t kFlagSign = 3;
// counters: [steps_to_best, best_unsatisfied, n, m, avalanche sizes...]
constexpr std::size_t kCtrStepsToBest = 0;
constexpr std::size_t kCtrBestUnsat = 1;
constexpr std::size_t kCtrVars = 2;
constexpr std::size_t kCtrClauses = 3;
constexpr std::size_t kCtrTail = 4;
// aux: [best_weight, max_abs_voltage, final weight, energy trace...]
constexpr std::size_t kAuxBestWeight = 0;
constexpr std::size_t kAuxMaxAbsV = 1;
constexpr std::size_t kAuxFinalWeight = 2;
constexpr std::size_t kAuxTail = 3;

}  // namespace

DmmResult DmmSolver::solve(core::Rng& rng) const {
  std::vector<Real> v0(n_);
  for (Real& v : v0) v = rng.uniform(-1.0, 1.0);
  return solve_from(std::move(v0), rng);
}

DmmResult DmmSolver::solve_from(std::vector<Real> v0, core::Rng& rng) const {
  // One lazily grown arena per thread keeps the legacy signature
  // allocation-free after its first call.
  thread_local core::Workspace ws;
  return solve_from(std::move(v0), rng, ws);
}

DmmResult DmmSolver::solve_from(std::vector<Real> v0, core::Rng& rng,
                                core::Workspace& ws) const {
  // One unlimited slice is exactly the uninterrupted solve; the caller's
  // generator is advanced past the noise draws via the checkpoint, keeping
  // the legacy by-reference RNG contract.
  core::Checkpoint ckpt = begin(std::move(v0), rng);
  DmmSliceOutcome out = advance(ckpt, core::SliceBudget{}, ws);
  rng = core::Rng::restore(ckpt.rng);
  return std::move(out.result);
}

core::Checkpoint DmmSolver::begin(std::vector<Real> v0,
                                  const core::Rng& rng) const {
  const std::size_t n = n_;
  const std::size_t m = weight_.size();
  if (v0.size() != n)
    throw std::invalid_argument("DmmSolver::begin: bad v0 size");

  core::Checkpoint ckpt;
  ckpt.tag = kDmmTag;
  ckpt.rng = rng.save();
  ckpt.state.resize(n + 2 * m);
  std::copy(v0.begin(), v0.end(), ckpt.state.begin());
  std::fill(ckpt.state.begin() + n, ckpt.state.begin() + n + m, 0.5);
  std::fill(ckpt.state.begin() + n + m, ckpt.state.end(), 1.0);
  ckpt.flags.assign(kFlagSign + n + (n + 1), 0);
  for (std::size_t i = 0; i < n; ++i)
    ckpt.flags[kFlagSign + i] = v0[i] > 0.0 ? 1 : 0;
  ckpt.counters.assign(kCtrTail, 0);
  ckpt.counters[kCtrBestUnsat] = m;
  ckpt.counters[kCtrVars] = n;
  ckpt.counters[kCtrClauses] = m;
  ckpt.aux.assign(kAuxTail, 0.0);
  ckpt.aux[kAuxBestWeight] = -1.0;  // negative = nothing recorded yet

  // Initial digital readout, identical to the head of the classic solve: it
  // seeds best_unsatisfied / best assignment (the sign bits of v0), and may
  // finish the trajectory outright when v0 already satisfies the formula.
  std::vector<Real> true_count(m);
  const std::size_t unsat = count_true_literals(
      std::span(ckpt.flags).subspan(kFlagSign, n), true_count);
  ckpt.counters[kCtrBestUnsat] = unsat;
  ckpt.aux[kAuxBestWeight] = opts_.maxsat_mode
                                 ? unsatisfied_weight(true_count)
                                 : static_cast<Real>(unsat);
  std::copy_n(ckpt.flags.begin() + kFlagSign, n,
              ckpt.flags.begin() + kFlagSign + n + 1);
  if (unsat == 0) {
    ckpt.flags[kFlagFinished] = 1;
    ckpt.flags[kFlagSatisfied] = 1;
    ckpt.counters[kCtrBestUnsat] = 0;
    ckpt.aux[kAuxFinalWeight] = 0.0;
  }
  return ckpt;
}

DmmResult DmmSolver::result_from_checkpoint(
    const core::Checkpoint& ckpt) const {
  const std::size_t n = n_;
  const std::size_t m = weight_.size();
  if (ckpt.tag != kDmmTag || ckpt.counters.size() < kCtrTail ||
      ckpt.counters[kCtrVars] != n || ckpt.counters[kCtrClauses] != m ||
      ckpt.flags.size() != kFlagSign + n + (n + 1) ||
      ckpt.state.size() != n + 2 * m || ckpt.aux.size() < kAuxTail)
    throw std::invalid_argument(
        "DmmSolver::result_from_checkpoint: foreign or corrupt checkpoint");
  if (!ckpt.flags[kFlagFinished])
    throw std::invalid_argument(
        "DmmSolver::result_from_checkpoint: trajectory not finished");

  DmmResult result;
  result.satisfied = ckpt.flags[kFlagSatisfied] != 0;
  result.hit_limit = ckpt.flags[kFlagHitLimit] != 0;
  result.steps = static_cast<std::size_t>(ckpt.step);
  result.steps_to_best = static_cast<std::size_t>(ckpt.counters[kCtrStepsToBest]);
  result.sim_time = ckpt.t;
  result.best_unsatisfied = static_cast<std::size_t>(ckpt.counters[kCtrBestUnsat]);
  result.best_unsatisfied_weight = ckpt.aux[kAuxFinalWeight];
  result.max_abs_voltage = ckpt.aux[kAuxMaxAbsV];
  result.assignment.assign(n + 1, false);
  for (std::size_t i = 0; i <= n; ++i)
    result.assignment[i] = ckpt.flags[kFlagSign + n + i] != 0;
  result.energy_trace.assign(ckpt.aux.begin() + kAuxTail, ckpt.aux.end());
  result.avalanche_sizes.clear();
  for (std::size_t i = kCtrTail; i < ckpt.counters.size(); ++i)
    result.avalanche_sizes.push_back(
        static_cast<std::size_t>(ckpt.counters[i]));
  return result;
}

DmmSliceOutcome DmmSolver::advance(core::Checkpoint& ckpt,
                                   const core::SliceBudget& budget,
                                   core::Workspace& ws) const {
  TELEM_SPAN("dmm.solve");
  TELEM_TRACE_SCOPE("dmm.solve");
  const std::size_t n = n_;
  const std::size_t m = weight_.size();
  if (ckpt.tag != kDmmTag || ckpt.counters.size() < kCtrTail ||
      ckpt.counters[kCtrVars] != n || ckpt.counters[kCtrClauses] != m ||
      ckpt.flags.size() != kFlagSign + n + (n + 1) ||
      ckpt.state.size() != n + 2 * m || ckpt.aux.size() < kAuxTail)
    throw std::invalid_argument(
        "DmmSolver::advance: foreign or corrupt checkpoint");

  DmmSliceOutcome out;
  if (ckpt.flags[kFlagFinished]) {
    out.done = true;
    out.result = result_from_checkpoint(ckpt);
    return out;
  }

  const DmmParams& p = opts_.params;
  // Hoisted enable check: the integration loop below runs up to max_steps
  // (millions) iterations; per-step telemetry must cost nothing when off.
  const bool telem = telemetry::Telemetry::enabled();
  std::size_t dt_clamped_min = 0;
  std::size_t dt_clamped_max = 0;
  // Stride for the clause-energy trajectory histogram — full per-step
  // recording would dominate the solve at registry-lock granularity.
  constexpr std::size_t kEnergyTelemStride = 64;

  // All integration scratch comes from the workspace: packed state y, its
  // derivative, the digital sign bits and each clause's count of true
  // literals under them (small integers, exact in a Real). The Scope
  // recycles the blocks for the next slice on this thread; resumable state
  // is copied in from the checkpoint here and copied back out at every slice
  // boundary. The counts are not parked: they are a function of the sign
  // bits, rebuilt here.
  const auto ws_scope = ws.scope();
  const std::span<Real> y = ws.real(n + 2 * m);
  const std::span<Real> dydt = ws.real(n + 2 * m);
  const std::span<unsigned char> sign_bit = ws.bytes(n);
  const std::span<Real> true_count = ws.real(m);

  const auto v = y.first(n);
  const auto xs = y.subspan(n, m);
  const auto xl = y.subspan(n + m, m);
  const auto dv = dydt.first(n);
  const auto dxs = dydt.subspan(n, m);
  const auto dxl = dydt.subspan(n + m, m);

  std::copy(ckpt.state.begin(), ckpt.state.end(), y.begin());
  std::copy(ckpt.flags.begin() + kFlagSign,
            ckpt.flags.begin() + kFlagSign + n, sign_bit.begin());
  // Invariant from here on: unsat == the number of zeros in true_count, and
  // true_count[c] == clause c's true literals under sign_bit.
  std::size_t unsat = count_true_literals(sign_bit, true_count);

  core::Rng rng = core::Rng::restore(ckpt.rng);

  DmmResult result;
  result.steps = static_cast<std::size_t>(ckpt.step);
  result.sim_time = ckpt.t;
  result.steps_to_best = static_cast<std::size_t>(ckpt.counters[kCtrStepsToBest]);
  result.best_unsatisfied = static_cast<std::size_t>(ckpt.counters[kCtrBestUnsat]);
  result.max_abs_voltage = ckpt.aux[kAuxMaxAbsV];
  result.energy_trace.assign(ckpt.aux.begin() + kAuxTail, ckpt.aux.end());
  for (std::size_t i = kCtrTail; i < ckpt.counters.size(); ++i)
    result.avalanche_sizes.push_back(
        static_cast<std::size_t>(ckpt.counters[i]));
  result.assignment.assign(n + 1, false);
  for (std::size_t i = 0; i <= n; ++i)
    result.assignment[i] = ckpt.flags[kFlagSign + n + i] != 0;
  Real best_weight = ckpt.aux[kAuxBestWeight];

  const std::size_t steps_at_entry = result.steps;

  // Counter dump on every return path (finished or preempted), while the
  // dmm.solve span is still open. Only this slice's step delta is added so
  // sliced and unsliced runs report identical totals.
  struct TelemFlush {
    const DmmResult& result;
    std::size_t entry_steps;
    const std::size_t& clamped_min;
    const std::size_t& clamped_max;
    std::size_t clauses;
    ~TelemFlush() {
      if (!telemetry::Telemetry::enabled()) return;
      const auto slice_steps =
          static_cast<Real>(result.steps - entry_steps);
      auto& metrics = telemetry::Telemetry::instance().metrics();
      metrics.add("dmm.steps", slice_steps);
      // One full clause sweep (all dv/dxs/dxl derivatives) per step.
      metrics.add("dmm.rhs_evals", slice_steps);
      metrics.add("dmm.clause_rhs_evals",
                  slice_steps * static_cast<Real>(clauses));
      metrics.add("dmm.dt_clamped_min", static_cast<Real>(clamped_min));
      metrics.add("dmm.dt_clamped_max", static_cast<Real>(clamped_max));
      metrics.set("dmm.best_unsatisfied",
                  static_cast<Real>(result.best_unsatisfied));
    }
  } telem_flush{result, steps_at_entry, dt_clamped_min, dt_clamped_max, m};

  // Variable i's sign became s: move the true-literal count of every clause
  // it occurs in, and the unsatisfied count with them (make / break).
  const std::uint32_t* const occ_start = occ_start_.data();
  const std::uint32_t* const occ_clause = occ_clause_.data();
  const unsigned char* const occ_positive = occ_positive_.data();
  const auto flip = [&](std::size_t i, unsigned char s) {
    for (std::uint32_t o = occ_start[i]; o < occ_start[i + 1]; ++o) {
      Real& count = true_count[occ_clause[o]];
      if (occ_positive[o] == s)
        unsat -= count++ == 0.0;
      else
        unsat += --count == 0.0;
    }
  };

  // The digital readout: the unsatisfied count is already current; the
  // sign bits are copied out only when the best improves.
  const auto evaluate_assignment = [&]() {
    TELEM_SPAN("dmm.evaluate_assignment");
    result.best_unsatisfied = std::min(result.best_unsatisfied, unsat);
    const Real w = opts_.maxsat_mode ? unsatisfied_weight(true_count)
                                     : static_cast<Real>(unsat);
    if (best_weight < 0.0 || w < best_weight) {
      best_weight = w;
      for (std::size_t i = 0; i < n; ++i)
        result.assignment[i + 1] = sign_bit[i] != 0;
      result.steps_to_best = result.steps;
    }
  };

  const Real xl_ceiling = p.xl_max * static_cast<Real>(m);
  const core::detail::SliceClock clock(budget);
  bool finished = false;

  for (std::size_t step = result.steps; step < opts_.max_steps; ++step) {
    if (clock.exhausted(step - steps_at_entry)) break;
    const Real clause_energy = width3_ ? sweep<3>(y.data(), dydt.data())
                                       : sweep<0>(y.data(), dydt.data());

    // Adaptive forward-Euler step from the largest voltage rate.
    Real max_rate = 0.0;
    for (const Real r : dv) max_rate = std::max(max_rate, std::abs(r));
    const Real dt_wanted = (max_rate > 0.0) ? p.dv_cap / max_rate : p.dt_max;
    const Real dt = std::clamp(dt_wanted, p.dt_min, p.dt_max);
    // The step-control analogue of acceptance/rejection in this scheme: a
    // clamp at dt_min means the dv_cap error target was overridden.
    dt_clamped_min += dt_wanted < p.dt_min;
    dt_clamped_max += dt_wanted > p.dt_max;
    const Real noise_scale =
        p.noise_stddev > 0.0 ? p.noise_stddev * std::sqrt(dt) : 0.0;

    std::size_t flips = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Real nv = v[i] + dt * dv[i];
      if (noise_scale > 0.0) nv += noise_scale * rng.normal();
      v[i] = std::clamp(nv, -1.0, 1.0);
      result.max_abs_voltage = std::max(result.max_abs_voltage, std::abs(v[i]));
      const unsigned char s = v[i] > 0.0 ? 1 : 0;
      if (s != sign_bit[i]) {
        sign_bit[i] = s;
        ++flips;
        flip(i, s);
      }
    }
    for (std::size_t cm = 0; cm < m; ++cm) {
      xs[cm] = std::clamp(xs[cm] + dt * dxs[cm], 0.0, 1.0);
      xl[cm] = std::clamp(xl[cm] + dt * dxl[cm], 1.0, xl_ceiling);
    }

    result.sim_time += dt;
    ++result.steps;
    if (opts_.track_avalanches && flips > 0)
      result.avalanche_sizes.push_back(flips);
    if (opts_.energy_stride > 0 && step % opts_.energy_stride == 0)
      result.energy_trace.push_back(clause_energy);
    if (step % kEnergyTelemStride == 0) {
      if (telem)
        telemetry::Telemetry::instance().metrics().record(
            "dmm.clause_energy", clause_energy);
      // Same decimation keeps the timeline's energy track bounded: one
      // sample per 64 integration steps, not one per step.
      TELEM_TRACE_COUNTER("dmm.clause_energy", clause_energy);
    }

    // The digital readout only changes when some voltage crossed zero.
    if (flips > 0) {
      evaluate_assignment();
      if (unsat == 0 && !opts_.maxsat_mode) {
        result.satisfied = true;
        result.best_unsatisfied = 0;
        result.best_unsatisfied_weight = 0.0;
        finished = true;
        break;
      }
    }
  }

  if (!finished && result.steps >= opts_.max_steps) {
    result.hit_limit = true;
    result.satisfied = result.best_unsatisfied == 0;
    result.best_unsatisfied_weight =
        opts_.maxsat_mode ? std::max(best_weight, 0.0)
                          : static_cast<Real>(result.best_unsatisfied);
    finished = true;
  }

  // Park the trajectory: every mutable of the loop above goes back into the
  // checkpoint, so the next advance — anywhere — continues seamlessly.
  ckpt.step = result.steps;
  ckpt.t = result.sim_time;
  std::copy(y.begin(), y.end(), ckpt.state.begin());
  std::copy(sign_bit.begin(), sign_bit.end(), ckpt.flags.begin() + kFlagSign);
  for (std::size_t i = 0; i <= n; ++i)
    ckpt.flags[kFlagSign + n + i] = result.assignment[i] ? 1 : 0;
  ckpt.counters.resize(kCtrTail);
  ckpt.counters[kCtrStepsToBest] = result.steps_to_best;
  ckpt.counters[kCtrBestUnsat] = result.best_unsatisfied;
  for (const std::size_t flips : result.avalanche_sizes)
    ckpt.counters.push_back(flips);
  ckpt.aux.resize(kAuxTail);
  ckpt.aux[kAuxBestWeight] = best_weight;
  ckpt.aux[kAuxMaxAbsV] = result.max_abs_voltage;
  ckpt.aux[kAuxFinalWeight] = result.best_unsatisfied_weight;
  ckpt.aux.insert(ckpt.aux.end(), result.energy_trace.begin(),
                  result.energy_trace.end());
  ckpt.rng = rng.save();
  if (finished) {
    ckpt.flags[kFlagFinished] = 1;
    ckpt.flags[kFlagSatisfied] = result.satisfied ? 1 : 0;
    ckpt.flags[kFlagHitLimit] = result.hit_limit ? 1 : 0;
    out.done = true;
    out.result = std::move(result);
  }
  return out;
}

bool DmmSolver::solve_ensemble_slice(std::size_t restarts,
                                     std::uint64_t base_seed,
                                     const DmmEnsembleOptions& opts,
                                     const core::SliceBudget& budget,
                                     core::EnsembleCheckpoint& ckpt,
                                     DmmEnsembleResult* result) const {
  TELEM_SPAN("dmm.solve_ensemble");
  TELEM_TRACE_SCOPE("dmm.solve_ensemble");
  if (restarts == 0)
    throw std::invalid_argument("solve_ensemble: need >= 1 restart");

  core::EnsembleOptions ropts;
  ropts.threads = opts.threads;
  ropts.telemetry_label = "dmm.ensemble";
  const bool stop_early = opts.stop_on_first_solution && !opts_.maxsat_mode;

  const core::SlicedEnsembleResult run = core::run_ensemble_sliced(
      restarts, ropts, budget,
      ckpt, [&](std::size_t i, core::Checkpoint& traj,
                const core::SliceBudget& slice, core::Workspace& ws) {
        if (traj.tag.empty()) {
          // Fresh restart: all randomness of restart i comes from its
          // counter-based stream — bit-identical at any thread count, any
          // slicing, and across process restarts.
          core::Rng rng = core::Rng::stream(base_seed, i);
          std::vector<Real> v0(n_);
          for (Real& v : v0) v = rng.uniform(-1.0, 1.0);
          traj = begin(std::move(v0), rng);
        }
        const DmmSliceOutcome out = advance(traj, slice, ws);
        core::SliceStatus status;
        status.done = out.done;
        status.request_stop = out.done && stop_early && out.result.satisfied;
        return status;
      });

  if (!run.done) return false;
  if (result == nullptr) return true;

  DmmEnsembleResult er;
  er.results.resize(restarts);
  er.ran.assign(restarts, 0);
  // Completed restarts are recovered from their checkpoints — including ones
  // finished by an earlier invocation, possibly in a different process.
  for (std::size_t i = 0; i < restarts; ++i) {
    if (!ckpt.finished[i]) continue;
    er.results[i] = result_from_checkpoint(ckpt.trajectories[i]);
    er.ran[i] = 1;
  }

  // Winner: scan ascending, so the choice only depends on slots that are
  // guaranteed to have run (everything up to the first satisfying index).
  bool have_best = false;
  Real best_key = 0.0;
  for (std::size_t i = 0; i < restarts; ++i) {
    if (!er.ran[i]) continue;
    const DmmResult& r = er.results[i];
    if (r.satisfied) {
      er.best = r;
      er.best_index = i;
      er.any_satisfied = true;
      break;
    }
    const Real key = opts_.maxsat_mode
                         ? r.best_unsatisfied_weight
                         : static_cast<Real>(r.best_unsatisfied);
    if (!have_best || key < best_key) {
      have_best = true;
      best_key = key;
      er.best = r;
      er.best_index = i;
    }
  }

  er.trajectories = run.stats.trajectories;
  er.threads_used = run.stats.threads_used;
  er.wall_seconds = run.stats.wall_seconds;
  er.trajectories_per_second = run.stats.trajectories_per_second;
  *result = std::move(er);
  return true;
}

DmmEnsembleResult DmmSolver::solve_ensemble(
    std::size_t restarts, std::uint64_t base_seed,
    const DmmEnsembleOptions& opts) const {
  core::EnsembleCheckpoint ckpt;
  DmmEnsembleResult er;
  solve_ensemble_slice(restarts, base_seed, opts, core::SliceBudget{}, ckpt,
                       &er);
  return er;
}

}  // namespace rebooting::memcomputing
