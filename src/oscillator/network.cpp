#include "oscillator/network.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/dynamics.h"
#include "core/linalg.h"
#include "telemetry/telemetry.h"

namespace rebooting::oscillator {

namespace {

// Static-dispatch RHS of the node-charge equations. The state is
// [node voltages | series-branch capacitor voltages]; the VO2 phases are
// *not* part of the continuous state — the simulate loop owns them and flips
// them between steps, so within one step the kernel sees frozen
// conductances (`g_dev`, refreshed by the loop when a device flips).
//
// The branches come as a flat table in insertion order (`vc` = state index
// of a series branch's capacitor, kParallel for a parallel branch); the
// node accumulations run in that order. kAllSeries is the diagonal path:
// with no bridging capacitor the capacitance matrix is c_node * I, and the
// node rates are the currents divided by c_node (DESIGN.md §17). Otherwise
// the rates come from the LU solve of the capacitance matrix.
constexpr std::size_t kParallel = static_cast<std::size_t>(-1);

template <bool kAllSeries>
struct NetworkKernel {
  std::size_t n;
  std::size_t n_branches;
  Real vdd;
  Real c_node;
  const Real* g_dev;  ///< VO2 conductance per node, 1/R of its phase
  const Real* g_tr;   ///< transistor conductance per node
  const std::size_t* br_a;
  const std::size_t* br_b;
  const std::size_t* br_vc;
  const Real* br_r;
  const Real* br_c;
  const core::LuFactorization* cap_lu;  ///< unused on the diagonal path
  std::span<Real> lu_scratch;

  void rhs(Real /*t*/, std::span<const Real> state,
           std::span<Real> rate) const {
    const Real* __restrict s = state.data();
    Real* __restrict ds = rate.data();
    const Real* __restrict gd = g_dev;
    const Real* __restrict gt = g_tr;
    // Currents into each node: VO2 charging minus MOSFET discharge...
    for (std::size_t i = 0; i < n; ++i)
      ds[i] = (vdd - s[i]) * gd[i] - s[i] * gt[i];
    // ...plus the coupling branch currents.
    const std::size_t* __restrict ba = br_a;
    const std::size_t* __restrict bb = br_b;
    const std::size_t* __restrict bvc = br_vc;
    const Real* __restrict br = br_r;
    const Real* __restrict bc = br_c;
    for (std::size_t k = 0; k < n_branches; ++k) {
      const std::size_t a = ba[k];
      const std::size_t b = bb[k];
      const std::size_t vc = bvc[k];
      if (kAllSeries || vc != kParallel) {
        const Real i_branch = (s[a] - s[b] - s[vc]) / br[k];
        ds[a] -= i_branch;
        ds[b] += i_branch;
        ds[vc] = i_branch / bc[k];
      } else {
        const Real i_r = (s[a] - s[b]) / br[k];
        ds[a] -= i_r;
        ds[b] += i_r;
      }
    }
    // Node currents become voltage rates; the series-branch capacitor rates
    // are already final.
    if constexpr (kAllSeries) {
      for (std::size_t i = 0; i < n; ++i) ds[i] /= c_node;
    } else {
      cap_lu->solve_in_place(rate.first(n), lu_scratch);
    }
  }
};

// Checkpoint layout for tag "oscillator":
//   state    = [node voltages | series-branch capacitor voltages]
//   step     = completed integration steps, t = step * opts.dt
//   flags    = [finished, phase[n] (0 = insulating, 1 = metallic)]
//   counters = [hysteresis_events, samples, n, n_series]
//   aux      = packed partial Trace: [time[S] | supply[S] | node0[S] | ...]
// The sampled trace rides inside the checkpoint so a killed-and-resumed run
// reproduces the full Trace, not just the final state.
constexpr const char kOscTag[] = "oscillator";
constexpr std::size_t kFlagFinished = 0;
constexpr std::size_t kFlagPhase = 1;
constexpr std::size_t kCtrHysteresis = 0;
constexpr std::size_t kCtrSamples = 1;
constexpr std::size_t kCtrNodes = 2;
constexpr std::size_t kCtrSeries = 3;
constexpr std::size_t kCtrTail = 4;

// The sample count of a checkpoint whose aux holds exactly samples * (2 + n)
// packed values; throws otherwise. The division-first test also rejects a
// count whose product with (2 + n) would wrap, so no section of aux can be
// read past its end.
std::size_t packed_samples(const core::Checkpoint& ckpt, std::size_t n,
                           const char* who) {
  const std::uint64_t samples = ckpt.counters[kCtrSamples];
  if (samples > ckpt.aux.size() / (2 + n) ||
      samples * (2 + n) != ckpt.aux.size())
    throw std::invalid_argument(std::string(who) +
                                ": trace payload size mismatch");
  return static_cast<std::size_t>(samples);
}

}  // namespace

bool OscillatorParams::sustains_oscillation(Real vgs) const {
  const Real rs = transistor.resistance(vgs);
  // Steady-state voltage across the VO2 in each phase if no switching
  // occurred; oscillation requires the insulating divider to trip the IMT
  // and the metallic divider to drop below the MIT (load line crossing the
  // unstable region, Sec. III-A).
  const Real v_dev_ins = vdd * vo2.r_insulating / (vo2.r_insulating + rs);
  const Real v_dev_met = vdd * vo2.r_metallic / (vo2.r_metallic + rs);
  return v_dev_ins > vo2.v_imt && v_dev_met < vo2.v_mit;
}

CoupledOscillatorNetwork::CoupledOscillatorNetwork(OscillatorParams params,
                                                   std::size_t n)
    : params_(params), vgs_(n, params.transistor.vth + 0.5) {
  if (n == 0)
    throw std::invalid_argument("CoupledOscillatorNetwork: need >= 1 oscillator");
  params_.validate();
}

void CoupledOscillatorNetwork::set_gate_voltage(std::size_t osc, Real vgs) {
  vgs_.at(osc) = vgs;
}

void CoupledOscillatorNetwork::add_coupling(CouplingBranch branch) {
  if (branch.a >= size() || branch.b >= size() || branch.a == branch.b)
    throw std::invalid_argument("add_coupling: bad oscillator indices");
  if (branch.r <= 0.0 || branch.c < 0.0)
    throw std::invalid_argument("add_coupling: need R > 0 and C >= 0");
  if (branch.topology == CouplingTopology::kSeriesRC && branch.c <= 0.0)
    throw std::invalid_argument("add_coupling: series RC needs C > 0");
  branches_.push_back(branch);
}

Trace CoupledOscillatorNetwork::simulate(const SimulationOptions& opts) const {
  // One lazily grown arena per thread keeps the legacy signature
  // allocation-free after its first call.
  thread_local core::Workspace ws;
  return simulate(opts, ws);
}

Trace CoupledOscillatorNetwork::simulate(const SimulationOptions& opts,
                                         core::Workspace& ws) const {
  core::Checkpoint ckpt = begin_simulation(opts);
  simulate_slice(ckpt, opts, core::SliceBudget{}, ws);
  return trace_from_checkpoint(ckpt, opts);
}

core::Checkpoint CoupledOscillatorNetwork::begin_simulation(
    const SimulationOptions& opts) const {
  if (opts.dt <= 0.0 || opts.duration <= 0.0)
    throw std::invalid_argument("simulate: dt and duration must be > 0");
  const std::size_t n = size();
  std::size_t n_series = 0;
  for (const auto& br : branches_)
    if (br.topology == CouplingTopology::kSeriesRC) ++n_series;

  core::Checkpoint ckpt;
  ckpt.tag = kOscTag;
  ckpt.state.assign(n + n_series, 0.0);
  // Start adjacent oscillators half a swing apart (plus a deterministic
  // stagger): the in-phase synchronous orbit of a matched pair is only
  // weakly unstable, and physical arrays settle into the anti-phase locked
  // state (refs [40],[43]); these initial conditions land in that basin
  // without waiting out a long symmetric transient.
  for (std::size_t i = 0; i < n; ++i)
    ckpt.state[i] = opts.initial_offset * static_cast<Real>(i % 2) +
                    1.0e-3 * static_cast<Real>(i + 1);
  ckpt.flags.assign(kFlagPhase + n, 0);  // all insulating, not finished
  ckpt.counters.assign(kCtrTail, 0);
  ckpt.counters[kCtrNodes] = n;
  ckpt.counters[kCtrSeries] = n_series;

  // The t = 0 sample, exactly as the classic simulate records it before the
  // integration loop.
  Real idd = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    idd += (params_.vdd - ckpt.state[i]) /
           params_.vo2.resistance(Vo2Phase::kInsulating);
  ckpt.counters[kCtrSamples] = 1;
  ckpt.aux.reserve(2 + n);
  ckpt.aux.push_back(0.0);  // time
  ckpt.aux.push_back(idd);  // supply current
  for (std::size_t i = 0; i < n; ++i) ckpt.aux.push_back(ckpt.state[i]);
  return ckpt;
}

Trace CoupledOscillatorNetwork::trace_from_checkpoint(
    const core::Checkpoint& ckpt, const SimulationOptions& opts) const {
  const std::size_t n = size();
  if (ckpt.tag != kOscTag || ckpt.counters.size() != kCtrTail ||
      ckpt.counters[kCtrNodes] != n ||
      ckpt.flags.size() != kFlagPhase + n ||
      ckpt.state.size() != n + ckpt.counters[kCtrSeries])
    throw std::invalid_argument(
        "trace_from_checkpoint: foreign or corrupt checkpoint");
  const std::size_t samples =
      packed_samples(ckpt, n, "trace_from_checkpoint");

  const std::size_t stride = std::max<std::size_t>(1, opts.sample_stride);
  Trace trace;
  trace.dt = opts.dt * static_cast<Real>(stride);
  trace.time.assign(ckpt.aux.begin(), ckpt.aux.begin() + samples);
  trace.supply_current.assign(ckpt.aux.begin() + samples,
                              ckpt.aux.begin() + 2 * samples);
  trace.node_voltage.assign(n, {});
  for (std::size_t i = 0; i < n; ++i)
    trace.node_voltage[i].assign(
        ckpt.aux.begin() + (2 + i) * samples,
        ckpt.aux.begin() + (3 + i) * samples);
  return trace;
}

bool CoupledOscillatorNetwork::simulate_slice(core::Checkpoint& ckpt,
                                              const SimulationOptions& opts,
                                              const core::SliceBudget& budget,
                                              core::Workspace& ws) const {
  if (opts.dt <= 0.0 || opts.duration <= 0.0)
    throw std::invalid_argument("simulate: dt and duration must be > 0");
  TELEM_SPAN("oscillator.simulate");
  TELEM_TRACE_SCOPE("oscillator.simulate");

  const std::size_t n = size();
  const std::size_t n_branches = branches_.size();

  // The flat branch table, in insertion order. Series-RC branches carry one
  // extra state each (their capacitor voltage), appended after the node
  // voltages; a parallel branch has vc = kParallel.
  std::vector<std::size_t> br_a(n_branches), br_b(n_branches),
      br_vc(n_branches);
  std::vector<Real> br_r(n_branches), br_c(n_branches);
  std::size_t n_series = 0;
  for (std::size_t k = 0; k < n_branches; ++k) {
    const CouplingBranch& br = branches_[k];
    br_a[k] = br.a;
    br_b[k] = br.b;
    br_vc[k] = br.topology == CouplingTopology::kSeriesRC ? n + n_series++
                                                          : kParallel;
    br_r[k] = br.r;
    br_c[k] = br.c;
  }
  const bool all_series = n_series == n_branches;

  if (ckpt.tag != kOscTag || ckpt.counters.size() != kCtrTail ||
      ckpt.counters[kCtrNodes] != n ||
      ckpt.counters[kCtrSeries] != n_series ||
      ckpt.flags.size() != kFlagPhase + n ||
      ckpt.state.size() != n + n_series)
    throw std::invalid_argument(
        "simulate_slice: foreign or corrupt checkpoint");
  const std::size_t old_samples = packed_samples(ckpt, n, "simulate_slice");
  if (ckpt.flags[kFlagFinished]) return true;

  // Parallel-RC bridging capacitors couple the dV/dt terms, so we assemble
  // the node capacitance matrix
  //   M_ii = c_node + sum of incident bridging Cc,  M_ij = -Cc(i,j)
  // and solve M * dV/dt = I(V) each evaluation with a one-time LU (per
  // slice; the factorization depends only on the immutable wiring). With
  // series branches only, M = c_node * I and the kernel divides instead.
  std::optional<core::LuFactorization> cap_lu;
  if (!all_series) {
    TELEM_SPAN("oscillator.coupling_setup");
    core::Matrix cap(n, n);
    for (std::size_t i = 0; i < n; ++i) cap(i, i) = params_.c_node;
    for (const auto& br : branches_) {
      if (br.topology != CouplingTopology::kParallelRC) continue;
      cap(br.a, br.a) += br.c;
      cap(br.b, br.b) += br.c;
      cap(br.a, br.b) -= br.c;
      cap(br.b, br.a) -= br.c;
    }
    cap_lu.emplace(cap);
  }

  // State, stepper and solve scratch come from the workspace (Heun needs 3x
  // the state size); the resumable state is spliced in from the checkpoint.
  const auto ws_scope = ws.scope();
  const std::span<Real> y = ws.real(n + n_series);
  const std::span<Real> scratch = ws.real(3 * y.size());
  const std::span<Real> lu_scratch =
      all_series ? std::span<Real>{} : ws.real(n);
  std::copy(ckpt.state.begin(), ckpt.state.end(), y.begin());

  // VO2 conductances of the two phases; g_dev[i] holds the one of node i's
  // current phase and changes only when that device flips.
  const Real g_ins = 1.0 / params_.vo2.r_insulating;
  const Real g_met = 1.0 / params_.vo2.r_metallic;
  const auto g_of = [&](Vo2Phase phase) {
    return phase == Vo2Phase::kMetallic ? g_met : g_ins;
  };
  std::vector<Vo2Phase> phases(n);
  std::vector<Real> g_dev(n);
  for (std::size_t i = 0; i < n; ++i) {
    phases[i] = ckpt.flags[kFlagPhase + i] ? Vo2Phase::kMetallic
                                           : Vo2Phase::kInsulating;
    g_dev[i] = g_of(phases[i]);
  }

  // Per-oscillator transistor conductances are constant during a run.
  std::vector<Real> g_tr(n);
  for (std::size_t i = 0; i < n; ++i)
    g_tr[i] = params_.transistor.conductance(vgs_[i]);

  const Real vdd = params_.vdd;

  const auto total_steps =
      static_cast<std::size_t>(std::ceil(opts.duration / opts.dt));
  const std::size_t stride = std::max<std::size_t>(1, opts.sample_stride);
  const auto start_step = static_cast<std::size_t>(ckpt.step);

  // New samples append to the packed per-section trace arrays at the end of
  // the slice; collected locally first so the checkpoint stays consistent
  // if the kernel throws. Reserved for the most this slice can record.
  const std::size_t last_step =
      budget.max_steps == 0
          ? total_steps
          : std::min(total_steps, start_step + budget.max_steps);
  const std::size_t max_new =
      last_step > start_step ? last_step / stride - start_step / stride : 0;
  std::vector<Real> new_time, new_supply;
  std::vector<std::vector<Real>> new_node(n);
  new_time.reserve(max_new);
  new_supply.reserve(max_new);
  for (auto& v : new_node) v.reserve(max_new);

  auto record = [&](Real t) {
    new_time.push_back(t);
    Real idd = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      new_node[i].push_back(y[i]);
      idd += (vdd - y[i]) / params_.vo2.resistance(phases[i]);
    }
    new_supply.push_back(idd);
    // Piggyback on the existing sample decimation (`stride` steps per
    // sample), so the counter track stays bounded like the Trace itself.
    TELEM_TRACE_COUNTER("oscillator.supply_current", idd);
  };

  std::size_t hysteresis_events = 0;
  std::size_t steps_done = 0;
  bool finished = true;
  // One integrate loop, instantiated for the diagonal and the LU kernel.
  const auto integrate = [&](auto all_series_tag) {
    const NetworkKernel<decltype(all_series_tag)::value> kernel{
        n,           n_branches,  vdd,         params_.c_node,
        g_dev.data(), g_tr.data(), br_a.data(), br_b.data(),
        br_vc.data(), br_r.data(), br_c.data(), cap_lu ? &*cap_lu : nullptr,
        lu_scratch};
    TELEM_SPAN("oscillator.integrate");
    TELEM_TRACE_SCOPE("oscillator.integrate");
    const core::detail::SliceClock clock(budget);
    for (std::size_t step = start_step + 1; step <= total_steps; ++step) {
      if (clock.exhausted(steps_done)) {
        finished = false;
        ckpt.step = step - 1;
        break;
      }
      // Drift-free clock: t = step * dt, not an accumulating t += dt (which
      // gains an ulp per step and shifts every sample instant of a
      // million-step run).
      const Real t_prev = static_cast<Real>(step - 1) * opts.dt;
      core::heun_step(kernel, t_prev, opts.dt, y, scratch);
      // Hysteresis events: flip any device whose terminal voltage crossed its
      // threshold during this step. dt is ~2000x smaller than the oscillation
      // period, so boundary-flipping is well inside the integration error.
      for (std::size_t i = 0; i < n; ++i) {
        const Vo2Phase next = params_.vo2.next_phase(phases[i], vdd - y[i]);
        if (next == phases[i]) continue;
        ++hysteresis_events;
        phases[i] = next;
        g_dev[i] = g_of(next);
      }
      if (step % stride == 0) record(static_cast<Real>(step) * opts.dt);
      ++steps_done;
    }
  };
  if (all_series)
    integrate(std::true_type{});
  else
    integrate(std::false_type{});
  if (finished) ckpt.step = total_steps;
  ckpt.t = static_cast<Real>(ckpt.step) * opts.dt;

  // Splice this slice's results back into the checkpoint: state, phases,
  // tallies, and the freshly recorded samples into each packed section.
  std::copy(y.begin(), y.end(), ckpt.state.begin());
  for (std::size_t i = 0; i < n; ++i)
    ckpt.flags[kFlagPhase + i] = phases[i] == Vo2Phase::kMetallic ? 1 : 0;
  ckpt.counters[kCtrHysteresis] += hysteresis_events;
  const std::size_t add = new_time.size();
  if (add > 0) {
    std::vector<Real> packed;
    packed.reserve((old_samples + add) * (2 + n));
    const auto append_section = [&](std::size_t section,
                                    const std::vector<Real>& fresh) {
      packed.insert(packed.end(),
                    ckpt.aux.begin() + section * old_samples,
                    ckpt.aux.begin() + (section + 1) * old_samples);
      packed.insert(packed.end(), fresh.begin(), fresh.end());
    };
    append_section(0, new_time);
    append_section(1, new_supply);
    for (std::size_t i = 0; i < n; ++i) append_section(2 + i, new_node[i]);
    ckpt.aux = std::move(packed);
    ckpt.counters[kCtrSamples] = old_samples + add;
  }
  if (finished) ckpt.flags[kFlagFinished] = 1;

  if (telemetry::Telemetry::enabled()) {
    auto& metrics = telemetry::Telemetry::instance().metrics();
    metrics.add("oscillator.steps", static_cast<Real>(steps_done));
    // Heun evaluates the RHS (node + coupling currents) twice per step.
    metrics.add("oscillator.rhs_evals", static_cast<Real>(2 * steps_done));
    metrics.add("oscillator.coupling_branch_evals",
                static_cast<Real>(2 * steps_done * branches_.size()));
    metrics.add("oscillator.hysteresis_events",
                static_cast<Real>(hysteresis_events));
    metrics.add("oscillator.samples", static_cast<Real>(old_samples + add));
  }
  return finished;
}

Real CoupledOscillatorNetwork::average_power(const Trace& trace,
                                             Real settle_fraction) const {
  if (trace.samples() == 0) return 0.0;
  const auto first = static_cast<std::size_t>(
      settle_fraction * static_cast<Real>(trace.samples()));
  if (first >= trace.samples()) return 0.0;
  Real sum = 0.0;
  for (std::size_t k = first; k < trace.samples(); ++k)
    sum += trace.supply_current[k];
  const Real mean_idd = sum / static_cast<Real>(trace.samples() - first);
  return params_.vdd * mean_idd;
}

RelaxationOscillator::RelaxationOscillator(OscillatorParams params)
    : params_(params) {
  params_.validate();
}

Trace RelaxationOscillator::simulate(Real vgs,
                                     const SimulationOptions& opts) const {
  CoupledOscillatorNetwork net(params_, 1);
  net.set_gate_voltage(0, vgs);
  return net.simulate(opts);
}

}  // namespace rebooting::oscillator
