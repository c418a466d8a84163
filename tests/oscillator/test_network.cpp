#include "oscillator/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/linalg.h"
#include "core/random.h"
#include "oscillator/analysis.h"

namespace rebooting::oscillator {
namespace {

SimulationOptions fast_sim() {
  SimulationOptions so;
  so.duration = 30e-6;
  so.dt = 1e-9;
  so.sample_stride = 4;
  return so;
}

TEST(SingleOscillator, ProducesRelaxationOscillation) {
  RelaxationOscillator osc{OscillatorParams{}};
  const Trace tr = osc.simulate(1.0, fast_sim());
  const Real f = trace_frequency(tr, 0);
  EXPECT_GT(f, 1e6);   // MHz-scale per the VO2 literature
  EXPECT_LT(f, 50e6);
}

TEST(SingleOscillator, FrequencyIncreasesWithVgsInLinearRegion) {
  RelaxationOscillator osc{OscillatorParams{}};
  const Real f_lo = trace_frequency(osc.simulate(0.9, fast_sim()), 0);
  const Real f_hi = trace_frequency(osc.simulate(1.05, fast_sim()), 0);
  EXPECT_GT(f_hi, f_lo);
}

TEST(SingleOscillator, SwingStaysWithinSupply) {
  RelaxationOscillator osc{OscillatorParams{}};
  const Trace tr = osc.simulate(1.0, fast_sim());
  for (const Real v : tr.node_voltage[0]) {
    EXPECT_GE(v, -1e-6);
    EXPECT_LE(v, osc.params().vdd + 1e-6);
  }
}

TEST(SingleOscillator, NoOscillationOutsideLoadLineWindow) {
  OscillatorParams p;
  RelaxationOscillator osc{p};
  // Far above the window the metallic divider no longer releases.
  ASSERT_FALSE(p.sustains_oscillation(2.0));
  const Trace tr = osc.simulate(2.0, fast_sim());
  EXPECT_DOUBLE_EQ(trace_frequency(tr, 0), 0.0);
}

TEST(Network, PowerIsPositiveAndPerOscillatorScale) {
  CoupledOscillatorNetwork net(OscillatorParams{}, 1);
  net.set_gate_voltage(0, 1.0);
  const Trace tr = net.simulate(fast_sim());
  const Real p = net.average_power(tr, 0.3);
  // Tens of microwatts per oscillator (the Sec. III-B power scale).
  EXPECT_GT(p, 5e-6);
  EXPECT_LT(p, 200e-6);
}

TEST(Network, MatchedPairLocksAntiPhase) {
  CoupledOscillatorNetwork net(OscillatorParams{}, 2);
  net.set_gate_voltage(0, 1.0);
  net.set_gate_voltage(1, 1.0);
  net.add_coupling({.a = 0, .b = 1, .r = 15e3, .c = 1e-12});
  SimulationOptions so = fast_sim();
  so.duration = 80e-6;
  const Trace tr = net.simulate(so);
  EXPECT_TRUE(is_locked(tr, 0, 1));
  const Real phase = phase_difference(tr, 0, 1);
  EXPECT_NEAR(phase, core::kPi, 0.5);
}

TEST(Network, DetunedPairStaysLockedInsideRange) {
  CoupledOscillatorNetwork net(OscillatorParams{}, 2);
  net.set_gate_voltage(0, 0.97);
  net.set_gate_voltage(1, 1.03);
  net.add_coupling({.a = 0, .b = 1, .r = 15e3, .c = 1e-12});
  SimulationOptions so = fast_sim();
  so.duration = 80e-6;
  const Trace tr = net.simulate(so);
  EXPECT_TRUE(is_locked(tr, 0, 1));
}

TEST(Network, UncoupledDetunedPairRunsAtDifferentFrequencies) {
  CoupledOscillatorNetwork net(OscillatorParams{}, 2);
  net.set_gate_voltage(0, 0.9);
  net.set_gate_voltage(1, 1.05);
  SimulationOptions so = fast_sim();
  so.duration = 80e-6;
  const Trace tr = net.simulate(so);
  EXPECT_FALSE(is_locked(tr, 0, 1, 1e-3));
}

TEST(Network, ParallelTopologyAlsoSimulates) {
  CoupledOscillatorNetwork net(OscillatorParams{}, 2);
  net.add_coupling({.a = 0, .b = 1, .r = 400e3, .c = 1e-12,
                    .topology = CouplingTopology::kParallelRC});
  const Trace tr = net.simulate(fast_sim());
  EXPECT_GT(trace_frequency(tr, 0), 1e6);
}

TEST(Network, ThreeOscillatorChain) {
  CoupledOscillatorNetwork net(OscillatorParams{}, 3);
  net.add_coupling({.a = 0, .b = 1, .r = 15e3, .c = 1e-12});
  net.add_coupling({.a = 1, .b = 2, .r = 15e3, .c = 1e-12});
  SimulationOptions so = fast_sim();
  so.duration = 60e-6;
  const Trace tr = net.simulate(so);
  // The chain locks to a common frequency.
  EXPECT_TRUE(is_locked(tr, 0, 1, 1e-2));
  EXPECT_TRUE(is_locked(tr, 1, 2, 1e-2));
}

TEST(Network, TraceShapeMatchesOptions) {
  CoupledOscillatorNetwork net(OscillatorParams{}, 2);
  SimulationOptions so = fast_sim();
  const Trace tr = net.simulate(so);
  EXPECT_EQ(tr.oscillators(), 2u);
  EXPECT_EQ(tr.samples(), tr.time.size());
  EXPECT_EQ(tr.supply_current.size(), tr.time.size());
  EXPECT_NEAR(tr.dt, so.dt * static_cast<Real>(so.sample_stride), 1e-15);
}

// Golden-trajectory regression tests: fingerprints captured from the
// pre-kernel std::function implementation. The static-dispatch kernel (and
// the drift-free time grid — the node dynamics are autonomous, so only the
// reported sample times could differ, not the voltages) must reproduce the
// seed waveforms bit-for-bit.
class NetworkGolden : public ::testing::Test {
 protected:
  static Trace run(CouplingTopology topology) {
    CoupledOscillatorNetwork net(OscillatorParams{}, 2);
    net.set_gate_voltage(0, 0.95);
    net.set_gate_voltage(1, 1.05);
    net.add_coupling(
        {.a = 0, .b = 1, .r = 15e3, .c = 1e-12, .topology = topology});
    SimulationOptions so;
    so.duration = 5e-6;
    so.dt = 1e-9;
    so.sample_stride = 4;
    return net.simulate(so);
  }
  static Real sum(const std::vector<Real>& v) {
    Real s = 0.0;
    for (const Real x : v) s += x;
    return s;
  }
};

TEST_F(NetworkGolden, SeriesRcWaveformUnchanged) {
  const Trace tr = run(CouplingTopology::kSeriesRC);
  ASSERT_EQ(tr.samples(), 1251u);
  EXPECT_EQ(sum(tr.node_voltage[0]), 1909.7953089683781);
  EXPECT_EQ(sum(tr.node_voltage[1]), 1885.5753216547409);
  EXPECT_EQ(tr.node_voltage[0].back(), 1.6109489971678781);
  EXPECT_EQ(tr.node_voltage[1].back(), 1.2608751183922264);
  EXPECT_EQ(tr.supply_current.back(), 5.0872423209652297e-05);
}

TEST_F(NetworkGolden, ParallelRcWaveformUnchanged) {
  const Trace tr = run(CouplingTopology::kParallelRC);
  ASSERT_EQ(tr.samples(), 1251u);
  EXPECT_EQ(sum(tr.node_voltage[0]), 2059.7777230630181);
  EXPECT_EQ(sum(tr.node_voltage[1]), 2261.0429121805828);
  EXPECT_EQ(tr.node_voltage[0].back(), 1.6716691681581812);
  EXPECT_EQ(tr.node_voltage[1].back(), 1.8351911865518171);
  EXPECT_EQ(tr.supply_current.back(), 2.7810486114165285e-05);
}

TEST_F(NetworkGolden, SampleTimesSitExactlyOnTheGrid) {
  // The drift-free clock: sample k records t = (k * stride) * dt exactly.
  const Trace tr = run(CouplingTopology::kSeriesRC);
  for (std::size_t k = 0; k < tr.samples(); ++k)
    EXPECT_EQ(tr.time[k], static_cast<Real>(4 * k) * 1e-9) << "k=" << k;
}

TEST_F(NetworkGolden, CallerWorkspaceReproducesThreadLocalPath) {
  const Trace a = run(CouplingTopology::kSeriesRC);
  CoupledOscillatorNetwork net(OscillatorParams{}, 2);
  net.set_gate_voltage(0, 0.95);
  net.set_gate_voltage(1, 1.05);
  net.add_coupling({.a = 0, .b = 1, .r = 15e3, .c = 1e-12});
  SimulationOptions so;
  so.duration = 5e-6;
  so.dt = 1e-9;
  so.sample_stride = 4;
  core::Workspace ws;
  // Two runs from the same (reused) workspace: stale blocks must not leak
  // into the second trajectory.
  const Trace b = net.simulate(so, ws);
  const Trace c = net.simulate(so, ws);
  ASSERT_EQ(b.samples(), a.samples());
  for (std::size_t k = 0; k < a.samples(); ++k) {
    EXPECT_EQ(b.node_voltage[0][k], a.node_voltage[0][k]) << "k=" << k;
    EXPECT_EQ(c.node_voltage[1][k], a.node_voltage[1][k]) << "k=" << k;
  }
}

// Goldens for many-branch and mixed-topology networks, captured from the
// simulator as it stood before the integrate loop was rewritten (dense LU
// capacitance solve on every RHS evaluation, conductances recomputed per
// call). The 16-vertex network has the shape color_graph builds (default
// gates, series 15 kOhm / 1 pF branches, dt = 0.5 ns, offset 0.8) with 36
// branches, so several branches accumulate into each node in insertion
// order; the mixed chain interleaves series and parallel branches.
TEST_F(NetworkGolden, Coloring16SeriesWaveformUnchanged) {
  CoupledOscillatorNetwork net(OscillatorParams{}, 16);
  for (std::size_t i = 0; i < 16; ++i) {
    net.add_coupling({.a = i, .b = (i + 1) % 16, .r = 15e3, .c = 1e-12});
    net.add_coupling({.a = i, .b = (i + 5) % 16, .r = 15e3, .c = 1e-12});
  }
  for (std::size_t i = 0; i < 4; ++i)
    net.add_coupling({.a = i + 8, .b = i, .r = 15e3, .c = 1e-12});
  ASSERT_EQ(net.couplings().size(), 36u);
  SimulationOptions so;
  so.duration = 5e-6;
  so.dt = 0.5e-9;
  so.sample_stride = 4;
  so.initial_offset = 0.8;
  const Trace tr = net.simulate(so);
  ASSERT_EQ(tr.samples(), 2501u);
  const Real golden[16] = {
      3794.7971284859632, 3864.3039601471373, 3794.6684031297673,
      3863.9539008726706, 3793.7874368161379, 3864.4316462877246,
      3793.9648876846763, 3864.4903283592621, 3794.6754739648509,
      3864.3754086030012, 3793.9397713300045, 3864.5063820595542,
      3793.7703167981708, 3864.1636158633069, 3793.8319536249405,
      3864.6913309827337};
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_EQ(sum(tr.node_voltage[i]), golden[i]) << "i=" << i;
  EXPECT_EQ(sum(tr.supply_current), 0.42604895730969916);
  EXPECT_EQ(tr.supply_current.back(), 0.00020426224542743849);
}

TEST_F(NetworkGolden, MixedSeriesParallelChainWaveformUnchanged) {
  CoupledOscillatorNetwork net(OscillatorParams{}, 4);
  const Real vgs[] = {0.95, 1.0, 1.05, 0.9};
  for (std::size_t i = 0; i < 4; ++i) net.set_gate_voltage(i, vgs[i]);
  net.add_coupling({.a = 0, .b = 1, .r = 15e3, .c = 1e-12});
  net.add_coupling({.a = 1, .b = 2, .r = 400e3, .c = 1e-12,
                    .topology = CouplingTopology::kParallelRC});
  net.add_coupling({.a = 2, .b = 3, .r = 20e3, .c = 1.5e-12});
  net.add_coupling({.a = 3, .b = 0, .r = 300e3, .c = 0.5e-12,
                    .topology = CouplingTopology::kParallelRC});
  SimulationOptions so;
  so.duration = 5e-6;
  so.dt = 1e-9;
  so.sample_stride = 4;
  const Trace tr = net.simulate(so);
  ASSERT_EQ(tr.samples(), 1251u);
  EXPECT_EQ(sum(tr.node_voltage[0]), 1810.7868335284454);
  EXPECT_EQ(sum(tr.node_voltage[1]), 1855.1151605641423);
  EXPECT_EQ(sum(tr.node_voltage[2]), 1932.2211009485509);
  EXPECT_EQ(sum(tr.node_voltage[3]), 1891.1181279946093);
  EXPECT_EQ(tr.node_voltage[0].back(), 1.4910306106393332);
  EXPECT_EQ(tr.node_voltage[1].back(), 1.2051421955033306);
  EXPECT_EQ(tr.node_voltage[2].back(), 1.7387552385662772);
  EXPECT_EQ(tr.node_voltage[3].back(), 1.453343436679196);
  EXPECT_EQ(sum(tr.supply_current), 0.058715953670098769);
  EXPECT_EQ(tr.supply_current.back(), 3.5376972453199117e-05);
}

TEST(Network, InvalidCouplingRejected) {
  CoupledOscillatorNetwork net(OscillatorParams{}, 2);
  EXPECT_THROW(net.add_coupling({.a = 0, .b = 0, .r = 1e3, .c = 1e-12}),
               std::invalid_argument);
  EXPECT_THROW(net.add_coupling({.a = 0, .b = 5, .r = 1e3, .c = 1e-12}),
               std::invalid_argument);
  EXPECT_THROW(net.add_coupling({.a = 0, .b = 1, .r = -1.0, .c = 1e-12}),
               std::invalid_argument);
  // Series topology requires a real capacitor.
  EXPECT_THROW(net.add_coupling({.a = 0, .b = 1, .r = 1e3, .c = 0.0,
                                 .topology = CouplingTopology::kSeriesRC}),
               std::invalid_argument);
}

TEST(Network, ZeroOscillatorsRejected) {
  EXPECT_THROW(CoupledOscillatorNetwork(OscillatorParams{}, 0),
               std::invalid_argument);
}

TEST(Network, BadSimulationOptionsRejected) {
  CoupledOscillatorNetwork net(OscillatorParams{}, 1);
  SimulationOptions so = fast_sim();
  so.dt = 0.0;
  EXPECT_THROW(net.simulate(so), std::invalid_argument);
}

// --- sliced execution (DESIGN.md §12): N budgeted slices must rebuild the
// exact Trace of one uninterrupted simulate(), wherever the cuts fall. -----

class NetworkSliced : public ::testing::Test {
 protected:
  // The golden series-RC pair: detuned gates + one series branch exercises
  // the branch-capacitor state, phase flips, and the hysteresis tally.
  static CoupledOscillatorNetwork make_net() {
    CoupledOscillatorNetwork net(OscillatorParams{}, 2);
    net.set_gate_voltage(0, 0.95);
    net.set_gate_voltage(1, 1.05);
    net.add_coupling({.a = 0, .b = 1, .r = 15e3, .c = 1e-12});
    return net;
  }
  static SimulationOptions sim() {
    SimulationOptions so;
    so.duration = 5e-6;
    so.dt = 1e-9;
    so.sample_stride = 4;
    return so;
  }
  static void expect_traces_equal(const Trace& got, const Trace& want) {
    ASSERT_EQ(got.samples(), want.samples());
    ASSERT_EQ(got.oscillators(), want.oscillators());
    EXPECT_EQ(got.dt, want.dt);
    for (std::size_t k = 0; k < want.samples(); ++k) {
      EXPECT_EQ(got.time[k], want.time[k]) << "k=" << k;
      EXPECT_EQ(got.supply_current[k], want.supply_current[k]) << "k=" << k;
      for (std::size_t i = 0; i < want.oscillators(); ++i)
        EXPECT_EQ(got.node_voltage[i][k], want.node_voltage[i][k])
            << "i=" << i << " k=" << k;
    }
  }
};

TEST_F(NetworkSliced, BudgetedSlicesMatchUninterruptedSimulate) {
  const CoupledOscillatorNetwork net = make_net();
  const SimulationOptions so = sim();
  const Trace whole = net.simulate(so);

  for (const std::size_t slice_steps : {1u, 63u, 997u}) {
    core::Workspace ws;
    core::Checkpoint ckpt = net.begin_simulation(so);
    std::size_t slices = 0;
    while (!net.simulate_slice(ckpt, so, core::SliceBudget::steps(slice_steps),
                               ws)) {
      ++slices;
      ASSERT_LE(slices, 100000u);
    }
    EXPECT_GE(slices, 5000u / slice_steps / 2);
    expect_traces_equal(net.trace_from_checkpoint(ckpt, so), whole);
    // A finished checkpoint is idempotent under further slicing.
    EXPECT_TRUE(net.simulate_slice(ckpt, so, core::SliceBudget::steps(1), ws));
    expect_traces_equal(net.trace_from_checkpoint(ckpt, so), whole);
  }
}

TEST_F(NetworkSliced, JsonParkAndResumeMidRunIsExact) {
  const CoupledOscillatorNetwork net = make_net();
  const SimulationOptions so = sim();
  const Trace whole = net.simulate(so);

  core::Workspace ws;
  core::Checkpoint ckpt = net.begin_simulation(so);
  bool done = false;
  while (!done) {
    done = net.simulate_slice(ckpt, so, core::SliceBudget::steps(321), ws);
    // Park through JSON every slice — the crash/resume path of the chaos
    // harness, including the packed partial Trace in aux.
    const auto parked = core::Checkpoint::from_json(ckpt.json_dump());
    ASSERT_TRUE(parked.has_value());
    EXPECT_EQ(*parked, ckpt);
    ckpt = *parked;
  }
  expect_traces_equal(net.trace_from_checkpoint(ckpt, so), whole);
}

TEST_F(NetworkSliced, WallClockBudgetStillFinishesExactly) {
  const CoupledOscillatorNetwork net = make_net();
  SimulationOptions so = sim();
  so.duration = 1e-6;  // 1000 steps
  const Trace whole = net.simulate(so);

  core::Workspace ws;
  core::Checkpoint ckpt = net.begin_simulation(so);
  std::size_t slices = 0;
  // A vanishing wall budget may only move the cut points, never the values,
  // and must still make forward progress every slice.
  while (!net.simulate_slice(ckpt, so, core::SliceBudget::wall(1e-12), ws)) {
    ++slices;
    ASSERT_LE(slices, 2000u);
  }
  expect_traces_equal(net.trace_from_checkpoint(ckpt, so), whole);
}

TEST_F(NetworkSliced, RejectsForeignCheckpoints) {
  const CoupledOscillatorNetwork net = make_net();
  const SimulationOptions so = sim();
  core::Workspace ws;
  core::Checkpoint ckpt;
  ckpt.tag = "dmm";
  EXPECT_THROW(net.simulate_slice(ckpt, so, core::SliceBudget{}, ws),
               std::invalid_argument);
  EXPECT_THROW(net.trace_from_checkpoint(ckpt, so), std::invalid_argument);
  // Tampering with the packed trace sections must be caught, not decoded.
  core::Checkpoint fresh = net.begin_simulation(so);
  fresh.aux.pop_back();
  EXPECT_THROW(net.trace_from_checkpoint(fresh, so), std::invalid_argument);
}

TEST(Network, CorruptCheckpointAuxRejected) {
  CoupledOscillatorNetwork net(OscillatorParams{}, 2);
  net.add_coupling({.a = 0, .b = 1, .r = 15e3, .c = 1e-12});
  SimulationOptions so = fast_sim();
  so.duration = 1e-6;
  core::Workspace ws;
  // counters[1] is the sample count; the packed trace in aux must hold
  // samples * (2 + n) values. A count beyond the payload must be rejected
  // before any section of aux is read.
  core::Checkpoint ckpt = net.begin_simulation(so);
  ckpt.counters[1] = 1000;
  EXPECT_THROW(net.trace_from_checkpoint(ckpt, so), std::invalid_argument);
  EXPECT_THROW(net.simulate_slice(ckpt, so, core::SliceBudget{}, ws),
               std::invalid_argument);
  // A short payload is caught as well.
  ckpt = net.begin_simulation(so);
  ckpt.aux.pop_back();
  EXPECT_THROW(net.simulate_slice(ckpt, so, core::SliceBudget{}, ws),
               std::invalid_argument);
  // A count whose samples * (2 + n) product wraps to the payload size.
  ckpt = net.begin_simulation(so);
  ckpt.counters[1] = (std::numeric_limits<std::uint64_t>::max() / 4) + 2;
  ASSERT_EQ(static_cast<std::uint64_t>(ckpt.counters[1] * 4), 4u);
  ckpt.aux.resize(4);
  EXPECT_THROW(net.trace_from_checkpoint(ckpt, so), std::invalid_argument);
  EXPECT_THROW(net.simulate_slice(ckpt, so, core::SliceBudget{}, ws),
               std::invalid_argument);
}

// --- oracle: the integrate loop against the kernel it replaced. ------------

// The right-hand side as it was before the flat branch table: a dense LU
// solve of the capacitance matrix on every call and the VO2 conductance
// recomputed per node per call. Kept verbatim.
struct LegacyNetworkKernel {
  std::size_t n;
  Real vdd;
  const OscillatorParams& params;
  const std::vector<CouplingBranch>& branches;
  const std::vector<std::size_t>& series_state;
  const std::vector<Real>& g_tr;
  const std::vector<Vo2Phase>& phases;
  const core::LuFactorization& cap_lu;

  void rhs(Real /*t*/, std::span<const Real> s, std::span<Real> ds) const {
    // Currents into each node: VO2 charging minus MOSFET discharge...
    for (std::size_t i = 0; i < n; ++i) {
      const Real g_dev = 1.0 / params.vo2.resistance(phases[i]);
      ds[i] = (vdd - s[i]) * g_dev - s[i] * g_tr[i];
    }
    // ...plus the coupling branch currents.
    for (std::size_t b = 0; b < branches.size(); ++b) {
      const auto& br = branches[b];
      if (br.topology == CouplingTopology::kSeriesRC) {
        const std::size_t vc = series_state[b];
        const Real i_branch = (s[br.a] - s[br.b] - s[vc]) / br.r;
        ds[br.a] -= i_branch;
        ds[br.b] += i_branch;
        ds[vc] = i_branch / br.c;
      } else {
        const Real i_r = (s[br.a] - s[br.b]) / br.r;
        ds[br.a] -= i_r;
        ds[br.b] += i_r;
      }
    }
    // Capacitance-matrix solve turns node currents into voltage rates; the
    // series-branch capacitor rates are already final.
    cap_lu.solve_in_place(ds.subspan(0, n));
  }
};

// One uninterrupted run of the legacy loop: cold start, Heun steps,
// boundary hysteresis flips and strided samples, as simulate() did it.
Trace legacy_simulate(const CoupledOscillatorNetwork& net,
                      const SimulationOptions& opts) {
  const std::size_t n = net.size();
  const OscillatorParams& params = net.params();
  const std::vector<CouplingBranch>& branches = net.couplings();
  std::vector<std::size_t> series_state;
  std::size_t n_series = 0;
  for (const auto& br : branches)
    series_state.push_back(br.topology == CouplingTopology::kSeriesRC
                               ? n + n_series++
                               : static_cast<std::size_t>(-1));
  core::Matrix cap(n, n);
  for (std::size_t i = 0; i < n; ++i) cap(i, i) = params.c_node;
  for (const auto& br : branches) {
    if (br.topology != CouplingTopology::kParallelRC) continue;
    cap(br.a, br.a) += br.c;
    cap(br.b, br.b) += br.c;
    cap(br.a, br.b) -= br.c;
    cap(br.b, br.a) -= br.c;
  }
  const core::LuFactorization cap_lu(cap);

  std::vector<Real> y(n + n_series, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    y[i] = opts.initial_offset * static_cast<Real>(i % 2) +
           1.0e-3 * static_cast<Real>(i + 1);
  std::vector<Real> scratch(3 * y.size());
  std::vector<Vo2Phase> phases(n, Vo2Phase::kInsulating);
  std::vector<Real> g_tr(n);
  for (std::size_t i = 0; i < n; ++i)
    g_tr[i] = params.transistor.conductance(net.gate_voltage(i));
  const Real vdd = params.vdd;
  const LegacyNetworkKernel kernel{n,    vdd,    params, branches,
                                   series_state, g_tr, phases, cap_lu};

  const std::size_t stride = std::max<std::size_t>(1, opts.sample_stride);
  Trace trace;
  trace.dt = opts.dt * static_cast<Real>(stride);
  trace.node_voltage.assign(n, {});
  auto record = [&](Real t) {
    trace.time.push_back(t);
    Real idd = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      trace.node_voltage[i].push_back(y[i]);
      idd += (vdd - y[i]) / params.vo2.resistance(phases[i]);
    }
    trace.supply_current.push_back(idd);
  };
  record(0.0);
  const auto total_steps =
      static_cast<std::size_t>(std::ceil(opts.duration / opts.dt));
  for (std::size_t step = 1; step <= total_steps; ++step) {
    core::heun_step(kernel, static_cast<Real>(step - 1) * opts.dt, opts.dt,
                    std::span<Real>(y), std::span<Real>(scratch));
    for (std::size_t i = 0; i < n; ++i)
      phases[i] = params.vo2.next_phase(phases[i], vdd - y[i]);
    if (step % stride == 0) record(static_cast<Real>(step) * opts.dt);
  }
  return trace;
}

enum class BranchMix { kSeriesOnly, kParallelOnly, kInterleaved };

CoupledOscillatorNetwork random_network(core::Rng& rng, std::size_t n,
                                        BranchMix mix) {
  CoupledOscillatorNetwork net(OscillatorParams{}, n);
  for (std::size_t i = 0; i < n; ++i)
    net.set_gate_voltage(i, rng.uniform(0.85, 1.3));
  if (n < 2) return net;
  const std::size_t branches = 1 + rng.uniform_index(2 * n + 4);
  for (std::size_t k = 0; k < branches; ++k) {
    const std::size_t a = rng.uniform_index(n);
    const std::size_t b = (a + 1 + rng.uniform_index(n - 1)) % n;
    const bool series = mix == BranchMix::kSeriesOnly ||
                        (mix == BranchMix::kInterleaved && k % 2 == 0);
    if (series)
      net.add_coupling({.a = a, .b = b, .r = rng.uniform(5e3, 40e3),
                        .c = rng.uniform(0.5e-12, 2e-12)});
    else
      net.add_coupling({.a = a, .b = b, .r = rng.uniform(100e3, 800e3),
                        .c = rng.uniform(0.0, 2e-12),
                        .topology = CouplingTopology::kParallelRC});
  }
  return net;
}

TEST(NetworkOracle, FlatKernelMatchesLuKernelExactly) {
  core::Rng rng(20260415);
  core::Workspace ws;
  std::size_t cases = 0;
  for (std::size_t n = 1; n <= 16; ++n) {
    for (const BranchMix mix : {BranchMix::kSeriesOnly,
                                BranchMix::kParallelOnly,
                                BranchMix::kInterleaved}) {
      const CoupledOscillatorNetwork net = random_network(rng, n, mix);
      SimulationOptions so;
      so.duration = rng.uniform(1.5e-6, 3e-6);
      so.dt = 1e-9;
      so.sample_stride = 1 + rng.uniform_index(6);
      so.initial_offset = rng.uniform(0.8, 1.6);
      const Trace want = legacy_simulate(net, so);

      // Bounded slices resumed to the end must give the same samples.
      const std::size_t budget = 1 + rng.uniform_index(900);
      core::Checkpoint ckpt = net.begin_simulation(so);
      while (!net.simulate_slice(ckpt, so, core::SliceBudget::steps(budget),
                                 ws)) {
      }
      const Trace got = net.trace_from_checkpoint(ckpt, so);
      ASSERT_EQ(got.samples(), want.samples()) << "n=" << n;
      ASSERT_EQ(got.oscillators(), n);
      EXPECT_EQ(got.dt, want.dt);
      for (std::size_t k = 0; k < want.samples(); ++k) {
        ASSERT_EQ(got.time[k], want.time[k]) << "n=" << n << " k=" << k;
        ASSERT_EQ(got.supply_current[k], want.supply_current[k])
            << "n=" << n << " k=" << k;
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(got.node_voltage[i][k], want.node_voltage[i][k])
              << "n=" << n << " mix=" << static_cast<int>(mix) << " i=" << i
              << " k=" << k;
      }
      ++cases;
    }
  }
  EXPECT_EQ(cases, 48u);
}

}  // namespace
}  // namespace rebooting::oscillator
