// Micro-kernel timings (google-benchmark): the elementary operations each
// simulated substrate is built from. Useful for regression-tracking the
// engines' inner loops.
#include <benchmark/benchmark.h>

#include "core/random.h"
#include "memcomputing/dmm.h"
#include "memcomputing/sat.h"
#include "oscillator/network.h"
#include "quantum/circuit.h"
#include "telemetry/telemetry.h"

using namespace rebooting;

namespace {

void BM_StateVectorHadamard(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  quantum::StateVector sv(qubits);
  const auto h = quantum::gate_matrix(quantum::GateKind::kH);
  std::size_t target = 0;
  for (auto _ : state) {
    sv.apply_1q(h, target);
    target = (target + 1) % qubits;
    benchmark::DoNotOptimize(sv.amplitude(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(1ull << qubits));
}
BENCHMARK(BM_StateVectorHadamard)->Arg(10)->Arg(16)->Arg(20);

// One gate class at one target on 16 qubits. Each reports the full vector,
// 2^16 amplitudes per gate, as its items and in the per_amp counter
// (seconds per amplitude, printed with an SI prefix: "1.5n" is 1.5 ns/amp),
// whatever share of it the kernel touches (a quarter for CZ), so the classes
// compare at equal state size. Targets 0 and 1 give the strided kernel runs
// of 1 and 2 contiguous pairs and keep their own rows.
void gate_per_target(benchmark::State& state, const quantum::Gate2x2& g,
                     bool controlled) {
  constexpr std::size_t kQubits = 16;
  const auto target = static_cast<std::size_t>(state.range(0));
  quantum::StateVector sv(kQubits);
  const auto h = quantum::gate_matrix(quantum::GateKind::kH);
  for (std::size_t q = 0; q < kQubits; ++q) sv.apply_1q(h, q);
  // The control sits next to the target, so CZ at target 0 walks runs of 1.
  const std::size_t controls[] = {target == 0 ? 1 : target - 1};
  for (auto _ : state) {
    if (controlled)
      sv.apply_controlled(g, controls, target);
    else
      sv.apply_1q(g, target);
    benchmark::DoNotOptimize(sv.amplitudes().data());
    benchmark::ClobberMemory();
  }
  const auto amps = static_cast<std::int64_t>(state.iterations()) *
                    static_cast<std::int64_t>(1ull << kQubits);
  state.SetItemsProcessed(amps);
  state.counters["per_amp"] = benchmark::Counter(
      static_cast<double>(amps),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_Gate16Dense(benchmark::State& state) {
  gate_per_target(state, quantum::gate_matrix(quantum::GateKind::kRy, 0.7),
                  false);
}
void BM_Gate16Diagonal(benchmark::State& state) {
  gate_per_target(state, quantum::gate_matrix(quantum::GateKind::kRz, 0.7),
                  false);
}
void BM_Gate16Cz(benchmark::State& state) {
  gate_per_target(state, quantum::gate_matrix(quantum::GateKind::kZ), true);
}
BENCHMARK(BM_Gate16Dense)->Arg(0)->Arg(1)->Arg(8)->Arg(15);
BENCHMARK(BM_Gate16Diagonal)->Arg(0)->Arg(1)->Arg(8)->Arg(15);
BENCHMARK(BM_Gate16Cz)->Arg(0)->Arg(1)->Arg(8)->Arg(15);

void BM_DmmStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::Rng rng(1);
  const auto inst = memcomputing::planted_ksat(
      rng, n, static_cast<std::size_t>(4.25 * static_cast<double>(n)), 3);
  // Time a bounded solve; steps/op reported via items processed. The solver
  // may terminate (solution found) before max_steps, so count actual steps.
  std::int64_t total_steps = 0;
  for (auto _ : state) {
    memcomputing::DmmOptions opts;
    opts.max_steps = 200;
    core::Rng r(7);
    auto result = memcomputing::DmmSolver(inst.cnf, opts).solve(r);
    total_steps += static_cast<std::int64_t>(result.steps);
    benchmark::DoNotOptimize(result.steps);
  }
  state.SetItemsProcessed(total_steps);
}
BENCHMARK(BM_DmmStep)->Arg(50)->Arg(200);

void BM_OscillatorNetworkStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  oscillator::CoupledOscillatorNetwork net(oscillator::OscillatorParams{}, n);
  for (std::size_t i = 0; i + 1 < n; ++i)
    net.add_coupling({.a = i, .b = i + 1, .r = 15e3, .c = 1e-12});
  oscillator::SimulationOptions so;
  so.duration = 1e-6;
  so.dt = 1e-9;
  so.sample_stride = 1000;
  for (auto _ : state) {
    const auto trace = net.simulate(so);
    benchmark::DoNotOptimize(trace.samples());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_OscillatorNetworkStep)->Arg(2)->Arg(8)->Arg(16);

// The oscillator integrate loop on the three network shapes it runs: the
// comparator pair, a color_graph-sized network, and a parallel-RC chain
// (the LU capacitance path). per_osc_step is seconds per oscillator-step
// ("20n" = 20 ns), the unit of perfbench's osc.ns_per_osc_step.
void osc_steps(benchmark::State& state,
               const oscillator::CoupledOscillatorNetwork& net) {
  oscillator::SimulationOptions so;
  so.duration = 20e-6;
  so.dt = 1e-9;
  so.sample_stride = 4;
  core::Workspace ws;
  for (auto _ : state) {
    const auto trace = net.simulate(so, ws);
    benchmark::DoNotOptimize(trace.samples());
  }
  const auto osc_steps = static_cast<std::int64_t>(state.iterations()) *
                         20000 * static_cast<std::int64_t>(net.size());
  state.SetItemsProcessed(osc_steps);
  state.counters["per_osc_step"] = benchmark::Counter(
      static_cast<double>(osc_steps),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_OscPairStep(benchmark::State& state) {
  oscillator::CoupledOscillatorNetwork net(oscillator::OscillatorParams{}, 2);
  net.set_gate_voltage(0, 0.95);
  net.set_gate_voltage(1, 1.05);
  net.add_coupling({.a = 0, .b = 1, .r = 15e3, .c = 1e-12});
  osc_steps(state, net);
}
BENCHMARK(BM_OscPairStep);

void BM_OscColoring16Step(benchmark::State& state) {
  oscillator::CoupledOscillatorNetwork net(oscillator::OscillatorParams{}, 16);
  for (std::size_t i = 0; i < 16; ++i) {
    net.add_coupling({.a = i, .b = (i + 1) % 16, .r = 15e3, .c = 1e-12});
    net.add_coupling({.a = i, .b = (i + 5) % 16, .r = 15e3, .c = 1e-12});
  }
  for (std::size_t i = 0; i < 4; ++i)
    net.add_coupling({.a = i + 8, .b = i, .r = 15e3, .c = 1e-12});
  osc_steps(state, net);
}
BENCHMARK(BM_OscColoring16Step);

void BM_OscParallelStep(benchmark::State& state) {
  oscillator::CoupledOscillatorNetwork net(oscillator::OscillatorParams{}, 3);
  for (std::size_t i = 0; i + 1 < 3; ++i)
    net.add_coupling({.a = i, .b = i + 1, .r = 400e3, .c = 1e-12,
                      .topology = oscillator::CouplingTopology::kParallelRC});
  osc_steps(state, net);
}
BENCHMARK(BM_OscParallelStep);

// Overhead of the telemetry instrumentation in its default (disabled) state:
// one relaxed atomic load + branch per TELEM_SPAN site. This is the number
// that keeps spans allowed inside per-gate device code — compare against
// BM_StateVectorHadamard / BM_OscillatorNetworkStep, which carry spans on
// their hot paths.
void BM_TelemetrySpanDisabled(benchmark::State& state) {
  telemetry::Telemetry::set_enabled(false);
  int sink = 0;
  for (auto _ : state) {
    TELEM_SPAN("bench.noop");
    benchmark::DoNotOptimize(++sink);
  }
}
BENCHMARK(BM_TelemetrySpanDisabled);

// Cost of a live span (two clock reads + locked tree update) — the price an
// engine pays per instrumented call while a report is being collected.
void BM_TelemetrySpanEnabled(benchmark::State& state) {
  telemetry::Telemetry::set_enabled(true);
  int sink = 0;
  for (auto _ : state) {
    TELEM_SPAN("bench.noop");
    benchmark::DoNotOptimize(++sink);
  }
  telemetry::Telemetry::set_enabled(false);
  telemetry::Telemetry::instance().reset();
}
BENCHMARK(BM_TelemetrySpanEnabled);

void BM_WalkSatFlips(benchmark::State& state) {
  core::Rng rng(3);
  const auto inst = memcomputing::planted_ksat(rng, 100, 425, 3);
  for (auto _ : state) {
    memcomputing::WalkSatOptions opts;
    opts.max_flips = 2000;
    core::Rng r(5);
    auto result = memcomputing::walksat(inst.cnf, r, opts);
    benchmark::DoNotOptimize(result.flips);
  }
}
BENCHMARK(BM_WalkSatFlips);

}  // namespace

BENCHMARK_MAIN();
