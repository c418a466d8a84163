// oscillator_networks: a single-thread closed loop over coupled VO2
// networks. The operations repeat in cycles of nine: two comparator sweeps of
// four pair simulations each (OscillatorComparator::distance_simulated at a
// seeded base input and input differences 0, 0.15, 0.3, 0.45), then one
// oscillator coloring (color_graph) of a seeded random graph whose vertex
// count steps through 6..16.
//
// Pair simulations are 8 of 9 operations, so the median is a pair; the
// coloring graphs have a fixed edge count per vertex count and one restart,
// so each coloring's cost depends on its size only and the tail percentile
// lands on the same size class in every run. Comparator calibration is
// set-up.
#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/random.h"
#include "harness.h"
#include "oscillator/analysis.h"
#include "oscillator/coloring.h"
#include "oscillator/comparator.h"

namespace perfbench {

namespace {

using rebooting::core::Rng;
namespace osc = rebooting::oscillator;

constexpr std::size_t kCycle = 9;
constexpr double kDeltas[] = {0.0, 0.15, 0.30, 0.45};
constexpr std::size_t kColors = 3;
constexpr int kSetupReps = 3;

/// Base input of sweep `s`; kept below 0.2, where the simulated measure
/// grows with the input difference over the whole sweep.
double sweep_base(std::uint64_t seed, std::size_t s) {
  Rng rng = Rng::stream(seed ^ 0xc2b2ae3d27d4eb4full, s);
  return rng.uniform(0.0, 0.2);
}

std::size_t graph_vertices(std::size_t g) { return 6 + g % 11; }

/// G(n, m) with m = 30% of the possible edges.
osc::Graph make_graph(std::uint64_t seed, std::size_t g) {
  Rng rng = Rng::stream(seed ^ 0x165667b19e3779f9ull, g);
  const std::size_t n = graph_vertices(g);
  std::vector<std::pair<std::size_t, std::size_t>> all;
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b) all.emplace_back(a, b);
  rng.shuffle(all);
  const auto m = static_cast<std::size_t>(
      std::lround(0.3 * static_cast<double>(all.size())));
  all.resize(m);
  std::sort(all.begin(), all.end());
  return osc::Graph{n, all};
}

osc::ColoringOptions coloring_options() {
  osc::ColoringOptions opts;
  opts.colors = kColors;
  opts.restarts = 1;
  return opts;
}

/// What operation i of the stream is.
struct OpKind {
  bool coloring = false;
  std::size_t sweep = 0;  ///< pair: which sweep
  std::size_t step = 0;   ///< pair: index into kDeltas
  std::size_t graph = 0;  ///< coloring: which graph
};

OpKind op_kind(std::size_t i) {
  const std::size_t cycle = i / kCycle;
  const std::size_t pos = i % kCycle;
  OpKind k;
  if (pos == kCycle - 1) {
    k.coloring = true;
    k.graph = cycle;
  } else {
    k.sweep = 2 * cycle + pos / 4;
    k.step = pos % 4;
  }
  return k;
}

void check_coloring(const osc::Graph& g, const osc::ColoringResult& r,
                    Report& report, Phase& phase) {
  bool ok = r.coloring.size() == g.num_vertices;
  std::size_t conflicts = 0;
  if (ok) {
    for (const std::size_t c : r.coloring) ok = ok && c < kColors;
    for (const auto& [a, b] : g.edges)
      if (r.coloring[a] == r.coloring[b]) ++conflicts;
  }
  ok = ok && conflicts == r.conflicts;
  report.check(ok, "oscillator: coloring of " +
                       std::to_string(g.num_vertices) +
                       " vertices reports " + std::to_string(r.conflicts) +
                       " conflicts, recount gives " +
                       std::to_string(conflicts));
  ++phase.attempted;
  ok ? ++phase.succeeded : ++phase.wrong;
}

/// Checks that a finished sweep's distance does not decrease as the input
/// difference grows.
void check_sweep(const std::vector<double>& sweep, Report& report,
                 Phase& phase) {
  bool ok = true;
  for (std::size_t k = 1; k < sweep.size(); ++k)
    ok = ok && sweep[k] >= sweep[k - 1];
  report.check(ok, "oscillator: comparator distance decreased as the input "
                   "difference grew");
  phase.attempted += sweep.size();
  (ok ? phase.succeeded : phase.wrong) += sweep.size();
}

Loop run_loop(const osc::OscillatorComparator& comparator, std::uint64_t seed,
              double seconds, std::size_t first, Report& report,
              Phase& phase) {
  std::optional<osc::Graph> graph;
  osc::ColoringResult colored;
  double distance = 0.0;
  std::vector<double> sweep;
  Loop loop = closed_loop(
      seconds, first,
      [&](std::size_t i) {
        const OpKind k = op_kind(i);
        if (k.coloring) graph = make_graph(seed, k.graph);
        if (!k.coloring && k.step == 0) sweep.clear();
      },
      [&](std::size_t i) {
        const OpKind k = op_kind(i);
        SpanScope op("bench.op", i + 1);
        if (k.coloring) {
          SpanScope span("osc.color_graph");
          colored = osc::color_graph(*graph, coloring_options());
        } else {
          const double a = sweep_base(seed, k.sweep);
          SpanScope span("osc.distance_simulated");
          distance = comparator.distance_simulated(a, a + kDeltas[k.step]);
        }
      },
      [&](std::size_t i) {
        const OpKind k = op_kind(i);
        if (k.coloring) {
          check_coloring(*graph, colored, report, phase);
          return;
        }
        sweep.push_back(distance);
        if (k.step == 3) check_sweep(sweep, report, phase);
      });
  // A sweep the time limit cut short is checked as far as it got.
  if (sweep.size() % 4 != 0) check_sweep(sweep, report, phase);
  return loop;
}

/// Builds the networks the comparator and the coloring build, and times
/// simulation and readout apart.
void probe_layers(const osc::OscillatorComparator& comparator,
                  std::uint64_t seed, Report& report) {
  std::vector<double> simulate_s, readout_s;
  double simulate_total = 0.0, osc_steps = 0.0;
  const auto run = [&](const osc::CoupledOscillatorNetwork& net,
                       const osc::SimulationOptions& sim, auto&& readout) {
    auto t0 = Clock::now();
    const osc::Trace trace = [&] {
      SpanScope span("osc.simulate");
      return net.simulate(sim);
    }();
    const double dt = seconds_since(t0);
    simulate_s.push_back(dt);
    simulate_total += dt;
    osc_steps += static_cast<double>(trace.samples() * sim.sample_stride *
                                     net.size());
    t0 = Clock::now();
    {
      SpanScope span("osc.readout");
      readout(trace);
    }
    readout_s.push_back(seconds_since(t0));
  };

  const osc::ComparatorConfig& cc = comparator.config();
  const auto vgs = [&](double x) {
    return cc.vgs_center + (2.0 * x - 1.0) * cc.vgs_half_span;
  };
  for (std::size_t k = 0; k < 4; ++k) {
    SpanScope op("bench.probe", k + 1);
    const double a = sweep_base(seed ^ 0x9e3779b97f4a7c15ull, k);
    osc::CoupledOscillatorNetwork net(cc.params, 2);
    net.set_gate_voltage(0, vgs(a));
    net.set_gate_voltage(1, vgs(a + kDeltas[k]));
    net.add_coupling({.a = 0, .b = 1, .r = cc.coupling_r, .c = cc.coupling_c,
                      .topology = cc.topology});
    run(net, cc.sim, [&](const osc::Trace& t) {
      return osc::xor_distance_measure(t, 0, 1, cc.sim.settle_fraction);
    });
  }
  const osc::ColoringOptions opts = coloring_options();
  for (const std::size_t g : {0u, 3u, 6u, 10u}) {
    SpanScope op("bench.probe", 5 + g);
    const osc::Graph graph = make_graph(seed ^ 0x9e3779b97f4a7c15ull, g);
    osc::CoupledOscillatorNetwork net(osc::OscillatorParams{},
                                      graph.num_vertices);
    for (const auto& [a, b] : graph.edges)
      net.add_coupling({.a = a, .b = b, .r = opts.coupling_r,
                        .c = opts.coupling_c});
    osc::SimulationOptions sim = opts.sim;
    sim.initial_offset = 0.8;  // color_graph's first attempt
    run(net, sim, [&](const osc::Trace& t) {
      for (std::size_t v = 1; v < graph.num_vertices; ++v)
        osc::phase_difference(t, 0, v, sim.settle_fraction);
    });
  }
  report.set(report.layer, "osc.simulate_s", median_of(simulate_s));
  report.set(report.layer, "osc.readout_s", median_of(readout_s));
  report.set(report.layer, "osc.ns_per_osc_step",
             1e9 * simulate_total / osc_steps);
  report.set(report.layer, "osc.osc_steps", osc_steps);
  report.set(report.counts, "osc.osc_steps", osc_steps);
}

}  // namespace

void run_oscillator_networks(const Args& args, Report& report) {
  std::optional<osc::OscillatorComparator> comparator;
  const double setup_s = median_setup(kSetupReps, [&] {
    comparator.emplace(osc::ComparatorConfig{});
  });
  report.set(report.e2e, "setup_s", setup_s);

  Phase phase;
  phase.name = "closed_loop";
  if (!args.trace) {
    report_closed_loop(report, run_loop(*comparator, args.seed, args.seconds,
                                        0, report, phase));
  } else {
    const Loop plain =
        run_loop(*comparator, args.seed, args.seconds / 2, 0, report, phase);
    set_tracing(true);
    // Start the traced loop on a cycle boundary so sweeps stay whole.
    const std::size_t first = (plain.completed / kCycle + 1) * kCycle;
    const Loop traced = run_loop(*comparator, args.seed, args.seconds / 2,
                                 first, report, phase);
    report.set(report.layer, "trace.overhead_pct",
               overhead_pct(plain.latency, traced.latency));
    probe_layers(*comparator, args.seed, report);
    set_tracing(false);
  }
  report.phases.insert(report.phases.begin(), phase);
}

}  // namespace perfbench
