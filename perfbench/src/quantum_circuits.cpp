// quantum_circuits: a single-thread closed loop of distinct 14-16 qubit
// circuits, 1024 shots each, through QuantumAccelerator::run.
//
// Every circuit is X_x, then a random layer U of rotations and CZs, then a
// network of SWAPs that moves qubit i to sigma(i) (a derangement, so every
// qubit is touched), then U relabeled by sigma and inverted. Because
// S U S^-1 equals U relabeled, the whole circuit equals S, and the only
// outcome is x with its bits moved by sigma: known by construction. The
// SWAP network sits between U and its inverse, so the peephole optimizer
// cannot cancel them into nothing; the compiled native gate count is
// checked to show it.
//
// Circuits are sized so native gates x 2^n is about the same for every
// circuit: 14, 15 and 16 qubits and the line-topology minority then cost
// about the same per operation, so the latency percentiles do not fall
// between size classes.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/random.h"
#include "harness.h"
#include "quantum/canonical.h"
#include "quantum/runtime.h"

namespace perfbench {

namespace {

using rebooting::core::Rng;
namespace q = rebooting::quantum;

constexpr std::size_t kShots = 1024;
/// Target native gates x 2^n per circuit (about 0.3 s of gate kernels on
/// one 2020s x86 core).
constexpr double kWork = 400.0 * 65536.0;
constexpr std::size_t kPool = 96;
constexpr int kSetupReps = 15;

struct Input {
  q::Circuit circuit{1};
  std::size_t n = 0;
  bool line = false;
  std::uint64_t expected = 0;
};

std::size_t circuit_qubits(std::size_t i) { return 14 + i % 3; }
bool circuit_on_line(std::size_t i) { return i % 4 == 3; }

q::Circuit build(std::size_t n, bool line, std::size_t u_gates,
                 std::uint64_t stream, std::uint64_t index,
                 std::uint64_t* expected) {
  Rng rng = Rng::stream(stream, index);
  const std::uint64_t x = rng() & ((1ull << n) - 1);

  std::vector<q::Operation> u;
  u.reserve(u_gates);
  for (std::size_t k = 0; k < u_gates; ++k) {
    if (rng.uniform() < 0.7) {
      const q::GateKind kinds[] = {q::GateKind::kRx, q::GateKind::kRy,
                                   q::GateKind::kRz};
      u.push_back({kinds[rng.uniform_index(3)], {rng.uniform_index(n)},
                   rng.uniform(0.1, 2.0 * 3.141592653589793 - 0.1)});
    } else {
      const std::size_t a = rng.uniform_index(n);
      std::size_t b = 0;
      if (line) {
        // Near neighbours, so routing inserts a few SWAPs per gate.
        const std::size_t d = 1 + rng.uniform_index(3);
        b = a + d < n ? a + d : a - d;
      } else {
        b = (a + 1 + rng.uniform_index(n - 1)) % n;
      }
      u.push_back({q::GateKind::kCz, {a, b}, 0.0});
    }
  }

  std::vector<std::pair<std::size_t, std::size_t>> swaps;
  if (line) {
    for (std::size_t i = 0; i + 1 < n; ++i) swaps.emplace_back(i, i + 1);
  } else {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    rng.shuffle(order);
    for (std::size_t i = 0; i + 1 < n; ++i)
      swaps.emplace_back(order[i], order[i + 1]);
  }
  // at[p] = the qubit whose state sits at position p after the network.
  std::vector<std::size_t> at(n);
  for (std::size_t i = 0; i < n; ++i) at[i] = i;
  for (const auto& [a, b] : swaps) std::swap(at[a], at[b]);
  std::vector<std::size_t> sigma(n);
  for (std::size_t p = 0; p < n; ++p) sigma[at[p]] = p;

  q::Circuit c(n);
  for (std::size_t i = 0; i < n; ++i)
    if (x >> i & 1) c.x(i);
  for (const q::Operation& op : u) c.add(op.kind, op.qubits, op.angle);
  for (const auto& [a, b] : swaps) c.swap(a, b);
  for (auto it = u.rbegin(); it != u.rend(); ++it) {
    std::vector<std::size_t> qubits;
    for (const std::size_t qb : it->qubits) qubits.push_back(sigma[qb]);
    c.add(it->kind, std::move(qubits), -it->angle);
  }
  *expected = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (x >> i & 1) *expected |= 1ull << sigma[i];
  return c;
}

q::Topology topology(std::size_t n, bool line) {
  return line ? q::Topology::line(n) : q::Topology::all_to_all(n);
}

/// One circuit of the stream, with U sized so its compiled native gate
/// count lands near kWork / 2^n. QuantumAccelerator::run compiles the
/// canonical (first-use relabeled) form, which on a line routes differently
/// from the circuit as written, so the sizing compiles that form too, with
/// the uncached compiler: it leaves no compile cache entry behind.
Input make_input(std::uint64_t stream, std::size_t i) {
  Input in;
  in.n = circuit_qubits(i);
  in.line = circuit_on_line(i);
  const double target = kWork / static_cast<double>(1ull << in.n);
  const q::Topology topo = topology(in.n, in.line);
  std::size_t u_gates = static_cast<std::size_t>(target / 4.0);
  for (int pass = 0; pass < 2; ++pass) {
    in.circuit = build(in.n, in.line, u_gates, stream, i, &in.expected);
    const double natives = static_cast<double>(
        q::compile(q::canonicalize(in.circuit).circuit, topo)
            .report.optimized_gates);
    u_gates = std::max<std::size_t>(
        8, static_cast<std::size_t>(static_cast<double>(u_gates) * target /
                                    natives));
  }
  in.circuit = build(in.n, in.line, u_gates, stream, i, &in.expected);
  return in;
}

struct Engine {
  /// One device per (qubits, line?) so a 14-qubit circuit simulates 14
  /// qubits, not the largest device's 16.
  std::map<std::pair<std::size_t, bool>, std::unique_ptr<q::QuantumAccelerator>>
      devices;
  std::vector<Input> pool;

  const q::QuantumAccelerator& device(const Input& in) const {
    return *devices.at({in.n, in.line});
  }
};

std::vector<Input> make_pool(std::uint64_t stream) {
  std::vector<Input> pool;
  for (std::size_t i = 0; i < kPool; ++i) pool.push_back(make_input(stream, i));
  return pool;
}

/// Set-up as a user of the engine meets it: the devices, then every circuit
/// of the pool compiled through the compile cache, so the timed runs only
/// look their programs up.
Engine set_up(std::vector<Input> pool) {
  Engine e;
  for (std::size_t n = 14; n <= 16; ++n)
    for (const bool line : {false, true}) {
      q::QuantumDeviceConfig config;
      config.topology = topology(n, line);
      e.devices[{n, line}] = std::make_unique<q::QuantumAccelerator>(config);
    }
  e.pool = std::move(pool);
  for (const Input& in : e.pool) {
    const q::QuantumDeviceConfig& config = e.device(in).config();
    q::compile_cached(in.circuit, config.topology, config.enable_optimizer);
  }
  return e;
}

void check_result(const Input& in, const q::ExecutionResult& r,
                  Report& report, Phase& phase) {
  const bool found = r.mode() == in.expected &&
                     r.frequency(in.expected) >= 0.99;
  const bool not_collapsed =
      r.compile_report.optimized_gates * 2 >= in.circuit.size();
  report.check(found, "quantum: known outcome not found (n=" +
                          std::to_string(in.n) + ")");
  report.check(not_collapsed,
               "quantum: optimizer collapsed a circuit to " +
                   std::to_string(r.compile_report.optimized_gates) +
                   " native gates");
  ++phase.attempted;
  if (found && not_collapsed)
    ++phase.succeeded;
  else
    ++phase.wrong;
}

Loop run_loop(const Engine& e, std::uint64_t seed, double seconds,
              std::size_t first, Report& report, Phase& phase,
              std::vector<double>& native_gates) {
  q::ExecutionResult r;
  return closed_loop(
      seconds, first, [](std::size_t) {},
      [&](std::size_t i) {
        const Input& in = e.pool[i % e.pool.size()];
        Rng rng = Rng::stream(seed ^ 0x5a5a5a5aull, i);
        SpanScope op("bench.op", i + 1);
        SpanScope span("quantum.run");
        r = e.device(in).run(in.circuit, kShots, rng);
      },
      [&](std::size_t i) {
        check_result(e.pool[i % e.pool.size()], r, report, phase);
        native_gates.push_back(
            static_cast<double>(r.compile_report.optimized_gates));
      });
}

void probe_layers(const Engine& e, std::uint64_t seed, Report& report) {
  Phase phase;
  phase.name = "probe";
  std::vector<double> compile_s, execute_s, sample_s;
  double native_gates = 0.0, swaps = 0.0, amp_updates = 0.0;
  for (std::size_t k = 0; k < 6; ++k) {
    // Probe circuits come from their own stream, so the first call below
    // is a compile-cache miss. Indices 0-2 are 14-16 qubits all-to-all,
    // 3, 7, 11 the same sizes on a line.
    const std::size_t index = k < 3 ? k : 4 * (k - 3) + 3;
    const Input in = make_input(seed ^ 0x9e3779b97f4a7c15ull, index);
    const q::QuantumAccelerator& dev = e.device(in);
    SpanScope op("bench.probe", k + 1);

    auto t0 = Clock::now();
    const auto prog = [&] {
      SpanScope span("quantum.compile_cached");
      return q::compile_cached(in.circuit, dev.config().topology,
                               dev.config().enable_optimizer);
    }();
    compile_s.push_back(seconds_since(t0));
    native_gates += static_cast<double>(prog->report.optimized_gates);
    swaps += static_cast<double>(prog->report.swaps_inserted);
    const double updates = static_cast<double>(prog->report.optimized_gates) *
                           static_cast<double>(1ull << in.n);
    amp_updates += updates;

    Rng rng = Rng::stream(seed ^ 0xa5a5a5a5ull, k);
    t0 = Clock::now();
    {
      SpanScope span("quantum.run_one_shot");
      dev.run(in.circuit, 1, rng);
    }
    const double one = seconds_since(t0);
    t0 = Clock::now();
    const q::ExecutionResult r = [&] {
      SpanScope span("quantum.run_shots");
      return dev.run(in.circuit, kShots, rng);
    }();
    const double all = seconds_since(t0);
    execute_s.push_back(one);
    sample_s.push_back(all - one);
    check_result(in, r, report, phase);
  }
  double total_execute = 0.0;
  for (const double s : execute_s) total_execute += s;
  report.set(report.layer, "quantum.compile_s", median_of(compile_s));
  report.set(report.layer, "quantum.execute_s", median_of(execute_s));
  report.set(report.layer, "quantum.sample_s", median_of(sample_s));
  report.set(report.layer, "quantum.amp_updates_per_s",
             amp_updates / total_execute);
  // Computed, not measured: each amplitude update reads and writes one
  // 16-byte complex number.
  report.set(report.layer, "quantum.bytes_moved_computed", 32.0 * amp_updates);
  report.set(report.layer, "quantum.native_gates", native_gates);
  report.set(report.layer, "quantum.swaps", swaps);
  report.set(report.counts, "quantum.native_gates", native_gates);
  report.set(report.counts, "quantum.swaps", swaps);
  report.phases.push_back(phase);
}

}  // namespace

void run_quantum_circuits(const Args& args, Report& report) {
  // The pool is made once, untimed. Every set-up rep starts from an empty
  // compile cache, as a fresh process does, so each compiles the whole pool;
  // the median of many short reps keeps a burst of load on the shared
  // machine during one of them from setting the figure.
  std::vector<Input> pool = make_pool(args.seed);
  std::optional<Engine> set;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (set) pool = std::move(set->pool);
    set.reset();
    q::compile_cache().clear();
    const auto t0 = Clock::now();
    set.emplace(set_up(std::move(pool)));
    setup_times.push_back(seconds_since(t0));
  }
  report.set(report.e2e, "setup_s", median_of(setup_times));
  const Engine& engine = *set;

  std::vector<double> native_gates;
  Phase phase;
  phase.name = "closed_loop";
  if (!args.trace) {
    const Loop loop = run_loop(engine, args.seed, args.seconds, 0, report,
                               phase, native_gates);
    report_closed_loop(report, loop);
    report.set(report.info, "inputs_reused",
               loop.completed > kPool ? loop.completed - kPool : 0);
  } else {
    const Loop plain = run_loop(engine, args.seed, args.seconds / 2, 0,
                                report, phase, native_gates);
    set_tracing(true);
    const Loop traced = run_loop(engine, args.seed, args.seconds / 2,
                                 plain.completed, report, phase, native_gates);
    report.set(report.layer, "trace.overhead_pct",
               overhead_pct(plain.latency, traced.latency));
    probe_layers(engine, args.seed, report);
    set_tracing(false);
  }
  report.set(report.info, "native_gates_p50", median_of(native_gates));
  report.phases.insert(report.phases.begin(), phase);
}

}  // namespace perfbench
