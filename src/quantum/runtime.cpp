#include "quantum/runtime.h"

#include <algorithm>
#include <stdexcept>

#include "quantum/canonical.h"
#include "telemetry/telemetry.h"

namespace rebooting::quantum {

std::uint64_t ExecutionResult::mode() const {
  std::uint64_t best_state = 0;
  std::size_t best_count = 0;
  for (const auto& [state, count] : counts)
    if (count > best_count) {
      best_count = count;
      best_state = state;
    }
  return best_state;
}

core::Real ExecutionResult::frequency(std::uint64_t state) const {
  if (shots == 0) return 0.0;
  const auto it = counts.find(state);
  return it == counts.end()
             ? 0.0
             : static_cast<core::Real>(it->second) / static_cast<core::Real>(shots);
}

QuantumAccelerator::QuantumAccelerator(QuantumDeviceConfig config)
    : config_(std::move(config)) {}

core::AcceleratorFactory QuantumAccelerator::factory(
    QuantumDeviceConfig config) {
  return [config = std::move(config)]() -> std::shared_ptr<core::Accelerator> {
    return std::make_shared<QuantumAccelerator>(config);
  };
}

namespace {

/// Applies one uniformly random non-identity Pauli to `qubit`.
void random_pauli(StateVector& state, std::size_t qubit, core::Rng& rng) {
  const std::uint64_t which = rng.uniform_index(3);
  const GateKind kinds[] = {GateKind::kX, GateKind::kY, GateKind::kZ};
  state.apply_1q(gate_matrix(kinds[which]), qubit);
}

}  // namespace

std::uint64_t QuantumAccelerator::run_single_trajectory(
    const Circuit& compiled, std::span<const std::size_t> final_map,
    std::size_t logical_qubits, core::Rng& rng) const {
  StateVector state(compiled.num_qubits());
  const NoiseModel& noise = config_.noise;

  std::uint64_t measured_bits = 0;
  std::uint64_t measured_mask = 0;

  for (const Operation& op : compiled.operations()) {
    if (op.kind == GateKind::kMeasure) {
      const bool bit = state.measure_qubit(op.qubits[0], rng);
      const bool flipped =
          noise.readout_flip > 0.0 && rng.bernoulli(noise.readout_flip);
      if (bit != flipped) measured_bits |= 1ull << op.qubits[0];
      measured_mask |= 1ull << op.qubits[0];
      continue;
    }
    apply_operation(state, op);
    const core::Real p = op.qubits.size() > 1 ? noise.depolarizing_2q
                                              : noise.depolarizing_1q;
    if (p > 0.0)
      for (const std::size_t q : op.qubits)
        if (rng.bernoulli(p)) random_pauli(state, q, rng);
  }

  // Any physical qubit not explicitly measured is sampled at the end.
  std::uint64_t sampled = state.sample(rng);
  if (noise.readout_flip > 0.0) {
    for (std::size_t q = 0; q < compiled.num_qubits(); ++q)
      if (!(measured_mask & (1ull << q)) && rng.bernoulli(noise.readout_flip))
        sampled ^= 1ull << q;
  }
  const std::uint64_t physical_bits =
      (sampled & ~measured_mask) | measured_bits;

  // Undo the routing permutation: logical bit l lives at physical
  // final_map[l].
  std::uint64_t logical_bits = 0;
  for (std::size_t l = 0; l < logical_qubits; ++l)
    if (physical_bits & (1ull << final_map[l])) logical_bits |= 1ull << l;
  return logical_bits;
}

ExecutionResult QuantumAccelerator::run(const Circuit& circuit,
                                        std::size_t shots,
                                        core::Rng& rng) const {
  if (shots == 0) throw std::invalid_argument("run: shots must be > 0");
  TELEM_SPAN("quantum.run");
  TELEM_TRACE_SCOPE("quantum.run");
  TELEM_COUNT("quantum.shots", static_cast<core::Real>(shots));
  // Content-addressed compile: hash-equal circuits share one cached program
  // compiled from the canonical (first-use relabeled) form; `perm` maps our
  // labels into the canonical ones, so composing it with the program's
  // routing map recovers original-logical -> physical.
  std::vector<std::size_t> perm;
  const std::shared_ptr<const CompiledProgram> prog_ptr =
      compile_cached(circuit, config_.topology, config_.enable_optimizer,
                     &perm);
  const CompiledProgram& prog = *prog_ptr;
  std::vector<std::size_t> final_map(circuit.num_qubits());
  for (std::size_t l = 0; l < circuit.num_qubits(); ++l)
    final_map[l] = prog.final_map[perm[l]];

  ExecutionResult result;
  result.shots = shots;
  result.compile_report = prog.report;
  result.device_seconds = static_cast<core::Real>(prog.report.total_cycles) *
                          config_.cycle_seconds *
                          static_cast<core::Real>(shots);

  const bool has_measure_ops = std::any_of(
      prog.circuit.operations().begin(), prog.circuit.operations().end(),
      [](const Operation& op) { return op.kind == GateKind::kMeasure; });

  TELEM_SPAN("quantum.execute");
  TELEM_TRACE_SCOPE("quantum.execute");
  if (!config_.noise.enabled() && !has_measure_ops) {
    // Fast path: one simulation, sample the final distribution many times.
    StateVector state(prog.circuit.num_qubits());
    for (const Operation& op : prog.circuit.operations())
      apply_operation(state, op);
    for (const std::uint64_t physical : state.sample(shots, rng)) {
      std::uint64_t logical = 0;
      for (std::size_t l = 0; l < circuit.num_qubits(); ++l)
        if (physical & (1ull << final_map[l])) logical |= 1ull << l;
      ++result.counts[logical];
    }
    return result;
  }

  for (std::size_t s = 0; s < shots; ++s)
    ++result.counts[run_single_trajectory(prog.circuit, final_map,
                                          circuit.num_qubits(), rng)];
  return result;
}

}  // namespace rebooting::quantum
