#include "quantum/runtime.h"

#include <gtest/gtest.h>

#include <map>

#include "core/cache.h"
#include "quantum/canonical.h"

namespace rebooting::quantum {
namespace {

/// Pins a test to the pre-cache compile path (original qubit labels) and
/// restores the ambient toggle on exit.
struct ScopedCacheDisable {
  bool previous = core::cache_enabled();
  ScopedCacheDisable() { core::set_cache_enabled(false); }
  ~ScopedCacheDisable() { core::set_cache_enabled(previous); }
};

TEST(Runtime, BellPairOnAllToAll) {
  core::Rng rng(1);
  Circuit bell(2);
  bell.h(0).cx(0, 1);
  QuantumAccelerator acc({.topology = Topology::all_to_all(2)});
  const ExecutionResult r = acc.run(bell, 4000, rng);
  EXPECT_EQ(r.shots, 4000u);
  EXPECT_NEAR(r.frequency(0b00), 0.5, 0.05);
  EXPECT_NEAR(r.frequency(0b11), 0.5, 0.05);
  EXPECT_NEAR(r.frequency(0b01) + r.frequency(0b10), 0.0, 1e-12);
}

TEST(Runtime, RoutingPermutationUndoneInCounts) {
  // Cache disabled: the original-labeled circuit compiles as-is, so the
  // distant pair really costs SWAPs. (With the compile cache on, the
  // canonical relabeling 0,3 -> 0,1 makes the pair adjacent — covered by
  // test_circuit_canonical.cpp.)
  ScopedCacheDisable off;
  core::Rng rng(3);
  // Entangle distant qubits on a line; the result keys must still be the
  // LOGICAL bit patterns 0b0000 / 0b1001.
  Circuit bell(4);
  bell.h(0).cx(0, 3);
  QuantumAccelerator acc({.topology = Topology::line(4)});
  const ExecutionResult r = acc.run(bell, 4000, rng);
  EXPECT_GT(r.compile_report.swaps_inserted, 0u);
  EXPECT_NEAR(r.frequency(0b0000) + r.frequency(0b1001), 1.0, 1e-12);
}

TEST(Runtime, CachedCompilePreservesLogicalCounts) {
  // Same distant-pair circuit with the compile cache live: results must
  // stay logically correct through the canonical relabeling, and a second
  // run of a hash-equal relabeled circuit must reuse the compiled program.
  const auto before = compile_cache().stats();
  core::Rng rng(3);
  Circuit bell(4);
  bell.h(0).cx(0, 3);
  QuantumAccelerator acc({.topology = Topology::line(4)});
  const ExecutionResult r = acc.run(bell, 4000, rng);
  EXPECT_NEAR(r.frequency(0b0000) + r.frequency(0b1001), 1.0, 1e-12);

  Circuit relabeled(4);
  relabeled.h(1).cx(1, 2);  // same canonical form: h(0).cx(0, 1)
  const ExecutionResult r2 = acc.run(relabeled, 4000, rng);
  EXPECT_NEAR(r2.frequency(0b0000) + r2.frequency(0b0110), 1.0, 1e-12);
  const auto after = compile_cache().stats();
  EXPECT_GT(after.hits, before.hits);
}

TEST(Runtime, ExplicitMeasurementsCollapse) {
  core::Rng rng(5);
  Circuit c(2);
  c.h(0).cx(0, 1).measure(0).measure(1);
  QuantumAccelerator acc({.topology = Topology::all_to_all(2)});
  const ExecutionResult r = acc.run(c, 2000, rng);
  EXPECT_NEAR(r.frequency(0b00) + r.frequency(0b11), 1.0, 1e-12);
}

TEST(Runtime, DeviceTimeScalesWithShots) {
  core::Rng rng(7);
  Circuit c(2);
  c.h(0).cx(0, 1);
  QuantumAccelerator acc({.topology = Topology::all_to_all(2)});
  const auto r1 = acc.run(c, 100, rng);
  const auto r2 = acc.run(c, 200, rng);
  EXPECT_NEAR(r2.device_seconds, 2.0 * r1.device_seconds, 1e-12);
}

TEST(Runtime, DepolarizingNoiseDegradesBellFidelity) {
  core::Rng rng(9);
  Circuit bell(2);
  bell.h(0).cx(0, 1);
  QuantumDeviceConfig noisy;
  noisy.topology = Topology::all_to_all(2);
  noisy.noise.depolarizing_1q = 0.02;
  noisy.noise.depolarizing_2q = 0.05;
  QuantumAccelerator acc(noisy);
  const ExecutionResult r = acc.run(bell, 3000, rng);
  const core::Real good = r.frequency(0b00) + r.frequency(0b11);
  EXPECT_LT(good, 0.995);  // errors visible
  EXPECT_GT(good, 0.6);    // but not random
}

TEST(Runtime, ReadoutFlipsScrambleDeterministicOutcome) {
  core::Rng rng(11);
  Circuit c(1);
  c.x(0);
  QuantumDeviceConfig cfg;
  cfg.topology = Topology::all_to_all(1);
  cfg.noise.readout_flip = 0.1;
  QuantumAccelerator acc(cfg);
  const ExecutionResult r = acc.run(c, 5000, rng);
  EXPECT_NEAR(r.frequency(0b0), 0.1, 0.02);
}

TEST(Runtime, ModeReturnsMostFrequent) {
  core::Rng rng(13);
  Circuit c(2);
  c.x(1);
  QuantumAccelerator acc({.topology = Topology::all_to_all(2)});
  const ExecutionResult r = acc.run(c, 100, rng);
  EXPECT_EQ(r.mode(), 0b10u);
}

TEST(Runtime, ZeroShotsRejected) {
  core::Rng rng(1);
  Circuit c(1);
  c.h(0);
  QuantumAccelerator acc({.topology = Topology::all_to_all(1)});
  EXPECT_THROW(acc.run(c, 0, rng), std::invalid_argument);
}

TEST(Runtime, StackLayersDescribeFigTwo) {
  QuantumAccelerator acc({.topology = Topology::all_to_all(2)});
  const auto layers = acc.stack_layers();
  EXPECT_EQ(layers.size(), 6u);  // the six layers of Fig. 2
  EXPECT_EQ(acc.kind(), core::AcceleratorKind::kQuantum);
}

TEST(Runtime, FastPathCountsEqualSingleShotSampling) {
  // A line topology, so routing leaves a nontrivial final map to undo.
  Circuit c(5);
  for (std::size_t q = 0; q < 5; ++q) c.h(q).ry(q, 0.3 + 0.2 * q);
  c.cx(0, 4).cz(1, 3).rz(2, 0.9).cx(4, 2);
  const QuantumAccelerator acc({.topology = Topology::line(5)});
  core::Rng rng(77);
  const ExecutionResult r = acc.run(c, 3000, rng);

  // The same program, state and logical mapping by hand, one sample(rng)
  // call per shot.
  std::vector<std::size_t> perm;
  const auto prog = compile_cached(c, acc.config().topology,
                                   acc.config().enable_optimizer, &perm);
  const StateVector state = simulate(prog->circuit);
  core::Rng expect_rng(77);
  std::map<std::uint64_t, std::size_t> expected;
  for (std::size_t shot = 0; shot < 3000; ++shot) {
    const std::uint64_t physical = state.sample(expect_rng);
    std::uint64_t logical = 0;
    for (std::size_t l = 0; l < 5; ++l)
      if (physical >> prog->final_map[perm[l]] & 1) logical |= 1ull << l;
    ++expected[logical];
  }
  EXPECT_EQ(r.counts, expected);
  EXPECT_GT(expected.size(), 4u);
}

}  // namespace
}  // namespace rebooting::quantum
