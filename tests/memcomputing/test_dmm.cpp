#include "memcomputing/dmm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "memcomputing/sat.h"

namespace rebooting::memcomputing {
namespace {

TEST(Dmm, SolvesTinyFormula) {
  Cnf cnf(3);
  cnf.add_clause({1, 2});
  cnf.add_clause({-1, 3});
  cnf.add_clause({-2, -3});
  core::Rng rng(1);
  const DmmResult r = DmmSolver(cnf, {}).solve(rng);
  ASSERT_TRUE(r.satisfied);
  EXPECT_TRUE(cnf.satisfied(r.assignment));
  EXPECT_EQ(r.best_unsatisfied, 0u);
}

TEST(Dmm, SolvesPlantedThreeSat) {
  core::Rng rng(3);
  for (int trial = 0; trial < 3; ++trial) {
    const auto inst = planted_ksat(rng, 60, 255, 3);
    const DmmResult r = DmmSolver(inst.cnf, {}).solve(rng);
    ASSERT_TRUE(r.satisfied) << "trial " << trial;
    EXPECT_TRUE(inst.cnf.satisfied(r.assignment));
  }
}

TEST(Dmm, PointDissipativeVoltagesBounded) {
  // The defining property of valid DMM dynamics (Sec. IV): trajectories stay
  // bounded — voltages never leave [-1, 1].
  core::Rng rng(5);
  const auto inst = planted_ksat(rng, 40, 170, 3);
  DmmOptions opts;
  opts.max_steps = 20000;
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  EXPECT_LE(r.max_abs_voltage, 1.0 + 1e-12);
}

TEST(Dmm, SolutionIsFixedPoint) {
  // Starting AT a solution, the dynamics stay there (equilibria == solutions).
  Cnf cnf(2);
  cnf.add_clause({1, 2});
  cnf.add_clause({-1, 2});
  core::Rng rng(7);
  // x2 = true satisfies everything; v = (+-, +1).
  const DmmResult r =
      DmmSolver(cnf, {}).solve_from({0.5, 1.0}, rng);
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.steps, 0u);  // recognized immediately
}

TEST(Dmm, EnergyTraceRecordedAndDecreasing) {
  core::Rng rng(9);
  const auto inst = planted_ksat(rng, 40, 170, 3);
  DmmOptions opts;
  opts.energy_stride = 10;
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  ASSERT_GT(r.energy_trace.size(), 2u);
  // Clause energy at the end well below the start (global descent trend).
  EXPECT_LT(r.energy_trace.back(), r.energy_trace.front());
}

TEST(Dmm, AvalancheTrackingRecordsFlips) {
  core::Rng rng(11);
  const auto inst = planted_ksat(rng, 40, 170, 3);
  DmmOptions opts;
  opts.track_avalanches = true;
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  ASSERT_TRUE(r.satisfied);
  EXPECT_FALSE(r.avalanche_sizes.empty());
  std::size_t total_flips = 0;
  for (const std::size_t s : r.avalanche_sizes) {
    EXPECT_GE(s, 1u);
    total_flips += s;
  }
  EXPECT_GT(total_flips, 0u);
}

TEST(Dmm, NoiseToleratedAtModerateAmplitude) {
  // The paper's robustness claim (ref [59]): moderate dynamical noise does
  // not destroy the solution search.
  core::Rng rng(13);
  const auto inst = planted_ksat(rng, 40, 170, 3);
  DmmOptions opts;
  opts.params.noise_stddev = 0.05;
  opts.max_steps = 500000;
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  EXPECT_TRUE(r.satisfied);
}

TEST(Dmm, StepLimitReportedWhenUnsolvable) {
  Cnf cnf(1);
  cnf.add_clause({1});
  cnf.add_clause({-1});
  core::Rng rng(15);
  DmmOptions opts;
  opts.max_steps = 2000;
  const DmmResult r = DmmSolver(cnf, opts).solve(rng);
  EXPECT_FALSE(r.satisfied);
  EXPECT_TRUE(r.hit_limit);
  EXPECT_EQ(r.best_unsatisfied, 1u);
}

TEST(Dmm, MaxSatModeMinimizesWeight) {
  // Two soft constraints conflict; the heavier one should win.
  Cnf cnf(1);
  cnf.add_clause({1}, 5.0);
  cnf.add_clause({-1}, 1.0);
  core::Rng rng(17);
  DmmOptions opts;
  opts.maxsat_mode = true;
  opts.max_steps = 5000;
  const DmmResult r = DmmSolver(cnf, opts).solve(rng);
  EXPECT_TRUE(r.assignment[1]);  // satisfy the weight-5 clause
  EXPECT_DOUBLE_EQ(r.best_unsatisfied_weight, 1.0);
}

TEST(Dmm, AblationRigidityOffStillSolvesEasyInstances) {
  core::Rng rng(19);
  const auto inst = planted_ksat(rng, 20, 60, 3);
  DmmOptions opts;
  opts.params.rigidity = false;
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  EXPECT_TRUE(r.satisfied);
}

TEST(Dmm, AblationLongTermMemoryOffStillSolvesEasyInstances) {
  core::Rng rng(21);
  const auto inst = planted_ksat(rng, 20, 60, 3);
  DmmOptions opts;
  opts.params.long_term_memory = false;
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  EXPECT_TRUE(r.satisfied);
}

TEST(Dmm, AgreesWithDpllVerdictOnSatInstances) {
  core::Rng rng(23);
  for (int trial = 0; trial < 4; ++trial) {
    const Cnf cnf = random_ksat(rng, 20, 80, 3);
    const SatResult complete = dpll(cnf);
    if (!complete.satisfied) continue;  // DMM cannot certify UNSAT
    DmmOptions opts;
    opts.max_steps = 300000;
    const DmmResult r = DmmSolver(cnf, opts).solve(rng);
    EXPECT_TRUE(r.satisfied);
  }
}

class DmmRatioSweep : public ::testing::TestWithParam<double> {};

TEST_P(DmmRatioSweep, SolvesPlantedInstancesAcrossClauseRatios) {
  const double ratio = GetParam();
  core::Rng rng(static_cast<std::uint64_t>(ratio * 1000));
  const std::size_t n = 50;
  const auto m = static_cast<std::size_t>(ratio * static_cast<double>(n));
  for (int trial = 0; trial < 2; ++trial) {
    const auto inst = planted_ksat(rng, n, m, 3);
    DmmOptions opts;
    opts.max_steps = 400'000;
    const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
    ASSERT_TRUE(r.satisfied) << "ratio " << ratio << " trial " << trial;
    EXPECT_TRUE(inst.cnf.satisfied(r.assignment));
  }
}

INSTANTIATE_TEST_SUITE_P(ClauseRatios, DmmRatioSweep,
                         ::testing::Values(2.0, 3.0, 4.0, 4.25, 5.0, 6.0));

// Golden-trajectory regression tests: the fingerprints below were captured
// from the pre-kernel std::function implementation. The static-dispatch
// kernel must reproduce the seed trajectories bit-for-bit — any drift here
// means the refactor changed the arithmetic, not just the dispatch.
TEST(DmmGolden, TinyFormulaTrajectoryUnchanged) {
  Cnf cnf(3);
  cnf.add_clause({1, 2});
  cnf.add_clause({-1, 3});
  cnf.add_clause({-2, -3});
  core::Rng rng(42);
  const DmmResult r = DmmSolver(cnf, {}).solve(rng);
  ASSERT_TRUE(r.satisfied);
  EXPECT_EQ(r.steps, 4u);
  EXPECT_EQ(r.sim_time, 0.93332303461574861);
  EXPECT_EQ(r.best_unsatisfied, 0u);
  ASSERT_EQ(r.assignment.size(), 4u);
  EXPECT_FALSE(r.assignment[1]);
  EXPECT_TRUE(r.assignment[2]);
  EXPECT_FALSE(r.assignment[3]);
}

TEST(DmmGolden, PlantedInstanceTrajectoryUnchanged) {
  core::Rng gen(1234);
  const auto inst = planted_ksat(gen, 30, 126, 3);
  DmmOptions opts;
  opts.energy_stride = 8;
  opts.max_steps = 200000;
  core::Rng rng(99);
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  ASSERT_TRUE(r.satisfied);
  EXPECT_EQ(r.steps, 255u);
  EXPECT_EQ(r.sim_time, 11.197302839143459);
  EXPECT_EQ(r.max_abs_voltage, 1.0);
  ASSERT_EQ(r.energy_trace.size(), 32u);
  EXPECT_EQ(r.energy_trace[0], 33.890063716783047);
  EXPECT_EQ(r.energy_trace[1], 25.983609457064752);
  EXPECT_EQ(r.energy_trace.back(), 3.1076325184000861);
}

TEST(DmmGolden, NoisyTrajectoryUnchanged) {
  core::Rng gen(7);
  const auto inst = planted_ksat(gen, 20, 80, 3);
  DmmOptions opts;
  opts.params.noise_stddev = 0.05;
  opts.max_steps = 5000;
  core::Rng rng(5);
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  ASSERT_TRUE(r.satisfied);
  EXPECT_EQ(r.steps, 15u);
  EXPECT_EQ(r.sim_time, 0.67140313066683166);
}

TEST(DmmEnsemble, WinnerIdenticalAcrossThreadCounts) {
  core::Rng gen(77);
  const auto inst = planted_ksat(gen, 30, 126, 3);
  DmmOptions opts;
  opts.max_steps = 100000;
  const DmmSolver solver(inst.cnf, opts);

  const auto run = [&](std::size_t threads) {
    DmmEnsembleOptions eopts;
    eopts.threads = threads;
    return solver.solve_ensemble(16, 2026, eopts);
  };
  const DmmEnsembleResult serial = run(1);
  const DmmEnsembleResult four = run(4);
  const DmmEnsembleResult eight = run(8);

  ASSERT_TRUE(serial.any_satisfied);
  for (const DmmEnsembleResult* er : {&four, &eight}) {
    EXPECT_EQ(er->any_satisfied, serial.any_satisfied);
    EXPECT_EQ(er->best_index, serial.best_index);
    EXPECT_EQ(er->best.steps, serial.best.steps);
    EXPECT_EQ(er->best.sim_time, serial.best.sim_time);
    EXPECT_EQ(er->best.assignment, serial.best.assignment);
  }
  // Early stop guarantees everything up to the winner ran, bit-identically.
  for (std::size_t i = 0; i <= serial.best_index; ++i) {
    ASSERT_TRUE(serial.ran[i] && four.ran[i] && eight.ran[i]) << "i=" << i;
    EXPECT_EQ(four.results[i].steps, serial.results[i].steps) << "i=" << i;
    EXPECT_EQ(eight.results[i].sim_time, serial.results[i].sim_time)
        << "i=" << i;
  }
}

TEST(DmmEnsemble, EnsembleTrajectoryMatchesDirectStreamSolve) {
  // Restart i of an ensemble must be exactly solve() with Rng::stream(seed, i)
  // — the parallel driver adds scheduling, never different dynamics.
  core::Rng gen(31);
  const auto inst = planted_ksat(gen, 20, 80, 3);
  DmmOptions opts;
  opts.max_steps = 50000;
  const DmmSolver solver(inst.cnf, opts);

  DmmEnsembleOptions eopts;
  eopts.threads = 2;
  eopts.stop_on_first_solution = false;  // run all restarts
  const DmmEnsembleResult er = solver.solve_ensemble(6, 12345, eopts);
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(er.ran[i]);
    core::Rng rng = core::Rng::stream(12345, i);
    const DmmResult direct = solver.solve(rng);
    EXPECT_EQ(er.results[i].steps, direct.steps) << "i=" << i;
    EXPECT_EQ(er.results[i].sim_time, direct.sim_time) << "i=" << i;
    EXPECT_EQ(er.results[i].satisfied, direct.satisfied) << "i=" << i;
    EXPECT_EQ(er.results[i].assignment, direct.assignment) << "i=" << i;
  }
}

TEST(DmmEnsemble, ReportsBestRestartWhenNoneSatisfies) {
  Cnf cnf(1);
  cnf.add_clause({1});
  cnf.add_clause({-1});
  DmmOptions opts;
  opts.max_steps = 500;
  const DmmSolver solver(cnf, opts);
  DmmEnsembleOptions eopts;
  eopts.threads = 4;
  const DmmEnsembleResult er = solver.solve_ensemble(8, 9, eopts);
  EXPECT_FALSE(er.any_satisfied);
  EXPECT_FALSE(er.best.satisfied);
  EXPECT_EQ(er.best.best_unsatisfied, 1u);
  // Unsatisfiable: no early stop, so every restart ran.
  for (std::size_t i = 0; i < 8; ++i) EXPECT_TRUE(er.ran[i]) << "i=" << i;
}

TEST(DmmEnsemble, RejectsZeroRestarts) {
  Cnf cnf(1);
  cnf.add_clause({1});
  EXPECT_THROW(DmmSolver(cnf, {}).solve_ensemble(0, 1), std::invalid_argument);
}

// --- sliced execution (DESIGN.md §12): N budgeted advances must be
// bit-identical to one unlimited solve, wherever the cuts fall. -----------

TEST(DmmSliced, BudgetedAdvancesMatchUninterruptedSolve) {
  core::Rng gen(1234);
  const auto inst = planted_ksat(gen, 30, 126, 3);
  DmmOptions opts;
  opts.energy_stride = 8;
  opts.track_avalanches = true;
  opts.max_steps = 200000;
  const DmmSolver solver(inst.cnf, opts);

  std::vector<core::Real> v0(30);
  core::Rng init(555);
  for (auto& v : v0) v = init.uniform(-1.0, 1.0);

  core::Rng direct_rng(99);
  const DmmResult direct = solver.solve_from(v0, direct_rng);
  ASSERT_TRUE(direct.satisfied);

  for (const std::size_t slice_steps : {1u, 7u, 64u}) {
    core::Workspace ws;
    core::Checkpoint ckpt = solver.begin(v0, core::Rng(99));
    DmmSliceOutcome out;
    std::size_t slices = 0;
    do {
      out = solver.advance(ckpt, core::SliceBudget::steps(slice_steps), ws);
      ++slices;
      ASSERT_LE(slices, 100000u);
    } while (!out.done);
    EXPECT_GE(slices, direct.steps / slice_steps);
    EXPECT_EQ(out.result.satisfied, direct.satisfied);
    EXPECT_EQ(out.result.steps, direct.steps);
    EXPECT_EQ(out.result.sim_time, direct.sim_time);
    EXPECT_EQ(out.result.steps_to_best, direct.steps_to_best);
    EXPECT_EQ(out.result.assignment, direct.assignment);
    EXPECT_EQ(out.result.max_abs_voltage, direct.max_abs_voltage);
    EXPECT_EQ(out.result.energy_trace, direct.energy_trace);
    EXPECT_EQ(out.result.avalanche_sizes, direct.avalanche_sizes);
    // A finished checkpoint reconstructs the same result on demand.
    const DmmResult recon = solver.result_from_checkpoint(ckpt);
    EXPECT_EQ(recon.steps, direct.steps);
    EXPECT_EQ(recon.sim_time, direct.sim_time);
    EXPECT_EQ(recon.energy_trace, direct.energy_trace);
    EXPECT_EQ(recon.assignment, direct.assignment);
  }
}

TEST(DmmSliced, JsonParkAndResumeMidTrajectoryIsExact) {
  // Noisy run: the RNG stream (including the cached Box–Muller deviate)
  // must survive the JSON round trip mid-flight.
  core::Rng gen(7);
  const auto inst = planted_ksat(gen, 20, 80, 3);
  DmmOptions opts;
  opts.params.noise_stddev = 0.05;
  opts.max_steps = 5000;
  const DmmSolver solver(inst.cnf, opts);

  std::vector<core::Real> v0(20);
  core::Rng init(11);
  for (auto& v : v0) v = init.uniform(-1.0, 1.0);

  core::Rng direct_rng(5);
  const DmmResult direct = solver.solve_from(v0, direct_rng);

  core::Workspace ws;
  core::Checkpoint ckpt = solver.begin(v0, core::Rng(5));
  DmmSliceOutcome out;
  do {
    out = solver.advance(ckpt, core::SliceBudget::steps(3), ws);
    const auto parked = core::Checkpoint::from_json(ckpt.json_dump());
    ASSERT_TRUE(parked.has_value());
    EXPECT_EQ(*parked, ckpt);
    ckpt = *parked;  // resume from the deserialized copy every slice
  } while (!out.done);
  EXPECT_EQ(out.result.steps, direct.steps);
  EXPECT_EQ(out.result.sim_time, direct.sim_time);
  EXPECT_EQ(out.result.satisfied, direct.satisfied);
  EXPECT_EQ(out.result.assignment, direct.assignment);
}

TEST(DmmSliced, RejectsForeignCheckpoints) {
  Cnf cnf(2);
  cnf.add_clause({1, 2});
  const DmmSolver solver(cnf, {});
  core::Workspace ws;
  core::Checkpoint ckpt;
  ckpt.tag = "oscillator";
  EXPECT_THROW(solver.advance(ckpt, core::SliceBudget{}, ws),
               std::invalid_argument);
  EXPECT_THROW(solver.result_from_checkpoint(ckpt), std::invalid_argument);
  // Unfinished checkpoints have no result yet.
  core::Rng rng(3);
  core::Checkpoint fresh = solver.begin({0.5, -0.5}, rng);
  if (!fresh.flags.empty() && fresh.flags[0] == 0) {
    EXPECT_THROW(solver.result_from_checkpoint(fresh), std::invalid_argument);
  }
}

TEST(DmmSlicedEnsemble, SlicedEnsembleMatchesUnsliced) {
  core::Rng gen(77);
  const auto inst = planted_ksat(gen, 30, 126, 3);
  DmmOptions opts;
  opts.max_steps = 100000;
  const DmmSolver solver(inst.cnf, opts);

  DmmEnsembleOptions eopts;
  eopts.threads = 4;
  const DmmEnsembleResult whole = solver.solve_ensemble(16, 2026, eopts);
  ASSERT_TRUE(whole.any_satisfied);
  // Slice well below the winner's trajectory length so the ensemble is
  // guaranteed to cross several invocation boundaries before finishing.
  const std::size_t slice = std::max<std::size_t>(1, whole.best.steps / 4);

  core::EnsembleCheckpoint ckpt;
  DmmEnsembleResult sliced;
  std::size_t rounds = 0;
  for (;;) {
    const bool done = solver.solve_ensemble_slice(
        16, 2026, eopts, core::SliceBudget::steps(slice), ckpt, &sliced);
    ++rounds;
    ASSERT_LE(rounds, 100000u);
    if (done) break;
    // Park the whole ensemble through JSON mid-flight (crash-resume path).
    const auto parked = core::EnsembleCheckpoint::from_json(ckpt.json_dump());
    ASSERT_TRUE(parked.has_value());
    ckpt = *parked;
  }
  EXPECT_GE(rounds, 4u);
  EXPECT_EQ(sliced.any_satisfied, whole.any_satisfied);
  EXPECT_EQ(sliced.best_index, whole.best_index);
  EXPECT_EQ(sliced.best.steps, whole.best.steps);
  EXPECT_EQ(sliced.best.sim_time, whole.best.sim_time);
  EXPECT_EQ(sliced.best.assignment, whole.best.assignment);
  for (std::size_t i = 0; i <= whole.best_index; ++i) {
    ASSERT_TRUE(whole.ran[i] && sliced.ran[i]) << "i=" << i;
    EXPECT_EQ(sliced.results[i].steps, whole.results[i].steps) << "i=" << i;
    EXPECT_EQ(sliced.results[i].sim_time, whole.results[i].sim_time)
        << "i=" << i;
  }
}

// --- oracle: the solve loop as it stood before the flat clause arrays -----
//
// reference_solve keeps the per-clause vectors, the branching min search
// and the full Cnf recount on every step with a sign flip, verbatim. The
// solver's flat arrays, branch-free sweep<K> and incremental unsatisfied
// count must reproduce its DmmResult field for field, and its RNG position.

struct ReferenceClause {
  std::vector<std::size_t> vars;
  std::vector<core::Real> q;
  core::Real weight = 1.0;
};

DmmResult reference_solve(const Cnf& cnf, const DmmOptions& opts,
                          std::vector<core::Real> v0, core::Rng& rng) {
  std::vector<ReferenceClause> clauses;
  for (const Clause& c : cnf.clauses()) {
    ReferenceClause d;
    d.weight = c.weight;
    for (const Literal lit : c.literals) {
      d.vars.push_back(static_cast<std::size_t>(std::abs(lit)) - 1);
      d.q.push_back(lit > 0 ? 1.0 : -1.0);
    }
    clauses.push_back(std::move(d));
  }
  const std::size_t n = cnf.num_variables();
  const std::size_t m = clauses.size();
  const DmmParams& p = opts.params;

  std::vector<core::Real> v = std::move(v0);
  std::vector<core::Real> xs(m, 0.5), xl(m, 1.0);
  std::vector<core::Real> dv(n), dxs(m), dxl(m);
  core::Real clause_energy = 0.0;
  const auto rhs = [&] {
    std::fill(dv.begin(), dv.end(), 0.0);
    clause_energy = 0.0;
    for (std::size_t cm = 0; cm < m; ++cm) {
      const ReferenceClause& c = clauses[cm];
      const std::size_t k = c.vars.size();
      core::Real min1 = 2.0, min2 = 2.0;
      std::size_t arg1 = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const core::Real s = 1.0 - c.q[i] * v[c.vars[i]];
        if (s < min1) {
          min2 = min1;
          min1 = s;
          arg1 = i;
        } else if (s < min2) {
          min2 = s;
        }
      }
      const core::Real cmeas = 0.5 * min1;
      clause_energy += cmeas;
      const core::Real gate_g = xl[cm] * xs[cm];
      const core::Real gate_r = (1.0 + p.zeta * xl[cm]) * (1.0 - xs[cm]);
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t var = c.vars[i];
        const core::Real min_excl = (i == arg1) ? min2 : min1;
        const core::Real g_term = 0.5 * c.q[i] * min_excl;
        core::Real r_term = 0.0;
        if (p.rigidity && i == arg1) r_term = 0.5 * (c.q[i] - v[var]);
        dv[var] += c.weight * (gate_g * g_term + gate_r * r_term);
      }
      dxs[cm] = p.beta * (xs[cm] + p.epsilon) * (cmeas - p.gamma);
      dxl[cm] = p.long_term_memory ? p.alpha * (cmeas - p.delta) : 0.0;
    }
  };

  DmmResult result;
  Assignment a(n + 1, false);
  for (std::size_t i = 0; i < n; ++i) a[i + 1] = v[i] > 0.0;
  const std::size_t unsat0 = cnf.count_unsatisfied(a);
  result.assignment = a;
  result.best_unsatisfied = unsat0;
  core::Real best_weight = opts.maxsat_mode ? cnf.unsatisfied_weight(a)
                                            : static_cast<core::Real>(unsat0);
  if (unsat0 == 0) {
    result.satisfied = true;
    return result;
  }

  std::vector<unsigned char> sign_bit(n);
  for (std::size_t i = 0; i < n; ++i) sign_bit[i] = v[i] > 0.0 ? 1 : 0;
  const core::Real xl_ceiling = p.xl_max * static_cast<core::Real>(m);
  bool finished = false;
  for (std::size_t step = 0; step < opts.max_steps; ++step) {
    rhs();
    core::Real max_rate = 0.0;
    for (const core::Real r : dv) max_rate = std::max(max_rate, std::abs(r));
    const core::Real dt_wanted =
        (max_rate > 0.0) ? p.dv_cap / max_rate : p.dt_max;
    const core::Real dt = std::clamp(dt_wanted, p.dt_min, p.dt_max);
    const core::Real noise_scale =
        p.noise_stddev > 0.0 ? p.noise_stddev * std::sqrt(dt) : 0.0;
    std::size_t flips = 0;
    for (std::size_t i = 0; i < n; ++i) {
      core::Real nv = v[i] + dt * dv[i];
      if (noise_scale > 0.0) nv += noise_scale * rng.normal();
      v[i] = std::clamp(nv, -1.0, 1.0);
      result.max_abs_voltage = std::max(result.max_abs_voltage, std::abs(v[i]));
      const unsigned char s = v[i] > 0.0 ? 1 : 0;
      if (s != sign_bit[i]) {
        sign_bit[i] = s;
        ++flips;
      }
    }
    for (std::size_t cm = 0; cm < m; ++cm) {
      xs[cm] = std::clamp(xs[cm] + dt * dxs[cm], 0.0, 1.0);
      xl[cm] = std::clamp(xl[cm] + dt * dxl[cm], 1.0, xl_ceiling);
    }
    result.sim_time += dt;
    ++result.steps;
    if (opts.track_avalanches && flips > 0)
      result.avalanche_sizes.push_back(flips);
    if (opts.energy_stride > 0 && step % opts.energy_stride == 0)
      result.energy_trace.push_back(clause_energy);
    if (flips > 0) {
      for (std::size_t i = 0; i < n; ++i) a[i + 1] = v[i] > 0.0;
      const std::size_t unsat = cnf.count_unsatisfied(a);
      result.best_unsatisfied = std::min(result.best_unsatisfied, unsat);
      const core::Real w = opts.maxsat_mode ? cnf.unsatisfied_weight(a)
                                            : static_cast<core::Real>(unsat);
      if (best_weight < 0.0 || w < best_weight) {
        best_weight = w;
        result.assignment = a;
        result.steps_to_best = result.steps;
      }
      if (unsat == 0 && !opts.maxsat_mode) {
        result.satisfied = true;
        result.best_unsatisfied = 0;
        result.best_unsatisfied_weight = 0.0;
        finished = true;
        break;
      }
    }
  }
  if (!finished && result.steps >= opts.max_steps) {
    result.hit_limit = true;
    result.satisfied = result.best_unsatisfied == 0;
    result.best_unsatisfied_weight =
        opts.maxsat_mode ? std::max(best_weight, 0.0)
                         : static_cast<core::Real>(result.best_unsatisfied);
  }
  return result;
}

void expect_same(const DmmResult& got, const DmmResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.satisfied, want.satisfied) << what;
  EXPECT_EQ(got.assignment, want.assignment) << what;
  EXPECT_EQ(got.steps, want.steps) << what;
  EXPECT_EQ(got.steps_to_best, want.steps_to_best) << what;
  EXPECT_EQ(got.sim_time, want.sim_time) << what;
  EXPECT_EQ(got.best_unsatisfied, want.best_unsatisfied) << what;
  EXPECT_EQ(got.best_unsatisfied_weight, want.best_unsatisfied_weight)
      << what;
  EXPECT_EQ(got.hit_limit, want.hit_limit) << what;
  EXPECT_EQ(got.energy_trace, want.energy_trace) << what;
  EXPECT_EQ(got.avalanche_sizes, want.avalanche_sizes) << what;
  EXPECT_EQ(got.max_abs_voltage, want.max_abs_voltage) << what;
}

/// Random formula of widths 1-5 (or exactly 3), literals drawn with
/// replacement so clauses may repeat a variable, plus one clause with a
/// repeated literal and one tautology. Weighted formulas mix zero,
/// fractional and integral weights.
Cnf random_formula(core::Rng& rng, std::size_t n, std::size_t m,
                   bool width3, bool weighted) {
  Cnf cnf(n);
  const core::Real weights[] = {0.0, 0.1, 0.25, 1.0, 2.5};
  const auto literal = [&] {
    const auto var = static_cast<Literal>(1 + rng.uniform_index(n));
    return rng.bernoulli(0.5) ? var : -var;
  };
  for (std::size_t c = 0; c < m; ++c) {
    Clause clause;
    const std::size_t k = width3 ? 3 : 1 + rng.uniform_index(5);
    for (std::size_t i = 0; i < k; ++i) clause.literals.push_back(literal());
    if (weighted) clause.weight = weights[rng.uniform_index(5)];
    cnf.add_clause(std::move(clause));
  }
  const Literal x = literal();
  const Literal y = literal();
  if (width3) {
    cnf.add_clause({x, x, y});
    cnf.add_clause({x, -x, y});
  } else {
    cnf.add_clause({x, x});
    cnf.add_clause({y, -y});
  }
  return cnf;
}

std::vector<core::Real> random_voltages(core::Rng& rng, std::size_t n) {
  std::vector<core::Real> v0(n);
  for (core::Real& v : v0) v = rng.uniform(-1.0, 1.0);
  return v0;
}

/// The option variants the oracle sweeps: each toggles one path of the loop.
std::vector<std::pair<std::string, DmmOptions>> oracle_variants() {
  std::vector<std::pair<std::string, DmmOptions>> out;
  DmmOptions base;
  base.max_steps = 1500;
  base.energy_stride = 7;
  base.track_avalanches = true;
  out.emplace_back("base", base);
  DmmOptions o = base;
  o.maxsat_mode = true;
  out.emplace_back("maxsat", o);
  o = base;
  o.params.rigidity = false;
  out.emplace_back("no-rigidity", o);
  o = base;
  o.params.long_term_memory = false;
  out.emplace_back("no-long-term-memory", o);
  o = base;
  o.params.noise_stddev = 0.2;
  out.emplace_back("noise", o);
  o = base;
  o.energy_stride = 0;
  o.track_avalanches = false;
  o.max_steps = 400;
  out.emplace_back("no-traces", o);
  o.maxsat_mode = true;
  o.params.noise_stddev = 0.05;
  out.emplace_back("maxsat-noise", o);
  return out;
}

TEST(DmmOracle, FlatSweepAndIncrementalReadoutMatchReferenceLoop) {
  core::Rng gen(2024);
  std::size_t cases = 0;
  for (const bool width3 : {false, true}) {
    for (const bool weighted : {false, true}) {
      for (int f = 0; f < 3; ++f) {
        // Ratios from easy to over-constrained, so some runs solve early
        // and others exhaust the budget.
        const std::size_t n = 6 + gen.uniform_index(20);
        const std::size_t m = n * (2 + gen.uniform_index(6));
        const Cnf cnf = random_formula(gen, n, m, width3, weighted);
        for (const auto& [name, opts] : oracle_variants()) {
          const std::vector<core::Real> v0 = random_voltages(gen, n);
          const std::uint64_t seed = gen();
          core::Rng want_rng(seed), got_rng(seed);
          const DmmResult want = reference_solve(cnf, opts, v0, want_rng);
          const DmmResult got = DmmSolver(cnf, opts).solve_from(v0, got_rng);
          const std::string what = name + (width3 ? " width3" : " mixed") +
                                   (weighted ? " weighted" : "") + " n=" +
                                   std::to_string(n) + " m=" +
                                   std::to_string(m);
          expect_same(got, want, what);
          EXPECT_EQ(got_rng.save(), want_rng.save()) << what;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 12 * oracle_variants().size());
}

TEST(DmmOracle, SlicedJsonResumeMatchesReferenceLoop) {
  core::Rng gen(77);
  // Shared across formulas and variants, so it hands out stale blocks.
  core::Workspace shared;
  for (const bool width3 : {false, true}) {
    const std::size_t n = 14;
    const Cnf cnf = random_formula(gen, n, 5 * n, width3, /*weighted=*/true);
    for (const auto& [name, opts] : oracle_variants()) {
      const std::vector<core::Real> v0 = random_voltages(gen, n);
      const std::uint64_t seed = gen();
      core::Rng want_rng(seed);
      const DmmResult want = reference_solve(cnf, opts, v0, want_rng);

      const DmmSolver solver(cnf, opts);
      core::Checkpoint ckpt = solver.begin(v0, core::Rng(seed));
      DmmSliceOutcome out;
      std::size_t slices = 0;
      do {
        // Every other slice runs in a fresh workspace: a resumed trajectory
        // may depend on nothing but the checkpoint.
        core::Workspace fresh;
        core::Workspace& ws = slices % 2 ? fresh : shared;
        out = solver.advance(ckpt, core::SliceBudget::steps(1 + slices % 5),
                             ws);
        const auto parked = core::Checkpoint::from_json(ckpt.json_dump());
        ASSERT_TRUE(parked.has_value());
        ckpt = *parked;
        ASSERT_LE(++slices, 100000u);
      } while (!out.done);
      const std::string what = name + (width3 ? " width3" : " mixed");
      expect_same(out.result, want, what);
      expect_same(solver.result_from_checkpoint(ckpt), want, what);
      EXPECT_EQ(ckpt.rng, want_rng.save()) << what;
    }
  }
}

TEST(DmmOracle, SatisfiedStartMatchesReferenceLoop) {
  Cnf cnf(3);
  cnf.add_clause({1, -2});
  cnf.add_clause({3}, 0.5);
  for (const bool maxsat : {false, true}) {
    DmmOptions opts;
    opts.maxsat_mode = maxsat;
    core::Rng want_rng(8), got_rng(8);
    const DmmResult want =
        reference_solve(cnf, opts, {0.5, 0.25, 0.75}, want_rng);
    const DmmResult got =
        DmmSolver(cnf, opts).solve_from({0.5, 0.25, 0.75}, got_rng);
    ASSERT_TRUE(want.satisfied);
    expect_same(got, want, maxsat ? "maxsat" : "sat");
  }
}

TEST(Dmm, SolverOwnsItsFormula) {
  // The formula is a temporary that dies at the end of the declaration; the
  // solver must not keep a reference to it.
  DmmOptions opts;
  opts.max_steps = 100000;
  core::Rng gen(4321);
  const DmmSolver solver(planted_ksat(gen, 30, 126, 3).cnf, opts);
  core::Rng regen(4321);
  const Cnf kept = planted_ksat(regen, 30, 126, 3).cnf;

  core::Rng rng(3), ref_rng(3);
  const DmmResult r = solver.solve(rng);
  const DmmResult want = DmmSolver(kept, opts).solve(ref_rng);
  expect_same(r, want, "from a temporary");
  ASSERT_TRUE(r.satisfied);
  EXPECT_TRUE(kept.satisfied(r.assignment));
}

TEST(Dmm, EmptyFormulaRejected) {
  Cnf cnf(3);
  EXPECT_THROW(DmmSolver(cnf, {}), std::invalid_argument);
}

TEST(Dmm, BadInitialStateRejected) {
  Cnf cnf(2);
  cnf.add_clause({1, 2});
  core::Rng rng(1);
  EXPECT_THROW(DmmSolver(cnf, {}).solve_from({0.1}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace rebooting::memcomputing
