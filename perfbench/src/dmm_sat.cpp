// dmm_sat: a single-thread closed loop of fresh random 3-SAT instances
// (n in [100, 200], m = 4n) solved by DmmSolver::solve, bypassing every
// cache.
//
// Instances carry a planted solution, so every one is satisfiable and no
// operation fails for lack of a solution. Each trajectory gets a fixed step
// budget that most trajectories meet; an unsolved trajectory restarts from
// fresh initial voltages, up to kRestarts times. Without the restarts the
// time to solution has a power-law tail (a rare trajectory takes 100x the
// median), and no tail percentile of a 20-second run would repeat from one
// seed to the next; with them the tail is geometric.
#include <string>
#include <vector>

#include "core/random.h"
#include "harness.h"
#include "memcomputing/cnf.h"
#include "memcomputing/dmm.h"

namespace perfbench {

namespace {

using rebooting::core::Rng;
namespace mc = rebooting::memcomputing;

constexpr std::size_t kStepBudget = 2000;
constexpr std::size_t kRestarts = 32;
constexpr std::size_t kSetupInstances = 256;
constexpr std::size_t kProbes = 48;
constexpr int kSetupReps = 15;

std::size_t variables(std::size_t i) { return 100 + (i * 37) % 101; }

mc::Cnf make_instance(std::uint64_t stream, std::size_t i) {
  Rng rng = Rng::stream(stream, i);
  const std::size_t n = variables(i);
  return mc::planted_ksat(rng, n, 4 * n, 3).cnf;
}

/// Independent clause-by-clause check of a claimed assignment.
bool satisfies(const mc::Cnf& cnf, const mc::Assignment& a) {
  if (a.size() != cnf.num_variables() + 1) return false;
  for (const mc::Clause& clause : cnf.clauses()) {
    bool sat = false;
    for (const mc::Literal lit : clause.literals) {
      const auto var = static_cast<std::size_t>(lit > 0 ? lit : -lit);
      if (a[var] == (lit > 0)) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

struct Outcome {
  bool solved = false;
  std::size_t steps = 0;
  mc::Assignment assignment;
};

/// Up to kRestarts budgeted trajectories, each from its own RNG stream.
Outcome solve(const mc::DmmSolver& solver, std::uint64_t seed,
              std::size_t i) {
  Outcome out;
  for (std::size_t r = 0; r < kRestarts && !out.solved; ++r) {
    Rng rng = Rng::stream(seed ^ 0xd1b54a32d192ed03ull, i * kRestarts + r);
    mc::DmmResult res = [&] {
      SpanScope span("dmm.solve");
      return solver.solve(rng);
    }();
    out.steps += res.steps;
    out.solved = res.satisfied;
    if (out.solved) out.assignment = std::move(res.assignment);
  }
  return out;
}

mc::DmmOptions options() {
  mc::DmmOptions opts;
  opts.max_steps = kStepBudget;
  return opts;
}

void check(const mc::Cnf& cnf, const Outcome& out, Report& report,
           Phase& phase) {
  ++phase.attempted;
  if (!out.solved) {
    ++phase.unsolved;
    return;
  }
  const bool ok = satisfies(cnf, out.assignment);
  report.check(ok, "dmm: claimed assignment violates its CNF (n=" +
                       std::to_string(cnf.num_variables()) + ")");
  if (ok)
    ++phase.succeeded;
  else
    ++phase.wrong;
}

Loop run_loop(std::uint64_t seed, double seconds, std::size_t first,
              Report& report, Phase& phase) {
  mc::Cnf cnf;
  Outcome out;
  return closed_loop(
      seconds, first, [&](std::size_t i) { cnf = make_instance(seed, i); },
      [&](std::size_t i) {
        SpanScope op("bench.op", i + 1);
        const mc::DmmSolver solver = [&] {
          SpanScope span("dmm.construct");
          return mc::DmmSolver(cnf, options());
        }();
        out = solve(solver, seed, i);
      },
      [&](std::size_t) { check(cnf, out, report, phase); });
}

void probe_layers(std::uint64_t seed, Report& report) {
  Phase phase;
  phase.name = "probe";
  std::vector<double> construct_s, solve_s, verify_s;
  double steps = 0.0, solved = 0.0, clause_steps = 0.0, solve_total = 0.0;
  for (std::size_t k = 0; k < kProbes; ++k) {
    const mc::Cnf cnf = make_instance(seed ^ 0x9e3779b97f4a7c15ull, k);
    SpanScope op("bench.probe", k + 1);
    auto t0 = Clock::now();
    const mc::DmmSolver solver = [&] {
      SpanScope span("dmm.construct");
      return mc::DmmSolver(cnf, options());
    }();
    construct_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    const Outcome out = solve(solver, seed ^ 0x9e3779b97f4a7c15ull, k);
    const double dt = seconds_since(t0);
    solve_s.push_back(dt);
    solve_total += dt;
    steps += static_cast<double>(out.steps);
    clause_steps += static_cast<double>(out.steps * cnf.num_clauses());
    if (out.solved) {
      solved += 1.0;
      t0 = Clock::now();
      {
        SpanScope span("dmm.verify");
        report.check(cnf.count_unsatisfied(out.assignment) == 0,
                     "dmm: Cnf::count_unsatisfied disagrees with the solver");
      }
      verify_s.push_back(seconds_since(t0));
    }
    check(cnf, out, report, phase);
  }
  report.set(report.layer, "dmm.construct_s", median_of(construct_s));
  report.set(report.layer, "dmm.solve_s", median_of(solve_s));
  // With no probe solved there is nothing to verify; the metric is then
  // missing, and run.py fails the traced run.
  if (!verify_s.empty())
    report.set(report.layer, "dmm.verify_s", median_of(verify_s));
  report.set(report.layer, "dmm.ns_per_clause_step",
             1e9 * solve_total / clause_steps);
  report.set(report.layer, "dmm.steps", steps);
  report.set(report.layer, "dmm.solved", solved);
  report.set(report.counts, "dmm.steps", steps);
  report.set(report.counts, "dmm.solved", solved);
  report.phases.push_back(phase);
}

}  // namespace

void run_dmm_sat(const Args& args, Report& report) {
  // Set-up: building the solver for each instance of a batch, one at a
  // time, as a user of the engine does before each solve. The instances are
  // generated first, untimed, from their own stream.
  std::vector<mc::Cnf> batch;
  for (std::size_t i = 0; i < kSetupInstances; ++i)
    batch.push_back(make_instance(args.seed ^ 0x5851f42d4c957f2dull, i));
  const double setup_s = median_setup(kSetupReps, [&] {
    for (const mc::Cnf& cnf : batch) mc::DmmSolver solver(cnf, options());
  });
  report.set(report.e2e, "setup_s", setup_s);

  Phase phase;
  phase.name = "closed_loop";
  if (!args.trace) {
    report_closed_loop(report,
                       run_loop(args.seed, args.seconds, 0, report, phase));
  } else {
    const Loop plain = run_loop(args.seed, args.seconds / 2, 0, report, phase);
    set_tracing(true);
    const Loop traced = run_loop(args.seed, args.seconds / 2, plain.completed,
                                 report, phase);
    report.set(report.layer, "trace.overhead_pct",
               overhead_pct(plain.latency, traced.latency));
    probe_layers(args.seed, report);
    set_tracing(false);
  }
  report.phases.insert(report.phases.begin(), phase);
}

}  // namespace perfbench
