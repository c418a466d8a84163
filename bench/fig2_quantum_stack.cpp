// E10 — Fig. 1/2 reproduction: the quantum accelerator as one device in a
// heterogeneous host system, with the full stack (application -> algorithm ->
// compiler -> QISA -> microarchitecture -> device) reporting per-layer
// statistics for representative workloads, plus the compiler ablation
// (topology and optimizer) called out in DESIGN.md.
//
// Exit-gated: exits 1 when routing QFT-6 (optimizer on) does not insert
// exactly 0 / 26 / 17 SWAPs on all-to-all / line / grid 2x3, or when the
// optimizer removes less than 60 % of the redundant workload's gates
// (measured 60 -> 24). The verdict goes to stderr, so stdout is unchanged.
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/accelerator.h"
#include "core/table.h"
#include "quantum/algorithms.h"
#include "quantum/qisa.h"
#include "quantum/runtime.h"

using namespace rebooting;
using namespace rebooting::quantum;

namespace {

Circuit ghz_circuit(std::size_t n) {
  Circuit c(n);
  c.h(0);
  for (std::size_t q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  return c;
}

Circuit qft_workload(std::size_t n) {
  Circuit c(n);
  for (std::size_t q = 0; q < n; ++q) c.h(q);
  c.append(qft_circuit(n));
  return c;
}

}  // namespace

int main() {
  core::print_banner(std::cout,
                     "E10 / Fig. 1+2 — quantum accelerator stack in the "
                     "heterogeneous host");

  core::Rng rng(8);
  core::HostSystem host;
  auto accel = std::make_shared<QuantumAccelerator>(
      QuantumDeviceConfig{.topology = Topology::line(8)});
  host.register_accelerator(accel);

  struct Workload {
    const char* name;
    Circuit circuit;
  };
  const std::vector<Workload> workloads = {
      {"GHZ-8", ghz_circuit(8)},
      {"QFT-6", qft_workload(6)},
      {"Bell distant (q0,q7)", [] {
         Circuit c(8);
         c.h(0).cx(0, 7);
         return c;
       }()},
  };

  core::Table table({"workload", "source gates", "native gates", "swaps",
                     "optimized gates", "depth", "device cycles",
                     "device time/shot [us]"},
                    2);
  for (const auto& [name, circuit] : workloads) {
    core::Job job;
    job.name = name;
    job.kind = core::AcceleratorKind::kQuantum;
    const Circuit* cptr = &circuit;
    job.payload = [&, cptr] {
      const ExecutionResult res = accel->run(*cptr, 256, rng);
      core::JobResult jr;
      jr.ok = true;
      jr.metrics["compile.source_gates"] =
          static_cast<core::Real>(res.compile_report.source_gates);
      jr.metrics["compile.routed_gates"] =
          static_cast<core::Real>(res.compile_report.routed_gates);
      jr.metrics["compile.swaps"] =
          static_cast<core::Real>(res.compile_report.swaps_inserted);
      jr.metrics["compile.optimized_gates"] =
          static_cast<core::Real>(res.compile_report.optimized_gates);
      jr.metrics["compile.depth"] =
          static_cast<core::Real>(res.compile_report.final_depth);
      jr.metrics["device.cycles"] =
          static_cast<core::Real>(res.compile_report.total_cycles);
      jr.metrics["device.seconds_per_shot"] =
          res.device_seconds / static_cast<core::Real>(res.shots);
      return jr;
    };
    const core::JobResult jr = host.submit(job);
    table.add_row(
        {std::string(name),
         static_cast<std::int64_t>(jr.metrics.at("compile.source_gates")),
         static_cast<std::int64_t>(jr.metrics.at("compile.routed_gates")),
         static_cast<std::int64_t>(jr.metrics.at("compile.swaps")),
         static_cast<std::int64_t>(jr.metrics.at("compile.optimized_gates")),
         static_cast<std::int64_t>(jr.metrics.at("compile.depth")),
         static_cast<std::int64_t>(jr.metrics.at("device.cycles")),
         jr.metrics.at("device.seconds_per_shot") * 1e6});
  }
  std::cout << "\nPer-layer statistics on a line-topology device:\n";
  table.print(std::cout);

  std::cout << '\n' << host.describe();

  core::print_banner(std::cout,
                     "Ablation — routing topology and optimizer (QFT-6)");
  core::Table ab({"topology", "optimizer", "gates", "swaps", "cycles"}, 1);
  const Circuit qft6 = qft_workload(6);
  struct Cfg {
    const char* name;
    Topology topo;
    bool opt;
  };
  std::map<std::string, std::size_t> swaps_with_opt;
  for (const Cfg cfg : {Cfg{"all-to-all", Topology::all_to_all(6), true},
                        Cfg{"line", Topology::line(6), true},
                        Cfg{"line", Topology::line(6), false},
                        Cfg{"grid 2x3", Topology::grid(2, 3), true}}) {
    const CompiledProgram prog = compile(qft6, cfg.topo, cfg.opt);
    if (cfg.opt) swaps_with_opt[cfg.name] = prog.report.swaps_inserted;
    ab.add_row({std::string(cfg.name), std::string(cfg.opt ? "on" : "off"),
                static_cast<std::int64_t>(prog.report.optimized_gates),
                static_cast<std::int64_t>(prog.report.swaps_inserted),
                static_cast<std::int64_t>(prog.report.total_cycles)});
  }
  ab.print(std::cout);
  std::cout << "(QFT-6 has no adjacent-cancel redundancy, so the peephole "
               "pass is a no-op there.)\n";

  // A workload the optimizer does bite on: interleaved H-pairs and
  // back-to-back CZs, typical of naive oracle constructions.
  Circuit redundant(4);
  for (int rep = 0; rep < 6; ++rep) {
    redundant.h(0).h(0).cz(1, 2).cz(1, 2).t(3).tdg(3).rx(1, 0.4).rx(1, -0.4);
  }
  const CompiledProgram raw = compile(redundant, Topology::line(4), false);
  const CompiledProgram opt = compile(redundant, Topology::line(4), true);
  std::cout << "Redundant workload: " << raw.report.optimized_gates
            << " native gates unoptimized -> " << opt.report.optimized_gates
            << " optimized (" << raw.report.total_cycles << " -> "
            << opt.report.total_cycles << " cycles)\n";

  core::print_banner(std::cout, "QISA layer — assembled program sample (GHZ-3)");
  std::cout << disassemble(decompose_to_native(ghz_circuit(3)));

  std::vector<std::string> failures;
  for (const auto& [topology, expected] :
       std::map<std::string, std::size_t>{
           {"all-to-all", 0}, {"line", 26}, {"grid 2x3", 17}})
    if (swaps_with_opt[topology] != expected)
      failures.push_back("QFT-6 on " + topology + " inserted " +
                         std::to_string(swaps_with_opt[topology]) +
                         " SWAPs, expected " + std::to_string(expected));
  const std::size_t raw_gates = raw.report.optimized_gates;
  const std::size_t opt_gates = opt.report.optimized_gates;
  if (!(10 * opt_gates <= 4 * raw_gates))
    failures.push_back("optimizer kept " + std::to_string(opt_gates) + " of " +
                       std::to_string(raw_gates) +
                       " redundant-workload gates (must remove >= 60 %)");
  for (const std::string& f : failures)
    std::cerr << "E10 gate FAIL: " << f << '\n';
  if (!failures.empty()) return 1;
  std::cerr << "E10 gate: PASS\n";
  return 0;
}
