// perfbench — runs one workload of the workbench benchmark and prints one
// JSON line with everything it measured. run.py builds this binary, calls
// it, and turns that line into the benchmark's result.
//
//   perfbench --workload quantum_circuits --seed 7 --seconds 20 --trace 0
//             [--out-dir .perfbench_results]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "core/json.h"
#include "harness.h"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n";
  return 2;
}

Json phase_json(const Phase& p) {
  const auto num = [](std::uint64_t v) {
    return Json::make_number(static_cast<double>(v));
  };
  return Json::make_object({{"name", Json::make_string(p.name)},
                            {"counted", Json::make_bool(p.counted)},
                            {"attempted", num(p.attempted)},
                            {"succeeded", num(p.succeeded)},
                            {"failed", num(p.failed())},
                            {"refused", num(p.refused)},
                            {"errors", num(p.errors)},
                            {"wrong", num(p.wrong)},
                            {"unsolved", num(p.unsolved)},
                            {"note", Json::make_string(p.note)}});
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value == "1";
      } else if (key == "--out-dir") {
        args.out_dir = value;
      } else {
        return usage(("unknown argument " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (!have_workload) return usage("--workload is required");
  if (!(args.seconds > 0.0)) return usage("--seconds must be > 0");

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  if (build_type != "Release" || !ndebug) {
    std::cerr << "perfbench: refusing to measure a '" << build_type
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }

  Report report;
  try {
    if (args.workload == "quantum_circuits")
      run_quantum_circuits(args, report);
    else if (args.workload == "dmm_sat")
      run_dmm_sat(args, report);
    else if (args.workload == "oscillator_networks")
      run_oscillator_networks(args, report);
    else if (args.workload == "service_mix")
      run_service_mix(args, report);
    else
      return usage(("unknown workload " + args.workload).c_str());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: workload " << args.workload
              << " failed: " << e.what() << "\n";
    return 1;
  }
  report.set(report.e2e, "peak_rss_mb", peak_rss_mb());

  Json self_times = Json::make_null();
  if (args.trace) {
    const std::vector<Span> spans = collect_spans();
    self_times = self_times_by_layer(spans);
    for (const auto& [layer, self] :
         self_times.at("self_s_by_layer").object())
      report.set(report.layer, "self." + layer + "_s", self.number());
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (ec || !write_spans(spans, path))
      std::cerr << "perfbench: could not write spans to " << path << "\n";
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Json> phases;
  for (const Phase& p : report.phases) {
    if (p.counted) {
      attempted += p.attempted;
      failed += p.failed();
    }
    phases.push_back(phase_json(p));
  }
  std::vector<Json> failures;
  for (const std::string& f : report.check_failures)
    failures.push_back(Json::make_string(f));

  const auto num = [](double v) { return Json::make_number(v); };
  const Json out = Json::make_object({
      {"workload", Json::make_string(args.workload)},
      {"seed", num(static_cast<double>(args.seed))},
      {"trace", Json::make_bool(args.trace)},
      {"build_type", Json::make_string(build_type)},
      {"compiler", Json::make_string(std::string("g++ ") + __VERSION__)},
      {"nproc", num(static_cast<double>(std::thread::hardware_concurrency()))},
      {"correct", Json::make_bool(report.check_failures.empty() &&
                                  report.checks > 0)},
      {"checks", num(static_cast<double>(report.checks))},
      {"check_failures", Json::make_array(failures)},
      {"attempted", num(static_cast<double>(attempted))},
      {"failed", num(static_cast<double>(failed))},
      {"phases", Json::make_array(phases)},
      {"e2e", Json::make_object(report.e2e)},
      {"info", Json::make_object(report.info)},
      {"layer", Json::make_object(report.layer)},
      {"counts", Json::make_object(report.counts)},
      {"self_times", self_times},
  });
  std::cout << rebooting::core::json_dump(out) << std::endl;
  return 0;
}
