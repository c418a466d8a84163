#!/usr/bin/env python3
"""Runs one workload of the workbench benchmark and prints its result.

    python3 perfbench/run.py --workload quantum_circuits --seed 7 \
        --seconds 20 --trace 0

Run from the root of the repository. The first run configures and builds
perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs only rebuild what
changed. The perfbench binary measures and checks the workload; this script
adds the build facts, compares the counts that must repeat for a seed with
earlier runs, keeps the full record under .perfbench_results/, prints a
readable report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones: every metric of the layers the workload runs must be measured,
and a metric of a layer it does not run reads 0. Exit status: 0 when every
output check passed, 1 otherwise or when a metric is missing.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
RESULTS = REPO / ".perfbench_results"
# Seed kept out of tuning: a claimed gain must also hold on it.
HELD_OUT_SEED = 20191
# Per-layer metrics each workload measures, by name prefix; "trace." and
# "self.bench_" (the benchmark's own spans) belong to every workload.
LAYERS = {
    "quantum_circuits": ("quantum.", "self.quantum_"),
    "dmm_sat": ("dmm.", "self.dmm_"),
    "oscillator_networks": ("osc.", "self.osc_"),
    "service_mix": ("net.", "sched.", "cache.", "svc.", "self.net_",
                    "self.sched_", "self.svc_"),
}
COMMON_LAYERS = ("trace.", "self.bench_")

# A measuring run must end within 180 seconds; a first run that
# builds gets the build on top.
WORKLOAD_SECONDS = 165.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(root)
    if not path.is_absolute():
        path = REPO / path
    return path / "perfbench"


def build():
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, timeout=850.0)
    if result.returncode != 0:
        fail("building the benchmark failed")
    return out / "perfbench"


def git_sha():
    if not (REPO / ".git").exists():
        return "unknown (not a git checkout)"
    result = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def compare_counts(workload, seed, counts):
    """Counts that must repeat exactly for a seed; returns drift lines."""
    if not counts:
        return []
    ledger_path = RESULTS / "counts.json"
    ledger = {}
    if ledger_path.exists():
        ledger = json.loads(ledger_path.read_text())
    key = f"{workload}/seed{seed}"
    drift = []
    if key in ledger:
        for name, value in counts.items():
            before = ledger[key].get(name)
            if before is not None and before != value:
                drift.append(f"{name}: {before} earlier, {value} now")
    else:
        ledger[key] = counts
        ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return drift


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = REPO / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")

    binary = build()
    RESULTS.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(RESULTS)]
    try:
        result = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            timeout=WORKLOAD_SECONDS)
    except subprocess.TimeoutExpired:
        fail("the workload did not finish in time")
    if result.returncode != 0:
        fail(f"perfbench exited with status {result.returncode}")
    raw = json.loads(result.stdout.strip().splitlines()[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = raw["layer"] if args.trace else raw["e2e"]
    own = COMMON_LAYERS + LAYERS.get(args.workload, ())
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in source and (not args.trace or name.startswith(own)):
            fail(f"metric {name} was not measured")
        metrics[name] = {"value": source.get(name, 0.0), "unit": m["unit"]}

    drift = compare_counts(args.workload, args.seed, raw["counts"])
    record = dict(raw)
    record.update({"git_sha": git_sha(), "held_out_seed": HELD_OUT_SEED,
                   "seconds": args.seconds, "count_drift": drift})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"build {raw['build_type']}  {raw['compiler']}  "
          f"nproc {raw['nproc']}  git {record['git_sha']}")
    for name_, m in metrics.items():
        print(f"  {name_:32s} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        for name_, value in raw["layer"].items():
            if name_ not in metrics:
                print(f"  {name_:32s} {value:>14.6g}")
    info = raw["info"]
    if "op_tail_percentile" in info:
        print(f"  op_tail_ms is p{info['op_tail_percentile']:.4g} of "
              f"{info['op_samples']:.0f} operations")
    for p in raw["phases"]:
        print(f"  phase {p['name']:18s} attempted {p['attempted']:.0f} "
              f"succeeded {p['succeeded']:.0f} failed {p['failed']:.0f} "
              f"(refused {p['refused']:.0f}, errors {p['errors']:.0f}, "
              f"wrong {p['wrong']:.0f}, unsolved {p['unsolved']:.0f})"
              f"{'' if p['counted'] else ' [not counted]'} {p['note']}")
    print(f"  {raw['checks']:.0f} output checks, "
          f"{len(raw['check_failures'])} failed")
    for f in raw["check_failures"]:
        print(f"  CHECK FAILED: {f}")
    for d in drift:
        print(f"  COUNT DRIFT: {d}")
    print(f"  full record: {RESULTS / name}")

    correct = bool(raw["correct"])
    print(json.dumps({"correct": correct,
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
