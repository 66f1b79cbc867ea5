#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload NAME --write-reference

Run from the root of a checkout. The first call configures and builds
perfbench (and the simulator sources it compiles) into .bench_build/.

--trace 0 runs the workload in fresh processes, one after another, until
--seconds have been spent (at least one), and reports the medians of the
end-to-end metrics. --trace 1 runs one untraced and one traced process
and reports the per-layer metrics of the traced one. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Output checks: every process of a call must produce the same canonical
report; with the default seed it must also equal the committed
perfbench/reference/<workload>.txt; a traced report must equal the
untraced one; serving workloads replay RunScenario once per call and
require it to match. A failed check marks every query of the call failed.
See perfbench/README.md for the workloads and the metric-to-layer map.
"""

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = BUILD_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"
DEFAULT_SEED = 1
WORKLOADS = ["churn_1e6", "serving_faults", "sparse_rows"]
SERVING_WORKLOADS = {"serving_faults"}
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# One call must finish within 180 s; stop starting processes well before.
CALL_BUDGET_S = 120.0
PROCESS_TIMEOUT_S = 150.0
BUILD_TIMEOUT_S = 850.0


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (ROOT / "src" / "core" / "scenario.h").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}; "
             "run from the root of a repository checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", target,
                  "-j", "3"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, capture_output=True, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            fail(f"build step failed: {' '.join(step)}", 1)
    return BUILD_DIR / target


def run_process(binary, args):
    done = subprocess.run([str(binary)] + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=PROCESS_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{binary.name} {' '.join(args)} exited {done.returncode}", 1)
    return json.loads(done.stdout.strip().splitlines()[-1])


def one_process(binary, workload, seed, tag, trace=False, replay=False):
    report = OUT_DIR / f"{workload}-{seed}-{tag}.report.txt"
    args = ["--workload", workload, "--seed", str(seed), "--report",
            str(report)]
    if trace:
        args += ["--trace", "--spans",
                 str(OUT_DIR / f"{workload}-{seed}.spans.jsonl")]
    if replay:
        args.append("--replay")
    start = time.monotonic()
    result = run_process(binary, args)
    # What the next process will take: the replay runs only once.
    result["repeat_s"] = time.monotonic() - start - result["replay_s"]
    text = report.read_text()
    result["report_text"] = text
    result["report_sha"] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return result


def check_outputs(workload, seed, processes):
    """Returns a list of failed-check messages (empty = correct)."""
    problems = []
    shas = {p["report_sha"] for p in processes}
    if len(shas) != 1:
        problems.append(f"reports differ between processes: {sorted(shas)}")
    for p in processes:
        if p["replay"] == "diverged":
            problems.append("serving report differs from RunScenario replay")
    if workload in SERVING_WORKLOADS and not any(
            p["replay"] == "identical" for p in processes):
        problems.append("serving replay was not checked")
    if seed == DEFAULT_SEED:
        reference = REFERENCE_DIR / f"{workload}.txt"
        if not reference.is_file():
            problems.append(f"missing reference {reference.name}")
        elif reference.read_text() != processes[0]["report_text"]:
            problems.append(f"report differs from {reference.name}")
    return problems


def describe(p):
    return (f"process: setup_s {p['setup_s']:.4f} run_s {p['run_s']:.4f} "
            f"peak_rss_mb {p['peak_rss_mb']:.2f} world_s {p['world_s']:.4f} "
            f"run_cpu_s {p['run_cpu_s']:.3f} drift_ms "
            f"{p['drift_start_ms']:.2f}->{p['drift_end_ms']:.2f} "
            f"replay {p['replay']} report {p['report_sha']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the decorator self-tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default-seed reference report")
    args = parser.parse_args()

    if args.self_test:
        selftest = build("perfbench_selftest")
        sys.exit(subprocess.run([str(selftest)], cwd=ROOT).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench_np")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.write_reference:
        p = one_process(binary, args.workload, DEFAULT_SEED, "ref")
        REFERENCE_DIR.mkdir(exist_ok=True)
        (REFERENCE_DIR / f"{args.workload}.txt").write_text(p["report_text"])
        print(f"wrote reference for {args.workload} ({p['report_sha']})")
        return

    replay = args.workload in SERVING_WORKLOADS
    start = time.monotonic()
    processes = []
    if args.trace:
        untraced = one_process(binary, args.workload, args.seed, "untraced",
                               replay=replay)
        traced = one_process(binary, args.workload, args.seed, "traced",
                             trace=True)
        processes = [untraced, traced]
    else:
        while True:
            processes.append(one_process(binary, args.workload, args.seed,
                                         str(len(processes)),
                                         replay=replay and not processes))
            elapsed = time.monotonic() - start
            next_s = statistics.median(p["repeat_s"] for p in processes)
            if elapsed + next_s > min(args.seconds, CALL_BUDGET_S):
                break

    for p in processes:
        print(describe(p))
    problems = check_outputs(args.workload, args.seed, processes)
    for problem in problems:
        print(f"check failed: {problem}")
    correct = not problems
    attempted = sum(int(p["queries"]) for p in processes)
    failed = attempted if not correct else sum(
        int(p["failed_queries"]) for p in processes)

    if args.trace:
        metrics = traced["layers"]
        metrics["trace.overhead_s"] = {
            "value": traced["run_s"] - untraced["run_s"], "unit": "s"}
        print(f"tracing overhead: traced run_s {traced['run_s']:.4f} - "
              f"untraced run_s {untraced['run_s']:.4f}")
    else:
        metrics = {
            name: {"value": statistics.median(p[name] for p in processes),
                   "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(processes)} process(es), {attempted} queries, "
          f"{failed} failed, checks {'passed' if correct else 'FAILED'}")
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
