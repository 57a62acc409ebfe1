#!/usr/bin/env python3
"""Build ccsim_perf from source and run one benchmark workload.

    python3 bench/perf/run.py --workload paper_sweep --seed 1 \
        [--seconds N] [--trace 0|1] [--quick] [--out DIR]

Run from the repository root.  The build goes to $CARGO_TARGET_DIR/perf
(default .bench_build/perf), Release, and is incremental.  The workload
prints one "workload metric value unit" line per metric; the last line
of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json, or with --trace 1 its per-layer metrics.  Per-layer
metrics of a layer the workload does not cross read 0.

Exits 1 when an output was wrong (after printing the result), and 2
without a result when the build or the run itself fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to bench/perf")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perf")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "ccsim_perf")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run(cmd):
    """Run the workload in its own process group, so a timeout also
    stops any child it forked."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"workload exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    help="timed budget (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out", default=os.path.join("bench", "perf", "out"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", args.out,
           "--commit", commit()]
    if args.trace:
        cmd.append("--trace")
    if args.quick:
        cmd.append("--quick")
    code, out = run(cmd)
    sys.stdout.write(out)
    path = os.path.join(ROOT, args.out, args.workload + ".json")
    if code not in (0, 1) or not os.path.isfile(path):
        die(f"ccsim_perf exited with {code}")
    with open(path) as f:
        result = json.load(f)

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name, got in result["metrics"].items():
        if units.get(name) != got["unit"]:
            die(f"metric {name} ({got['unit']}) is not in BENCHMARK.json")
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                die(f"end-to-end metric {m['name']} missing")
            got = {"value": 0, "unit": m["unit"]}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    correct = bool(result["correct"]) and code == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
