#!/usr/bin/env bash
# Run-to-run stability of the benchmark on one build.
#
#   bench/perf/stability.sh [--quick] [WORKLOAD ...]
#
# Default: two sets of five runs of each workload (seeds 1-5, then
# 6-10), run_seconds each as BENCHMARK.json sets it.  Prints every
# gated metric's spread per set and fails when the two sets disagree
# beyond the bounds (compare.py --same).  About 15 minutes.
#
# --quick: smoke test.  One short run of each workload on
# reduced inputs; fails on wrong outputs.  About 15 s once built.
set -euo pipefail
cd "$(dirname "$0")/../.."

quick=0
if [[ ${1:-} == --quick ]]; then
    quick=1
    shift
fi
workloads=("$@")
if ((${#workloads[@]} == 0)); then
    workloads=(paper_sweep scale_out serve_zipf replay_faults)
fi
out=bench/perf/out/stability
rm -rf "$out"
mkdir -p "$out/a" "$out/b" "$out/run"

if ((quick)); then
    for w in "${workloads[@]}"; do
        python3 bench/perf/run.py --workload "$w" --seed 1 --quick \
            --out "$out/run" | tail -n 1
    done
    exit 0
fi

seconds=$(python3 -c \
    'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
for set in a b; do
    for i in 1 2 3 4 5; do
        seed=$i
        [[ $set == b ]] && seed=$((i + 5))
        for w in "${workloads[@]}"; do
            python3 bench/perf/run.py --workload "$w" --seed "$seed" \
                --seconds "$seconds" --out "$out/run" > /dev/null
            cp "$out/run/$w.json" "$out/$set/$w.$i.json"
        done
    done
done
python3 bench/perf/compare.py --same "$out/a" "$out/b"
