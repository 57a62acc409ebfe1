#!/usr/bin/env python3
"""Compare two sets of ccsim_perf results, one row per workload.

    compare.py PARENT_DIR CHANGE_DIR   parent commit vs change
    compare.py --same SET_A SET_B      two sets of runs of one build

Each directory holds ccsim_perf result files (<workload>.<i>.json, as
written with --out); files with the same index form a pair, so collect
them alternating which side runs first.

Parent vs change follows the choosing-metrics rules (README.md):
  * per (workload, metric): each side's median and quartiles;
  * "improved" only when the change wins at least 9 of 10 pairs (ties
    count for neither) and the medians differ by more than the
    parent's own quartile spread;
  * "regressed" when the change's median is worse than the parent's
    by more than the metric's bound;
  * "unresolved" when either side's spread (quartile distance over
    median) exceeds the bound, unless every change run beats every
    parent run.
--same checks that two sets of one build agree: every spread and the
median drift stay within the bounds (set-up time is exempt from the
spread check, as in BENCHMARK.json's contract).

Gated metrics are BENCHMARK.json's end-to-end metrics plus the
workload-specific ones in EXTRA.  Exits 1 on a regression, a
disagreement, or any run whose outputs were wrong.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# Workload-specific metrics (per-layer in BENCHMARK.json, whose
# end-to-end metrics must each apply to every workload):
# (better, bound).  Simulated values are deterministic, so their
# bound is 0.
EXTRA = {
    "paper_sweep": {"bench.warm_ops_per_s": ("higher", 0.25),
                    "bench.paper_err_pct": ("lower", 0.0)},
    "scale_out": {"bench.rss_kb_per_rank": ("lower", 0.05)},
}
ALWAYS = {"bench.failed_frac": ("lower", 0.0)}


def gated(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update(EXTRA.get(workload, {}))
    out.update(ALWAYS)
    return out


def load(directory):
    """{workload: [result, ...]} in run-index order."""
    runs = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            r = json.load(f)
        stem = os.path.basename(path)[:-len(".json")]
        index = stem.rsplit(".", 1)[-1]
        key = int(index) if index.isdigit() else 0
        runs.setdefault(r["workload"], []).append((key, r))
    return {w: [r for _, r in sorted(v, key=lambda kv: kv[0])]
            for w, v in runs.items()}


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r["metrics"]]


def summary(vals):
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(vals)
    if len(vals) > 1:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else 1.0)
    return med, q1, q3, spread


def worse_by(parent, change, better):
    """Share by which change is worse than parent (negative: better)."""
    if parent == 0:
        return 0.0 if change == parent else (1.0 if (change > parent) ==
                                             (better == "lower") else -1.0)
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def compare_pair(parent_runs, change_runs, metric, better, bound):
    p, c = values(parent_runs, metric), values(change_runs, metric)
    if not p or not c:
        return None
    mp, p1, p3, sp = summary(p)
    mc, c1, c3, sc = summary(c)
    worse = worse_by(mp, mc, better)
    pairs = list(zip(p, c))
    wins = sum(beats(cv, pv, better) for pv, cv in pairs)
    every = all(beats(cv, pv, better) for pv in p for cv in c)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
            abs(mc - mp) > p3 - p1 and beats(mc, mp, better)):
        verdict = "improved"
    elif max(sp, sc) > bound and not every:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    detail = (f"parent {mp:.6g} [{p1:.6g}, {p3:.6g}]  "
              f"change {mc:.6g} [{c1:.6g}, {c3:.6g}]  "
              f"wins {wins}/{len(pairs)}  bound {bound:g}")
    return verdict, worse, detail


def compare_same(a_runs, b_runs, metric, better, bound):
    a, b = values(a_runs, metric), values(b_runs, metric)
    if not a or not b:
        return None
    ma, a1, a3, sa = summary(a)
    mb, b1, b3, sb = summary(b)
    drift = worse_by(ma, mb, better)
    spread_ok = metric == "setup_s" or max(sa, sb) <= bound
    verdict = "ok" if spread_ok and drift <= bound else "disagree"
    detail = (f"A {ma:.6g} spread {sa:.3f}  B {mb:.6g} spread {sb:.3f}  "
              f"drift {drift:+.3f}  bound {bound:g}")
    return verdict, drift, detail


def main(argv):
    same = argv[:1] == ["--same"]
    if same:
        argv = argv[1:]
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    left, right = load(argv[0]), load(argv[1])
    bad = False
    rows, details = [], []
    for workload in sorted(set(left) & set(right)):
        for runs in (left[workload], right[workload]):
            wrong = [r["seed"] for r in runs if not r["correct"]]
            if wrong:
                bad = True
                details.append(f"{workload}: wrong outputs, seeds {wrong}")
        cells = []
        for metric, (better, bound) in gated(workload).items():
            fn = compare_same if same else compare_pair
            got = fn(left[workload], right[workload], metric, better, bound)
            if got is None:
                continue
            verdict, worse, detail = got
            bad |= verdict in ("regressed", "disagree")
            cells.append(f"{metric} {-worse:+.1%} {verdict}")
            details.append(f"  {workload} {metric}: {verdict}  {detail}")
        n = min(len(left[workload]), len(right[workload]))
        rows.append(f"{workload:14s} n={n:<3d} " + " | ".join(cells))
    print("\n".join(rows))
    print("\n".join(details))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
