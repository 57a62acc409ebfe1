#!/usr/bin/env python3
"""Rewrite the performance block of a Markdown file from docs/perf.

    python3 tools/perf_table.py README.md

The block lies between the lines "<!-- perf-table:begin -->" and
"<!-- perf-table:end -->".  Workloads, metric names and units come
from BENCHMARK.json: every end-to-end metric, then the per-layer
metrics bench.warm_ops_per_s and bench.host_slowdown.  Values come
from docs/perf/<workload>.json, the records that

    python3 bench/perf/run.py --workload W --seed 1 --out docs/perf

writes.  A record without a metric shows a dash.  Exits 1 when the
file has no block or a record is missing.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BEGIN = "<!-- perf-table:begin -->"
END = "<!-- perf-table:end -->"
EXTRA = ("bench.warm_ops_per_s", "bench.host_slowdown")


def fmt(v):
    """Three significant digits, thousands separated."""
    if v == 0:
        return "0"
    if abs(v) >= 100:
        return f"{float(f'{v:.3g}'):,.0f}"
    return f"{v:.3g}"


def table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    records = {}
    for name in names:
        path = os.path.join(ROOT, "docs", "perf", name + ".json")
        if not os.path.isfile(path):
            sys.exit(f"perf_table.py: no record {path}")
        with open(path) as f:
            records[name] = json.load(f)

    per_layer = {m["name"]: m for m in spec["per_layer"]}
    rows = spec["end_to_end"] + [per_layer[n] for n in EXTRA]
    out = ["| metric | unit | better | " + " | ".join(names) + " |",
           "|---|---|---|" + "---:|" * len(names)]
    for m in rows:
        cells = []
        for name in names:
            got = records[name]["metrics"].get(m["name"])
            cells.append(fmt(got["value"]) if got else "–")
        out.append(f"| `{m['name']}` | {m['unit']} | {m['better']} | "
                   + " | ".join(cells) + " |")
    prov = [records[n]["provenance"] for n in names]
    out.append("| commit | | | " +
               " | ".join(p["commit"][:10] for p in prov) + " |")
    out.append("| budget | s | | " +
               " | ".join(fmt(p["seconds"]) for p in prov) + " |")
    out.append("| host, build | | | " +
               " | ".join(f"{p['nproc']} CPUs, {p['build_type']}, "
                          f"compiler {p['compiler']}" for p in prov)
               + " |")
    return out


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    path = sys.argv[1]
    with open(path) as f:
        lines = f.read().split("\n")
    if BEGIN not in lines or END not in lines:
        sys.exit(f"perf_table.py: {path} has no {BEGIN} ... {END} block")
    b, e = lines.index(BEGIN), lines.index(END)
    lines[b + 1:e] = table()
    with open(path, "w") as f:
        f.write("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
