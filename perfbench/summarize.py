#!/usr/bin/env python3
"""Summarizes traced benchmark runs: self time per layer for each workload.

    python3 perfbench/summarize.py [--out-dir .bench_out]

Reads the span files that `perfbench/run.py --trace 1` leaves in
<out-dir>/traces (one per run) and their results in <out-dir>/results.
For each workload it prints every layer's self time per traced operation,
the spans with the largest self time (in all, and in the campaign alone),
the tracing overhead each run measured, and whether the top-level spans
cover the timed wall clock.
Exits 1 when a run's coverage falls below --min-coverage.
"""
import argparse
import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import LAYERS, layer_self_times, self_times  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out-dir", default=".bench_out")
    ap.add_argument("--min-coverage", type=float, default=0.95)
    opt = ap.parse_args()

    runs = {}
    for path in sorted(glob.glob(os.path.join(opt.out_dir, "results", "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if rec["trace"] == 1 and rec.get("trace_file") and os.path.exists(rec["trace_file"]):
            runs.setdefault(rec["workload"], []).append(rec)
    if not runs:
        print(f"no traced runs under {opt.out_dir}", file=sys.stderr)
        return 1

    ok = True
    for workload, recs in sorted(runs.items()):
        per_layer = {layer: [] for layer in LAYERS}
        by_span = {}
        coverage, overhead_tables, overhead_p50, n_ops = [], [], [], 0
        for rec in recs:
            with open(rec["trace_file"]) as f:
                trace = json.load(f)
            by_name, traced, cov, _ = self_times(trace)
            n_ops += traced
            layer_self = layer_self_times(by_name, traced)
            for layer in LAYERS:
                per_layer[layer].append(layer_self[layer])
            for name, t in by_name.items():
                by_span[name] = by_span.get(name, 0.0) + t / max(1, traced)
            coverage.append(cov)
            m = rec["result"]["metrics"]
            overhead_tables.append(m["trace.overhead_time_to_tables_s"]["value"])
            overhead_p50.append(m["trace.overhead_query_p50_ms"]["value"])
        low = min(coverage)
        ok &= low >= opt.min_coverage
        unit, units = ("query", "queries") if workload == "query_mix" else ("campaign", "campaigns")
        print(f"== {workload}: {len(recs)} traced runs, {n_ops} traced {units}")
        total = sum(statistics.median(v) for v in per_layer.values()) or 1.0
        print(f"   self time per {unit} (median over runs):")
        for layer, vals in sorted(per_layer.items(), key=lambda kv: -statistics.median(kv[1])):
            med = statistics.median(vals)
            print(f"     {layer:<10} {med:10.4f} s  {100 * med / total:5.1f}%")
        top = sorted(by_span.items(), key=lambda kv: -kv[1])[:5]
        print(f"   largest span self times per {unit}: " +
              ", ".join(f"{name} {t / len(recs):.4f} s" for name, t in top))
        # The campaign proper: the program's calls, without the queries read
        # after it and without the benchmark's own gates.
        own = {n: t for n, t in by_span.items() if not n.startswith(("query.", "gate."))}
        if workload != "query_mix" and own:
            name = max(own, key=own.get)
            print(f"   largest self time in the campaign (queries and gates left out): "
                  f"{name} {own[name] / len(recs):.4f} s")
        print(f"   tracing overhead (traced minus untraced operations, median): "
              f"time_to_tables {statistics.median(overhead_tables):+.4f} s, "
              f"query_p50 {statistics.median(overhead_p50):+.3f} ms")
        print(f"   top-level spans cover {100 * low:.1f}% of the timed wall clock at least "
              f"({'ok' if low >= opt.min_coverage else 'BELOW ' + str(opt.min_coverage)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
