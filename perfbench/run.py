#!/usr/bin/env python3
"""Repo benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload fleet_week --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the wlm libraries and the benchmark
binary (perfbench/perfbench.cpp) from source into $CARGO_TARGET_DIR
(default .bench_build), runs it once, checks its outputs, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
per-layer metrics, taken from a run that records the benchmark's own spans
into .bench_out/traces/ (one span file per run; perfbench/summarize.py
reads them). Every result is also kept under .bench_out/results/.
Workloads, metrics and the layer map: perfbench/README.md.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_week", "churn_spill", "query_mix")
QUERY_KINDS = ("window", "per_ap", "aggregate", "health")

E2E = {
    "setup_s": "s",
    "fragments_frames_per_s": "1/s",
    "time_to_tables_s": "s",
    "checkpoint_save_s": "s",
    "checkpoint_restore_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

# Per-campaign samples the binary reports, reduced to their median.
CAMPAIGN_TIMES = {
    "deploy.build_s": ("setup_s", "s"),
    "sim.usage_week_s": ("sim.usage_week_s", "s"),
    "sim.mr16_s": ("sim.mr16_s", "s"),
    "sim.link_windows_s": ("sim.link_windows_s", "s"),
    "backend.drain_s": ("backend.drain_s", "s"),
    "tsdb.seal_s": ("tsdb.seal_s", "s"),
    "tsdb.seal_reports_per_s": ("tsdb.seal_reports_per_s", "1/s"),
    "tsdb.scan_s": ("tsdb.scan_s", "s"),
    "tsdb.decode_reports_per_s": ("tsdb.decode_reports_per_s", "1/s"),
    "backend.consume_s": ("backend.consume_s", "s"),
    "analysis.render_s": ("analysis.render_s", "s"),
    "telemetry.export_s": ("telemetry.export_s", "s"),
}
# Deterministic per-campaign counts (identical in every campaign of a run).
CAMPAIGN_COUNTS = {
    "sim.fragments": "count",
    "sim.frames": "count",
    "classify.fragments": "count",
    "classify.cache_hit_ratio": "ratio",
    "classify.slow_path_calls": "count",
    "backend.frames_harvested": "count",
    "backend.corrupt_frames": "count",
    "backend.polls_backed_off": "count",
    "backend.clients": "count",
    "tsdb.segments_sealed": "count",
    "tsdb.segment_bytes": "bytes",
    "tsdb.compression_ratio": "ratio",
    "tsdb.segments_spilled": "count",
    "tsdb.spill_files": "count",
    "ckpt.bytes": "bytes",
    "fault.generated": "count",
    "fault.delivered": "count",
    "fault.delivery_ratio": "ratio",
    "mobility.roams": "count",
    "mesh.relayed_reports": "count",
    "mesh.partition_lost": "count",
}
LAYERS = ("deploy", "sim", "backend", "tsdb", "analysis", "telemetry", "ckpt", "query", "gate")


def per_layer_units():
    units = {name: unit for name, (_, unit) in CAMPAIGN_TIMES.items()}
    units.update(CAMPAIGN_COUNTS)
    units.update({f"query.{k}_ms": "ms" for k in QUERY_KINDS})
    units["error_rate"] = "ratio"
    units.update({f"self.{layer}_s": "s" for layer in LAYERS})
    units["trace.coverage"] = "ratio"
    units["trace.spans"] = "count"
    units["trace.overhead_time_to_tables_s"] = "s"
    units["trace.overhead_query_p50_ms"] = "ms"
    return units


PER_LAYER = per_layer_units()


def nearest_rank(values, pct):
    """Nearest-rank percentile: the smallest sample with at least `pct`
    percent of the samples at or below it. Returns (value, sample count)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(jobs, deadline):
    """Configures and builds the benchmark binary; returns its path. Serialized by a
    lock so concurrent runs in one checkout share one build."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.abspath(os.path.join(root, "perfbench"))
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", bdir, "-j", str(jobs)])
        for cmd in steps:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(bdir, "wlm_perfbench")


def run_binary(exe, args, deadline):
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          check=True, timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_signatures(path):
    if path and os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return {}


def check_campaigns(raw, recorded):
    """Marks campaigns whose signature breaks a gate. Every campaign of a
    run must share one signature, and it must match the recorded one for
    this workload, size and seed when one is recorded."""
    expect = recorded
    for c in raw["campaigns"]:
        if not c["ok"]:
            continue
        if expect is None:
            expect = c["signature"]
        if c["signature"] != expect:
            c["ok"] = False
            c["why"] = f"signature {c['signature']} != expected {expect}"


def median_of(campaigns, key):
    return statistics.median(c[key] for c in campaigns)


def end_to_end(raw, campaigns, queries):
    """The end-to-end metrics over the given campaigns and query samples."""
    ms = [q[1] for q in queries]
    if raw["workload"] == "query_mix":
        qps = len(raw["queries"]) / raw["campaigns"][-1]["query_loop_s"]
    else:
        qps = len(ms) / (sum(ms) / 1e3)
    # query_mix's set-up is loading the store: construction plus campaign.
    load = [c["setup_s"] + (c["campaign_s"] if raw["workload"] == "query_mix" else 0.0)
            for c in campaigns]
    return {
        "setup_s": statistics.median(load),
        "fragments_frames_per_s": median_of(campaigns, "fragments_frames_per_s"),
        "time_to_tables_s": median_of(campaigns, "time_to_tables_s"),
        "checkpoint_save_s": median_of(campaigns, "checkpoint_save_s"),
        "checkpoint_restore_s": median_of(campaigns, "checkpoint_restore_s"),
        "query_p50_ms": nearest_rank(ms, 50)[0],
        "query_p95_ms": nearest_rank(ms, 95)[0],
        "queries_per_s": qps,
        "peak_rss_mib": raw["peak_rss_mib"],
    }


def self_times(trace):
    """Self time per span name, summed over the traced operations inside the
    timed window. Returns (self seconds by name, traced operation count,
    share of the window that top-level spans cover, span count)."""
    spans = trace["spans"]
    lo, hi = trace["timed_start_s"], trace["timed_end_s"]
    parent = {s["id"]: s["parent"] for s in spans}
    covered = {}
    for s in spans:
        if s["parent"]:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end_s"] - s["start_s"]
    traced_ops = {s["id"] for s in spans
                  if s["parent"] == 0 and s["detail"] and s["start_s"] >= lo and s["end_s"] <= hi}

    def root(sid):
        while parent[sid]:
            sid = parent[sid]
        return sid

    by_name = {}
    for s in spans:
        if s["parent"] and root(s["id"]) in traced_ops:
            own = s["end_s"] - s["start_s"] - covered.get(s["id"], 0.0)
            by_name[s["name"]] = by_name.get(s["name"], 0.0) + own
    top = sum(s["end_s"] - s["start_s"] for s in spans
              if s["parent"] == 0 and s["start_s"] >= lo and s["end_s"] <= hi)
    return by_name, len(traced_ops), top / (hi - lo) if hi > lo else 0.0, len(spans)


def layer_self_times(by_name, n_ops):
    """Self time per layer (span-name prefix) per traced operation."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, t in by_name.items():
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + t / max(1, n_ops)
    return totals


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--networks", type=int, default=0, help="override the workload's fleet size")
    ap.add_argument("--min-queries", type=int, default=200, help="query_mix: queries per run")
    ap.add_argument("--signatures", default=os.path.join(HERE, "signatures.json"),
                    help="recorded campaign signatures (workload/networks/seed -> CRCs)")
    ap.add_argument("--record-signatures", action="store_true",
                    help="add this run's signature to --signatures after a clean run")
    ap.add_argument("--perturb-oracle", type=int, default=-1,
                    help="test hook: corrupt the oracle answer of query #N")
    ap.add_argument("--out-dir", default=".bench_out")
    opt = ap.parse_args()

    deadline = time.monotonic() + 870.0
    jobs = max(1, min(4, os.cpu_count() or 1))
    try:
        exe = build(jobs, deadline)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    out_dir = os.path.abspath(opt.out_dir)
    stamp = f"{opt.workload}-s{opt.seed}-{os.getpid()}-{time.time_ns()}"
    spill = os.path.join(out_dir, "spill", stamp)
    args = ["--workload", opt.workload, "--seed", str(opt.seed), "--seconds", str(opt.seconds),
            "--jobs", str(jobs), "--spill-dir", spill, "--min-queries", str(opt.min_queries),
            "--perturb-oracle", str(opt.perturb_oracle)]
    if opt.networks:
        args += ["--networks", str(opt.networks)]
    trace_path = None
    if opt.trace:
        trace_path = os.path.join(out_dir, "traces", stamp + ".json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        args += ["--trace-out", trace_path]
    try:
        raw = run_binary(exe, args, time.monotonic() + 175.0)
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as e:
        log(f"benchmark binary failed: {e}")
        return 1
    finally:
        shutil.rmtree(spill, ignore_errors=True)

    sig_key = f"{raw['workload']}/{int(raw['networks'])}/{opt.seed}"
    signatures = load_signatures(opt.signatures)
    check_campaigns(raw, signatures.get(sig_key))
    campaigns, queries = raw["campaigns"], raw["queries"]
    attempted = len(campaigns) + len(queries)
    failed = sum(not c["ok"] for c in campaigns) + sum(q[2] == 0 for q in queries)
    for c in campaigns:
        if not c["ok"]:
            log(f"campaign failed: {c['why']}")
    if any(q[2] == 0 for q in queries):
        log(f"{sum(q[2] == 0 for q in queries)} query answers differ from the row oracle")
    if opt.record_signatures and failed == 0 and sig_key not in signatures:
        signatures[sig_key] = campaigns[0]["signature"]
        with open(opt.signatures, "w") as f:
            json.dump(signatures, f, indent=1, sort_keys=True)
            f.write("\n")

    # The first campaign warms the process up (page faults, allocator,
    # caches); it is gated like the others but left out of the metrics.
    measured = campaigns[1:] or campaigns
    measured_queries = [q for q in queries if not q[4]] or queries
    samples = {"campaigns": len(measured), "queries": len(measured_queries),
               "distinct_queries": int(raw["distinct_queries"])}
    if opt.trace == 0:
        values = end_to_end(raw, measured, measured_queries)
        units = E2E
    else:
        values = {name: median_of(measured, key) for name, (key, _) in CAMPAIGN_TIMES.items()}
        values.update({name: campaigns[-1][name] for name in CAMPAIGN_COUNTS})
        for k, kind in enumerate(QUERY_KINDS):
            ms = [q[1] for q in measured_queries if q[0] == k]
            values[f"query.{kind}_ms"] = statistics.median(ms)
            samples[f"query.{kind}"] = len(ms)
        values["error_rate"] = failed / attempted
        with open(trace_path) as f:
            trace = json.load(f)
        by_name, n_traced, coverage, n_spans = self_times(trace)
        layer_self = layer_self_times(by_name, n_traced)
        values.update({f"self.{layer}_s": layer_self[layer] for layer in LAYERS})
        values["trace.coverage"] = coverage
        values["trace.spans"] = n_spans
        samples["traced_ops"] = n_traced
        # Overhead: the traced operations' end-to-end metrics minus those of
        # the untraced operations of the same run.
        split = {}
        for traced in (1, 0):
            cs = [c for c in measured if c["traced"] == traced] or measured
            qs = [q for q in measured_queries if q[3] == traced] or measured_queries
            split[traced] = end_to_end(raw, cs, qs)
        values["trace.overhead_time_to_tables_s"] = (
            split[1]["time_to_tables_s"] - split[0]["time_to_tables_s"])
        values["trace.overhead_query_p50_ms"] = split[1]["query_p50_ms"] - split[0]["query_p50_ms"]
        units = PER_LAYER

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    with open(os.path.join(out_dir, "results", stamp + ".json"), "w") as f:
        json.dump({"workload": opt.workload, "seed": opt.seed, "trace": opt.trace,
                   "networks": raw["networks"], "jobs": jobs, "samples": samples,
                   "trace_file": trace_path, "result": result, "raw": raw}, f)
    log(f"{opt.workload} seed {opt.seed}: {len(campaigns)} campaigns, {len(queries)} queries, "
        f"{failed} failed, wall {raw['wall_s']:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
