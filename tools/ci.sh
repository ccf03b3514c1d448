#!/usr/bin/env bash
# Local CI: the tier-1 suite plus sanitizer passes.
#
#   tools/ci.sh            # tier-1 + ASan/UBSan + TSan
#   tools/ci.sh --fast     # tier-1 only
#
# Each configuration builds into its own tree (build/, build-asan/,
# build-tsan/) so switching sanitizers never poisons the plain build.
# TSan specifically vets the sharded fleet harvest: the determinism tests
# run the same campaign at several thread counts, which is exactly the
# interleaving a data race would need to surface.
set -euo pipefail
cd "$(dirname "$0")/.."

run_suite() {
  local dir="$1"
  local ctest_filter="$2"
  shift 2
  echo "=== configure ${dir} ($*) ==="
  cmake -B "${dir}" -S . "$@"
  cmake --build "${dir}" -j"$(nproc)"
  (cd "${dir}" && ctest --output-on-failure -j"$(nproc)" ${ctest_filter})
}

run_suite build ""

# Bench smoke: run the two headline benches at a tiny scale and assert the
# emitted BENCH JSON parses and carries the telemetry phase profile. The
# scorecard's paper-figure checks are allowed to fail at this scale (the
# calibration targets assume a full-size fleet); the smoke only cares that
# the harness itself runs and reports.
bench_smoke() {
  local json="build/BENCH_smoke.json"
  rm -f "${json}"
  echo "=== bench smoke (tiny scale) ==="
  WLM_BENCH_JSON="${json}" ./build/bench/bench_scorecard 12 0.2 7 2 > /dev/null \
    || echo "bench_scorecard: nonzero exit tolerated at smoke scale"
  WLM_BENCH_JSON="${json}" ./build/bench/bench_fault_sweep 6 0.2 7 2 > /dev/null
  if [[ ! -s "${json}" ]]; then
    echo "bench smoke: ${json} missing or empty" >&2
    exit 1
  fi
  if command -v python3 > /dev/null 2>&1; then
    # Every line must parse as JSON; at least one record (bench_fault_sweep
    # also appends plain per-cell lines) must carry a non-empty
    # telemetry.phases profile AND the throughput fields (the work tally is
    # deterministic, so a zero fragments_frames_per_sec means the counters
    # came unhooked, not that the machine was slow).
    python3 - "${json}" << 'EOF'
import json, sys
have_phases = have_throughput = False
with open(sys.argv[1]) as f:
    for n, line in enumerate(f, 1):
        rec = json.loads(line)  # raises -> nonzero exit on malformed output
        if rec.get("telemetry", {}).get("phases", []):
            have_phases = True
        if rec.get("fragments_frames_per_sec", 0) > 0 and rec.get("peak_rss_bytes", 0) > 0:
            have_throughput = True
if not have_phases:
    sys.exit("bench smoke: no record carries a telemetry.phases profile")
if not have_throughput:
    sys.exit("bench smoke: no record carries fragments_frames_per_sec/peak_rss_bytes")
print(f"bench smoke: {n} JSON lines, telemetry profile + throughput fields present")
EOF
  else
    grep -q '"telemetry": {"phases":\[{' "${json}" || {
      echo "bench smoke: no telemetry.phases in ${json}" >&2
      exit 1
    }
    grep -q '"fragments_frames_per_sec": ' "${json}" || {
      echo "bench smoke: no fragments_frames_per_sec in ${json}" >&2
      exit 1
    }
    echo "bench smoke: telemetry profile + throughput fields present (grep fallback)"
  fi
}
bench_smoke

# Classify fast-path smoke: run the two-tier contrast at a reduced stream
# size and require the JSON record to parse, the verdict checksums to have
# matched (the bench exits nonzero on a mismatch), and the RuleIndex +
# VerdictCache path to clear the 3x throughput floor over the reference
# engine. `--benchmark_filter=^$` skips the google-benchmark loops so the
# smoke stays fast.
classify_smoke() {
  local json="build/BENCH_classify_smoke.json"
  rm -f "${json}"
  echo "=== classify fast-path smoke ==="
  WLM_CLASSIFY_BENCH_FLOWS=20000 WLM_CLASSIFY_BENCH_JSON="${json}" \
    ./build/bench/bench_perf_micro --benchmark_filter='^$' > /dev/null
  if [[ ! -s "${json}" ]]; then
    echo "classify smoke: ${json} missing or empty" >&2
    exit 1
  fi
  if command -v python3 > /dev/null 2>&1; then
    python3 - "${json}" << 'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rec = json.loads(f.readline())
speedup = rec["speedup"]
cache = rec["cache"]
if speedup < 3.0:
    sys.exit(f"classify smoke: speedup {speedup} below the 3x floor")
if cache["hits"] == 0:
    sys.exit("classify smoke: the verdict cache never hit")
print(f"classify smoke: {speedup}x over reference, "
      f"{cache['hits']} hits / {cache['misses']} misses")
EOF
  else
    grep -q '"speedup"' "${json}" || {
      echo "classify smoke: no speedup field in ${json}" >&2
      exit 1
    }
    echo "classify smoke: record present (grep fallback)"
  fi
}
classify_smoke

# PER-table smoke: run the SINR->PER contrast at a reduced stream size and
# require identical frame-error decisions (bench_perf_micro exits nonzero on
# a mismatch) plus a >= 2x table-over-scalar throughput floor. The floor is
# deliberately below the typical 5-10x so scheduler noise can't flake the
# lane while a real regression (table silently falling back to the scalar
# path) still trips it.
per_smoke() {
  local json="build/BENCH_per_smoke.json"
  rm -f "${json}"
  echo "=== PER table smoke ==="
  WLM_PER_BENCH_EVALS=300000 WLM_PER_BENCH_JSON="${json}" \
    WLM_CLASSIFY_BENCH_FLOWS=2000 WLM_CLASSIFY_BENCH_JSON=/dev/null \
    ./build/bench/bench_perf_micro --benchmark_filter='^$' > /dev/null
  if [[ ! -s "${json}" ]]; then
    echo "per smoke: ${json} missing or empty" >&2
    exit 1
  fi
  if command -v python3 > /dev/null 2>&1; then
    python3 - "${json}" << 'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rec = json.loads(f.readline())
if rec["speedup"] < 2.0:
    sys.exit(f"per smoke: table speedup {rec['speedup']} below the 2x floor")
print(f"per smoke: {rec['speedup']}x over the scalar oracle, decisions identical")
EOF
  else
    grep -q '"speedup"' "${json}" || {
      echo "per smoke: no speedup field in ${json}" >&2
      exit 1
    }
    echo "per smoke: record present (grep fallback)"
  fi
}
per_smoke

# Checkpoint/resume smoke: kill a campaign at a phase boundary, resume it in
# a new process at a different --jobs, and require byte-identical stdout and
# metrics versus the run that never stopped (the tier-1 e2e tests prove this
# in-process; the smoke proves the shipped wlmctl wiring does too).
ckpt_smoke() {
  echo "=== checkpoint/resume smoke ==="
  local dir="build/ckpt-smoke"
  rm -rf "${dir}" && mkdir -p "${dir}"
  local flags=(--networks 5 --seed 11 --faults "outage_rate=2,outage_hours=12,corrupt=0.01")
  ./build/tools/wlmctl simulate "${flags[@]}" --jobs 2 \
    --metrics-out "${dir}/full.metrics" > "${dir}/full.out"
  ./build/tools/wlmctl simulate "${flags[@]}" --jobs 1 \
    --checkpoint-out "${dir}/cut.wlmckpt" --halt-after-phase mr16 \
    > "${dir}/halted.out" 2> /dev/null
  ./build/tools/wlmctl simulate --resume-from "${dir}/cut.wlmckpt" --jobs 4 \
    --metrics-out "${dir}/resumed.metrics" > "${dir}/resumed.out" 2> /dev/null
  cmp "${dir}/full.out" "${dir}/resumed.out" || {
    echo "ckpt smoke: resumed stdout differs from the uninterrupted run" >&2
    exit 1
  }
  cmp "${dir}/full.metrics" "${dir}/resumed.metrics" || {
    echo "ckpt smoke: resumed metrics differ from the uninterrupted run" >&2
    exit 1
  }
  # A truncated checkpoint must fail with a diagnostic, not a crash.
  head -c 40 "${dir}/cut.wlmckpt" > "${dir}/torn.wlmckpt"
  if ./build/tools/wlmctl simulate --resume-from "${dir}/torn.wlmckpt" \
    > /dev/null 2> "${dir}/torn.err"; then
    echo "ckpt smoke: resume from a truncated checkpoint succeeded" >&2
    exit 1
  fi
  grep -q "cannot resume" "${dir}/torn.err" || {
    echo "ckpt smoke: truncated resume died without a diagnostic" >&2
    exit 1
  }
  echo "ckpt smoke: kill/resume byte-identical, torn checkpoint fails closed"
}
ckpt_smoke

# Crash-recovery smoke: the shard supervision layer through the shipped
# wlmctl wiring (the tier-1 `failsafe` label proves it in-process). Kills
# one network with a failpoint and requires: the campaign still completes
# (exit 3 = degraded, not a crash), the manifest names exactly that
# network, the surviving shards' output is byte-identical across --jobs,
# a transient failure recovers to byte-identical clean output, and a
# missing resume checkpoint exits with the distinct I/O code (4).
failsafe_smoke() {
  echo "=== crash-recovery (failsafe) smoke ==="
  local dir="build/failsafe-smoke"
  rm -rf "${dir}" && mkdir -p "${dir}"
  local flags=(--networks 5 --seed 11)
  local kill_spec="site=poller.poll,net=3,action=throw"

  # Kill-one-shard campaign: must finish degraded, naming network 3.
  local rc=0
  ./build/tools/wlmctl simulate "${flags[@]}" --jobs 2 \
    --failpoints "${kill_spec}" --max-shard-retries 1 \
    > "${dir}/degraded-j2.out" 2> /dev/null || rc=$?
  if [[ "${rc}" -ne 3 ]]; then
    echo "failsafe smoke: kill-one-shard run exited ${rc}, want 3 (degraded)" >&2
    exit 1
  fi
  grep -q "\[quarantined\] network 3" "${dir}/degraded-j2.out" || {
    echo "failsafe smoke: manifest does not quarantine network 3" >&2
    exit 1
  }
  # The degraded run is still a deterministic artifact: same bytes per jobs.
  for jobs in 1 8; do
    ./build/tools/wlmctl simulate "${flags[@]}" --jobs "${jobs}" \
      --failpoints "${kill_spec}" --max-shard-retries 1 \
      > "${dir}/degraded-j${jobs}.out" 2> /dev/null || true
    cmp "${dir}/degraded-j2.out" "${dir}/degraded-j${jobs}.out" || {
      echo "failsafe smoke: degraded output differs at --jobs ${jobs}" >&2
      exit 1
    }
  done

  # Transient failure + retry: byte-identical to the unfaulted run.
  ./build/tools/wlmctl simulate "${flags[@]}" --jobs 2 > "${dir}/clean.out"
  ./build/tools/wlmctl simulate "${flags[@]}" --jobs 2 \
    --failpoints "site=shard.step,net=3,action=throw,times=1" \
    --max-shard-retries 2 > "${dir}/recovered.out" 2> /dev/null
  cmp "${dir}/clean.out" "${dir}/recovered.out" || {
    echo "failsafe smoke: recovered run differs from the unfaulted run" >&2
    exit 1
  }

  # A nonexistent --resume-from path is a typed I/O error, exit code 4.
  rc=0
  ./build/tools/wlmctl simulate --resume-from "${dir}/no-such.wlmckpt" \
    > /dev/null 2> "${dir}/missing.err" || rc=$?
  if [[ "${rc}" -ne 4 ]]; then
    echo "failsafe smoke: missing checkpoint exited ${rc}, want 4 (resume I/O)" >&2
    exit 1
  fi
  grep -q "cannot resume" "${dir}/missing.err" || {
    echo "failsafe smoke: missing-checkpoint resume lacked a diagnostic" >&2
    exit 1
  }
  echo "failsafe smoke: degraded completion deterministic, retry recovers, resume I/O typed"
}
failsafe_smoke

# Full-scale streaming-harvest smoke: the tsdb segment store + spill path
# through the shipped wlmctl wiring (the tier-1 `tsdb` label proves the
# store in-process; BENCH_fullscale measures the real 20,667-network
# campaign). A tiny fleet runs once with a roomy segment ceiling (streaming
# on, nothing spills) and once with a deliberately tiny 1 MiB ceiling that
# forces every sealed segment to disk. Requirements: the tiny-ceiling run
# actually produced spill files, its stdout is byte-identical to the
# unspilled run, and its peak RSS stays under a generous absolute bound —
# the ceiling governs resident segment bytes, so the bound catches the
# store accidentally holding everything resident anyway.
fullscale_smoke() {
  echo "=== full-scale streaming-harvest smoke ==="
  local dir="build/fullscale-smoke"
  rm -rf "${dir}" && mkdir -p "${dir}/spill"
  local flags=(--networks 12 --seed 11 --jobs 2)

  ./build/tools/wlmctl simulate "${flags[@]}" --mem-ceiling-mb 4096 \
    --spill-dir "${dir}/spill" > "${dir}/resident.out"
  if compgen -G "${dir}/spill/tsdb_spill_*.ckpt" > /dev/null; then
    echo "fullscale smoke: roomy ceiling spilled sealed segments" >&2
    exit 1
  fi

  if command -v python3 > /dev/null 2>&1; then
    # Run the spilled pass under a wrapper that reports the child's peak
    # RSS (ru_maxrss) and enforce a 768 MiB bound — far above a tiny
    # fleet's honest footprint, far below an everything-resident bug.
    python3 - "${dir}" "${flags[@]}" << 'EOF'
import resource, subprocess, sys
outdir = sys.argv[1]
cmd = ["./build/tools/wlmctl", "simulate", *sys.argv[2:],
       "--mem-ceiling-mb", "1", "--spill-dir", f"{outdir}/spill"]
with open(f"{outdir}/spilled.out", "wb") as out:
    rc = subprocess.call(cmd, stdout=out)
if rc != 0:
    sys.exit(f"fullscale smoke: spilled run exited {rc}")
rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
cap_kb = 768 * 1024
if rss_kb > cap_kb:
    sys.exit(f"fullscale smoke: peak RSS {rss_kb} KB above the {cap_kb} KB bound")
print(f"fullscale smoke: spilled run peak RSS {rss_kb} KB (bound {cap_kb} KB)")
EOF
  else
    ./build/tools/wlmctl simulate "${flags[@]}" --mem-ceiling-mb 1 \
      --spill-dir "${dir}/spill" > "${dir}/spilled.out"
    echo "fullscale smoke: RSS bound skipped (no python3)"
  fi

  compgen -G "${dir}/spill/tsdb_spill_*.ckpt" > /dev/null || {
    echo "fullscale smoke: 1 MiB ceiling never spilled" >&2
    exit 1
  }
  cmp "${dir}/resident.out" "${dir}/spilled.out" || {
    echo "fullscale smoke: spilled stdout differs from the unspilled run" >&2
    exit 1
  }

  # Sealed segments live in the checkpoint, and they are sealed on the
  # worker pool: the spilled run's checkpoint must not depend on --jobs.
  for jobs in 1 4; do
    mkdir -p "${dir}/spill-j${jobs}"
    ./build/tools/wlmctl simulate "${flags[@]:0:4}" --jobs "${jobs}" \
      --mem-ceiling-mb 1 --spill-dir "${dir}/spill-j${jobs}" \
      --checkpoint-out "${dir}/spilled-j${jobs}.ckpt" > "${dir}/spilled-j${jobs}.out" \
      2> "${dir}/spilled-j${jobs}.err" || {
      echo "fullscale smoke: checkpointed spilled run failed at --jobs ${jobs}" >&2
      cat "${dir}/spilled-j${jobs}.err" >&2
      exit 1
    }
  done
  cmp "${dir}/spilled-j1.ckpt" "${dir}/spilled-j4.ckpt" || {
    echo "fullscale smoke: spilled checkpoint differs between --jobs 1 and 4" >&2
    exit 1
  }
  echo "fullscale smoke: spill occurred, spilled output byte-identical to resident," \
    "checkpoint identical at --jobs 1 and 4"
}
fullscale_smoke

# Mobility (roaming) smoke: the waypoint walk + handoff path through the
# shipped wlmctl wiring (the tier-1 `mobility` label proves it in-process).
# A tiny mobile campaign must render byte-identical roaming artifacts at any
# --jobs, must actually roam (a walk that never hands off would pass every
# determinism check while testing nothing), and its telemetry must still
# reconcile with the loss ledger — churn may move bytes between APs, never
# invent or lose them.
mobility_smoke() {
  echo "=== mobility (roaming) smoke ==="
  local dir="build/mobility-smoke"
  rm -rf "${dir}" && mkdir -p "${dir}"
  local flags=(--networks 5 --seed 11 --mobility on --mobility-steps 48)

  for jobs in 1 2 8; do
    ./build/tools/wlmctl report roamcdf "${flags[@]}" --jobs "${jobs}" \
      > "${dir}/roamcdf-j${jobs}.out"
  done
  for jobs in 2 8; do
    cmp "${dir}/roamcdf-j1.out" "${dir}/roamcdf-j${jobs}.out" || {
      echo "mobility smoke: roam-rate CDF differs at --jobs ${jobs}" >&2
      exit 1
    }
  done

  ./build/tools/wlmctl report sticky "${flags[@]}" --jobs 2 > "${dir}/sticky.out"
  grep -q "committed roams" "${dir}/sticky.out" || {
    echo "mobility smoke: sticky report lacks the roam counters" >&2
    exit 1
  }
  if grep -Eq "committed roams +\| +0 \|" "${dir}/sticky.out"; then
    echo "mobility smoke: the mobile campaign never roamed" >&2
    exit 1
  fi

  # Ledger reconciliation with the walk enabled (and faults chewing on the
  # tunnels): wlmctl stats exits nonzero unless telemetry matches the ledger.
  ./build/tools/wlmctl stats "${flags[@]}" --jobs 2 \
    --faults "outage_rate=2,outage_hours=12,corrupt=0.01" \
    > "${dir}/stats.out" || {
    echo "mobility smoke: telemetry/ledger reconciliation failed under churn" >&2
    exit 1
  }
  echo "mobility smoke: roaming deterministic across jobs, ledger reconciles"
}
mobility_smoke

# Mesh (multi-hop backhaul) smoke: the relay routing + per-hop accounting
# path through the shipped wlmctl wiring (the tier-1 `mesh` label proves it
# in-process). A mesh campaign must be byte-identical at any --jobs, a
# gateway-outage scenario must complete with a reconciled ledger (wlmctl
# stats exits nonzero otherwise) AND actually strand reports — a topology
# where nothing partitions would pass every determinism check while testing
# nothing — and the hop-count artifact must render relayed traffic.
mesh_smoke() {
  echo "=== mesh (multi-hop backhaul) smoke ==="
  local dir="build/mesh-smoke"
  rm -rf "${dir}" && mkdir -p "${dir}"
  local flags=(--networks 8 --seed 7 --mesh-fraction 0.5)

  for jobs in 1 2 8; do
    ./build/tools/wlmctl simulate "${flags[@]}" --jobs "${jobs}" \
      > "${dir}/sim-j${jobs}.out"
  done
  for jobs in 2 8; do
    cmp "${dir}/sim-j1.out" "${dir}/sim-j${jobs}.out" || {
      echo "mesh smoke: mesh campaign output differs at --jobs ${jobs}" >&2
      exit 1
    }
  done

  # Gateway outages strand relay subtrees; stats exits nonzero unless the
  # telemetry counters reconcile with the loss ledger, partition bucket
  # included.
  ./build/tools/wlmctl stats --networks 8 --seed 7 --mesh-fraction 0.6 \
    --jobs 2 --faults "outage_rate=3,outage_hours=40" > "${dir}/stats.out" || {
    echo "mesh smoke: telemetry/ledger reconciliation failed under gateway outages" >&2
    exit 1
  }
  grep -Eq "^wlm_mesh_partition_lost_total [1-9]" "${dir}/stats.out" || {
    echo "mesh smoke: the gateway-outage scenario never stranded a subtree" >&2
    exit 1
  }

  ./build/tools/wlmctl report meshdelivery --networks 6 --seed 7 --jobs 2 \
    > "${dir}/delivery.out"
  grep -q "relayed reports" "${dir}/delivery.out" || {
    echo "mesh smoke: meshdelivery artifact lacks the relay summary" >&2
    exit 1
  }
  echo "mesh smoke: jobs byte-identical, outage ledger reconciles with stranding, artifact renders"
}
mesh_smoke

# Benchmark-harness unit tests: the percentile and gate arithmetic plus a
# tiny run of every perfbench workload through perfbench/run.py, which
# builds its own binary from src/ into .bench_build/. The harness gates
# every performance claim, so a runtime change that breaks it fails here
# instead of at benchmark time.
perfbench_unit() {
  echo "=== perfbench unit tests ==="
  if ! command -v python3 > /dev/null 2>&1; then
    echo "perfbench unit: skipped (no python3)"
    return
  fi
  python3 -m unittest discover -s perfbench/tests
}
perfbench_unit

if [[ "${1:-}" != "--fast" ]]; then
  # Sanitizer builds skip the `slow` and `perf` labels (fork-based e2e,
  # golden replays, and the PER-mode fleet-identity gates): the instrumented
  # binaries run those campaigns 5-20x slower, and the same code paths are
  # already covered by the unlabeled ckpt/property/determinism tests.
  # The `classify` label (rule-engine differential + parser fuzz corpus) is
  # NOT excluded, so both sanitizer lanes sweep the mutated-packet
  # corpus and the 100k-flow oracle diff on every run. Likewise `tsdb`
  # (segment format roundtrip + the adversarial truncation/bit-flip/tamper
  # corpus), `mobility` (walk determinism, handoff boundaries, mobility
  # golden renders), and `mesh` (relay routing purity, jobs byte-identity,
  # gateway-outage stranding, hop-count goldens, the v6 checkpoint fuzz
  # corpus): their tests are fast and written to be ASan/UBSan-clean, so
  # both sanitizer lanes pick them up automatically.
  run_suite build-asan "-LE slow|perf" -DWLM_SANITIZE=address
  run_suite build-tsan "-LE slow|perf" -DWLM_SANITIZE=thread
fi

echo "=== ci.sh: all suites green ==="
