#!/usr/bin/env python3
"""Benchmark harness with two modes.

``--mode linalg`` (the default) runs ``micro_substrates`` once and writes
the per-benchmark timings to ``BENCH_linalg.json``. Twin benchmarks are
registered as ``BM_X/blocked/<args>`` and ``BM_X/ref/<args>``: the first
times a production kernel, the second its scalar ``Ref*`` oracle on the
same inputs. By the kernel layer's bit-identity contract
(src/linalg/kernels.h) both produce the same numbers; only the time
differs, and the harness reports each pair's speedup. Requires Google
Benchmark.

``--mode serve`` runs ``bench_serve`` (self-contained timer — no Google
Benchmark needed) and re-emits its report as ``BENCH_serve.json``: service
throughput (ingest / predict / mixed requests per second) and
ingest-to-fresh-model latency, incremental objective maintenance vs full
retrain-from-scratch.

Usage:
    python3 tools/run_bench.py [--mode linalg|serve] [--build-dir build]
                               [--out FILE] [--smoke] [--gate]
                               [--filter REGEX]

``--smoke`` shortens measurement (fewer repetitions / smaller request
volumes) for CI; the serve dataset size stays at the gate's n = 1e5.
``--gate`` exits non-zero when the perf contract is violated: in linalg
mode, a blocked kernel slower than its reference in any twin pair, or no
twin pair in the run; in serve mode, (1) incremental retrain slower than a
full rebuild at n >= 1e5, or (2) the churn workload's post-compaction store
not O(live) — resident slots must equal the live count exactly and
Objective() must run within 1.5x of a fresh store holding the same live
tuples (bench_serve itself exits non-zero if the compacted store is not
bitwise equal to that fresh store, so the perf gate can never pass on a
wrong store), or (3) the telemetry surface is broken — the report must
carry a ``metrics`` snapshot (docs/OBSERVABILITY.md) and its
fault-cleanliness gauges (WAL transient retries / short writes /
poisoning, degraded-mode rejections) must all read zero on the healthy
benchmark volume.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys

DEFAULT_FILTER = (
    "BM_CompensatedBatch|BM_GramMatrix|BM_Cholesky|BM_MatVec|"
    "BM_LogisticGradient|BM_ObjectiveAccumulatorBuild|"
    "BM_TrainObjectiveForFold|BM_BuildLinearObjective"
)

# A twin instance: benchmark name, which side of the pair, then its args.
TWIN_PATTERN = re.compile(r"^(\w+)/(blocked|ref)(/.*)?$")

# The serve gate only binds at scale: below this n a full rebuild is cheap
# enough that scheduling noise could dominate the comparison.
SERVE_GATE_MIN_N = 100000

# Post-compaction Objective() may cost at most this multiple of a fresh
# store of the same live tuples. The two stores are bit-identical (checked
# inside bench_serve), so the ratio measures pure overhead; the headroom
# absorbs timer noise on shared runners.
SERVE_CHURN_MAX_POST_VS_FRESH = 1.5


def resolve_min_time_arg(binary, min_time):
    """Google Benchmark >= 1.8 wants a unit suffix on --benchmark_min_time;
    older versions reject it. Probe with a cheap --benchmark_list_tests
    invocation so real (expensive) runs execute exactly once and real
    failures are never masked by a flag-syntax retry."""
    for candidate in (f"--benchmark_min_time={min_time}",
                      f"--benchmark_min_time={min_time}s"):
        proc = subprocess.run(
            [binary, "--benchmark_list_tests=true", candidate],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        if proc.returncode == 0:
            return candidate
    raise SystemExit(
        f"{binary} rejected --benchmark_min_time in both bare and "
        "suffixed form")


def run_benchmarks(binary, min_time_arg, args):
    env = dict(os.environ)
    # Benchmarks measure single-kernel latency; keep the engine serial so
    # pool scheduling does not add noise.
    env.setdefault("FM_THREADS", "1")
    proc = subprocess.run(
        [
            binary,
            f"--benchmark_filter={args.filter}",
            "--benchmark_format=json",
            f"--benchmark_repetitions={args.repetitions}",
            "--benchmark_report_aggregates_only=true",
            min_time_arg,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode())
        raise SystemExit("benchmark run failed")
    return json.loads(proc.stdout.decode())


def median_times(report):
    """name -> cpu_time in ns for the _median aggregate rows."""
    out = {}
    for bench in report.get("benchmarks", []):
        name = bench["name"]
        if not name.endswith("_median"):
            continue
        assert bench.get("time_unit", "ns") == "ns", bench
        out[name[: -len("_median")]] = float(bench["cpu_time"])
    return out


def run_serve_mode(args):
    binary = os.path.join(args.build_dir, "bench_serve")
    if not os.path.exists(binary):
        raise SystemExit(
            f"{binary} not found — build it first (cmake -B build -S . && "
            "cmake --build build -j); bench_serve needs no Google Benchmark")

    out = args.out if args.out else "BENCH_serve.json"
    # Repeats: explicit --repetitions wins, else 3 for --smoke, else
    # bench_serve's built-in default (7).
    repeats = args.repetitions if args.repetitions is not None else (
        3 if args.smoke else None)
    cmd = [binary, "--out", out, "--n", str(SERVE_GATE_MIN_N)]
    if repeats is not None:
        cmd += ["--repeats", str(repeats)]
    if args.smoke:
        cmd += ["--ingest", "5000", "--predicts", "5000", "--mixed", "5000",
                "--churn-live", "2000", "--durable", "3000"]
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        raise SystemExit("bench_serve failed")

    with open(out) as f:
        report = json.load(f)
    print(f"\nwrote {out}")

    # Durability phase (informational, no perf gate): WAL group-commit
    # throughput spread and the in-process recovery check bench_serve
    # already enforced (it exits non-zero when the recovered service is not
    # bitwise-equal to the uninterrupted one).
    if "durable_ingest_rps_sync_batch" in report:
        print("durable ingest: "
              f"{report['durable_ingest_rps_sync_none']:.0f}/s (no fsync), "
              f"{report['durable_ingest_rps_sync_batch']:.0f}/s "
              f"(group commit, {report['durable_syncs_sync_batch']} fsyncs "
              f"over {report['durable_commit_batches']} commits), "
              f"{report['durable_ingest_rps_sync_always']:.0f}/s "
              "(fsync-always); "
              f"mean commit batch "
              f"{report['durable_commit_ms_sync_batch'] * 1000:.0f} us; "
              f"recovery {report['recovery_seconds'] * 1000:.2f} ms "
              f"(bitwise-verified: {report['recovered_bitwise_equal']})")

    if args.gate:
        n = report["n"]
        incremental = report["incremental_retrain_seconds"]
        rebuild = report["full_rebuild_seconds"]
        if n < SERVE_GATE_MIN_N:
            raise SystemExit(
                f"--gate needs n >= {SERVE_GATE_MIN_N}, got {n}")
        if incremental > rebuild:
            print(f"GATE FAILURE: incremental retrain ({incremental:.6f}s) "
                  f"is slower than a full rebuild ({rebuild:.6f}s) at "
                  f"n={n}", file=sys.stderr)
            raise SystemExit(1)
        print(f"gate passed: incremental retrain beats full rebuild at "
              f"n={n} ({report['incremental_vs_full_speedup']:.2f}x)")

        # Churn/compaction contract: O(live) resident slots, exactly, and
        # post-compaction Objective() within the fresh-store envelope.
        slots_after = report["churn_slots_after_compaction"]
        churn_live = report["churn_live_tuples"]
        if slots_after != churn_live:
            print(f"GATE FAILURE: post-compaction slot space ({slots_after}) "
                  f"is not the live count ({churn_live})", file=sys.stderr)
            raise SystemExit(1)
        ratio = report["churn_post_vs_fresh_ratio"]
        if ratio > SERVE_CHURN_MAX_POST_VS_FRESH:
            print(f"GATE FAILURE: post-compaction Objective() is {ratio:.2f}x "
                  f"a fresh store of the same live tuples (limit "
                  f"{SERVE_CHURN_MAX_POST_VS_FRESH}x)", file=sys.stderr)
            raise SystemExit(1)
        print(f"gate passed: compaction reclaimed "
              f"{report['churn_slots_reclaimed']} of "
              f"{report['churn_slots_before_compaction']} churn slots; "
              f"post-compaction objective is {ratio:.2f}x fresh "
              f"(bitwise-equal stores)")

        # Fault-path hygiene (docs/FAULTS.md): on a healthy volume the
        # durable runs must never trip the transient-retry loop, degraded
        # read-only mode, or WAL poisoning. A nonzero counter here means
        # the hardening machinery is firing on the no-fault path.
        retries = report.get("durable_transient_io_retries", 0)
        degraded = report.get("durable_degraded_rejections", 0)
        poisoned = report.get("durable_wal_poisoned", False)
        if retries != 0 or degraded != 0 or poisoned:
            print(f"GATE FAILURE: fault counters nonzero on a healthy "
                  f"volume (io retries={retries}, degraded "
                  f"rejections={degraded}, wal poisoned={poisoned})",
                  file=sys.stderr)
            raise SystemExit(1)
        print("gate passed: fault counters clean (0 retries, 0 degraded "
              "rejections, WAL not poisoned)")

        # Telemetry surface (docs/OBSERVABILITY.md): the report must embed
        # the durable run's metrics snapshot — a missing/empty object means
        # Service::MetricsSnapshot() broke — and the snapshot's own
        # fault-cleanliness gauges must agree with the healthy-volume
        # counters above. These gauges are exported whether or not the run
        # was durable, precisely so this assertion can never be skipped.
        metrics = report.get("metrics")
        if not isinstance(metrics, dict) or "gauges" not in metrics:
            print("GATE FAILURE: BENCH_serve.json has no metrics snapshot "
                  "(expected a 'metrics' object with a 'gauges' map)",
                  file=sys.stderr)
            raise SystemExit(1)
        gauges = metrics["gauges"]
        clean_keys = ("fm_wal_transient_retries", "fm_wal_short_writes",
                      "fm_wal_poisoned", "fm_serve_degraded_rejections")
        missing = [k for k in clean_keys if k not in gauges]
        if missing:
            print(f"GATE FAILURE: metrics snapshot is missing "
                  f"fault-cleanliness gauges: {', '.join(missing)}",
                  file=sys.stderr)
            raise SystemExit(1)
        dirty = {k: gauges[k] for k in clean_keys if gauges[k] != 0}
        if dirty:
            print(f"GATE FAILURE: fault-cleanliness gauges nonzero on a "
                  f"healthy volume: {dirty}", file=sys.stderr)
            raise SystemExit(1)
        overhead = report.get("metrics_overhead_durable_ratio")
        churn_overhead = report.get("metrics_overhead_churn_ratio")
        print(f"gate passed: metrics snapshot present, fault-cleanliness "
              f"gauges all zero (telemetry overhead: durable "
              f"{overhead:.3f}x, churn {churn_overhead:.3f}x off/on)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=["linalg", "serve"],
                        default="linalg")
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default=None,
                        help="output JSON (default: BENCH_<mode>.json)")
    parser.add_argument("--filter", default=DEFAULT_FILTER)
    parser.add_argument("--smoke", action="store_true",
                        help="short measurement for CI")
    parser.add_argument("--repetitions", type=int, default=None,
                        help="measurement repetitions (default: 3 in linalg "
                             "mode, bench_serve's default in serve mode)")
    parser.add_argument("--gate", action="store_true",
                        help="fail on perf-contract violation (see module "
                             "docstring)")
    args = parser.parse_args()

    if args.mode == "serve":
        run_serve_mode(args)
        return
    if args.out is None:
        args.out = "BENCH_linalg.json"
    if args.repetitions is None:
        args.repetitions = 3

    binary = os.path.join(args.build_dir, "micro_substrates")
    if not os.path.exists(binary):
        raise SystemExit(
            f"{binary} not found — build with Google Benchmark installed "
            "(cmake -B build -S . && cmake --build build -j)")

    min_time_arg = resolve_min_time_arg(binary, "0.05" if args.smoke
                                        else "0.3")
    print("running micro_substrates...", flush=True)
    times = median_times(run_benchmarks(binary, min_time_arg, args))

    # Pair BM_X/blocked/<args> with BM_X/ref/<args>; everything else is a
    # plain timing.
    sides = {}
    benchmarks = []
    for name in sorted(times):
        match = TWIN_PATTERN.match(name)
        if match:
            key = match.group(1) + (match.group(3) or "")
            sides.setdefault(key, {})[match.group(2)] = times[name]
        else:
            benchmarks.append({"name": name, "cpu_ns": times[name]})
    twins = []
    for key, pair in sorted(sides.items()):
        if "blocked" not in pair or "ref" not in pair:
            continue
        blk = pair["blocked"]
        ref = pair["ref"]
        twins.append({
            "name": key,
            "reference_ns": ref,
            "blocked_ns": blk,
            "speedup": ref / blk if blk > 0 else None,
        })

    report = {
        "description": "micro_substrates cpu_time medians over "
                       "repetitions; each twin times a production kernel "
                       "(blocked) and its scalar Ref* oracle (reference) on "
                       "the same inputs, with bit-identical results",
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "processor": platform.processor(),
        },
        "smoke": args.smoke,
        "repetitions": args.repetitions,
        "twins": twins,
        "benchmarks": benchmarks,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    names = [r["name"] for r in twins + benchmarks]
    name_width = max((len(n) for n in names), default=4)
    print(f"\n{'twin':<{name_width}}  {'reference':>12}  "
          f"{'blocked':>12}  {'speedup':>8}")
    for r in twins:
        print(f"{r['name']:<{name_width}}  {r['reference_ns']:>10.0f}ns  "
              f"{r['blocked_ns']:>10.0f}ns  {r['speedup']:>7.2f}x")
    print(f"\n{'benchmark':<{name_width}}  {'cpu':>12}")
    for r in benchmarks:
        print(f"{r['name']:<{name_width}}  {r['cpu_ns']:>10.0f}ns")
    print(f"\nwrote {args.out}")

    if args.gate:
        if not twins:
            raise SystemExit("--gate found no twin benchmark pairs")
        failures = [r for r in twins
                    if r["speedup"] is None or r["speedup"] < 1.0]
        for r in failures:
            print(f"GATE FAILURE: {r['name']} blocked is slower than its "
                  f"reference ({r['speedup']:.2f}x)", file=sys.stderr)
        if failures:
            raise SystemExit(1)
        print(f"gate passed: blocked >= reference on all {len(twins)} "
              "twin pair(s)")

if __name__ == "__main__":
    main()
