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

``--mode serve`` runs the repository benchmark (perfbench/, see
perfbench/README.md) on every workload ``BENCHMARK.json`` names, once at
``FM_THREADS=1`` and once at ``FM_THREADS=nproc``:

    python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0 \
        --threads T

S is ``BENCHMARK.json``'s ``run_seconds``. It writes ``BENCH_serve.json``:
for each workload and thread count, the five end-to-end metrics
``BENCHMARK.json`` gates plus ``attempted`` / ``failed``, and for the serve
workloads the digest of the first responses. perfbench checks
every output of every run (bitwise recovery, the ledger, the thread-count
digest, the fault counters); the harness exits non-zero when a run exits
non-zero or reports ``correct: false``. It sets no timing gate.

Usage:
    python3 tools/run_bench.py [--mode linalg|serve] [--build-dir build]
                               [--out FILE] [--smoke] [--gate]
                               [--filter REGEX]

``--smoke`` shortens measurement for CI: fewer Google Benchmark
repetitions in linalg mode, ``--seconds 1`` in serve mode (perfbench
still runs whole segments). ``--gate`` (linalg mode only) exits non-zero
when a blocked kernel is slower than its reference in any twin pair, or
when no twin pair ran.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys

DEFAULT_FILTER = (
    "BM_ExactBatch|BM_Cholesky|BM_MatVec|"
    "BM_LogisticGradient|BM_ObjectiveAccumulatorBuild|BM_ObjectiveBinPass|"
    "BM_TrainObjectiveForFold|BM_EigenSym"
)

# A twin instance: benchmark name, which side of the pair, then its args.
TWIN_PATTERN = re.compile(r"^(\w+)/(blocked|ref)(/.*)?$")

# perfbench's note on a serve workload's response digest (the same at
# FM_THREADS=1 and nproc by its own check), recorded so a reader can see
# that a change left every response bit where it was.
DIGEST_PATTERN = re.compile(r"digest of the first \d+ responses ([0-9a-f]+)")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Serve mode's --smoke run length. perfbench ends a run after the first
# whole segment past --seconds, so a short run still does whole units of
# every workload's work and all of its output checks.
SMOKE_SECONDS = 1


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


def run_perfbench(workload, seconds, threads):
    """One untraced seed-1 perfbench run; returns (exit code, result or
    None, response digest or None). perfbench prints its result JSON as the
    last stdout line."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", str(seconds),
           "--trace", "0", "--threads", str(threads)]
    print(f"running {workload} at FM_THREADS={threads}...", flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    digest = DIGEST_PATTERN.search(proc.stdout)
    return proc.returncode, result, digest.group(1) if digest else None


def run_serve_mode(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    nproc = len(os.sched_getaffinity(0))
    metrics = [m["name"] for m in spec["end_to_end"]]

    runs = {}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = {}
        for threads in sorted({1, nproc}):
            code, result, digest = run_perfbench(workload, seconds, threads)
            correct = (code == 0 and result is not None
                       and result.get("correct") is True)
            row = {"correct": correct}
            if result is not None:
                row["attempted"] = result["attempted"]
                row["failed"] = result["failed"]
                for name in metrics:
                    if name in result["metrics"]:
                        row[name] = result["metrics"][name]["value"]
            if digest is not None:
                row["response_digest"] = digest
            runs[workload][str(threads)] = row
            if not correct:
                failures.append(f"{workload} at FM_THREADS={threads} "
                                f"(exit code {code})")

    report = {
        "description": "perfbench end-to-end metrics (BENCHMARK.json) per "
                       "workload at FM_THREADS=1 and FM_THREADS=nproc, seed "
                       "1, untraced; response_digest is perfbench's digest "
                       "of a serve workload's first responses",
        "command": "python3 perfbench/run.py --workload W --seed 1 "
                   f"--seconds {seconds} --trace 0 --threads T",
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "nproc": nproc,
        },
        "smoke": args.smoke,
        "seconds": seconds,
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "runs": runs,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    print(f"\n{'workload':<16}{'metric':<14}{'threads=1':>14}"
          f"{'threads=' + str(nproc):>14}")
    for workload, by_threads in runs.items():
        for name in metrics:
            cells = [by_threads.get(str(t), {}).get(name)
                     for t in (1, nproc)]
            text = ["-" if v is None else f"{v:.6g}" for v in cells]
            print(f"{workload:<16}{name:<14}{text[0]:>14}{text[1]:>14}")
    print(f"\nwrote {args.out}")
    if failures:
        for failure in failures:
            print(f"FAILED: {failure}", file=sys.stderr)
        raise SystemExit(1)


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
    parser.add_argument("--repetitions", type=int, default=3,
                        help="Google Benchmark repetitions (linalg mode)")
    parser.add_argument("--gate", action="store_true",
                        help="fail when a blocked kernel is slower than its "
                             "reference (linalg mode)")
    args = parser.parse_args()
    if args.out is None:
        args.out = f"BENCH_{args.mode}.json"

    if args.mode == "serve":
        if args.gate:
            parser.error("--gate applies to --mode linalg only; serve mode "
                         "fails on perfbench's output checks")
        run_serve_mode(args)
        return

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
