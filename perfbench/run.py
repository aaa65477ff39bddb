#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (a CMake package that pulls in the repository's own
CMakeLists.txt) in Release mode under .bench_build/perfbench, then runs one
workload with FM_THREADS pinned to the number of CPUs this process may use
(--threads overrides it). The last line of standard output is the result
JSON; the exit code is non-zero when the build fails, an output check fails
or the run times out. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "scratch")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns True on success."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: repository sources (CMakeLists.txt, src/) not found "
            "next to perfbench/")
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    for attempt in range(2):
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr, check=False)
            if configure.returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                continue
        compiled = subprocess.run(
            ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if compiled.returncode == 0:
            return True
        # A cache from another checkout location cannot be reused.
        shutil.rmtree(BUILD, ignore_errors=True)
    return False


def run_binary(args, threads):
    env = dict(os.environ)
    env["FM_THREADS"] = str(threads)
    try:
        proc = subprocess.run([BINARY] + args, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, ""
    return proc.returncode, proc.stdout


def measure(workload, seed, seconds, trace, threads, plant_us=0.0):
    """Runs one workload; returns (exit code, stdout, result dict or None)."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--scratch", SCRATCH]
    if plant_us:
        args += ["--plant-delete-delay-us", str(plant_us)]
    code, out = run_binary(args, threads)
    lines = out.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return code, out, result


def attribution_check(threads):
    """A busy-wait planted in the benchmark's own wrapper around store
    deletes must raise serve.store.delete_us and lower serve_churn's
    ops_per_s, and leave serve_mixed (which issues no deletes) unchanged.
    The delay is several times the delete's own cost, so host noise cannot
    hide it."""
    plant_us = 2000.0
    seconds = 5
    values = {}
    planted = {}
    for workload in ("serve_churn", "serve_mixed"):
        for plant in (0.0, plant_us):
            for trace in (0, 1):
                code, out, result = measure(workload, 1, seconds, trace,
                                            threads, plant)
                if code != 0 or result is None or not result["correct"]:
                    log("attribution check: %s run failed" % workload)
                    return False
                for name, metric in result["metrics"].items():
                    values[(workload, plant, name)] = metric["value"]
                for line in out.splitlines():
                    if line.startswith("note: planted delete delays: ") \
                            and not trace:
                        planted[workload] = int(line.split()[-1])

    def change(workload, name):
        return (values[(workload, plant_us, name)] -
                values[(workload, 0.0, name)])

    def ratio(workload, name):
        return (values[(workload, plant_us, name)] /
                values[(workload, 0.0, name)])

    churn_ops = ratio("serve_churn", "ops_per_s")
    delete_rise = change("serve_churn", "serve.store.delete_us")
    update_move = abs(change("serve_churn", "serve.store.update_us"))
    checks = [
        ("serve_churn ops_per_s falls by more than 20%% (x%.3f)" % churn_ops,
         churn_ops < 0.8),
        ("serve_churn serve.store.delete_us rises by at least 80%% of the "
         "%.0f us planted (+%.0f us)" % (plant_us, delete_rise),
         delete_rise >= 0.8 * plant_us),
        ("serve_churn serve.store.update_us moves by less than a quarter of "
         "that (%.0f us)" % update_move,
         update_move < 0.25 * delete_rise),
        # serve_mixed issues no deletes, so its measured path must run the
        # planted delay zero times: an exact check, immune to host noise.
        ("serve_mixed ran %s planted delays (serve_churn %s)"
         % (planted.get("serve_mixed"), planted.get("serve_churn")),
         planted.get("serve_mixed") == 0 and planted.get("serve_churn", 0) > 0),
    ]
    print("info: serve_mixed ops_per_s x%.3f with the plant (host noise only)"
          % ratio("serve_mixed", "ops_per_s"))
    ok = True
    for what, passed in checks:
        print("%s %s" % ("ok  " if passed else "FAIL", what))
        ok = ok and passed
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--threads", type=int,
                        default=len(os.sched_getaffinity(0)),
                        help="FM_THREADS for the run (default: nproc)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 2
    if args.self_test:
        code, out = run_binary(["--self-test"], args.threads)
        sys.stdout.write(out)
        passed = code == 0 and attribution_check(args.threads)
        print("perfbench self-test %s" % ("passed" if passed else "FAILED"))
        return 0 if passed else 1
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    code, out, _ = measure(args.workload, args.seed, args.seconds, args.trace,
                           args.threads)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
