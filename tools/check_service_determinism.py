#!/usr/bin/env python3
"""Byte-exactness check for the serving determinism contract.

Runs the fm_service walkthrough binary under every listed FM_THREADS value
and fails unless stdout is byte-identical across all of them. This is the
executable form of the contract documented in docs/DETERMINISM.md: thread
count is a performance knob, so it may not move a single output byte.

Registered as the `fm_service_determinism` ctest and run in CI; also useful
locally:

    python3 tools/check_service_determinism.py --binary build/fm_service
"""

import argparse
import os
import subprocess
import sys


def first_difference(a, b):
    """(byte offset, 1-based line) of the first mismatch between a and b."""
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return i, a.count(b"\n", 0, i) + 1
    return limit, a.count(b"\n", 0, limit) + 1


def run_once(binary, threads, timeout_s):
    env = dict(os.environ)
    env["FM_THREADS"] = str(threads)
    proc = subprocess.run(
        [binary], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=timeout_s)
    label = f"FM_THREADS={threads}"
    if proc.returncode != 0:
        sys.stderr.write(
            f"FAIL: {label}: exit code {proc.returncode}\n"
            f"--- stderr ---\n{proc.stderr.decode(errors='replace')}\n")
        return None
    return label, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--binary", required=True,
                        help="path to the fm_service executable")
    parser.add_argument("--threads", default="1,8",
                        help="comma-separated FM_THREADS values (default 1,8)")
    parser.add_argument("--timeout_s", type=float, default=540,
                        help="per-run timeout in seconds")
    args = parser.parse_args()

    runs = []
    for threads in args.threads.split(","):
        result = run_once(args.binary, threads.strip(), args.timeout_s)
        if result is None:
            return 1
        runs.append(result)

    ref_label, ref_out = runs[0]
    ok = True
    for label, out in runs[1:]:
        if out == ref_out:
            print(f"OK:   {label} matches {ref_label} "
                  f"({len(out)} bytes)")
            continue
        ok = False
        offset, line = first_difference(ref_out, out)
        sys.stderr.write(
            f"FAIL: {label} differs from {ref_label} at byte {offset} "
            f"(line {line}); sizes {len(out)} vs {len(ref_out)}\n")
        ref_line = ref_out.split(b"\n")[line - 1:line]
        got_line = out.split(b"\n")[line - 1:line]
        if ref_line and got_line:
            sys.stderr.write(
                f"  {ref_label}: {ref_line[0].decode(errors='replace')}\n"
                f"  {label}: {got_line[0].decode(errors='replace')}\n")
    if ok:
        print(f"determinism: {len(runs)} runs byte-identical "
              f"({len(ref_out)} bytes each)")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
