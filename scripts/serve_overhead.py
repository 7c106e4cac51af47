#!/usr/bin/env python3
"""Serve instrumentation overhead gate (DESIGN.md §17.2).

Usage: scripts/serve_overhead.py DIR

DIR holds interleaved `exp_serve` runs: off_<n>/serve.json with telemetry
off and on_<n>/serve.json with MBSSL_TRACE=summary, run back to back.
Each pair is compared on the sequential phase, where every request is its
own batch: the per-request instrumentation is most exposed and no
batching or cache dynamics add variance. Real overhead slows the
instrumented side of every pair and drift does not, so the gate fails only
when the best pair is still more than TOL_PCT slower.
"""
import json
import os
import sys

TOL_PCT = 5.0


def sequential_qps(path):
    with open(path) as fh:
        phases = {p["phase"]: p for p in json.load(fh)["phases"]}
    return phases["sequential"]["qps"]


def main(root):
    overheads = []
    for name in sorted(os.listdir(root)):
        if not name.startswith("off_"):
            continue
        off = sequential_qps(os.path.join(root, name, "serve.json"))
        on = sequential_qps(os.path.join(root, "on_" + name[4:], "serve.json"))
        overhead = 100 * (1 - on / off)
        overheads.append(overhead)
        print(f"pair {name[4:]}: off {off:.1f} qps, instrumented {on:.1f} qps, "
              f"overhead {overhead:+.2f}%")
    if not overheads:
        sys.exit(f"serve_overhead: no off_*/on_* pairs under {root}")
    best = min(overheads)
    if best > TOL_PCT:
        sys.exit(f"FAIL: instrumented serve QPS is more than {TOL_PCT}% below "
                 f"its telemetry-off partner in all {len(overheads)} pairs "
                 f"(best overhead {best:.2f}%)")
    print(f"serve instrumentation OK: best pair overhead {best:+.2f}% "
          f"(tolerance {TOL_PCT}%)")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip())
    main(sys.argv[1])
