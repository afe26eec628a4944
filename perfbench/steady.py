"""Steadiness check: two interleaved sets of runs of every workload.

    python3 perfbench/steady.py [--runs 5] [--traced]

Runs set A and set B of every workload of ``BENCHMARK.json`` alternately
(A B A B ...), each run ``run_seconds`` long with its own ``--seed``, and
prints for every end-to-end metric of every workload: both medians with
their quartiles, the spread of all runs (quartile distance over median),
the bound from ``BENCHMARK.json``, and whether

* the spread stays within a third of the bound (the target) and within
  the bound (required), and
* set B's median differs from set A's, either way, by no more than the
  bound (required).

It also requires that the share of failed operations is identical in the
two sets, and exits 1 when a required condition fails.  With ``--traced`` it adds one traced run per workload and
prints the tracing overhead on each end-to-end metric.  Every parsed
result is written to ``.perfbench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        tag, _, body = line.partition(" ")
        if tag in ("noise", "extra"):
            result[tag] = json.loads(body)
    result.update(workload=workload, seed=seed, trace=trace,
                  process_s=elapsed)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set and workload")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    results = []
    for i in range(args.runs):
        for workload in workloads:
            for k, label in enumerate("AB"):
                seed = 1 + 2 * i + k
                result = run_once(workload, seed, seconds, 0)
                result["set"] = label
                results.append(result)
                print(f"# {label} {workload} seed {seed}: "
                      + ", ".join(f"{n}={m['value']:.4g}"
                                  for n, m in result["metrics"].items()),
                      flush=True)
    traced = {}
    if args.traced:
        for workload in workloads:
            traced[workload] = run_once(workload, 1000, seconds, 1)

    out = ROOT / ".perfbench_out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": results, "traced": traced},
                              indent=1) + "\n")

    ok = True
    for workload in workloads:
        rows = [r for r in results if r["workload"] == workload]
        print(f"\n{workload}")
        shares = {label: {r["failed"] / r["attempted"] for r in rows
                          if r["set"] == label} for label in "AB"}
        same_share = len(shares["A"] | shares["B"]) == 1
        ok &= same_share
        print(f"  failed share A {sorted(shares['A'])} B "
              f"{sorted(shares['B'])} -> {'same' if same_share else 'DIFF'}")
        print(f"  {'metric':<18} {'median A [q1, q3]':>30} "
              f"{'median B [q1, q3]':>30} {'spread':>7} {'bound':>6} "
              f"{'B worse':>8}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in rows if r["set"] == "A"]
            b = [r["metrics"][name]["value"] for r in rows if r["set"] == "B"]
            qa, qb = quartiles(a), quartiles(b)
            q1, q2, q3 = quartiles(a + b)
            spread = (q3 - q1) / q2
            drift = worse_by(qa[1], qb[1], m["better"])
            steady = spread <= m["bound"] / 3
            agrees = abs(drift) <= m["bound"]
            ok &= agrees and spread <= m["bound"]
            print(f"  {name:<18} {qa[1]:>10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                  f"{'':>2}{qb[1]:>10.4g} [{qb[0]:.4g}, {qb[2]:.4g}]"
                  f"{spread:>8.3f} {m['bound']:>6.2f} {drift:>8.3f}  "
                  f"{'steady' if steady else 'SPREAD'}"
                  f"/{'agree' if agrees else 'DRIFT'}")
        if workload in traced:
            print("  tracing overhead (traced vs untraced median):")
            for m in spec["end_to_end"]:
                name = m["name"]
                base = statistics.median(r["metrics"][name]["value"]
                                         for r in rows)
                value = traced[workload]["extra"]["traced_e2e"][name]
                print(f"    {name:<18} {value:.4g} vs {base:.4g} "
                      f"({worse_by(base, value, m['better']):+.1%} worse)")
    print("\nall within bounds" if ok else "\nSOME CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
