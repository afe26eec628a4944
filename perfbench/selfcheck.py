"""Show that the benchmark's output checks and guards work.

    python3 perfbench/selfcheck.py

1. Every workload is run, ``SECONDS`` long, once per ``--perturb`` kind
   its module lists; each kind changes one output (an evaluated or
   served q, the threshold, a gate decision, a response flag, a logged
   event, a camera count) after the timed part.  Each run must exit 1, print no result, and name
   the failure with the message of the check written for that output.
2. A directory holding only ``BENCHMARK.json`` and ``perfbench/`` (no
   ``src/``) must make the benchmark exit non-zero without a result.

Exits 0 when every case behaves so.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Length of each perturbed run.
SECONDS = 2


def _result_printed(stdout: str) -> bool:
    lines = stdout.strip().splitlines()
    if not lines:
        return False
    try:
        return "correct" in json.loads(lines[-1])
    except ValueError:
        return False


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True

    for workload in (w["name"] for w in spec["workloads"]):
        module = importlib.import_module(run.WORKLOADS[workload][0])
        for kind, expected in module.PERTURBATIONS.items():
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", str(SECONDS),
                 "--perturb", kind],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            caught = (proc.returncode == 1 and "check failed" in proc.stderr
                      and expected in proc.stderr
                      and not _result_printed(proc.stdout))
            ok &= caught
            message = (proc.stderr.strip().splitlines()[-1:]
                       or ["(no stderr)"])
            print(f"{workload} --perturb {kind}: exit {proc.returncode} -> "
                  f"{'caught' if caught else 'NOT CAUGHT'}: "
                  f"{message[0][:150]}")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"],
                               "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    refused = proc.returncode != 0 and not _result_printed(proc.stdout)
    ok &= refused
    print(f"bare directory: exit {proc.returncode} -> "
          f"{'refused' if refused else 'NOT REFUSED'}: "
          f"{proc.stderr.strip()[:160]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
