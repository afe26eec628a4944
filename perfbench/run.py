"""One benchmark run: ``python3 perfbench/run.py --workload W --seed N ...``.

Runs from the root of a source checkout and imports ``repro`` from its
``src/`` directory.  Prints a noise record and, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separately traced run with ``--trace 1``.  Exits non-zero when an output
check fails or the checkout holds no ``src/repro``.

This file is also imported by the spawned shard processes of
``serve-sharded`` (as ``__mp_main__``), so it does nothing at import.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload -> (its module here, the packages its user imports first,
#: which are timed as set-up).
WORKLOADS = {
    "experiment-seeds": ("w_experiment", ("repro.experiment",)),
    "serve-inproc": ("w_serve", ("repro.experiment", "repro.serving")),
    "serve-sharded": ("w_serve", ("repro.experiment", "repro.serving")),
    "zoo-broker": ("w_zoo", ("repro.scenarios", "repro.bus")),
}


#: Child processes that time the import again; ``setup_s`` counts the
#: median of their times and this process's own.
IMPORT_CHILDREN = 2

_IMPORT_CODE = """
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
for package in sys.argv[2:]:
    importlib.import_module(package)
print(time.perf_counter() - t0)
"""


def _import_in_child(packages) -> float:
    """Seconds a fresh interpreter takes to import *packages*."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CODE, str(ROOT / "src"), *packages],
        capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


class Context:
    """What one run knows and what its workload reports back."""

    def __init__(self, args: argparse.Namespace, import_s: float) -> None:
        self.workload = args.workload
        self.seed = int(args.seed)
        self.seconds = float(args.seconds)
        self.perturb = args.perturb
        self.import_s = import_s
        self.work = None
        self.tracer = None
        if args.trace:
            from tracing import Tracer
            self.tracer = Tracer()
        # Filled in by the workload.
        self.setup_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.window = None
        self.e2e = {}
        self.layers = {}
        self.noise_extra = {}

    def tracer_phase(self, phase) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase

    def install_spans(self, spans, rows=None) -> None:
        """Wrap each listed target (traced run only)."""
        if self.tracer is None:
            return
        rows = rows or {}
        for name, target in spans.items():
            kind, module_name = target[0], target[1]
            module = importlib.import_module(module_name)
            if kind == "method":
                cls = getattr(module, target[2])
                self.tracer.patch_method(cls, target[3], name,
                                         rows.get(name))
            else:
                fn = getattr(module, target[2])
                only = target[3] if len(target) > 3 else None
                self.tracer.patch_function(fn, name, rows.get(name),
                                           only_module=only)


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", metavar="KIND",
                        help="change one output before the checks (kinds: "
                             "PERTURBATIONS of the workload's module); the "
                             "run must then fail them")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    module_name, packages = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    for package in packages:
        importlib.import_module(package)
    import_s = statistics.median(
        [time.perf_counter() - t0]
        + [_import_in_child(packages) for _ in range(IMPORT_CHILDREN)])
    import common
    workload = importlib.import_module(module_name)
    if args.perturb is not None and args.perturb not in workload.PERTURBATIONS:
        print(f"error: --perturb must be one of "
              f"{sorted(workload.PERTURBATIONS)}", file=sys.stderr)
        return 2
    ctx = Context(args, import_s)
    ctx.work = common.work_dir(ROOT)
    try:
        workload.run(ctx)
    except common.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    window = ctx.window
    noise = {"wall_s": window.wall_s, "steal_s": window.steal_s,
             "cpu_s": window.cpu_s, "other_cpu_s": window.other_cpu_s,
             "import_s": import_s, "process_s": time.perf_counter() - _T_START}
    noise.update(ctx.noise_extra)
    if ctx.tracer is None:
        common.emit(True, ctx.attempted, ctx.failed, ctx.e2e, noise=noise)
        return 0
    ctx.tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}")
    # Every per-layer metric of BENCHMARK.json is printed; a layer the
    # workload does not run reports 0.
    units = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    layers = dict.fromkeys(units, 0.0)
    layers.update(ctx.layers)
    layers["host.steal_s"] = window.steal_s
    layers["host.cpu_s"] = window.total_cpu_s
    unknown = set(layers) - set(units)
    if unknown:
        raise RuntimeError(f"unlisted layer metrics: {sorted(unknown)}")
    metrics = {name: common.metric(layers[name], unit)
               for name, unit in units.items()}
    common.emit(True, ctx.attempted, ctx.failed, metrics, noise=noise,
                extra={"traced_e2e": {k: v["value"]
                                      for k, v in ctx.e2e.items()}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
