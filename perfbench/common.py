"""Shared pieces of the benchmark: clocks, noise record, result line."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: Seconds between two host-speed samples.
SAMPLE_EVERY_S = 0.1

#: Median CPU time of one host-speed kernel call on the reference host, in
#: ms (a 2-vCPU x86_64 VM, Python 3.11, numpy 2.4).  CPU-based end-to-end
#: metrics are scaled to a host that runs the kernel this fast.
KERNEL_REF_MS = 1.5

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class CheckFailed(Exception):
    """An output disagreed with its independent recomputation."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless *condition* holds."""
    if not condition:
        raise CheckFailed(message)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=float), pct))


# -- host and process clocks --------------------------------------------
def host_steal_s() -> float:
    """Cumulative steal time of the whole host, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / _CLK_TCK


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Window:
    """Wall, own CPU, other processes' CPU and host steal, summed over
    the spans between each :meth:`start` and :meth:`stop`."""

    def __init__(self, pids: Sequence[int] = ()) -> None:
        self.pids = list(pids)
        self.wall_s = self.cpu_s = self.other_cpu_s = self.steal_s = 0.0
        self._at = self._read()

    def _read(self) -> tuple:
        return (time.perf_counter(), time.process_time(),
                sum(proc_cpu_s(pid) for pid in self.pids), host_steal_s())

    def start(self) -> "Window":
        self._at = self._read()
        return self

    def stop(self) -> "Window":
        wall, cpu, other, steal = (b - a for a, b in zip(self._at,
                                                         self._read()))
        self.wall_s += wall
        self.cpu_s += cpu
        self.other_cpu_s += other
        self.steal_s += steal
        return self

    @property
    def total_cpu_s(self) -> float:
        return self.cpu_s + self.other_cpu_s


_KERNEL_X = np.random.default_rng(0).normal(size=(32, 5))


def _kernel() -> float:
    """Fixed CPU work shaped like the workloads: small numpy + bytecode."""
    total = 0.0
    for i in range(100):
        w = np.exp(-((_KERNEL_X - _KERNEL_X[i % 32]) ** 2).sum(axis=1))
        total += float(w.sum()) + sum(j * j for j in range(40))
    return total


class HostSpeed:
    """Index of the host's speed, from a fixed kernel timed through a run.

    The speed of a small shared host drifts by a third and more over
    minutes (neighbours on the same cores, not steal), and the CPU time
    of every workload drifts with it.  The kernel's CPU time is taken
    between operations all through the timed part; its median over the
    run, against :data:`KERNEL_REF_MS`, scales the CPU-based end-to-end
    metrics to the reference host.  The kernel is part of the benchmark,
    not of ``repro``, so no program change moves it.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        c0 = time.process_time()
        _kernel()
        self.times.append(time.process_time() - c0)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample when :data:`SAMPLE_EVERY_S` has passed since the last."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    @property
    def slowdown(self) -> float:
        """How much slower this run's host was than the reference host."""
        return median(self.times) * 1e3 / KERNEL_REF_MS


class Rounds:
    """Whole rounds of one phase: per-round wall times and phase totals.

    Host steal on a small shared machine comes in bursts that can halve
    one round's rate, so wall-clock rates are medians over rounds.  Only
    the rounds are timed: what runs between them (a host-speed sample)
    stays out of ``phase``.
    """

    def __init__(self, pids: Sequence[int] = ()) -> None:
        self.phase = Window(pids)
        self.samples: List[tuple] = []       # (ops, wall_s)
        self._start = time.perf_counter()
        self._t0 = 0.0

    def begin(self) -> None:
        self.phase.start()
        self._t0 = time.perf_counter()

    def end(self, ops: int) -> None:
        self.samples.append((ops, time.perf_counter() - self._t0))
        self.phase.stop()

    def another(self, budget_s: float) -> bool:
        return another_round(self._start, len(self.samples), budget_s)

    @property
    def ops(self) -> int:
        return sum(ops for ops, _ in self.samples)

    def rate(self) -> float:
        """Median over rounds of operations per wall second."""
        return median([ops / wall for ops, wall in self.samples])


def another_round(start: float, rounds: int, budget_s: float) -> bool:
    """Whether one more whole round should still end within *budget_s*.

    Runs are made of whole rounds so that every run attempts the same
    mix of operations; the last round is the one the mean round time
    says would end past the budget.
    """
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= budget_s


# -- result line ---------------------------------------------------------
def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def end_to_end(setup_s: float, peak_rss_mb: float, cpu_s_per_op: float,
               busiest_cpu_s_per_op: float, speed: HostSpeed,
               **raw: float) -> tuple:
    """The end-to-end metrics, and the unscaled values for the noise line.

    ``cpu_us_per_op`` counts every process on the path; ``capacity_per_s``
    is what the busiest process could carry with a CPU of its own.  Both
    are CPU-time figures scaled by the run's host slowdown; set-up time
    and memory are reported as measured.  *raw* (wall-clock rates and
    latencies) goes to the noise line only.
    """
    k = speed.slowdown
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "capacity_per_s": metric(k / busiest_cpu_s_per_op, "1/s"),
        "cpu_us_per_op": metric(cpu_s_per_op / k * 1e6, "us"),
    }
    noise = {"host_slowdown": k, "kernel_samples": len(speed.times),
             "raw_cpu_us_per_op": cpu_s_per_op * 1e6,
             "raw_capacity_per_s": 1.0 / busiest_cpu_s_per_op}
    noise.update(raw)
    return metrics, noise


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Dict[str, object]], noise: Dict[str, float],
         extra: Optional[Dict[str, object]] = None) -> None:
    """Print the noise record, any extra line, then the result line last."""
    print("noise " + json.dumps(noise, sort_keys=True))
    if extra is not None:
        print("extra " + json.dumps(extra, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    sys.stdout.flush()


def work_dir(root: Path) -> Path:
    """Per-process scratch directory inside the checkout."""
    path = root / ".perfbench_work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path
