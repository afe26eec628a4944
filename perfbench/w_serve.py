"""Workloads ``serve-inproc`` and ``serve-sharded``: the served-request path.

Both drive the same seeded AwarePen request stream from one asyncio
loop, with no worker threads, in two phases, each a fixed number of
whole rounds per second of ``--seconds``, so every run of a given length
carries the same requests:

* open loop: a seeded Poisson stream at ``RATE_HZ``; each latency is
  timed from the request's *due* send time, so a stalled generator or
  service shows; rounds of ``N_OPEN`` requests;
* closed loop: ``WINDOW`` callers each wait for their reply before
  sending the next request (``wait=True``, never shed); rounds of
  ``N_CLOSED`` requests.

The open loop comes first.  A shard keeps one finished task per request
its connection ever carried, so its memory and its garbage-collector
pauses grow through a run; after the closed loop such a pause overflows
the shard's admission queue and sheds open-loop requests in some runs
and not in others (see the README).

Every second request carries an external ``class_index`` (the
classifier is skipped for it); the others make the service classify.
``serve-sharded`` sends the same stream through a one-shard
``ShardedService`` routed on ``N_STREAMS`` stream keys.

While the loops run, each answer is only written down (``Ledger``); it
is checked after the timed part.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from typing import Dict, List, Optional

import numpy as np

from common import (SETUP_REPEATS, HostSpeed, Rounds, check, end_to_end,
                    median, percentile, proc_peak_rss_mb, self_peak_rss_mb)

WINDOW = 64
N_CLOSED = 2048
N_OPEN = 1000
#: About a fifth of the one-shard closed-loop capacity (7-8k/s).
RATE_HZ = 1500.0
#: Rounds per second of ``--seconds``: in a 25 s run the open loop
#: takes 10 s and the closed loop about 9 s on the reference host.
OPEN_ROUNDS_PER_S = 0.6
CLOSED_ROUNDS_PER_S = {"serve-inproc": 5.0, "serve-sharded": 1.4}
N_STREAMS = 64
#: Served rows per round whose answer is recomputed with the reference.
N_SAMPLE = 48

SPANS = {
    "classifiers.predict": ("method", "repro.classifiers.fuzzy_classifier",
                            "TSKClassifier", "predict_indices"),
    "core.measure_batch": ("method", "repro.core.quality", "QualityMeasure",
                           "measure_batch"),
    "fuzzy.tsk": ("method", "repro.fuzzy.tsk", "TSKSystem",
                  "evaluate_components"),
    "core.decide": ("method", "repro.core.degradation", "GracefulDegrader",
                    "decide"),
    "serving.registry_current": ("method", "repro.serving.registry",
                                 "ModelRegistry", "current"),
}

SHARDED_SPANS = {
    "sharding.route": ("method", "repro.serving.sharding", "HashRing",
                       "shard_for"),
    "protocol.encode": ("method", "repro.serving.protocol", "ServeRequest",
                        "to_json"),
    "protocol.decode": ("method", "repro.serving.protocol", "ServeResponse",
                        "from_json"),
    "shm.publish": ("function", "repro.serving.shm", "publish_artifact"),
}

ROWS = {
    "classifiers.predict": lambda self, x: len(x),
    "core.measure_batch": lambda self, cues, idx: len(cues),
    "fuzzy.tsk": lambda self, x, *a, **k: len(x),
}


#: ``--perturb`` kinds: the answer changed (a sampled one of the first
#: open-loop round), and the message of the check that must then fail.
PERTURBATIONS = {
    "q": "reference q=",
    "range": "outside [0, 1]",
    "gate": "but q=",
    "shed": "were shed",
    "twice": "answered twice",
    "missing": "never answered",
}


class Stream:
    """The seeded requests of one run (rows of the AwarePen cue pool)."""

    def __init__(self, seed: int, cues: np.ndarray, labels: np.ndarray,
                 n: int) -> None:
        rng = np.random.default_rng(seed)
        self.rows = rng.integers(0, cues.shape[0], size=n)
        self.cues = cues[self.rows]
        self.class_index: List[Optional[int]] = [
            int(labels[row]) if k % 2 == 0 else None
            for k, row in enumerate(self.rows)]
        self.keys = [f"stream-{int(s)}"
                     for s in rng.integers(0, N_STREAMS, size=n)]
        self.arrivals = np.cumsum(rng.exponential(1.0 / RATE_HZ, size=n))
        self.sample = np.sort(rng.choice(n, size=min(N_SAMPLE, n),
                                         replace=False))


class Ledger:
    """What every answer said, written into arrays indexed by request id.

    Recording is a handful of array stores, so it barely adds to the
    timed work; :func:`_check` reads the arrays after the timed part.
    """

    def __init__(self, n: int) -> None:
        from repro.core.degradation import GateAction
        self._accept = GateAction.ACCEPT
        self.count = np.zeros(n, dtype=np.int8)
        self.quality = np.full(n, np.nan)
        self.class_index = np.full(n, -1, dtype=np.int16)
        self.accepted = np.zeros(n, dtype=bool)
        self.shed = np.zeros(n, dtype=bool)
        self.wrong_id: List[tuple] = []
        self.rounds: List[tuple] = []       # (phase, first request id)
        self._next = 0

    def expect(self, phase: str, n: int) -> int:
        """The first request id of a new round of *n* requests."""
        first = self._next
        self.rounds.append((phase, first))
        self._next += n
        return first

    def record(self, request_id: int, response) -> None:
        if response.request_id != request_id:
            self.wrong_id.append((request_id, response.request_id))
            return
        self.count[request_id] += 1
        q = response.quality
        self.quality[request_id] = np.nan if q is None else q
        cls = response.class_index
        self.class_index[request_id] = -1 if cls is None else cls
        self.accepted[request_id] = response.action is self._accept
        self.shed[request_id] = response.shed


def _perturb(ledger: Ledger, opened: Stream, kind: str) -> None:
    """Change one recorded answer so that one check must fail."""
    first = next(f for phase, f in ledger.rounds if phase == "open")
    rid = next(first + int(k) for k in opened.sample
               if not np.isnan(ledger.quality[first + int(k)]))
    if kind == "q":
        ledger.quality[rid] += 1e-6
    elif kind == "range":
        ledger.quality[rid] = 1.5
    elif kind == "gate":
        ledger.accepted[rid] = not ledger.accepted[rid]
    elif kind == "shed":
        ledger.shed[rid] = True
    elif kind == "twice":
        ledger.count[rid] += 1
    elif kind == "missing":
        ledger.count[rid] = 0


def n_rounds(per_s: float, seconds: float) -> int:
    """Rounds of a phase in a run of *seconds*: fixed, at least one."""
    return max(1, round(per_s * seconds))


def _fit_model():
    from repro.core.persistence import QualityPackage
    from repro.experiment import run_awarepen_experiment
    result = run_awarepen_experiment(seed=7)
    package = QualityPackage.from_calibration(result.augmented.quality,
                                              result.calibration)
    return result, package


def run(ctx) -> None:
    sharded = ctx.workload == "serve-sharded"
    asyncio.run(_run(ctx, sharded))
    if sharded:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts for shm segments.

    It would otherwise outlive the benchmark until interpreter exit.
    """
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


async def _start_service(sharded: bool, package, classifier):
    from repro.serving import (InferenceService, ModelRegistry,
                               ShardArtifact, ShardedService,
                               ShardingConfig)
    if sharded:
        service = ShardedService(ShardArtifact(package=package,
                                               classifier=classifier),
                                 ShardingConfig(n_shards=1))
        await service.start()
        return service
    registry = ModelRegistry()
    registry.publish_and_activate(package, classifier=classifier)
    return InferenceService(registry).start()


async def _run(ctx, sharded: bool) -> None:
    spans = dict(SPANS, **SHARDED_SPANS) if sharded else SPANS
    ctx.install_spans(spans, rows=ROWS)
    shard_latency: Dict[int, float] = {}
    if ctx.tracer is not None and sharded:
        # The router rewrites latency_s; keep the shard-reported value.
        ctx.tracer.hooks["protocol.decode"] = (
            lambda resp, *a, **k: shard_latency.__setitem__(
                resp.request_id, resp.latency_s))

    ctx.tracer_phase("setup")
    setups, starts = [], []
    service = None
    for attempt in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result, package = _fit_model()
        t1 = time.perf_counter()
        service = await _start_service(sharded, package, result.classifier)
        t2 = time.perf_counter()
        setups.append(t2 - t0)
        starts.append(t2 - t1)
        if attempt < SETUP_REPEATS - 1:
            ctx.tracer_phase(None)
            await service.drain()
            ctx.tracer_phase("setup")
    ctx.setup_s = ctx.import_s + median(setups)
    ctx.tracer_phase(None)

    pids = [p.pid for p in multiprocessing.active_children()] if sharded \
        else []
    cues = result.material.analysis.cues
    labels = result.material.analysis.labels
    closed = Stream(ctx.seed, cues, labels, N_CLOSED)
    opened = Stream(ctx.seed + 1, cues, labels, N_OPEN)
    open_rounds = n_rounds(OPEN_ROUNDS_PER_S, ctx.seconds)
    closed_rounds = n_rounds(CLOSED_ROUNDS_PER_S[ctx.workload], ctx.seconds)
    ledger = Ledger(open_rounds * N_OPEN + closed_rounds * N_CLOSED)
    speed = HostSpeed()

    # -- open loop -----------------------------------------------------
    latencies: List[float] = []
    lateness: List[float] = []
    service_side: List[float] = []
    hops: List[float] = []

    async def one(k: int, rid: int, due: float) -> None:
        response = await service.submit(
            opened.cues[k], class_index=opened.class_index[k],
            request_id=rid, wait=False, key=opened.keys[k])
        latencies.append(time.perf_counter() - due)
        ledger.record(rid, response)
        if sharded:
            if rid in shard_latency:
                service_side.append(shard_latency[rid])
                hops.append(response.latency_s - shard_latency[rid])
        else:
            service_side.append(response.latency_s)

    opens = Rounds(pids)
    round_p50: List[float] = []
    for _ in range(open_rounds):
        speed.sample()
        first = ledger.expect("open", N_OPEN)
        ctx.tracer_phase("timed")
        opens.begin()
        begun = time.perf_counter()
        tasks = []
        for k in range(N_OPEN):
            due = begun + float(opened.arrivals[k])
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(time.perf_counter() - due)
            tasks.append(asyncio.get_running_loop().create_task(
                one(k, first + k, due)))
        await asyncio.gather(*tasks)
        opens.end(N_OPEN)
        ctx.tracer_phase(None)
        round_p50.append(percentile(latencies[-N_OPEN:], 50))

    # -- closed loop ---------------------------------------------------
    async def closed_round(first_id: int) -> None:
        cursor = iter(range(N_CLOSED))

        async def caller() -> None:
            for k in cursor:
                rid = first_id + k
                ledger.record(rid, await service.submit(
                    closed.cues[k], class_index=closed.class_index[k],
                    request_id=rid, wait=True, key=closed.keys[k]))

        await asyncio.gather(*[caller() for _ in range(WINDOW)])

    before = await _batch_counts(service, sharded)
    closes = Rounds(pids)
    for _ in range(closed_rounds):
        speed.sample()
        first = ledger.expect("closed", N_CLOSED)
        ctx.tracer_phase("timed")
        closes.begin()
        await closed_round(first)
        closes.end(N_CLOSED)
        ctx.tracer_phase(None)
    after = await _batch_counts(service, sharded)

    # Read at the end: a shard's memory grows with every request its
    # connection carried (see the README), and that growth belongs in
    # the figure.
    peak_rss = self_peak_rss_mb() + sum(proc_peak_rss_mb(p) for p in pids)
    stats = await service.stats() if sharded else None
    await service.drain()

    if ctx.perturb is not None:
        _perturb(ledger, opened, ctx.perturb)
    _check(ledger, result, float(package.threshold), closed, opened)

    n_ops = closes.ops + opens.ops
    ctx.attempted = n_ops
    ctx.failed = 0
    ctx.window = closes.phase
    busiest = max(closes.phase.cpu_s, closes.phase.other_cpu_s)
    ctx.e2e, ctx.noise_extra = end_to_end(
        ctx.setup_s, peak_rss, closes.phase.total_cpu_s / closes.ops,
        busiest / closes.ops, speed,
        wall_throughput_per_s=closes.rate(),
        wall_latency_p50_ms=median(round_p50) * 1e3)
    ctx.noise_extra.update(
        loadgen_late_p50_ms=percentile(lateness, 50) * 1e3,
        loadgen_late_p99_ms=percentile(lateness, 99) * 1e3,
        open_steal_s=opens.phase.steal_s,
        open_cpu_s=opens.phase.total_cpu_s)
    if ctx.tracer is None:
        return
    timed = ctx.tracer.summary("timed")
    setup = ctx.tracer.summary("setup")
    batches = after[0] - before[0]
    rows = after[1] - before[1]

    def per_call_us(name: str) -> float:
        calls = timed[name]["calls"]
        return timed[name]["self_s"] / calls * 1e6 if calls else 0.0

    def per_row_us(name: str) -> float:
        rows_ = timed[name]["rows"]
        return timed[name]["self_s"] / rows_ * 1e6 if rows_ else 0.0

    publish_ms = (setup["shm.publish"]["incl_s"] / SETUP_REPEATS * 1e3
                  if sharded else 0.0)
    layers = {
        "wall.throughput_per_s": ctx.noise_extra["wall_throughput_per_s"],
        "serving.latency_p50_ms": ctx.noise_extra["wall_latency_p50_ms"],
        "serving.batches": batches,
        "serving.batch_rows_mean": rows / batches if batches else 0.0,
        "serving.admit_to_reply_p50_ms": (
            percentile(service_side, 50) * 1e3 if service_side else 0.0),
        "serving.loadgen_late_p50_ms": ctx.noise_extra["loadgen_late_p50_ms"],
        "serving.loadgen_late_p99_ms": ctx.noise_extra["loadgen_late_p99_ms"],
        "serving.latency_p99_ms": percentile(latencies, 99) * 1e3,
        "classifiers.predict_calls": (timed["classifiers.predict"]["calls"]
                                      / n_ops),
        "classifiers.predict_us_per_row": per_row_us("classifiers.predict"),
        "core.measure_batch_calls": (timed["core.measure_batch"]["calls"]
                                     / n_ops),
        "core.measure_batch_us_per_row": per_row_us("core.measure_batch"),
        "fuzzy.tsk_us_per_row": per_row_us("fuzzy.tsk"),
        "core.decide_calls": timed["core.decide"]["calls"] / n_ops,
        "core.decide_us": per_call_us("core.decide"),
        "serving.registry_lookups_per_request": (
            timed["serving.registry_current"]["calls"] / n_ops),
    }
    if not sharded:
        layers["fuzzy.tsk_evals_per_batch"] = (
            timed["fuzzy.tsk"]["calls"] / batches if batches else 0.0)
    else:
        shard = next(iter(stats["shards"].values()))
        layers.update({
            "sharding.route_us": per_call_us("sharding.route"),
            "protocol.encode_us": per_call_us("protocol.encode"),
            "protocol.decode_us": per_call_us("protocol.decode"),
            "sharding.hop_p50_ms": (percentile(hops, 50) * 1e3
                                    if hops else 0.0),
            "sharding.shard_batch_rows_mean": (
                shard["n_completed"] / shard["n_batches"]
                if shard["n_batches"] else 0.0),
            "sharding.router_cpu_share": (
                closes.phase.cpu_s / closes.phase.total_cpu_s
                if closes.phase.total_cpu_s else 0.0),
            "shm.publish_ms": publish_ms,
            "sharding.spawn_ms": median(starts) * 1e3 - publish_ms,
        })
    ctx.layers = layers


async def _batch_counts(service, sharded: bool) -> tuple:
    """(batches, completed rows) so far, from the service's own counters."""
    if sharded:
        stats = await service.stats()
        shards = stats["shards"].values()
        return (sum(s["n_batches"] for s in shards),
                sum(s["n_completed"] for s in shards))
    return service.n_batches, service.n_completed


def _check(ledger: Ledger, result, threshold: float, closed: Stream,
           opened: Stream) -> None:
    """Fail the run on any disagreement with an independent recount.

    The narrower checks come first, so a perturbed answer is reported by
    the check written for it.
    """
    from repro.verify import reference
    from repro.verify.differential import STAGES

    check(not ledger.wrong_id,
          f"answers carried the wrong request id (request, answer): "
          f"{ledger.wrong_id[:5]}")
    missing = np.flatnonzero(ledger.count == 0)
    check(missing.size == 0, f"{missing.size} requests were never answered "
                             f"(first {missing[:5].tolist()})")
    twice = np.flatnonzero(ledger.count > 1)
    check(twice.size == 0,
          f"requests {twice[:5].tolist()} answered twice")
    shed = np.flatnonzero(ledger.shed)
    check(shed.size == 0, f"{shed.size} requests were shed (first "
                          f"{shed[:5].tolist()})")
    q = ledger.quality
    eps = np.isnan(q)
    outside = np.flatnonzero(~eps & ((q < 0.0) | (q > 1.0)))
    check(outside.size == 0,
          f"requests {outside[:5].tolist()}: q={q[outside[:5]].tolist()} "
          f"outside [0, 1]")
    gate = np.flatnonzero(ledger.accepted != (~eps & (np.nan_to_num(
        q, nan=-1.0) > threshold)))
    check(gate.size == 0,
          f"requests {gate[:5].tolist()}: "
          f"accept={ledger.accepted[gate[:5]].tolist()} "
          f"but q={q[gate[:5]].tolist()} and s={threshold}")

    # Sampled rows: the first round of each phase against the direct
    # classifier and the reference kernels, every later round against
    # the first.
    atol, rtol = {s.name: (s.atol, s.rtol) for s in STAGES}["tsk"]
    system = result.augmented.quality.system
    classifier = result.classifier
    streams = {"closed": closed, "open": opened}
    firsts: Dict[str, int] = {}
    for phase, first in ledger.rounds:
        stream = streams[phase]
        rids = first + stream.sample
        if phase in firsts:
            ref = firsts[phase] + stream.sample
            same = ((ledger.class_index[rids] == ledger.class_index[ref])
                    & ((q[rids] == q[ref]) | (eps[rids] & eps[ref])))
            check(bool(same.all()),
                  f"{phase} requests {rids[~same][:5].tolist()}: answers "
                  f"differ across rounds")
            continue
        firsts[phase] = first
        for k, rid in zip(stream.sample.tolist(), rids.tolist()):
            given = stream.class_index[k]
            cues = stream.cues[k]
            expected_cls = (given if given is not None else
                            int(classifier.predict_indices(cues[None, :])[0]))
            cls = int(ledger.class_index[rid])
            check(cls == expected_cls,
                  f"{phase} request #{k}: class {cls}, direct classifier "
                  f"gives {expected_cls}")
            v_q = np.append(cues, float(expected_cls))[None, :]
            raw = reference.tsk_evaluate(system.means, system.sigmas,
                                         system.coefficients, system.order,
                                         v_q)
            ref_q = float(reference.normalize(raw)[0])
            if np.isnan(ref_q) or eps[rid]:
                check(eps[rid] and np.isnan(ref_q),
                      f"{phase} request #{k}: q={q[rid]}, reference "
                      f"q={ref_q}")
            else:
                check(abs(q[rid] - ref_q) <= atol + rtol * abs(ref_q),
                      f"{phase} request #{k}: q={float(q[rid])!r}, "
                      f"reference q={ref_q!r}")
