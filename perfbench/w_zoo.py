"""Workload ``zoo-broker``: the context-event path, then log read-back.

Phase 1 runs every zoo scenario through ``run_scenario_on(...,
transport="broker")`` for each scenario seed of ``ZOO_SEEDS``, in whole
rounds, for most of ``--seconds``; ``--seed`` draws the order of the
(scenario, seed) runs within a round.  The seeds are fixed, as in
``experiment-seeds``, because model cost varies from seed to seed.  Each
run's durable ``EventLog`` lives in a fresh directory inside the
checkout, so appends and group-commit fsyncs hit the checkout's
filesystem.  Phase 2 reads every recorded log back with
``read_log_events`` + ``dedupe_events``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from common import (SETUP_REPEATS, HostSpeed, Rounds, check,
                    end_to_end, median, self_peak_rss_mb)

#: Scenario seeds: the seeds ``repro verify`` sweeps.
ZOO_SEEDS = (7, 11, 13)
#: Share of ``--seconds`` given to the broker phase; read-back of every
#: recorded log fills the rest.
BROKER_SHARE = 0.85

SPANS = {
    "sensors.collect": ("method", "repro.sensors.node", "SensorNode",
                        "collect"),
    "sensors.extract": ("method", "repro.sensors.cues", "CuePipeline",
                        "extract"),
    "core.classify": ("method", "repro.core.interconnection",
                      "QualityAugmentedClassifier", "classify"),
    "bus.publish": ("method", "repro.bus.broker", "BrokerCore", "publish"),
    "bus.append": ("method", "repro.bus.log", "EventLog", "append"),
    "bus.sync": ("method", "repro.bus.log", "EventLog", "sync"),
    "bus.close": ("method", "repro.bus.broker", "BrokerCore", "close"),
    "appliances.camera": ("method", "repro.appliances.camera",
                          "WhiteboardCamera", "on_event"),
    "bus.read": ("function", "repro.bus.replay", "read_log_events"),
    "bus.dedupe": ("function", "repro.bus.replay", "dedupe_events"),
    "scenarios.model_fit": ("function", "repro.scenarios.models",
                            "model_for"),
}


#: ``--perturb`` kinds: the output changed, and the message of the check
#: that must then fail.
PERTURBATIONS = {
    "event": "logged events differ from the published ones",
    "broker": "differs from the in-process EventBus run",
    "camera": "recount gives",
    "double": "doubled events",
}


def round_order(seed: int, specs: list) -> List[tuple]:
    """The (spec, scenario seed) runs of one round, in seeded order."""
    pairs = [(spec, s) for s in ZOO_SEEDS for spec in specs]
    order = np.random.default_rng(seed).permutation(len(pairs))
    return [pairs[i] for i in order]


def _sensing(spec):
    return [app for app in spec.appliances if app.kind in ("pen", "chair")]


def _classifier_spec(spec, app):
    return app.classifier if app.classifier is not None else spec.classifier


def _setup(seeds) -> list:
    """Load and validate the zoo, then train every model it needs."""
    from repro.scenarios import models, registry
    registry.clear()
    models.clear_cache()
    specs = list(registry.iter_specs())
    for spec in specs:
        spec.validate()
    for seed in seeds:
        for spec in specs:
            for app in _sensing(spec):
                models.model_for(app.kind, _classifier_spec(spec, app), seed)
    return specs


def run(ctx) -> None:
    from repro.scenarios import run_scenario_on

    os.environ.pop("REPRO_SCENARIOS", None)   # built-in zoo only
    ctx.install_spans(SPANS, rows=None)
    # Imported after the spans are installed, so the traced run calls
    # the wrapped functions.
    from repro.bus.replay import dedupe_events, read_log_events
    bus_totals = {"delivered": 0, "redelivered": 0, "fsyncs": 0}

    def on_close(_result, core, *a, **k) -> None:
        stats = core.stats()
        bus_totals["delivered"] += stats["n_delivered"]
        bus_totals["redelivered"] += stats["n_redelivered"]
        bus_totals["fsyncs"] += core.log.n_fsyncs

    if ctx.tracer is not None:
        ctx.tracer.hooks["bus.close"] = on_close

    ctx.tracer_phase("setup")
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        specs = _setup(ZOO_SEEDS)
        setups.append(time.perf_counter() - t0)
    ctx.setup_s = ctx.import_s + median(setups)
    ctx.tracer_phase(None)

    pairs = round_order(ctx.seed, specs)
    logs_root = ctx.work / "logs"
    runs: List[tuple] = []        # (spec, seed, log_dir, result)
    wall_s: List[List[float]] = [[] for _ in pairs]
    cpu_s: List[List[float]] = [[] for _ in pairs]
    windows = [0] * len(pairs)
    speed = HostSpeed()
    ctx.tracer_phase("timed")
    rounds = Rounds()
    while True:
        rounds.begin()
        n_windows = 0
        for k, (spec, seed) in enumerate(pairs):
            speed.maybe_sample()
            log_dir = logs_root / f"r{len(rounds.samples)}-{seed}-{spec.name}"
            t0, c0 = time.perf_counter(), time.process_time()
            result = run_scenario_on(spec, seed=seed, transport="broker",
                                     log_dir=log_dir)
            wall_s[k].append(time.perf_counter() - t0)
            cpu_s[k].append(time.process_time() - c0)
            windows[k] = result.n_windows
            n_windows += result.n_windows
            runs.append((spec, seed, log_dir, result))
        rounds.end(n_windows)
        if not rounds.another(ctx.seconds * BROKER_SHARE):
            break
    n_windows = rounds.ops

    target = next(k for k, run in enumerate(runs) if run[3].cameras)
    read_s: List[float] = []
    n_events = 0
    for k, (_spec, _seed, log_dir, result) in enumerate(runs):
        t0 = time.perf_counter()
        raw = read_log_events(log_dir)
        deduped = dedupe_events(raw)
        read_s.append(time.perf_counter() - t0)
        n_events += len(raw)
        if k == target and ctx.perturb in ("event", "double"):
            _perturb_log(result, raw, deduped, ctx.perturb)
        # Checked at once, so the run holds one log's events at a time
        # and its memory does not grow with the number of rounds.
        _check_log(log_dir, result, raw, deduped)
    ctx.tracer_phase(None)

    if ctx.perturb in ("broker", "camera"):
        runs[target] = _perturb_result(runs[target], ctx.perturb)
    _check(runs)

    ctx.attempted = n_windows + len(runs)
    ctx.failed = 0
    ctx.window = rounds.phase
    # A typical round: each scenario run at its median over the rounds,
    # so a burst of host noise in one round moves nothing.
    cpu_per_window = sum(median(c) for c in cpu_s) / sum(windows)
    ctx.e2e, ctx.noise_extra = end_to_end(
        ctx.setup_s, self_peak_rss_mb(), cpu_per_window, cpu_per_window,
        speed,
        wall_throughput_per_s=sum(windows) / sum(median(w) for w in wall_s),
        wall_latency_p50_ms=median([median(w) / n for w, n
                                    in zip(wall_s, windows)]) * 1e3)
    if ctx.tracer is None:
        return
    timed = ctx.tracer.summary("timed")
    setup = ctx.tracer.summary("setup")

    def per_call(name: str, scale: float) -> float:
        calls = timed[name]["calls"]
        return timed[name]["self_s"] / calls * scale if calls else 0.0

    ctx.layers = {
        "sensors.collect_ms": per_call("sensors.collect", 1e3),
        "sensors.extract_calls": timed["sensors.extract"]["calls"] / n_windows,
        "sensors.extract_ms": (timed["sensors.extract"]["self_s"]
                               / n_windows * 1e3),
        "core.classify_us": per_call("core.classify", 1e6),
        "bus.publish_us": per_call("bus.publish", 1e6),
        "bus.append_us": per_call("bus.append", 1e6),
        "bus.fsyncs": bus_totals["fsyncs"] / n_windows,
        "bus.fsync_ms": (timed["bus.sync"]["self_s"] / bus_totals["fsyncs"]
                         * 1e3 if bus_totals["fsyncs"] else 0.0),
        "appliances.camera_us": per_call("appliances.camera", 1e6),
        "bus.delivered": bus_totals["delivered"] / n_windows,
        "bus.redelivered": bus_totals["redelivered"] / n_windows,
        "bus.read_ms": per_call("bus.read", 1e3),
        "bus.read_p50_ms": median(read_s) * 1e3,
        "bus.dedupe_ms": per_call("bus.dedupe", 1e3),
        "bus.replay_events_per_s": n_events / sum(read_s),
        "wall.throughput_per_s": ctx.noise_extra["wall_throughput_per_s"],
        "scenarios.model_fit_ms": (setup["scenarios.model_fit"]["incl_s"]
                                   / SETUP_REPEATS * 1e3),
    }


def _perturb_log(result, raw: list, deduped: list, kind: str) -> None:
    """Change one read-back event (or double one) so the log check fails."""
    if kind == "event":
        sensing = {rec.name for rec in result.events}
        i = next(i for i, e in enumerate(deduped) if e.source in sensing)
        event = deduped[i]
        deduped[i] = dataclasses.replace(
            event, quality=0.5 if event.quality is None
            else event.quality + 1e-6)
    else:
        raw.append(raw[0])


def _perturb_result(run: tuple, kind: str) -> tuple:
    """Change one broker-run output so the camera or broker check fails."""
    spec, seed, log_dir, result = run
    if kind == "broker":
        result = dataclasses.replace(result, n_correct=result.n_correct + 1)
    else:
        cam = result.cameras[0]
        result = dataclasses.replace(result, cameras=(dataclasses.replace(
            cam, accepted_events=cam.accepted_events + 1),)
            + result.cameras[1:])
    return spec, seed, log_dir, result


def _nan_quality(event) -> float:
    return np.nan if event.quality is None else float(event.quality)


def _check(runs: List[tuple]) -> None:
    """Camera ≡ recount, then broker ≡ EventBus (logs are checked earlier).

    The order puts the narrower check first, so a perturbed output is
    reported by the check written for it.
    """
    from repro.scenarios import capture_scenario_trace, run_scenario_on

    for spec, seed, log_dir, result in runs:
        _check_cameras(spec, seed, log_dir, result)
    reference: Dict[tuple, dict] = {}
    for spec, seed, _log_dir, result in runs:
        key = (spec.name, seed)
        if key not in reference:
            direct = run_scenario_on(spec, seed=seed, transport="eventbus")
            reference[key] = capture_scenario_trace(direct).to_dict()
        check(capture_scenario_trace(result).to_dict() == reference[key],
              f"{spec.name} seed {seed}: broker run differs from the "
              f"in-process EventBus run")


def _check_cameras(spec, seed: int, log_dir: Path, result) -> None:
    """Each camera's accepted/rejected counts against a recount of q > s."""
    from repro.scenarios import models

    events = {rec.name: rec for rec in result.events}
    cameras = {cam.name: cam for cam in result.cameras}
    for app in spec.appliances:
        if app.kind != "camera":
            continue
        source = spec.appliance(app.inputs[0])
        q = events[source.name].qualities
        if app.gated:
            threshold = app.threshold
            if threshold is None:
                threshold = models.model_for(
                    source.kind, _classifier_spec(spec, source),
                    seed).threshold
            threshold = float(np.clip(threshold, 0.0, 1.0))
            accepted = int(np.sum(np.nan_to_num(q, nan=-1.0) > threshold))
        else:
            accepted = int(q.size)
        cam = cameras[app.name]
        check((cam.accepted_events, cam.rejected_events)
              == (accepted, int(q.size) - accepted),
              f"{log_dir.name}/{app.name}: camera counted "
              f"{cam.accepted_events}/{cam.rejected_events}, recount "
              f"gives {accepted}/{int(q.size) - accepted}")


def _check_log(log_dir: Path, result, raw: list, deduped: list) -> None:
    """The log, read back and deduped, holds each published event once."""
    check(len(deduped) == len(raw),
          f"{log_dir.name}: {len(raw) - len(deduped)} doubled events")
    per_source: Dict[str, list] = {}
    for event in deduped:
        per_source.setdefault(event.source, []).append(event)
    expected_sources = {rec.name for rec in result.events}
    for rec in result.events:
        stream = sorted(per_source.get(rec.name, []), key=lambda e: e.seq)
        check(len(stream) == rec.times.size,
              f"{log_dir.name}/{rec.name}: log holds {len(stream)} "
              f"events, {rec.times.size} were published")
        got = np.array([[e.time_s, e.context.index, _nan_quality(e)]
                        for e in stream], dtype=float).reshape(-1, 3)
        want = np.column_stack([rec.times, rec.predicted_indices,
                                rec.qualities]).astype(float)
        check(np.array_equal(got, want, equal_nan=True),
              f"{log_dir.name}/{rec.name}: logged events differ from the "
              f"published ones")
    for sit in result.situations:
        expected_sources.add(sit.name)
        n_logged = len(per_source.get(sit.name, []))
        check(n_logged == sit.n_published,
              f"{log_dir.name}/{sit.name}: log holds {n_logged} situation "
              f"events, {sit.n_published} were published")
    check(set(per_source) <= expected_sources,
          f"{log_dir.name}: unexpected sources "
          f"{sorted(set(per_source) - expected_sources)}")
