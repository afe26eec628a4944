"""Workload ``experiment-seeds``: the paper's offline path, seed by seed.

Each operation is one ``run_awarepen_experiment`` call.  A round runs
the fixed seed list ``SEEDS`` once, in an order drawn from ``--seed``.
The run repeats whole rounds until ``--seconds`` have passed, after one
untimed warm-up seed per set-up.

The list is fixed, not drawn, because the cost of one seed varies by
about 12% from seed to seed; a drawn list would move the figures with
``--seed``.  Seeds 1-24 include the paper-anchored seed 7.  Seed 2853 is
in the list because its evaluation q misses the reference TSK kernel by
more than the tolerance ``repro.verify`` declares for the ``tsk`` stage
(its quality FIS has consequent coefficients near 2e10; the largest
difference is 3.5e-6).  That one check is counted as a failed operation,
once per round, as long as the difference stays within
``KNOWN_Q_LIMIT``; above it, or on any other disagreement, the run fails.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from common import (SETUP_REPEATS, HostSpeed, Rounds, check, end_to_end,
                    median, self_peak_rss_mb)

#: The seeds of one round.
SEEDS = tuple(range(1, 25)) + (2853,)

#: Seeds whose evaluation q is known to miss the reference tolerance.
KNOWN_Q_MISMATCH = frozenset({2853})
#: Largest |q - reference q| a known-mismatch seed may show and still
#: count as one failed operation (3.5e-6 measured on seed 2853).
KNOWN_Q_LIMIT = 1e-5

#: Layer spans installed in the traced run: span name -> target.
SPANS = {
    "datasets.material": ("function", "repro.datasets.generator",
                          "make_awarepen_material"),
    "sensors.extract": ("method", "repro.sensors.cues", "CuePipeline",
                        "extract"),
    "classifiers.fit": ("method", "repro.classifiers.fuzzy_classifier",
                        "TSKClassifier", "fit"),
    "clustering.subclust": ("method", "repro.clustering.subtractive",
                            "SubtractiveClustering", "fit"),
    "anfis.train": ("method", "repro.anfis.training", "HybridTrainer",
                    "train"),
    "core.construction": ("function", "repro.core.construction",
                          "build_quality_measure"),
    "core.calibrate": ("function", "repro.core.calibration", "calibrate"),
    "core.filtering": ("function", "repro.core.filtering",
                       "evaluate_filtering"),
    "backend.lookup": ("function", "repro.backend", "get_backend",
                       "repro.fuzzy.tsk"),
}


#: ``--perturb`` kinds: the output changed, and the message of the check
#: that must then fail.
PERTURBATIONS = {
    "q": "evaluation q differs from reference",
    "q2853": "above the known-mismatch limit",
    "s": "but reference gives",
    "gate": "differs from the recount",
}


def round_seeds(seed: int) -> List[int]:
    order = np.random.default_rng(seed).permutation(len(SEEDS))
    return [SEEDS[i] for i in order]


def _record(result) -> Dict[str, object]:
    """What the checks need from one experiment result."""
    material = result.material
    return {
        "qualities": np.asarray(result.evaluation_qualities, dtype=float),
        "correct": np.asarray(result.evaluation_correct, dtype=bool),
        "cues": material.evaluation.cues,
        "labels": material.evaluation.labels,
        "system": result.augmented.quality.system,
        "right": result.calibration.estimates.right,
        "wrong": result.calibration.estimates.wrong,
        "s": float(result.threshold),
        "outcome": result.evaluation_outcome,
        "predicted": result.classifier.predict_indices(
            material.evaluation.cues),
    }


def run(ctx) -> None:
    from repro.experiment import run_awarepen_experiment
    from repro.verify import reference
    from repro.verify.differential import STAGES

    ctx.install_spans(SPANS, rows=None)
    epochs = [0]
    if ctx.tracer is not None:
        def count_epochs(report, *args, **kwargs) -> None:
            if ctx.tracer.phase == "timed":
                epochs[0] += report.n_epochs
        ctx.tracer.hooks["anfis.train"] = count_epochs
    ctx.tracer_phase("setup")
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        run_awarepen_experiment(seed=7)
        setups.append(time.perf_counter() - t0)
    ctx.setup_s = ctx.import_s + median(setups)

    seeds = round_seeds(ctx.seed)
    records: Dict[int, Dict[str, object]] = {}
    repeats: List[tuple] = []
    wall_s: Dict[int, List[float]] = {seed: [] for seed in seeds}
    cpu_s: Dict[int, List[float]] = {seed: [] for seed in seeds}
    speed = HostSpeed()
    ctx.tracer_phase("timed")
    rounds = Rounds()
    while True:
        rounds.begin()
        for seed in seeds:
            speed.maybe_sample()
            t0, c0 = time.perf_counter(), time.process_time()
            result = run_awarepen_experiment(seed=seed)
            wall_s[seed].append(time.perf_counter() - t0)
            cpu_s[seed].append(time.process_time() - c0)
            key = (seed, result.evaluation_qualities.tobytes(),
                   float(result.threshold))
            if seed in records:
                repeats.append(key)
            else:
                ctx.tracer_phase(None)
                records[seed] = _record(result)
                records[seed]["key"] = key
                ctx.tracer_phase("timed")
        rounds.end(len(seeds))
        if not rounds.another(ctx.seconds):
            break
    ctx.tracer_phase(None)
    n_rounds = len(rounds.samples)
    n_ops = rounds.ops

    if ctx.perturb == "q2853":
        _perturb(records[2853], "q", 1e-4)
    elif ctx.perturb:
        _perturb(records[7], ctx.perturb, 1e-6)

    tolerances = {spec.name: (spec.atol, spec.rtol) for spec in STAGES}
    atol, rtol = tolerances["tsk"]
    s_atol, s_rtol = tolerances["threshold"]
    failing_seeds = 0
    known_dev = {}
    for seed, rec in records.items():
        system = rec["system"]
        v_q = np.hstack([rec["cues"], rec["predicted"][:, None]
                         .astype(float)])
        raw = reference.tsk_evaluate(system.means, system.sigmas,
                                     system.coefficients, system.order, v_q)
        ref_q = reference.normalize(raw)
        q = rec["qualities"]
        check(np.array_equal(np.isnan(q), np.isnan(ref_q)),
              f"seed {seed}: epsilon pattern differs from the reference")
        ok = ~np.isnan(q)
        q_matches = np.allclose(q[ok], ref_q[ok], atol=atol, rtol=rtol)
        deviation = float(np.max(np.abs(q[ok] - ref_q[ok]), initial=0.0))
        if seed in KNOWN_Q_MISMATCH:
            known_dev[f"q_dev_seed_{seed}"] = deviation
        if seed in KNOWN_Q_MISMATCH and not q_matches:
            check(deviation <= KNOWN_Q_LIMIT,
                  f"seed {seed}: evaluation q differs from reference by "
                  f"{deviation:.3g}, above the known-mismatch limit "
                  f"{KNOWN_Q_LIMIT:g}")
            failing_seeds += 1
        else:
            check(q_matches,
                  f"seed {seed}: evaluation q differs from reference TSK + "
                  f"L (max |d| {deviation:.3g})")
        ref_s = reference.intersection_between_means(rec["right"],
                                                     rec["wrong"])
        check(abs(rec["s"] - ref_s) <= s_atol + s_rtol * abs(ref_s),
              f"seed {seed}: s={rec['s']!r} but reference gives {ref_s!r}")
        correct = rec["predicted"] == rec["labels"]
        check(np.array_equal(correct, rec["correct"]),
              f"seed {seed}: correctness flags differ from a recount")
        kept = ok & (np.nan_to_num(q, nan=-1.0) > rec["s"])
        before = float(np.mean(correct))
        after = float(np.mean(correct[kept])) if kept.any() else before
        discard = 1.0 - float(np.mean(kept))
        outcome = rec["outcome"]
        check(abs(outcome.accuracy_before - before) < 1e-12
              and abs(outcome.accuracy_after - after) < 1e-12
              and abs(outcome.discard_fraction - discard) < 1e-12,
              f"seed {seed}: gate outcome ({outcome.accuracy_before}, "
              f"{outcome.accuracy_after}, {outcome.discard_fraction}) "
              f"differs from the recount ({before}, {after}, {discard})")
    for key in repeats:
        check(key == records[key[0]]["key"],
              f"seed {key[0]}: a repeated run gave different outputs")

    ctx.attempted = n_ops
    ctx.failed = n_rounds * failing_seeds
    ctx.window = rounds.phase
    # A typical round: each seed at its median over the rounds, so a
    # burst of host noise in one round moves nothing.
    cpu_per_seed = sum(median(cpu_s[s]) for s in seeds) / len(seeds)
    ctx.e2e, ctx.noise_extra = end_to_end(
        ctx.setup_s, self_peak_rss_mb(), cpu_per_seed, cpu_per_seed, speed,
        wall_throughput_per_s=len(seeds) / sum(median(wall_s[s])
                                               for s in seeds),
        wall_latency_p50_ms=median([t for s in seeds
                                    for t in wall_s[s]]) * 1e3)
    ctx.noise_extra.update(known_dev)
    if ctx.tracer is not None:
        ctx.layers = _layers(ctx, n_ops, epochs[0])
        ctx.layers["wall.throughput_per_s"] = (
            ctx.noise_extra["wall_throughput_per_s"])


def _perturb(rec: Dict[str, object], kind: str, by: float) -> None:
    """Change one output of a seed by *by* so that one check must fail."""
    import dataclasses
    if kind == "q":
        q = rec["qualities"].copy()
        i = int(np.flatnonzero(~np.isnan(q))[0])
        q[i] += by
        rec["qualities"] = q
    elif kind == "s":
        rec["s"] += by
    elif kind == "gate":
        outcome = rec["outcome"]
        rec["outcome"] = dataclasses.replace(
            outcome, accuracy_after=outcome.accuracy_after + by)


def _layers(ctx, n_ops: int, epochs: int) -> Dict[str, float]:
    timed = ctx.tracer.summary("timed")

    def per_seed_ms(name: str) -> float:
        return timed[name]["self_s"] / n_ops * 1e3

    return {
        "datasets.material_ms": per_seed_ms("datasets.material"),
        "sensors.extract_ms": per_seed_ms("sensors.extract"),
        "sensors.extract_calls": timed["sensors.extract"]["calls"] / n_ops,
        "classifiers.fit_ms": per_seed_ms("classifiers.fit"),
        "clustering.subclust_ms": per_seed_ms("clustering.subclust"),
        "anfis.train_ms": per_seed_ms("anfis.train"),
        "anfis.epochs": epochs / n_ops,
        "core.construction_ms": per_seed_ms("core.construction"),
        "core.calibrate_ms": per_seed_ms("core.calibrate"),
        "core.filtering_ms": per_seed_ms("core.filtering"),
        "backend.lookups": timed["backend.lookup"]["calls"] / n_ops,
    }
