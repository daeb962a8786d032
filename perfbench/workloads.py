"""The four workloads: set-up, the timed closed loop, and the checks.

Each workload is a closed loop: one caller sends the next plan only after
the previous verdict.  A run repeats whole rounds of the same inputs until
its time is up, so the share of failed operations cannot depend on the run
length.  The checks run after the timed section.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import craftkit
import craftkit.cli
import craftkit.meshing
import craftkit.metrics
import craftkit.orchestrator
import craftkit.physics.engine
import craftkit.physics.functional
import craftkit.plan

import inputs
import oracle
from spans import WARMUP

ck = SimpleNamespace(
    cli=craftkit.cli, meshing=craftkit.meshing, metrics=craftkit.metrics,
    orchestrator=craftkit.orchestrator, engine=craftkit.physics.engine,
    functional=craftkit.physics.functional, plan=craftkit.plan)

SETUP_REPEATS = 3
# Snapshots are rounded to 1e-6 m per coordinate.
SNAPSHOT_ROUNDING = 2e-6
METRIC_TOLERANCE = 1e-12


@dataclass
class Timed:
    """What the timed section did, for metrics and checks."""
    seconds: float = 0.0
    latencies: list = field(default_factory=list)
    results: list = field(default_factory=list)  # (item, output)
    rounds: int = 0
    batch: dict | None = None  # per-layer values measured outside spans


def _verdict_span(tracer, vid):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span("verdict", verdict=vid)


def _warm_up(catalog, tracer):
    """One untimed verdict through every layer up to the engine."""
    text = inputs.read_fixture(inputs.WARMUP_PLAN)
    with _verdict_span(tracer, WARMUP):
        stage, *_ = ck.orchestrator.evaluate_plan_text(
            text, catalog, functional="hit")
    if stage != "NONE":
        raise RuntimeError(f"warm-up verdict failed at {stage}")


def _closed_loop(items, verdict, seconds, tracer):
    """Run whole rounds of ``items`` until ``seconds`` have passed."""
    timed = Timed()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for item in items:
            vid = f"r{timed.rounds}:{item['name']}"
            with _verdict_span(tracer, vid):
                t0 = time.perf_counter()
                out = verdict(item)
                timed.latencies.append(time.perf_counter() - t0)
            timed.results.append((item, out))
        timed.rounds += 1
        if time.perf_counter() >= deadline:
            break
    timed.seconds = time.perf_counter() - start
    return timed


def _respell(name, rng):
    """A fixture's text re-spelled from ``rng``; raises if the plan changed."""
    text = inputs.read_fixture(name)
    raw = inputs.respell(text, rng)
    if ck.plan.normalize_raw(raw) != ck.plan.normalize_raw(text):
        raise RuntimeError(f"re-spelling changed the plan {name}")
    return raw


def _round(names, seed):
    """One round: every fixture re-spelled, in an order drawn from the seed."""
    rng = random.Random(seed)
    items = [{"name": name, "raw": _respell(name, rng)} for name in names]
    rng.shuffle(items)
    return items


# -- sim_support and sim_rolling -------------------------------------------

class SimWorkload:
    def __init__(self, names, test):
        self.names = names
        self.test = test

    def setup(self, seed, workdir, tracer):
        catalog = craftkit.default_catalog()
        items = _round(self.names, seed)
        _warm_up(catalog, tracer)
        return {"catalog": catalog, "items": items}

    def run(self, state, seconds, tracer):
        catalog = state["catalog"]

        def verdict(item):
            return ck.orchestrator.evaluate_plan_text(
                item["raw"], catalog, functional=self.test)

        return _closed_loop(state["items"], verdict, seconds, tracer)

    @staticmethod
    def verdicts(state, timed):
        return len(timed.results)

    def check(self, state, timed):
        """(verdicts checked, verdicts that are not the designed ones)."""
        config = ck.functional.SimConfig()
        n_steps = round(config.duration / config.timestep)
        snapshots = n_steps // config.trace_every + 1
        failed = 0
        for item, (stage, report, plan, assembly, outcome) in timed.results:
            name = item["name"]
            want = inputs.DESIGNED_FAILURE.get(name)
            ok = stage == inputs.designed_stage(name) and outcome is not None
            ok = ok and outcome.failure_reason == want
            ok = ok and outcome.success == (want is None)
            if ok and self.test == "support":
                shown = oracle.trajectory_displacement(outcome.trajectory)
                ok = (len(outcome.trajectory) == snapshots
                      and math.isclose(outcome.time, config.duration)
                      and shown < 0.01
                      and shown <= outcome.details["max_displacement_m"]
                      + SNAPSHOT_ROUNDING)
            if ok and self.test == "rolling":
                ok = self._rolling_ok(name, outcome, config, snapshots)
            failed += not ok
        return len(timed.results), failed

    @staticmethod
    def _rolling_ok(name, outcome, config, snapshots):
        if name == "skateboard_floating":  # exits early
            return outcome.time < config.duration
        if len(outcome.trajectory) != snapshots:
            return False
        turns = outcome.details["rotation_rad"].values()
        if name == "skateboard_offcenter":
            return min(turns) < config.min_rotation
        return (oracle.centroid_travel(outcome.trajectory)
                >= config.min_distance
                and min(turns) >= config.min_rotation)


# -- batch_feedback ----------------------------------------------------------

class BatchWorkload:
    JOBS = 2

    def setup(self, seed, workdir, tracer):
        catalog = craftkit.default_catalog()
        rng = random.Random(seed)
        jobs = []
        for i, (cat, script) in enumerate(inputs.BATCH_JOBS):
            hammer = f"hammer_valid_{i % 3 + 1}"
            names = [n.format(hammer=hammer) for n in script]
            stages = [inputs.designed_stage(n) for n in names]
            jobs.append({
                "category": cat,
                "responses": [_respell(n, rng) for n in names],
                "expected": oracle.feedback_verdict(stages),
            })
        manifest = Path(workdir) / "manifest.json"
        manifest.write_text(json.dumps(
            [{"category": j["category"], "responses": j["responses"]}
             for j in jobs]), encoding="utf-8")
        _warm_up(catalog, tracer)
        return {"jobs": jobs, "manifest": manifest, "workdir": Path(workdir)}

    @staticmethod
    def verdicts(state, timed):
        return len(state["jobs"]) * len(timed.results)

    def _batch(self, state, out, jobs):
        code = ck.cli.main(["batch", str(state["manifest"]),
                            "--policy", "FEEDBACK", "--jobs", str(jobs),
                            "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"craftkit batch exited with {code}")

    def run(self, state, seconds, tracer):
        n = [0]

        def verdict(item):
            out = state["workdir"] / f"batch-{n[0]}.csv"
            n[0] += 1
            self._batch(state, out, self.JOBS)
            return out

        timed = _closed_loop([{"name": "batch"}], verdict, seconds, tracer)
        if tracer is not None:
            rows = [r for _, out in timed.results for r in _read_csv(out)]
            # 1 worker against 2 on the same manifest; the spans of the
            # 1-worker batch are dropped so that no layer counts it
            kept = len(tracer.spans)
            out = state["workdir"] / "batch-jobs1.csv"
            t0 = time.perf_counter()
            self._batch(state, out, 1)
            jobs1_s = time.perf_counter() - t0
            del tracer.spans[kept:]
            timed.batch = {
                "llm_calls": sum(int(r["attempts"]) for r in rows),
                "successes": sum(r["status"] == "success" for r in rows),
                "jobs1_s": jobs1_s,
                "jobs1_csv": out,
                "jobs2_s": statistics.median(timed.latencies),
            }
        return timed

    def check(self, state, timed):
        """(jobs checked, rows whose status, stage or attempts differ from
        what the job's script gives under the FEEDBACK rules)."""
        outs = [out for _, out in timed.results]
        if timed.batch is not None:
            outs.append(timed.batch["jobs1_csv"])
        failed = 0
        for out in outs:
            rows = _read_csv(out)
            failed += abs(len(rows) - len(state["jobs"]))
            for job, row in zip(state["jobs"], rows):
                got = (row["status"], row["failure_stage"],
                       int(row["attempts"]))
                failed += (row["category"] != job["category"]
                           or got != job["expected"])
        return len(state["jobs"]) * len(outs), failed


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# -- screen_score ------------------------------------------------------------

class ScreenWorkload:
    def setup(self, seed, workdir, tracer):
        catalog = craftkit.default_catalog()
        names = inputs.fixture_names()
        for name in names:
            inputs.designed_screen_stage(name)  # every name has a verdict
        refs = {}
        for cat in sorted({inputs.category(n) for n in names}):
            plan, _ = ck.plan.parse_plan(
                ck.plan.normalize_raw(inputs.read_fixture(f"{cat}_valid_1")),
                catalog)
            assembly = craftkit.build_assembly(plan, catalog)
            refs[cat] = str(Path(workdir) / f"{cat}_valid_1.obj")
            ck.meshing.export_assembly_obj(assembly, refs[cat])
        items = _round(names, seed)
        for item in items:
            item["ref"] = refs[inputs.category(item["name"])]
        state = {"catalog": catalog, "items": items, "captured": {},
                 "seed": seed}
        warm = {"name": inputs.WARMUP_PLAN, "ref": refs["hammer"],
                "raw": inputs.read_fixture(inputs.WARMUP_PLAN)}
        with _verdict_span(tracer, WARMUP):
            self._verdict(state, warm)
        return state

    def _verdict(self, state, item):
        stage, _, _, assembly, _ = ck.orchestrator.evaluate_plan_text(
            item["raw"], state["catalog"])
        if stage != "NONE":
            return stage, None
        # the default sampling seed: the verdict a user gets, and the same
        # sampling work whatever the benchmark's seed
        return stage, ck.metrics.compare_assembly_to_mesh(
            assembly, item["ref"])

    def run(self, state, seconds, tracer):
        # keep the point sets of the first round for the oracle (about
        # 1 MB per scored fixture, counted in peak_rss_mb)
        captured = state["captured"]
        original = ck.metrics.compare_point_sets
        current = {}

        def capture(a, b, threshold=ck.metrics.FSCORE_THRESHOLD):
            captured.setdefault(current["name"], (a, b, threshold))
            return original(a, b, threshold)

        def verdict(item):
            current["name"] = item["name"]
            return self._verdict(state, item)

        ck.metrics.compare_point_sets = capture
        try:
            return _closed_loop(state["items"], verdict, seconds, tracer)
        finally:
            ck.metrics.compare_point_sets = original

    @staticmethod
    def verdicts(state, timed):
        return len(timed.results)

    def check(self, state, timed):
        """(verdicts checked, verdicts at the wrong stage or with metrics
        off the oracle's)."""
        first = {}
        failed = 0
        rng = np.random.default_rng(state["seed"])
        for item, (stage, report) in timed.results:
            name = item["name"]
            ok = stage == inputs.designed_screen_stage(name)
            if ok and report is not None:
                ok = 0.0 <= report.chamfer <= report.hausdorff
                if name not in first:
                    first[name] = report
                    ok = ok and self._oracle_ok(state, name, report, rng)
                else:  # later rounds repeat the first one exactly
                    ok = ok and report.to_dict() == first[name].to_dict()
            failed += not ok
        return len(timed.results), failed

    @staticmethod
    def _oracle_ok(state, name, report, rng):
        if name not in state["captured"]:
            return False
        want = oracle.point_set_metrics(*state["captured"][name], rng)
        return all(abs(getattr(report, k) - v) <= METRIC_TOLERANCE
                   for k, v in want.items())


def layer_probe(workdir):
    """Call every layer once on the warm-up plan, after the timed section.

    A traced run reads from these spans the layers its workload never
    calls: a one-job FEEDBACK batch at 2 and at 1 workers, then the plan
    exported and scored against its own mesh.  Returns the batch figures
    the way ``BatchWorkload.run`` does.
    """
    workdir = Path(workdir)
    text = inputs.read_fixture(inputs.WARMUP_PLAN)
    manifest = workdir / "probe.json"
    manifest.write_text(json.dumps([{"category": "hammer",
                                     "responses": [text]}]),
                        encoding="utf-8")
    walls = {}
    for jobs in (2, 1):
        t0 = time.perf_counter()
        code = ck.cli.main(["batch", str(manifest), "--policy", "FEEDBACK",
                            "--jobs", str(jobs),
                            "--out", str(workdir / f"probe-{jobs}.csv")])
        walls[jobs] = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"craftkit batch exited with {code}")
    rows = _read_csv(workdir / "probe-2.csv")
    stage, _, _, assembly, _ = ck.orchestrator.evaluate_plan_text(
        text, craftkit.default_catalog())
    ref = str(workdir / "probe.obj")
    ck.meshing.export_assembly_obj(assembly, ref)
    ck.metrics.compare_assembly_to_mesh(assembly, ref)
    if stage != "NONE" or [r["status"] for r in rows] != ["success"]:
        raise RuntimeError("the layer probe's plan did not pass")
    return {"llm_calls": sum(int(r["attempts"]) for r in rows),
            "successes": len(rows), "jobs1_s": walls[1], "jobs2_s": walls[2]}


WORKLOADS = {
    "sim_support": lambda: SimWorkload(inputs.SUPPORT_PLANS, "support"),
    "sim_rolling": lambda: SimWorkload(inputs.ROLLING_PLANS, "rolling"),
    "batch_feedback": BatchWorkload,
    "screen_score": ScreenWorkload,
}
