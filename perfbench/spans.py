"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

The tracer replaces public entry points of craftkit's modules with
wrappers that record one span per call: name, start, end, parent span and
verdict id.  Spans stay in memory until the run ends.  Nothing inside
``src/`` knows about it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# Verdict ids of spans that no per-layer metric reads, except meshing.export
# which happens only while the inputs are made.
SETUP = "setup"
WARMUP = "warmup"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, verdict, count)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.verdict = SETUP
        return local

    @contextmanager
    def span(self, name, verdict=None):
        """Record a span around a block; ``verdict`` starts a new verdict."""
        local = self._state()
        outer_verdict = local.verdict
        if verdict is not None:
            local.verdict = verdict
        sid = next(self._ids)
        parent = local.stack[-1] if local.stack else None
        local.stack.append(sid)
        box = [None]
        start = time.perf_counter()
        try:
            yield box
        finally:
            end = time.perf_counter()
            local.stack.pop()
            self.spans.append((sid, name, start, end, parent, local.verdict,
                               box[0]))
            local.verdict = outer_verdict

    def patch(self, owner, attr, name, count=None, new_verdict=False):
        """Wrap ``owner.attr``; ``count(result)`` is stored on the span."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            verdict = f"{name}#{next(tracer._ids)}" if new_verdict else None
            with tracer.span(name, verdict) as box:
                result = original(*args, **kwargs)
                if count is not None:
                    box[0] = count(result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self, ck):
        """Wrap every layer boundary; ``ck`` holds the craftkit modules.

        Each name is wrapped where its caller looks it up: the orchestrator
        and the CLI import their callees by name, so those names are the
        ones replaced.
        """
        o = ck.orchestrator
        self.patch(o, "normalize_raw", "plan.normalize_raw")
        self.patch(o, "parse_plan", "plan.parse_plan")
        self.patch(o, "build_assembly", "assembler.build")
        self.patch(o, "connectivity_check", "assembler.connectivity")
        self.patch(o, "validate_collisions", "collision.validate")
        self.patch(o, "run_functional_test", "physics.functional.test")
        self.patch(ck.functional, "compile_craft",
                   "physics.functional.compile")
        self.patch(ck.engine.World, "step", "physics.engine.step")
        self.patch(ck.engine.World, "gather_contacts",
                   "physics.engine.gather_contacts", count=len)
        self.patch(ck.metrics, "sample_assembly_exterior", "metrics.sample")
        self.patch(ck.metrics, "sample_mesh", "metrics.sample")
        self.patch(ck.metrics, "compare_point_sets", "metrics.compare")
        self.patch(ck.meshing, "export_assembly_obj", "meshing.export")
        self.patch(ck.cli, "run_pipeline", "orchestrator.pipeline",
                   new_verdict=True)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path, extra):
        rows = [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "verdict": s[5], "count": s[6]}
                for s in sorted(self.spans, key=lambda s: s[2])]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": rows}, fh)


def _mean(total, n):
    return total / n if n else 0.0


class _Totals:
    """Time, calls and counts per span name; a layer calling itself
    (metrics.sample) is counted once."""

    def __init__(self, spans):
        by_id = {s[0]: s for s in spans}
        self.total = defaultdict(float)
        self.calls = defaultdict(int)
        self.counted = defaultdict(int)
        for sid, name, start, end, parent, verdict, count in spans:
            if parent in by_id and by_id[parent][1] == name:
                continue
            self.total[name] += end - start
            self.calls[name] += 1
            if count is not None:
                self.counted[name] += count

    def mean(self, name, per=None):
        """Time in ``name`` per call of ``per`` (default: of ``name``)."""
        return _mean(self.total[name], self.calls[per or name])


def _physics(t, rounds):
    steps = t.calls["physics.engine.step"]
    step_s = t.total["physics.engine.step"]
    gather_s = t.total["physics.engine.gather_contacts"]
    own_s = (t.total["physics.functional.test"]
             - t.total["physics.functional.compile"] - step_s)
    return {
        "physics.functional.compile_s": t.mean("physics.functional.compile"),
        "physics.functional.self_s_per_step": _mean(own_s, steps),
        "physics.engine.step_s": _mean(step_s, steps),
        "physics.engine.gather_contacts_s": _mean(gather_s, steps),
        "physics.engine.solve_s": _mean(step_s - gather_s, steps),
        "physics.engine.steps": _mean(steps, rounds),
        "physics.engine.contacts_per_step": _mean(
            t.counted["physics.engine.gather_contacts"], steps),
        "physics.engine.steps_per_s": _mean(steps, step_s),
    }


def _batch(batch, rounds):
    return {
        "orchestrator.llm_calls": batch["llm_calls"] / rounds,
        "orchestrator.verdicts_per_call": _mean(batch["successes"],
                                                batch["llm_calls"]),
        "cli.batch_s": batch["jobs2_s"],
        "cli.batch_speedup": batch["jobs1_s"] / batch["jobs2_s"],
    }


def layer_metrics(spans, rounds, batch, probe_spans, probe_batch):
    """Per-layer metrics of one traced run.

    ``spans`` are those of set-up and the timed section, of which only
    meshing.export is read from set-up; ``rounds`` is the number of rounds
    of the timed section, and counts are per round so that they repeat
    exactly.  ``batch`` carries what the batch workload measures outside
    spans: LLM calls and successful jobs over the timed section, and batch
    wall times at 1 and 2 workers.  A layer the workload's own loop never
    calls is read from the probe, ``probe_spans`` and ``probe_batch``,
    counted as one round.
    """
    own = _Totals([s for s in spans if s[1] == "meshing.export"
                   or s[5] not in (SETUP, WARMUP)])
    probe = _Totals(probe_spans)

    def source(name):
        return own if own.calls[name] else probe

    out = {
        "plan.parse_s": own.mean("plan.normalize_raw")
        + own.mean("plan.parse_plan", per="plan.normalize_raw"),
        "assembler.build_s": own.mean("assembler.build"),
        "assembler.connectivity_s": own.mean("assembler.connectivity"),
        "collision.validate_s": own.mean("collision.validate"),
    }
    if own.calls["physics.engine.step"]:
        out.update(_physics(own, rounds))
    else:
        out.update(_physics(probe, 1))
    scored = source("metrics.compare")
    out["metrics.sample_s"] = scored.mean("metrics.sample",
                                          per="metrics.compare")
    out["metrics.compare_s"] = scored.mean("metrics.compare")
    out["meshing.export_s"] = source("meshing.export").mean("meshing.export")
    out["orchestrator.pipeline_s"] = source("orchestrator.pipeline").mean(
        "orchestrator.pipeline")
    out.update(_batch(batch, rounds) if batch else _batch(probe_batch, 1))
    return out


UNITS = {
    "plan.parse_s": "s",
    "assembler.build_s": "s",
    "assembler.connectivity_s": "s",
    "collision.validate_s": "s",
    "physics.functional.compile_s": "s",
    "physics.functional.self_s_per_step": "s",
    "physics.engine.step_s": "s",
    "physics.engine.gather_contacts_s": "s",
    "physics.engine.solve_s": "s",
    "physics.engine.steps": "count",
    "physics.engine.contacts_per_step": "count",
    "physics.engine.steps_per_s": "1/s",
    "metrics.sample_s": "s",
    "metrics.compare_s": "s",
    "meshing.export_s": "s",
    "orchestrator.llm_calls": "count",
    "orchestrator.verdicts_per_call": "ratio",
    "orchestrator.pipeline_s": "s",
    "cli.batch_s": "s",
    "cli.batch_speedup": "ratio",
}
