"""The benchmark's tracer wraps craftkit's entry points by name, from
outside the package (``perfbench/spans.py``).  Installing it here makes a
rename or deletion of any wrapped name fail this suite, and a short
verdict through the wrapped names shows that each sits where its caller
looks it up."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import craftkit.cli
import craftkit.meshing
import craftkit.metrics
import craftkit.orchestrator
import craftkit.physics.engine
import craftkit.physics.functional
import craftkit.plan

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_wraps_every_name_it_names(catalog,
                                                       fixture_raw):
    # shaped like ``ck`` in perfbench/workloads.py
    ck = SimpleNamespace(
        cli=craftkit.cli, meshing=craftkit.meshing, metrics=craftkit.metrics,
        orchestrator=craftkit.orchestrator, engine=craftkit.physics.engine,
        functional=craftkit.physics.functional, plan=craftkit.plan)
    tracer = _spans_module().Tracer()
    try:
        tracer.install(ck)
        wrapped = {(owner, attr): original
                   for owner, attr, original in tracer._patched}
        for (owner, attr), original in wrapped.items():
            assert getattr(owner, attr).__wrapped__ is original
        assert (ck.functional, "compile_craft") in wrapped
        assert (ck.engine.World, "step") in wrapped
        assert (ck.engine.World, "gather_contacts") in wrapped
        assert (ck.orchestrator, "connectivity_check") in wrapped
        config = ck.functional.SimConfig(duration=0.02)
        stage, *_ = ck.orchestrator.evaluate_plan_text(
            fixture_raw("hammer_valid_1"), catalog, "hit", config)
        # ten steps are too few for the peg: a PEG_MISSED verdict
        assert stage == ck.orchestrator.STAGE_PHYSICS
        names = {span[1] for span in tracer.spans}
        assert {"plan.normalize_raw", "plan.parse_plan", "assembler.build",
                "assembler.connectivity", "collision.validate",
                "physics.functional.test", "physics.functional.compile",
                "physics.engine.step",
                "physics.engine.gather_contacts"} <= names
    finally:
        tracer.uninstall()
    for (owner, attr), original in wrapped.items():
        assert getattr(owner, attr) is original
