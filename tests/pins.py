"""Every value the suite pins, computed, checked, printed and re-recorded in
one place: each pin is a function below that hashes the same inputs, in the
same order, as when ``fixtures/pins.json`` recorded its value, and
``test_outcome_gate.py::test_pin_holds`` checks each by its own comparison.
The inputs come from ``conftest``'s caches, so under pytest no pin simulates
or builds what the session already has.

    PYTHONPATH=src python tests/pins.py                  # print, write nothing
    PYTHONPATH=src python tests/pins.py --record NAME... # rewrite those pins

Printing exits 1 if any pin does not hold.  Re-record a pin only in a change
that names its semantic change, with the printed old -> new in CHANGES.md.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from craftkit import cli, collision
from craftkit.geometry import HoleRegion, Solid
from craftkit.meshing import export_assembly_obj, mesh_part
from craftkit.metrics import compare_assembly_to_mesh
from craftkit.orchestrator import STAGE_NONE
from craftkit.physics import SimConfig, run_functional_test
from craftkit.physics.functional import (
    HIT_DESCENT, INSUFFICIENT_ROTATION, MAX_VEER, SUPPORT_LIMIT)

from conftest import (
    FIXTURES, PLANS, all_fixture_names, buildable_assemblies, built, evaluated,
    outcome, raw, respelled)
from test_plan_mutations import simulated_mutants

PINS_JSON = FIXTURES / "pins.json"

CASES = [n for n in all_fixture_names() if "_valid_" in n] + [
    "skateboard_offcenter", "skateboard_floating", "hammer_detached"]
MARGIN_CAP = 100.0
MARGIN_DROP = 2.0


def signature(outcome, config):
    """Verdict, time and margins of one ``SimOutcome`` as plain JSON."""
    d = outcome.details
    margins = {}
    if outcome.test == "support" and "max_displacement_m" in d:
        ratio = SUPPORT_LIMIT / d["max_displacement_m"]
        margins["max_displacement_m"] = ratio if outcome.success \
            else 1.0 / ratio
    elif outcome.test == "rolling" and "rotation_rad" in d:
        turns = min(d["rotation_rad"].values())
        if outcome.success:
            margins["distance_m"] = d["distance_m"] / config.min_distance
            margins["rotation_rad"] = turns / config.min_rotation
            margins["veer_m"] = MAX_VEER / d["veer_m"]
        elif outcome.failure_reason == INSUFFICIENT_ROTATION:
            margins["rotation_rad"] = config.min_rotation / turns
    elif outcome.test == "hit" and outcome.success:
        margins["peg_descent_m"] = d["peg_descent_m"] / HIT_DESCENT
    return {"test": outcome.test, "success": outcome.success,
            "failure_reason": outcome.failure_reason,
            "part": d.get("part", d.get("parts")),
            "time_s": outcome.time, "margins": margins}


def _verdict(sig):
    return sig["test"], sig["success"], sig["failure_reason"], sig["part"]


def compare(recorded, current):
    """(whether every case holds its recorded signature, table lines)."""
    lines, ok = [], sorted(recorded) == sorted(CASES)
    for name in CASES:
        rec, cur = recorded[name], current[name]
        same = _verdict(rec) == _verdict(cur) \
            and sorted(rec["margins"]) == sorted(cur["margins"])
        ok = ok and same
        lines.append(f"{'ok  ' if same else 'FAIL'} {name}: "
                     f"{_verdict(rec)} -> {_verdict(cur)}, "
                     f"t {rec['time_s']:.3f} -> {cur['time_s']:.3f} s")
        for key, m_rec in rec["margins"].items():
            m_cur = cur["margins"].get(key, float("nan"))
            floor = min(m_rec, MARGIN_CAP) / MARGIN_DROP
            held = m_cur >= floor
            ok = ok and held
            lines.append(f"  {'ok  ' if held else 'FAIL'} {key}: "
                         f"{m_rec:.4g}x -> {m_cur:.4g}x (floor {floor:.4g}x)")
    return ok, lines


def gate_signatures(outcomes):
    """The signature of each gate case, given its outcomes in ``CASES``
    order: compared by ``compare``'s margin rule, not exactly."""
    config = SimConfig()
    return {name: signature(o, config) for name, o in zip(CASES, outcomes)}


def outcome_digest(outcomes):
    """The sha256, as hex, over each outcome's ``to_dict()`` dumped as JSON
    with sorted keys, in the order given: the gate cases' full outcomes,
    trajectories included."""
    digest = hashlib.sha256()
    for o in outcomes:
        digest.update(json.dumps(o.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def assembly_json(assemblies):
    """The sha256 over each assembly's ``to_json()``, in the order given."""
    digest = hashlib.sha256()
    for assembly in assemblies:
        digest.update(assembly.to_json().encode())
    return {"built": len(assemblies), "sha256": digest.hexdigest()}


def collision_report(assemblies):
    """The sha256 over each assembly's collision report, depths and witness
    points included, in the order given."""
    digest = hashlib.sha256()
    pairs = 0
    for assembly in assemblies:
        report = collision.validate_collisions(assembly).to_dict()
        digest.update(json.dumps(report).encode())
        pairs += len(report["pairs"])
    return {"pairs": pairs, "sha256": digest.hexdigest()}


def mesh(assemblies):
    """The sha256 over the float64 vertex and int64 face array bytes of
    every part's mesh, over the assemblies in the order given."""
    digest = hashlib.sha256()
    parts = 0
    for assembly in assemblies:
        for part in assembly.placed.values():
            v, f = mesh_part(part.solid, part.position)
            digest.update(np.asarray(v).tobytes())
            digest.update(np.asarray(f).tobytes())
            parts += 1
    return {"parts": parts, "sha256": digest.hexdigest()}


def pair_overlap():
    """The sha256 over ``pair_overlap`` on every ordered pair of solids at
    seeded centres: drawn uniformly, on a 1 cm grid, where equal bounds and
    touching faces are common, or for a holed first solid with the second
    near its hole's centre, where the hole test decides.  The solids hold
    every pair kind: boxes, a cylinder on each axis, a box with a round
    through hole, a cylinder with a square one (the hole test), and a
    round and a square peg that fit those holes."""
    holed_box = Solid.box((0.1, 0.1, 0.04))
    holed_box.holes.append(HoleRegion(
        owner="B", name="HOLE_1", axis=2, offset=(0.02, 0.0, 0.0),
        depth=0.04, radius=0.012))
    holed_cyl = Solid.cylinder(0.04, 0.05, axis=2)
    holed_cyl.holes.append(HoleRegion(
        owner="C", name="HOLE_1", axis=2, offset=(0.0, 0.0, 0.0),
        depth=0.05, half_widths=(0.01, 0.01)))
    solids = [
        Solid.box((0.1, 0.06, 0.04)), Solid.box((0.05, 0.05, 0.12)),
        Solid.cylinder(0.03, 0.1, axis=0), Solid.cylinder(0.02, 0.08, axis=1),
        Solid.cylinder(0.025, 0.06, axis=2), holed_box, holed_cyl,
        Solid.cylinder(0.008, 0.1, axis=2), Solid.box((0.016, 0.016, 0.1))]
    rng = np.random.default_rng(17)
    digest = hashlib.sha256()
    hits = 0
    for a in solids:
        for b in solids:
            for n in range(24):
                ca = rng.uniform(-0.05, 0.05, 3)
                cb = rng.uniform(-0.05, 0.05, 3)
                if n % 3 == 1:
                    ca, cb = np.round(ca, 2), np.round(cb, 2)
                elif n % 3 == 2 and a.holes:
                    cb = ca + a.holes[0].offset + rng.uniform(-0.004, 0.004, 3)
                hit = collision.pair_overlap(tuple(map(float, ca)), a,
                                             tuple(map(float, cb)), b)
                if hit is not None:
                    hits += 1
                    hit = [hit[0], list(hit[1])]
                digest.update(json.dumps(hit).encode())
    return {"hits": hits, "sha256": digest.hexdigest()}


def screen_report():
    """The sha256 over ``json.dumps(MetricReport.to_dict())`` of every
    fixture that passes the stages before simulation, in sorted file order,
    scored at 20 000 samples and seed 0 against the exported mesh of its
    category's ``_valid_1`` golden, as the screen benchmark pairs them."""
    digest = hashlib.sha256()
    scored = 0
    with tempfile.TemporaryDirectory() as folder:
        refs = {}
        for name in all_fixture_names():
            stage, _, _, assembly, _ = evaluated(name)
            if stage != STAGE_NONE:
                continue
            category = name.split("_", 1)[0]
            if category not in refs:
                refs[category] = Path(folder) / f"{category}_valid_1.obj"
                export_assembly_obj(built(f"{category}_valid_1")[1],
                                    refs[category])
            report = compare_assembly_to_mesh(assembly, refs[category])
            digest.update(json.dumps(report.to_dict()).encode())
            scored += 1
    return {"scored": scored, "sha256": digest.hexdigest()}


def _cli(*argv):
    """(exit code, stdout) of ``craftkit`` called in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def validate():
    """The sha256 over ``json.dumps([name, exit code, stdout])`` of
    ``craftkit validate`` on every fixture plan, in name order."""
    names = all_fixture_names()
    digest = hashlib.sha256()
    for name in names:
        code, out = _cli("validate", str(PLANS / f"{name}.json"))
        digest.update(json.dumps([name, code, out]).encode())
    return {"fixtures": len(names), "sha256": digest.hexdigest()}


def batch_jobs():
    """A manifest of ten jobs that repeat plans, each job's second answer
    respelled: invalid, colliding, detached, floating and valid plans."""
    jobs = [("hammer", "hammer_invalid_1", "hammer_valid_1"),
            ("bookshelf", "bookshelf_collision", "bookshelf_collision"),
            ("hammer", "hammer_detached", "hammer_valid_1"),
            ("skateboard", "skateboard_floating", "skateboard_floating"),
            ("table", "bookshelf_collision", "bookshelf_collision")]
    return [{"category": category, "responses": [raw(a), respelled(raw(b))]}
            for category, a, b in jobs] * 2


def batch_csv():
    """The sha256 of the CSV that ``craftkit batch --jobs 1`` writes for
    ``batch_jobs()``."""
    with tempfile.TemporaryDirectory() as folder:
        jobs, out = Path(folder, "jobs.json"), Path(folder, "out.csv")
        jobs.write_text(json.dumps(batch_jobs()))
        code, _ = _cli("batch", str(jobs), "--out", str(out), "--jobs", "1")
        assert code == cli.EXIT_OK, code
        return hashlib.sha256(out.read_bytes()).hexdigest()


def mutant_verdicts(runs):
    """How many (mutant, test, outcome) runs end in each verdict, by test."""
    counts = Counter((test, o.failure_reason or "pass") for _, test, o in runs)
    return {test: {v: n for (t, v), n in counts.items() if t == test}
            for test, _ in counts}


def exact(recorded, current):
    """(recorded == current, both values as JSON lines)."""
    return recorded == current, [
        f"{label} {json.dumps(value, sort_keys=True)}"
        for label, value in (("recorded", recorded), ("current ", current))]


# Outcomes of short runs: a change in the order of hooks, snapshots and
# shared checks moves them.
SHORT_RUNS = [("rolling", "skateboard_valid_2"), ("support", "table_valid_3"),
              ("hit", "hammer_valid_1"), ("hit", "hammer_detached"),
              ("rolling", "skateboard_floating")]


def short_run(kind, name):
    """Verdict, details, snapshot count and last snapshot of a fixture run
    for 0.5 s under ``kind``."""
    plan, asm = built(name)
    o = run_functional_test(kind, asm, plan, SimConfig(duration=0.5))
    return {"test": o.test, "success": o.success,
            "failure_reason": o.failure_reason, "time_s": o.time,
            "details": o.details, "snapshots": len(o.trajectory),
            "last": o.trajectory[-1]["parts"]}


def _close(got, want):
    """Details equal, each float to rel 1e-9."""
    if isinstance(want, dict):
        return sorted(got) == sorted(want) \
            and all(_close(got[key], want[key]) for key in want)
    return got == (pytest.approx(want, rel=1e-9, abs=0.0)
                   if isinstance(want, float) else want)


def short_run_holds(recorded, current):
    """Verdict and snapshot count exact, time and details to rel 1e-9, each
    last position to 2e-6."""
    last, want = current["last"], recorded["last"]
    ok = all(current[key] == recorded[key] for key in
             ("test", "success", "failure_reason", "snapshots")) \
        and current["time_s"] == pytest.approx(recorded["time_s"], rel=1e-9) \
        and _close(current["details"], recorded["details"]) \
        and sorted(last) == sorted(want) \
        and all(last[part] == pytest.approx(xyz, abs=2e-6)
                for part, xyz in want.items())
    return ok, exact(recorded, current)[1]


# name: (computes the current value, compares recorded with current)
PINS = {
    "outcome_digest": (lambda: outcome_digest(map(outcome, CASES)), exact),
    "gate_signatures": (lambda: gate_signatures(map(outcome, CASES)), compare),
    "assembly_json": (lambda: assembly_json(buildable_assemblies()), exact),
    "collision_report": (lambda: collision_report(buildable_assemblies()),
                         exact),
    "pair_overlap": (pair_overlap, exact),
    "mesh": (lambda: mesh(buildable_assemblies()), exact),
    "screen_report": (screen_report, exact),
    "validate": (validate, exact),
    "batch_csv": (batch_csv, exact),
    "mutant_verdicts": (lambda: mutant_verdicts(simulated_mutants()), exact),
    **{f"short_run.{kind}.{name}": (functools.partial(short_run, kind, name),
                                    short_run_holds)
       for kind, name in SHORT_RUNS},
}


def recorded():
    return json.loads(PINS_JSON.read_text(encoding="utf-8"))


@functools.cache
def current(name):
    return PINS[name][0]()


def check(name, table):
    """(whether pin ``name`` holds against its entry in ``table``, lines
    showing the recorded and the current value); a pin that ``table`` does
    not hold is recorded as null."""
    return PINS[name][1](table[name], current(name)) if name in table \
        else exact(None, current(name))


def assert_holds(name):
    ok, lines = check(name, recorded())
    assert ok, f"pin {name} moved:\n" + "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Print every pin's recorded and current value, or "
                    "re-record the named pins.")
    parser.add_argument("--record", nargs="+", metavar="NAME",
                        choices=list(PINS),
                        help="rewrite only these entries of pins.json")
    names = parser.parse_args(argv).record
    table = recorded()
    held = True
    for name in names or PINS:
        ok, lines = check(name, table)
        held = held and ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}", *lines, sep="\n    ")
    if names:
        table.update((name, current(name)) for name in names)
        PINS_JSON.write_text(json.dumps(table, indent=1, sort_keys=True)
                             + "\n", encoding="utf-8")
    return 0 if held or names else 1


if __name__ == "__main__":
    raise SystemExit(main())
