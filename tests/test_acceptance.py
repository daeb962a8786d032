"""End-to-end acceptance checks, one criterion per test.

Each test writes a single ``ACCEPTANCE n: PASS/FAIL`` line to the terminal
so the overall verdict can be read at a glance from the pytest output.
"""

import csv
import io
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from craftkit import build_assembly
from craftkit.assembler import Assembly, PlacedPart, connectivity_check
from craftkit.cli import EXIT_OK
from craftkit.cli import main as cli_main
from craftkit.collision import base_overlap
from craftkit.geometry import Solid
from craftkit.metrics import sample_mesh
from craftkit.orchestrator import (
    POLICY_FEEDBACK,
    POLICY_FRESH,
    POLICY_NONE,
    ScriptedClient,
    run_pipeline,
)
from craftkit.physics import RigidBody, SimConfig, World, run_functional_test
from craftkit.physics.engine import GRAVITY
from craftkit.physics.functional import HIT_DESCENT, SUPPORT_LIMIT
from craftkit.plan import OrientationSpec, PartSpec, normalize_raw, parse_plan

from conftest import all_fixture_names
from material_oracle import base_contains


@pytest.fixture
def criterion(request):
    tr = request.config.pluginmanager.get_plugin("terminalreporter")

    @contextmanager
    def check(num, desc):
        try:
            yield
        except Exception:
            if tr is not None:
                tr.write_line(f"ACCEPTANCE {num}: FAIL - {desc}")
            raise
        if tr is not None:
            tr.write_line(f"ACCEPTANCE {num}: PASS - {desc}")

    return check


# -- criterion 1: format validation corpus and normalization fuzz ----------

def _random_scalar(rng):
    pick = rng.integers(0, 6)
    if pick == 0:
        return int(rng.integers(-1000, 1000))
    if pick == 1:
        return float(np.round(rng.normal() * 100, 6))
    if pick == 2:
        return bool(rng.integers(0, 2))
    if pick == 3:
        return None
    words = ["left", "Right-Top", "non-fixed", "HOLE_1", "a-b-c", "",
             "MiXeD_case", "surface"]
    return words[int(rng.integers(0, len(words)))]


def _random_doc(rng, depth=0):
    if depth >= 3:
        return _random_scalar(rng)
    pick = rng.integers(0, 4)
    if pick == 0:
        return _random_scalar(rng)
    if pick == 1:
        return [_random_doc(rng, depth + 1)
                for _ in range(int(rng.integers(0, 4)))]
    keys = ["Name", "align-x", "contact-type", "Orientation", "misc-Key",
            "TO_PART", "exec_function", "weird key"]
    n = int(rng.integers(0, 5))
    return {keys[int(rng.integers(0, len(keys)))] + str(i):
            _random_doc(rng, depth + 1) for i in range(n)}


def test_criterion_1_format_corpus(criterion, catalog, fixture_raw):
    with criterion(1, "fixture corpus classified correctly; "
                      "normalization idempotent on 1000 fuzzed docs"):
        names = all_fixture_names()
        categories = ("hammer", "table", "chair", "skateboard", "bookshelf",
                      "bus")
        for cat in categories:
            valid = [n for n in names if n.startswith(f"{cat}_valid_")]
            invalid = [n for n in names if n.startswith(f"{cat}_invalid_")]
            assert len(valid) >= 3, cat
            assert len(invalid) >= 2, cat
        corpus = [n for n in names
                  if "_valid_" in n or "_invalid_" in n]
        assert len(corpus) >= 24
        for name in corpus:
            plan, report = parse_plan(normalize_raw(fixture_raw(name)),
                                      catalog)
            if "_valid_" in name:
                assert plan is not None, (name, report.errors)
            else:
                assert plan is None, name

        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            doc = _random_doc(rng)
            once = normalize_raw(json.dumps(doc))
            twice = normalize_raw(json.dumps(once))
            assert once == twice


# -- criterion 2: deterministic, exact placement ---------------------------

def test_criterion_2_placement_exactness(criterion, catalog, fixture_raw):
    with criterion(2, "byte-identical builds; CENTER/flush within 1e-12; "
                      "chair mirror exact"):
        for name in ("table_valid_1", "hammer_valid_1", "skateboard_valid_1"):
            raw = fixture_raw(name)
            outs = []
            for _ in range(2):
                plan, _ = parse_plan(normalize_raw(raw), catalog)
                outs.append(build_assembly(plan, catalog).to_json())
            assert outs[0] == outs[1], name

        # all-CENTER surface connection: centers agree on the open axes
        parts = [
            {"Name": "BASE_1", "Available_obj": "CUBOID_100X100X100",
             "Orientation": [100, 100, 100], "exec_function": True},
            {"Name": "CAP_1", "Available_obj": "CUBOID_50X50X20",
             "Orientation": [50, 50, 20],
             "Connections": [{"to_part": "BASE_1", "contact_type": "Surface",
                              "to_face": "BOTTOM", "align_x": "CENTER",
                              "align_y": "CENTER", "align_z": "CENTER"}],
             "exec_function": False},
        ]
        plan, _ = parse_plan(normalize_raw(json.dumps(parts)), catalog)
        asm = build_assembly(plan, catalog)
        base, cap = asm.placed["BASE_1"].position, asm.placed["CAP_1"].position
        assert abs(base[0] - cap[0]) <= 1e-12
        assert abs(base[1] - cap[1]) <= 1e-12

        # flush alignment: named-side faces end on the same plane
        plan, _ = parse_plan(normalize_raw(fixture_raw("table_valid_1")),
                             catalog)
        asm = build_assembly(plan, catalog)
        top_lo, top_hi = asm.placed["TABLETOP_1"].aabb()
        leg_lo, leg_hi = asm.placed["LEG_1"].aabb()
        assert abs(leg_hi[0] - top_hi[0]) <= 1e-12
        assert abs(leg_hi[1] - top_hi[1]) <= 1e-12

        # LEFT/RIGHT mirror symmetry on the golden chair, exact
        swap = {"LEFT": "RIGHT", "RIGHT": "LEFT"}

        def mirror(obj):
            if isinstance(obj, dict):
                return {k: (swap[v] if k in ("align_y", "to_face")
                            and v in swap else mirror(v))
                        for k, v in obj.items()}
            if isinstance(obj, list):
                return [mirror(v) for v in obj]
            return obj

        raw = fixture_raw("chair_valid_1")
        plan, _ = parse_plan(normalize_raw(raw), catalog)
        original = build_assembly(plan, catalog)
        plan, _ = parse_plan(
            normalize_raw(json.dumps(mirror(json.loads(raw)))), catalog)
        mirrored = build_assembly(plan, catalog)
        for name in original.placed:
            a = original.placed[name].position
            b = mirrored.placed[name].position
            assert a[0] == b[0] and a[1] == -b[1] and a[2] == b[2]


# -- criterion 3: collision verdicts against a Monte Carlo oracle ----------

def _random_solid(rng):
    if rng.integers(0, 2) == 0:
        return Solid.box(tuple(rng.uniform(0.04, 0.15, 3)))
    return Solid.cylinder(float(rng.uniform(0.02, 0.07)),
                          float(rng.uniform(0.05, 0.15)),
                          int(rng.integers(0, 3)))


def _inflate(solid, eps):
    if solid.kind == "box":
        return Solid.box(tuple(e + 2 * eps for e in solid.extents))
    return Solid.cylinder(solid.radius + eps, solid.length + 2 * eps,
                          solid.axis)


def _mc_overlap(ca, a, cb, b, n, rng, margin=1e-6):
    lo = np.maximum(a.aabb(ca)[0], b.aabb(cb)[0])
    hi = np.minimum(a.aabb(ca)[1], b.aabb(cb)[1])
    if np.any(hi <= lo):
        return False
    pts = rng.uniform(lo, hi, size=(n, 3))
    inside = base_contains(a, ca, pts, margin=margin)
    inside &= base_contains(b, cb, pts, margin=margin)
    return bool(inside.any())


def test_criterion_3_collision_oracle(criterion):
    with criterion(3, "200 random scenes agree with a 50k-point MC oracle "
                      "in under 30 s"):
        t0 = time.monotonic()
        rng = np.random.default_rng(99)
        scenes = 0
        disagreements = 0
        while scenes < 200:
            a = _random_solid(rng)
            b = _random_solid(rng)
            ca = rng.uniform(-0.06, 0.06, 3)
            cb = rng.uniform(-0.06, 0.06, 3)
            hit = base_overlap(ca, a, cb, b)
            # skip scenes inside the ambiguity band around touching
            if hit is not None and hit[0] <= 2e-3:
                continue
            if hit is None and base_overlap(
                    ca, _inflate(a, 1e-3), cb, _inflate(b, 1e-3)) is not None:
                continue
            scenes += 1
            oracle = _mc_overlap(ca, a, cb, b, 50000, rng)
            if (hit is not None) != oracle:
                disagreements += 1
        elapsed = time.monotonic() - t0
        assert disagreements == 0
        assert elapsed < 30.0, f"{elapsed:.1f}s"


# -- criterion 4: connectivity -------------------------------------------

def test_criterion_4_connectivity(criterion, build_fixture):
    with criterion(4, "disconnected scene partitioned correctly; "
                      "goldens connected"):
        def mk(name, x):
            spec = PartSpec(
                name=name, available_obj="CUBOID_100X100X100",
                orientation=OrientationSpec(axis_dims=(100,) * 3),
                modifications=(), connections=(), exec_function=False)
            return PlacedPart(spec=spec, solid=Solid.box((0.1, 0.1, 0.1)),
                              position=(x, 0.0, 0.05))

        asm = Assembly(placed={"A_1": mk("A_1", 0.0), "B_1": mk("B_1", 1.0)})
        components = connectivity_check(asm)
        assert components is not None
        assert sorted(sorted(c) for c in components) == [["A_1"], ["B_1"]]

        for name in ("hammer_valid_1", "table_valid_1", "chair_valid_1",
                     "skateboard_valid_1", "bookshelf_valid_1",
                     "bus_valid_1"):
            _, golden = build_fixture(name)
            assert connectivity_check(golden) is None, name


# -- criterion 5: physics ---------------------------------------------------

def test_criterion_5_physics(criterion, build_fixture):
    with criterion(5, "engine sanity, golden functional tests, and "
                      "known-bad variants, all inside 5 minutes"):
        t0 = time.monotonic()
        cfg = SimConfig()

        # (a) resting box stays put for the full duration
        world = World(cfg.timestep)
        body = RigidBody.from_parts(
            "box", [("p", Solid.box((0.2, 0.2, 0.2)),
                     np.array([0.0, 0.0, 0.1]))], 10.0)
        world.bodies.append(body)
        for _ in range(int(round(cfg.duration / cfg.timestep))):
            world.step()
        assert np.linalg.norm(np.subtract(body.x, [0.0, 0.0, 0.1])) < 1e-3

        # (b) unforced drop: total energy never grows beyond 1%
        world = World(cfg.timestep)
        body = RigidBody.from_parts(
            "box", [("p", Solid.box((0.2, 0.2, 0.2)),
                     np.array([0.0, 0.0, 0.8]))], 10.0)
        world.bodies.append(body)
        e0 = body.mass * GRAVITY * body.x[2]
        for _ in range(int(round(2.0 / cfg.timestep))):
            world.step()
            e = body.kinetic_energy() + body.mass * GRAVITY * body.x[2]
            assert e <= e0 * 1.01

        # (c) torque-driven wheel matches omega = tau * t / I within 2%
        world = World(cfg.timestep)
        wheel = RigidBody.from_parts(
            "wheel", [("p", Solid.cylinder(0.3, 0.2, axis=1),
                       np.array([0.0, 0.0, 1.0]))], 10.0)
        wheel.gravity_exempt = True
        world.bodies.append(wheel)
        tau, t_run = 2.0, 1.0
        for _ in range(int(round(t_run / cfg.timestep))):
            wheel.apply_torque(np.array([0.0, tau, 0.0]))
            world.step()
        inertia = 0.5 * wheel.mass * 0.3 ** 2
        assert wheel.vel[4] == pytest.approx(tau * t_run / inertia,
                                             rel=0.02)

        # (d) golden skateboard rolls: success, full turns, distance
        plan, asm = build_fixture("skateboard_valid_1")
        outcome = run_functional_test("rolling", asm, plan)
        assert outcome.success, outcome.to_dict()
        assert outcome.details["distance_m"] >= SimConfig().min_distance
        for name, rot in outcome.details["rotation_rad"].items():
            assert rot >= 2.0 * np.pi, (name, rot)

        # (e) golden table supports its load without moving
        plan, asm = build_fixture("table_valid_1")
        outcome = run_functional_test("support", asm, plan)
        assert outcome.success, outcome.to_dict()
        assert outcome.details["max_displacement_m"] < SUPPORT_LIMIT

        # (f) golden hammer drives the peg at least half the hole depth
        plan, asm = build_fixture("hammer_valid_1")
        outcome = run_functional_test("hit", asm, plan)
        assert outcome.success, outcome.to_dict()
        assert outcome.details["peg_descent_m"] >= HIT_DESCENT

        # (g) known-bad variants fail for the right reasons
        expectations = (
            ("skateboard_offcenter", "rolling", "INSUFFICIENT_ROTATION"),
            ("skateboard_floating", "rolling", "NEW_GROUND_CONTACT"),
            ("hammer_detached", "hit", "PART_SEPARATED"),
        )
        for name, kind, reason in expectations:
            plan, asm = build_fixture(name)
            outcome = run_functional_test(kind, asm, plan)
            assert not outcome.success, name
            assert outcome.failure_reason == reason, (
                name, outcome.failure_reason)

        assert time.monotonic() - t0 < 300.0


# -- criterion 6: metrics against a brute-force oracle ---------------------

def test_criterion_6_metrics_oracle(criterion):
    with criterion(6, "chamfer/Hausdorff equal brute force to 1e-12; "
                      "identity exact; fixed seed bit-stable at 100k"):
        from craftkit.metrics import compare_point_sets

        rng = np.random.default_rng(61)
        for _ in range(100):
            na = int(rng.integers(20, 2001))
            nb = int(rng.integers(20, 2001))
            a = rng.uniform(-1, 1, (na, 3))
            b = rng.uniform(-1, 1, (nb, 3))
            d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
            ref_chamfer = 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())
            ref_hausdorff = max(d.min(axis=1).max(), d.min(axis=0).max())
            report = compare_point_sets(a, b)
            ch, hd = report.chamfer, report.hausdorff
            assert abs(ch - ref_chamfer) <= 1e-12
            assert abs(hd - ref_hausdorff) <= 1e-12
            assert ch <= hd + 1e-15

        pts = rng.uniform(-1, 1, (500, 3))
        report = compare_point_sets(pts, pts.copy())
        assert report.chamfer == 0.0
        assert report.hausdorff == 0.0
        assert report.fscore == report.precision == report.recall == 1.0

        v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                     dtype=float)
        faces = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
        s1 = sample_mesh(v, faces, n_samples=100000, seed=123)
        s2 = sample_mesh(v, faces, n_samples=100000, seed=123)
        assert s1.dtype == s2.dtype
        assert np.array_equal(s1, s2)


# -- criterion 7: orchestration budgets and the batch runner ---------------

def test_criterion_7_orchestration(criterion, catalog, response_text,
                                   tmp_path, capsys):
    with criterion(7, "call budgets per policy hold; pipeline is "
                      "deterministic; 12-job batch CSV matches hand tallies"):
        ok = response_text("hammer_valid_1")
        bad_fmt = response_text("hammer_invalid_1")
        bad_fmt2 = response_text("hammer_invalid_2")
        detached = response_text("hammer_detached")

        # NONE: exactly one call, regardless of outcome
        client = ScriptedClient([bad_fmt, ok])
        res = run_pipeline("hammer", client, policy=POLICY_NONE,
                           catalog=catalog)
        assert res.llm_calls == 1 and res.status == "failed"

        # FRESH: identical history-free prompts, hard cap of three calls
        client = ScriptedClient([bad_fmt] * 5)
        res = run_pipeline("hammer", client, policy=POLICY_FRESH,
                           catalog=catalog)
        assert res.llm_calls == 3 and res.status == "failed"
        assert len(set(client.prompts)) == 1

        # FEEDBACK: one pre-simulation retry ...
        client = ScriptedClient([bad_fmt, bad_fmt2, ok])
        res = run_pipeline("hammer", client, policy=POLICY_FEEDBACK,
                           catalog=catalog)
        assert res.llm_calls == 2 and res.status == "failed"
        # ... plus one simulation retry, never more than three calls
        client = ScriptedClient([bad_fmt, detached, ok])
        res = run_pipeline("hammer", client, policy=POLICY_FEEDBACK,
                           catalog=catalog)
        assert res.llm_calls == 3 and res.status == "success"

        # determinism: identical scripts give identical results
        def once():
            c = ScriptedClient([detached, ok])
            return run_pipeline("hammer", c, policy=POLICY_FEEDBACK,
                                catalog=catalog)

        assert json.dumps(once().to_dict(), sort_keys=True) == \
            json.dumps(once().to_dict(), sort_keys=True)

        # batch: 12 scripted jobs, CSV tallies match hand counts
        def resp_dir(label, *names):
            d = tmp_path / label
            d.mkdir()
            for i, n in enumerate(names):
                (d / f"{i:02d}.txt").write_text(response_text(n))
            return str(d)

        jobs = []
        for i in range(4):
            jobs.append({"category": "hammer",
                         "responses": resp_dir(f"ok{i}", "hammer_valid_1")})
        for i in range(4):
            jobs.append({"category": "hammer",
                         "responses": resp_dir(
                             f"fmt{i}", "hammer_invalid_1",
                             "hammer_invalid_2")})
        for i in range(2):
            jobs.append({"category": "bookshelf",
                         "responses": resp_dir(
                             f"col{i}", "bookshelf_collision",
                             "bookshelf_collision")})
        for i in range(2):
            jobs.append({"category": "hammer",
                         "responses": resp_dir(
                             f"phys{i}", "hammer_detached",
                             "hammer_valid_1")})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(jobs))
        out_csv = tmp_path / "batch.csv"
        code = cli_main(["batch", str(manifest), "--out", str(out_csv),
                         "--jobs", "3"])
        capsys.readouterr()
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
        assert len(rows) == 12
        by_status = {}
        by_stage = {}
        for row in rows:
            by_status[row["status"]] = by_status.get(row["status"], 0) + 1
            by_stage[row["failure_stage"]] = \
                by_stage.get(row["failure_stage"], 0) + 1
            assert int(row["attempts"]) <= 3
        assert by_status == {"success": 6, "failed": 6}
        assert by_stage == {"NONE": 6, "FORMAT": 4, "COLLISION": 2}
