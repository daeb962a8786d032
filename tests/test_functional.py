import math
from dataclasses import fields

import numpy as np
import pytest

from craftkit.assembler import connected_groups, connectivity_check
from craftkit.geometry import Solid
from craftkit.physics import (
    RigidBody,
    SimConfig,
    World,
    compile_craft,
    engine,
    run_functional_test,
)
from craftkit.physics.engine import quat_to_matrix
from craftkit.physics.functional import (
    HIT_DESCENT,
    HIT_HOLE_RADIUS,
    NEW_GROUND_CONTACT,
    PART_SEPARATED,
    PEG_MISSED,
    ConnectionWatch,
)

import pins
from conftest import all_fixture_names


def test_sim_config_fields_are_pinned():
    """The run, nothing else: the snapshot spacing and the rolling goal are
    class constants, the other loads and thresholds are ``functional``
    constants and the solver's settings are engine constants, so a new
    knob shows up here."""
    assert [f.name for f in fields(SimConfig)] == ["timestep", "duration"]
    config = SimConfig()
    assert (config.trace_every, config.min_rotation, config.min_distance) \
        == (25, 2.0 * math.pi, 0.1)


def test_compile_craft_skateboard_structure(build_fixture):
    _, asm = build_fixture("skateboard_valid_1")
    cfg = SimConfig()
    craft = compile_craft(asm, cfg.timestep)
    # deck + supports + axles fuse into one body, each wheel spins freely
    assert len(craft.world.bodies) == 5
    deck_body, _ = craft.parts["DECK_1"]
    assert craft.parts["SUPPORT_1"][0] is deck_body
    assert craft.parts["AXLE_1"][0] is deck_body
    for w in ("WHEEL_1", "WHEEL_2", "WHEEL_3", "WHEEL_4"):
        assert craft.parts[w][0] is not deck_body
        joint = craft.joints_by_part[w]
        axis = np.array(joint.body_a.rot) @ joint.axis_local_a
        assert np.allclose(np.abs(axis), [0.0, 1.0, 0.0])
    # craft is shifted so the wheels touch z=0
    assert min(b.part_min_z(p) for b in craft.world.bodies
               for p in b.parts) == pytest.approx(0.0, abs=1e-9)
    lifted = [name for name, _, _ in craft.lifted]
    assert set(craft.parts) - set(lifted) == {
        "WHEEL_1", "WHEEL_2", "WHEEL_3", "WHEEL_4"}
    assert lifted == [name for name in craft.parts if name in lifted]


def test_a_compiled_craft_falls_at_earth_gravity_in_plan_metres(
        build_fixture):
    """The craft keeps the plan's solids and positions, only lifted onto
    the ground, so a lifted craft falls 9.81 m/s^2 of the plan's metres:
    symplectic Euler's g dt^2 n (n + 1) / 2 after n steps."""
    _, asm = build_fixture("hammer_valid_1")
    config = SimConfig()
    craft = compile_craft(asm, config.timestep)
    lift = -asm.min_z()
    for name, placed in asm.placed.items():
        body, shape = craft.parts[name]
        assert shape.solid.extents == placed.solid.extents
        x, y, z = placed.position
        assert body.world_point(shape.local_center) == \
            pytest.approx((x, y, z + lift), abs=1e-12)
    (body,) = craft.world.bodies
    x, y, z = body.x
    z0 = z + 1.0
    body.x = (x, y, z0)
    n, dt = 100, config.timestep
    for _ in range(n):
        assert craft.world.step() == []
    assert z0 - body.x[2] == pytest.approx(
        9.81 * dt * dt * n * (n + 1) / 2.0, rel=1e-9)
    assert body.vel[2] == pytest.approx(-9.81 * n * dt, rel=1e-9)


def test_compile_craft_hammer_single_body(build_fixture):
    _, asm = build_fixture("hammer_valid_1")
    craft = compile_craft(asm, SimConfig().timestep)
    assert len(craft.world.bodies) == 1
    body = craft.world.bodies[0]
    assert body.mass == pytest.approx(20.0)
    # fixed cluster still watched for separation? no: same body, no watch
    assert craft.watches == []


def test_hammer_hit_succeeds(category_outcome):
    outcome = category_outcome("hammer_valid_1")
    assert outcome.test == "hit"
    assert outcome.success
    assert outcome.failure_reason is None
    assert outcome.details["peg_descent_m"] >= HIT_DESCENT
    assert outcome.details["peg_lateral_m"] <= HIT_HOLE_RADIUS
    d = outcome.to_dict()
    assert d["success"] is True


def test_detached_head_separates(category_outcome):
    outcome = category_outcome("hammer_detached")
    assert outcome.test == "hit"
    assert not outcome.success
    assert outcome.failure_reason == PART_SEPARATED
    assert outcome.time < 1.0


def test_floating_wheels_touch_ground(category_outcome):
    # the run ends when a wheel touches the ground, before 1 s, so the
    # default run's outcome is the one a 1 s run gives
    outcome = category_outcome("skateboard_floating")
    assert outcome.test == "rolling"
    assert outcome.time < 1.0
    assert not outcome.success
    assert outcome.failure_reason == NEW_GROUND_CONTACT
    assert outcome.details["part"].startswith("WHEEL")


def test_unknown_test_kind(build_fixture):
    plan, asm = build_fixture("hammer_valid_1")
    with pytest.raises(ValueError):
        run_functional_test("juggling", asm, plan)


def test_a_config_with_no_step_or_no_snapshot_spacing_is_rejected(
        build_fixture):
    plan, asm = build_fixture("table_valid_1")
    # the CLI's rule: a run is finite and at least one timestep long
    for config in (SimConfig(duration=0.0009), SimConfig(duration=0.0011),
                   SimConfig(duration=0.0019), SimConfig(duration=0.0),
                   SimConfig(duration=math.nan), SimConfig(duration=math.inf),
                   SimConfig(timestep=math.inf, duration=math.inf),
                   SimConfig(timestep=0.0), SimConfig(timestep=-0.002)):
        with pytest.raises(ValueError):
            run_functional_test("support", asm, plan, config)
    # one step runs, and its end is the outcome's time
    outcome = run_functional_test("support", asm, plan,
                                  SimConfig(duration=0.002))
    assert outcome.time == SimConfig().timestep


def test_hit_stops_at_duration_without_drive(build_fixture):
    # the drive descends 0.05 m/s; with a tiny budget the peg is never
    # reached
    plan, asm = build_fixture("hammer_valid_1")
    outcome = run_functional_test("hit", asm, plan, SimConfig(duration=0.05))
    assert not outcome.success
    assert outcome.failure_reason == PEG_MISSED


def test_trajectory_tracing(category_outcome):
    outcome = category_outcome("hammer_valid_1")
    assert outcome.test == "hit"
    assert outcome.trajectory
    t0 = outcome.trajectory[0]
    assert "t" in t0 and "parts" in t0
    assert set(t0["parts"]) == {"HANDLE_1", "HEAD_1"}


@pytest.mark.parametrize("kind,name", pins.SHORT_RUNS)
def test_short_run_outcomes_are_pinned(kind, name):
    pins.assert_holds(f"short_run.{kind}.{name}")


# FIXED clusters per golden category, one body each, in body id order
GOLDEN_BODIES = {
    "bookshelf": [["SIDE_PANEL_1", "SHELF_1", "SHELF_2", "SHELF_3",
                   "SIDE_PANEL_2"]],
    "bus": [["BODY_1", "AXLE_1", "AXLE_2"], ["WHEEL_1"], ["WHEEL_2"],
            ["WHEEL_3"], ["WHEEL_4"]],
    "chair": [["SEAT_1", "LEG_1", "LEG_2", "LEG_3", "LEG_4", "BACKREST_1"]],
    "hammer": [["HANDLE_1", "HEAD_1"]],
    "skateboard": [["DECK_1", "SUPPORT_1", "SUPPORT_2", "AXLE_1", "AXLE_2"],
                   ["WHEEL_1"], ["WHEEL_2"], ["WHEEL_3"], ["WHEEL_4"]],
    "table": [["TABLETOP_1", "LEG_1", "LEG_2", "LEG_3", "LEG_4"]],
}


def test_golden_clusters_and_body_ids(build_fixture):
    for category, want in GOLDEN_BODIES.items():
        for i in (1, 2, 3):
            _, asm = build_fixture(f"{category}_valid_{i}")
            bodies = compile_craft(asm, SimConfig().timestep).world.bodies
            assert [b.id for b in bodies] == \
                [f"body{k}" for k in range(len(want))]
            assert [[p.name for p in b.parts] for b in bodies] == want
            assert connectivity_check(asm) is None


def test_connected_groups_follow_name_order():
    groups = connected_groups(["a", "b", "c", "d", "e"],
                              [("d", "b"), ("e", "a")])
    assert groups == [["a", "e"], ["b", "d"], ["c"]]


def test_rotation_is_computed_once_per_moving_body_and_step(
        build_fixture, monkeypatch):
    plan, asm = build_fixture("skateboard_valid_2")
    config = SimConfig(duration=1.0)
    n_bodies = len(compile_craft(asm, config.timestep).world.bodies)
    calls = []
    original = engine.quat_to_matrix

    def counting(q):
        calls.append(1)
        return original(q)

    monkeypatch.setattr(engine, "quat_to_matrix", counting)
    outcome = run_functional_test("rolling", asm, plan, config)
    steps = round(outcome.time / config.timestep)
    assert steps == 500
    # one per body at the compile pose, then one per body and step
    assert len(calls) <= n_bodies * (steps + 1)


def test_no_step_builds_a_numpy_array(build_fixture, monkeypatch):
    """Body state stays plain floats through a step: no step calls
    np.array, np.asarray or np.zeros, the body-body overlap test
    ``collision.pair_overlap`` included.  The hit run's head meets the
    peg, so its steps choose contact normals with ``_separation_axis``
    too."""
    original_step, original_overlap = World.step, engine.pair_overlap
    original_axis = World._separation_axis
    stepping = []

    def counted(name):
        original = getattr(np, name)

        def build(*args, **kwargs):
            if stepping:
                arrays.append(name)
            return original(*args, **kwargs)
        return build

    def step(world):
        stepping.append(1)
        try:
            return original_step(world)
        finally:
            stepping.pop()

    def overlap(*args, **kwargs):
        overlaps.append(1)
        return original_overlap(*args, **kwargs)

    def separation_axis(*args):
        axes.append(1)
        return original_axis(*args)

    for name in ("array", "asarray", "zeros"):
        monkeypatch.setattr(np, name, counted(name))
    monkeypatch.setattr(World, "step", step)
    monkeypatch.setattr(engine, "pair_overlap", overlap)
    monkeypatch.setattr(World, "_separation_axis",
                        staticmethod(separation_axis))
    # the table is one body; the skateboard's wheels, hinged to the deck,
    # are tested against each other; the hammer's head hits the peg
    for name, tested in (("table_valid_1", False),
                         ("skateboard_valid_2", True),
                         ("hammer_valid_1", True)):
        arrays, overlaps, axes = [], [], []
        plan, asm = build_fixture(name)
        if name.startswith("hammer"):
            assert run_functional_test("hit", asm, plan).success
            assert axes
        else:
            world = compile_craft(asm, SimConfig().timestep).world
            for _ in range(5):
                assert world.step()
        assert bool(overlaps) is tested
        assert arrays == []


def test_lifted_lying_cylinders_are_rejected_before_any_rim_point(
        build_fixture, monkeypatch):
    _, asm = build_fixture("skateboard_valid_2")

    def lifted_world(dz):
        world = compile_craft(asm, SimConfig().timestep).world
        for body in world.bodies:
            x, y, z = body.x
            body.x = (x, y, z + dz)
        return world

    # the engine's square roots: a lying cylinder takes one for its lowest
    # point, and one more only once its rim points are built
    roots = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def sqrt(self, x):
            roots.append(x)
            return math.sqrt(x)

    world = lifted_world(1.0)
    lying = [p for b in world.bodies for p in b.parts
             if p.half is None and abs(b.rot[2][p.solid.axis]) <= 0.99]
    assert len(lying) == 6  # two axles and four wheels
    monkeypatch.setattr(engine, "math", CountingMath())
    assert world.gather_contacts() == []
    assert len(roots) == len(lying)
    monkeypatch.setattr(engine, "math", math)
    # the reject bound is the lowest rim point: the four wheels, resting
    # on z = 0, keep their two lowest rim points each just under the margin
    low = lifted_world(0.5 * engine.CONTACT_GEN_MARGIN).gather_contacts()
    assert sorted({c.body_b.parts[0].name for c in low}) == \
        ["WHEEL_1", "WHEEL_2", "WHEEL_3", "WHEEL_4"]
    assert len(low) == 8
    assert lifted_world(1.5 * engine.CONTACT_GEN_MARGIN).gather_contacts() \
        == []


def test_drift_is_measured_at_the_pose_after_the_step():
    # weightless boxes well clear of the ground
    world = World(SimConfig().timestep)
    a = RigidBody.from_parts(
        "a", [("A", Solid.box((1.0, 1.0, 1.0)), np.array([0.0, 0.0, 2.0]))],
        1.0)
    b = RigidBody.from_parts(
        "b", [("B", Solid.box((1.0, 1.0, 1.0)), np.array([3.0, 0.0, 2.0]))],
        1.0)
    a.gravity_exempt = b.gravity_exempt = True
    a.vel[5] = 20.0
    b.vel[3] = 15.0
    world.bodies += [a, b]
    local_a, local_b = np.array([1.5, 0.0, 0.0]), np.array([-1.5, 0.2, 0.0])
    watches = [ConnectionWatch(kind, "A", "B", a, b, tuple(local_a.tolist()),
                               tuple(local_b.tolist()), normal)
               for kind, normal in (("INSERTED", None),
                                    ("SURFACE", (1.0, 0.0, 0.0)))]
    world.step()

    ra, rb = np.array(quat_to_matrix(a.q)), np.array(quat_to_matrix(b.q))
    gap = (b.x + rb @ local_b) - (a.x + ra @ local_a)
    stale = (b.x + local_b) - (a.x + local_a)  # the pre-step (identity) pose
    assert abs(np.linalg.norm(gap) - np.linalg.norm(stale)) > 1e-3
    assert watches[0].drift() == pytest.approx(np.linalg.norm(gap),
                                               rel=1e-12)
    assert watches[1].drift() == pytest.approx(
        abs(gap @ (ra @ np.array([1.0, 0.0, 0.0]))), rel=1e-12)


# ROADMAP item 1: the buses' SURFACE + NON_FIXED wheels compile to free
# bodies, and an axle touches the ground within 0.1 s: AXLE_2 at 0.070 s
# and 0.054 s on buses 1 and 2, AXLE_1 at 0.064 s on bus 3.
_BUS_WHEELS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="bus wheels are free bodies: NEW_GROUND_CONTACT on an axle "
           "(AXLE_2 on buses 1 and 2, AXLE_1 on bus 3) within 0.1 s")


@pytest.mark.parametrize("name", [
    pytest.param(n, marks=_BUS_WHEELS) if n.startswith("bus_") else n
    for n in all_fixture_names() if "_valid_" in n])
def test_every_golden_passes_its_category_test(category_outcome, name):
    outcome = category_outcome(name)
    assert outcome.success, (outcome.failure_reason, outcome.details)
