import ast
from pathlib import Path

import numpy as np
import pytest

import craftkit.physics
from craftkit.errors import NumericalDivergence
from craftkit.geometry import HoleRegion, Solid
from craftkit.physics import RevoluteJoint, RigidBody, SimConfig, World
from craftkit.physics.engine import GRAVITY, quat_integrate, quat_to_matrix


def make_world():
    cfg = SimConfig()
    return World(cfg.timestep), cfg


def box_body(center, extents=(0.2, 0.2, 0.2), mass=10.0, body_id="b"):
    solid = Solid.box(extents)
    return RigidBody.from_parts(body_id, [("p", solid, np.asarray(center))],
                                mass)


def _body_body_contacts(holed, peg_x):
    """Body-body contacts between a 100 x 100 x 50 mm block, with an
    r 12 mm round through-hole on z when ``holed``, and an r 10 mm peg
    standing on the hole's axis moved ``peg_x`` along x, both unjointed
    and clear of the ground."""
    block = Solid.box((0.1, 0.1, 0.05))
    if holed:
        block.holes.append(HoleRegion(
            owner="BLOCK_1", name="HOLE_1", axis=2, offset=(0.0, 0.0, 0.0),
            depth=0.05, radius=0.012))
    peg = Solid.cylinder(0.01, 0.1, axis=2)
    world, _ = make_world()
    world.bodies += [
        RigidBody.from_parts("block", [("BLOCK_1", block, (0.0, 0.0, 0.5))],
                             10.0),
        RigidBody.from_parts("peg", [("PEG_1", peg, (peg_x, 0.0, 0.5))],
                             10.0)]
    return [c for c in world.gather_contacts() if c.body_a is not None]


def test_a_peg_in_a_hole_makes_no_body_contact():
    # the engine exempts a pair whose shared material one hole holds
    assert _body_body_contacts(holed=True, peg_x=0.0) == []
    assert len(_body_body_contacts(holed=False, peg_x=0.0)) == 1
    assert len(_body_body_contacts(holed=True, peg_x=0.03)) == 1


def test_quat_identity():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(quat_to_matrix(q), np.eye(3))
    q2 = quat_integrate(q, np.array([0.0, 0.0, np.pi]), 1.0)
    r = quat_to_matrix(q2)
    assert np.isclose(abs(np.linalg.norm(q2)), 1.0)
    assert r[2][2] == pytest.approx(1.0)


def test_free_fall_matches_analytic():
    world, cfg = make_world()
    body = box_body((0.0, 0.0, 10.0))
    world.bodies.append(body)
    steps = 500
    for _ in range(steps):
        world.step()
    t = steps * cfg.timestep
    # symplectic Euler: z = z0 - g*dt*(1+2+...+n)*dt
    expected = 10.0 - GRAVITY * cfg.timestep ** 2 * steps * (steps + 1) / 2
    assert body.x[2] == pytest.approx(expected, abs=1e-9)
    assert body.vel[2] == pytest.approx(-GRAVITY * t, abs=1e-9)


def test_torque_driven_wheel_matches_analytic():
    world, cfg = make_world()
    solid = Solid.cylinder(0.3, 0.2, axis=1)
    body = RigidBody.from_parts(
        "w", [("p", solid, np.array([0.0, 0.0, 1.0]))], 10.0)  # off the ground
    body.gravity_exempt = True
    world.bodies.append(body)
    torque = 2.0
    inertia = 0.5 * body.mass * 0.3 ** 2
    t = 1.0
    for _ in range(int(round(t / cfg.timestep))):
        body.apply_torque(np.array([0.0, torque, 0.0]))
        world.step()
    expected = torque * t / inertia
    assert body.vel[4] == pytest.approx(expected, rel=0.02)


def test_resting_box_does_not_drift():
    world, cfg = make_world()
    body = box_body((0.0, 0.0, 0.1))
    world.bodies.append(body)
    for _ in range(int(round(1.0 / cfg.timestep))):
        world.step()
    assert abs(body.x[0]) < 1e-3
    assert abs(body.x[1]) < 1e-3
    assert abs(body.x[2] - 0.1) < 1e-3


def test_ground_stops_falling_box():
    world, cfg = make_world()
    body = box_body((0.0, 0.0, 0.5))
    world.bodies.append(body)
    for _ in range(int(round(2.0 / cfg.timestep))):
        world.step()
    assert body.x[2] == pytest.approx(0.1, abs=2e-3)
    assert np.linalg.norm(body.vel[:3]) < 0.05


def test_revolute_joint_holds_anchor():
    world, cfg = make_world()
    hub = box_body((0.0, 0.0, 1.0), body_id="hub")
    hub.kinematic = True
    wheel_solid = Solid.cylinder(0.3, 0.2, axis=1)
    wheel = RigidBody.from_parts(
        "wheel", [("w", wheel_solid, np.array([0.0, 0.3, 1.0]))], 10.0)
    world.bodies += [hub, wheel]
    anchor = np.array([0.0, 0.3, 1.0])
    axis = np.array([0.0, 1.0, 0.0])
    world.joints.append(RevoluteJoint(
        body_a=hub, body_b=wheel,
        anchor_local_a=anchor - hub.x, anchor_local_b=anchor - wheel.x,
        axis_local_a=axis, axis_local_b=axis))
    wheel.vel[3:] = [0.0, 4.0, 0.0]
    for _ in range(int(round(2.0 / cfg.timestep))):
        world.step()
    pa = hub.world_point(anchor - np.array([0.0, 0.0, 1.0]))
    pb = wheel.world_point((0.0, 0.0, 0.0))
    assert np.linalg.norm(np.subtract(pa, pb)) < 1e-3
    # spin axis stays aligned with the hinge
    assert abs(np.array(wheel.vel[3:]) @ np.array([1.0, 0.0, 0.0])) < 1e-3


def test_momentum_conserved_without_external_forces():
    world, cfg = make_world()
    a = box_body((0.0, 0.0, 1.0), body_id="a")
    b = box_body((0.5, 0.0, 1.0), body_id="b")
    a.gravity_exempt = True
    b.gravity_exempt = True
    a.vel[0] = 1.0
    world.bodies += [a, b]

    def momentum():
        return a.mass * np.array(a.vel[:3]) + b.mass * np.array(b.vel[:3])

    p0 = momentum()
    for _ in range(int(round(1.0 / cfg.timestep))):
        world.step()
    p1 = momentum()
    assert np.allclose(p0, p1, atol=1e-8)
    # the collision actually happened
    assert np.linalg.norm(b.vel[:3]) > 0.1


def test_unforced_energy_non_increasing():
    world, cfg = make_world()
    body = box_body((0.0, 0.0, 0.6))
    world.bodies.append(body)
    e0 = body.kinetic_energy() + body.mass * GRAVITY * body.x[2]
    for _ in range(int(round(2.0 / cfg.timestep))):
        world.step()
        e = body.kinetic_energy() + body.mass * GRAVITY * body.x[2]
        assert e <= e0 * (1.0 + 0.01)


def test_numerical_divergence_raises():
    world, _ = make_world()
    body = box_body((0.0, 0.0, 1.0))
    body.vel[0] = 2e3
    world.bodies.append(body)
    with pytest.raises(NumericalDivergence):
        world.step()


def test_nan_velocity_raises():
    world, _ = make_world()
    body = box_body((0.0, 0.0, 1.0))
    body.vel[0] = float("nan")
    world.bodies.append(body)
    with pytest.raises(NumericalDivergence):
        world.step()


def test_runaway_spin_raises():
    world, _ = make_world()
    body = box_body((0.0, 0.0, 1.0))
    body.vel[5] = 1e5
    world.bodies.append(body)
    with pytest.raises(NumericalDivergence):
        world.step()


def test_part_min_z_rotated_box():
    """A box 45 degrees about x: its lowest point, and world_vector and
    world_point against numpy's R v and x + R p.  R is written out, is not
    its own transpose, and the centre is off the origin, so a world_vector
    that adds x, or either method applying R^T, fails."""
    body = box_body((0.0, 0.0, 1.0))
    # 45 degrees about x: the support corner is half the face diagonal down
    half = np.pi / 8.0
    body.q = (np.cos(half), np.sin(half), 0.0, 0.0)
    body.refresh_pose_cache()
    expected = 1.0 - 0.1 * np.sqrt(2.0)
    assert body.part_min_z(body.parts[0]) == pytest.approx(expected, abs=1e-9)
    c = np.sqrt(0.5)
    rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -c], [0.0, c, c]])
    v = np.array([0.4, -0.7, 0.25])
    assert body.world_vector(v) == pytest.approx(rot @ v, abs=1e-12)
    assert body.world_point(v) == pytest.approx(
        np.array(body.x) + rot @ v, abs=1e-12)


def test_the_physics_package_imports_no_numpy():
    """Plain float arithmetic rounds the same on every BLAS kernel; numpy's
    linear algebra need not.  Placement, whose positions the engine starts
    from, the geometry it reads and the collision test that both the
    collision stage and the engine's body-body contacts call are plain
    floats as well, and so are the part meshes that metrics samples."""
    package = Path(craftkit.physics.__file__).parent
    others = [package.parent / f"{name}.py"
              for name in ("assembler", "geometry", "collision", "meshing")]
    for path in [*sorted(package.rglob("*.py")), *others]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert all(m.split(".")[0] != "numpy" for m in modules), path


def test_body_inertia_inverse_and_kinetic_energy():
    """Three parts off the centre give a full inertia; its cofactor inverse
    is an inverse, and the kinetic energy of a rotated, spinning body is
    1/2 m v.v + 1/2 w . (R I R^T) w."""
    body = RigidBody.from_parts("b", [
        ("p", Solid.box((0.2, 0.4, 0.3)), (0.0, 0.0, 1.0)),
        ("q", Solid.cylinder(0.1, 0.5, 1), (0.3, 0.1, 1.2)),
        ("r", Solid.box((0.1, 0.1, 0.6)), (-0.2, 0.25, 0.9))], 10.0)
    inertia = np.array(body.inertia_body)
    assert np.count_nonzero(inertia) == 9
    assert np.allclose(inertia @ np.array(body.inv_inertia_body), np.eye(3),
                       rtol=0.0, atol=1e-12)
    body.q = tuple(np.array([0.9, 0.1, -0.3, 0.2]) / np.linalg.norm(
        [0.9, 0.1, -0.3, 0.2]))
    body.refresh_pose_cache()
    body.vel = [0.3, -0.1, 0.2, 1.5, -0.7, 2.0]
    r = np.array(body.rot)
    v, w = np.array(body.vel[:3]), np.array(body.vel[3:])
    expected = 0.5 * body.mass * v @ v + 0.5 * w @ (r @ inertia @ r.T) @ w
    assert body.kinetic_energy() == pytest.approx(expected, rel=1e-12)
