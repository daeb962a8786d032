"""The float solver rows against the numpy row arithmetic they replaced.

``_RefContactRow`` and ``_RefJointRow`` below keep the earlier numpy
implementation of one contact and one revolute-joint row: 3-vector numpy
operations on the bodies' own ``v``/``w``/``pv``/``pw`` arrays.  Seeded
random worlds are solved once with them and once with ``World._solve`` from
identical copies; velocities and accumulated impulses must agree.  The float
rows reorder a few sums (``w . (r x d)`` for ``(w x r) . d``), so results
agree to rounding, not bit for bit.  The ground row, in turn, must match
the generic float contact row exactly.
"""

import copy

import numpy as np
import pytest

from craftkit.geometry import Solid
from craftkit.physics import (
    Contact,
    RevoluteJoint,
    RigidBody,
    SimConfig,
    World,
    engine,
)

# relative to the largest magnitude of the compared set; set beforehand
# from float64 rounding (~1e-16) grown over 10 + 4 sweeps of a few rows
RTOL = 1e-12


def _cross(a, b):
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def _skew(v):
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])


class _RefJointRow:
    def __init__(self, joint, beta, dt):
        a, b = joint.body_a, joint.body_b
        self.a, self.b = a, b
        self.ra = a._rot @ joint.anchor_local_a
        self.rb = b._rot @ joint.anchor_local_b
        pa = a.x + self.ra
        pb = b.x + self.rb
        self.iinv_a = a._iinv
        self.iinv_b = b._iinv
        inv_ma = a.inv_mass if a._dynamic else 0.0
        inv_mb = b.inv_mass if b._dynamic else 0.0
        sa = _skew(self.ra)
        sb = _skew(self.rb)
        k = (inv_ma + inv_mb) * np.eye(3) \
            - sa @ self.iinv_a @ sa - sb @ self.iinv_b @ sb
        self.kinv = np.linalg.inv(k)
        self.bias = (beta / dt) * (pb - pa)

        axis_a = a._rot @ joint.axis_local_a
        axis_b = b._rot @ joint.axis_local_b
        u1 = np.array([1.0, 0.0, 0.0])
        if abs(axis_a @ u1) > 0.9:
            u1 = np.array([0.0, 1.0, 0.0])
        u1 = u1 - (u1 @ axis_a) * axis_a
        u1 /= np.linalg.norm(u1)
        u2 = _cross(axis_a, u1)
        rows = np.stack([u1, u2])
        self.rows = rows
        self.kmat_inv = np.linalg.inv(
            rows @ (self.iinv_a + self.iinv_b) @ rows.T)
        self.ang_bias = (beta / dt) * (rows @ _cross(axis_a, axis_b))
        self.rows_iinv_a = self.iinv_a @ rows.T
        self.rows_iinv_b = self.iinv_b @ rows.T

    def solve(self):
        a, b = self.a, self.b
        vrel = b.v + _cross(b.w, self.rb) - a.v - _cross(a.w, self.ra)
        impulse = self.kinv @ (-(vrel + self.bias))
        if a._dynamic:
            a.v = a.v - impulse * a.inv_mass
            a.w = a.w - self.iinv_a @ _cross(self.ra, impulse)
        if b._dynamic:
            b.v = b.v + impulse * b.inv_mass
            b.w = b.w + self.iinv_b @ _cross(self.rb, impulse)
        w_rel = b.w - a.w
        lam = self.kmat_inv @ (-(self.rows @ w_rel + self.ang_bias))
        if a._dynamic:
            a.w = a.w - self.rows_iinv_a @ lam
        if b._dynamic:
            b.w = b.w + self.rows_iinv_b @ lam


class _RefContactRow:
    def __init__(self, contact):
        self.c = contact
        self.jn, self.jt, self.pn = 0.0, np.zeros(2), 0.0
        a, b = contact.body_a, contact.body_b
        self.a, self.b = a, b
        n = contact.normal
        self.n = n
        t1 = np.array([1.0, 0.0, 0.0])
        if abs(n @ t1) > 0.9:
            t1 = np.array([0.0, 1.0, 0.0])
        t1 = t1 - (t1 @ n) * n
        t1 /= np.linalg.norm(t1)
        self.t1 = t1
        self.t2 = _cross(n, t1)
        self.ra = None if a is None else contact.point - a.x
        self.rb = contact.point - b.x
        self.iinv_a = None if a is None else a._iinv
        self.iinv_b = b._iinv
        self.kn = self._k(n)
        self.kt1 = self._k(t1)
        self.kt2 = self._k(self.t2)

    def _k(self, d):
        k = 0.0
        a, b = self.a, self.b
        if a is not None and a._dynamic:
            rn = _cross(self.ra, d)
            k += a.inv_mass + rn @ self.iinv_a @ rn
        if b._dynamic:
            rn = _cross(self.rb, d)
            k += b.inv_mass + rn @ self.iinv_b @ rn
        return k

    def _vrel(self, lin, ang):
        a, b = self.a, self.b
        v = getattr(b, lin) + _cross(getattr(b, ang), self.rb)
        if a is not None:
            v = v - getattr(a, lin) - _cross(getattr(a, ang), self.ra)
        return v

    def _apply(self, impulse, lin, ang):
        a, b = self.a, self.b
        if a is not None and a._dynamic:
            setattr(a, lin, getattr(a, lin) - impulse * a.inv_mass)
            setattr(a, ang, getattr(a, ang)
                    - self.iinv_a @ _cross(self.ra, impulse))
        if b._dynamic:
            setattr(b, lin, getattr(b, lin) + impulse * b.inv_mass)
            setattr(b, ang, getattr(b, ang)
                    + self.iinv_b @ _cross(self.rb, impulse))

    def solve_velocity(self):
        c = self.c
        if self.kn <= 0.0:
            return
        vn = self._vrel("v", "w") @ self.n
        dj = -vn / self.kn
        new_jn = max(self.jn + dj, 0.0)
        dj = new_jn - self.jn
        self.jn = new_jn
        if dj != 0.0:
            self._apply(dj * self.n, "v", "w")
        if c.friction <= 0.0 or self.jn <= 0.0:
            return
        max_f = c.friction * self.jn
        for idx, (t, kt) in enumerate(((self.t1, self.kt1),
                                       (self.t2, self.kt2))):
            if kt <= 0.0:
                continue
            vt = self._vrel("v", "w") @ t
            dj = -vt / kt
            new_jt = min(max(self.jt[idx] + dj, -max_f), max_f)
            dj = new_jt - self.jt[idx]
            self.jt[idx] = new_jt
            if dj != 0.0:
                self._apply(dj * t, "v", "w")

    def solve_position(self, beta, slop, dt):
        pen = self.c.depth - slop
        if pen <= 0.0 or self.kn <= 0.0:
            return
        vn = self._vrel("pv", "pw") @ self.n
        dj = (beta * pen / dt - vn) / self.kn
        new_pn = max(self.pn + dj, 0.0)
        dj = new_pn - self.pn
        self.pn = new_pn
        if dj != 0.0:
            self._apply(dj * self.n, "pv", "pw")


def _reference_solve(world, contacts, dt):
    cfg = world.config
    joint_rows = [_RefJointRow(j, cfg.baumgarte, dt) for j in world.joints]
    contact_rows = [_RefContactRow(c) for c in contacts]
    for _ in range(cfg.solver_iterations):
        for row in joint_rows:
            row.solve()
        for row in contact_rows:
            row.solve_velocity()
    for _ in range(cfg.position_iterations):
        for row in contact_rows:
            row.solve_position(cfg.baumgarte, cfg.slop, dt)
    return contact_rows


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_body(rng, body_id, center):
    if rng.random() < 0.5:
        solid = Solid.box(tuple(rng.uniform(0.1, 0.6, size=3)))
    else:
        solid = Solid.cylinder(rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.5),
                               int(rng.integers(3)))
    body = RigidBody.from_parts(body_id, [("p", solid, center)],
                                float(rng.uniform(1.0, 20.0)))
    body.q = np.concatenate([[1.0], rng.normal(scale=0.3, size=3)])
    body.q /= np.linalg.norm(body.q)
    body.v = rng.normal(size=3)
    body.w = rng.normal(size=3)
    return body


def _random_contact(rng, a, b):
    point = b.x + rng.normal(scale=0.2, size=3)
    # normals face a into b, so most rows start out approaching
    return Contact(a, b, point, _unit(rng), float(rng.uniform(0.0, 2e-3)),
                   float(rng.choice([0.0, 0.5, 1.0])))


def _random_world(seed):
    """Static, dynamic-dynamic and kinematic contacts plus a revolute joint."""
    rng = np.random.default_rng(seed)
    world = World(SimConfig())
    bodies = [_random_body(rng, f"b{i}", rng.uniform(-1.0, 1.0, size=3))
              for i in range(4)]
    bodies[3].kinematic = True
    world.bodies += bodies
    anchor = (bodies[0].x + bodies[1].x) / 2.0
    axis = _unit(rng)
    world.joints.append(RevoluteJoint(
        body_a=bodies[0], body_b=bodies[1],
        anchor_local_a=anchor - bodies[0].x,
        anchor_local_b=anchor - bodies[1].x,
        axis_local_a=axis, axis_local_b=axis + rng.normal(scale=0.05,
                                                          size=3)))
    for body in world.bodies:
        body.refresh_pose_cache()
    pairs = [(None, bodies[0]), (None, bodies[2]), (None, bodies[2]),
             (bodies[0], bodies[2]), (bodies[1], bodies[2]),
             (bodies[3], bodies[1]), (bodies[2], bodies[3])]
    contacts = [_random_contact(rng, a, b) for a, b in pairs]
    return world, contacts


def _state(world):
    return np.array([np.concatenate([b.v, b.w, b.pv, b.pw])
                     for b in world.bodies])


def _assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = np.max(np.abs(expected))
    assert scale > 0.0
    assert np.max(np.abs(actual - expected)) <= RTOL * scale


@pytest.mark.parametrize("seed", range(8))
def test_float_rows_match_numpy_rows(seed):
    world, contacts = _random_world(seed)
    ref_world, ref_contacts = copy.deepcopy((world, contacts))
    dt = world.config.timestep

    rows = world._solve(contacts, dt)
    ref_rows = _reference_solve(ref_world, ref_contacts, dt)

    _assert_close(_state(world), _state(ref_world))
    _assert_close([[r.jn, r.jt1, r.jt2, r.pn] for r in rows],
                  [[r.jn, r.jt[0], r.jt[1], r.pn] for r in ref_rows])
    # the rows did work: impulses flowed and the solve moved velocities
    assert any(r.jn > 0.0 for r in rows)
    assert any(r.pn > 0.0 for r in rows)
    assert any(r.jt1 != 0.0 for r in rows)
    kin = world.bodies[3]
    assert np.array_equal(kin.v, ref_world.bodies[3].v)


def test_ground_contacts_match_numpy_rows():
    """A resting and a sliding box on the generated ground contacts."""
    world = World(SimConfig())
    for i, v in enumerate(([0.0, 0.0, -0.5], [1.0, 0.3, -0.2])):
        body = RigidBody.from_parts(
            f"box{i}", [("p", Solid.box((0.2, 0.3, 0.2)),
                         np.array([2.0 * i, 0.0, 0.099]))], 10.0)
        body.v = np.array(v)
        body.w = np.array([0.1, -0.2, 0.3])
        world.bodies.append(body)
    for body in world.bodies:
        body.refresh_pose_cache()
    contacts = world.gather_contacts()
    assert len(contacts) == 8
    ref_world = copy.deepcopy(world)
    rows = world._solve(contacts, world.config.timestep)
    assert all(isinstance(r, engine._GroundRow) for r in rows)
    ref_rows = _reference_solve(
        ref_world, ref_world.gather_contacts(), world.config.timestep)
    _assert_close(_state(world), _state(ref_world))
    _assert_close([[r.jn, r.jt1, r.jt2, r.pn] for r in rows],
                  [[r.jn, r.jt[0], r.jt[1], r.pn] for r in ref_rows])


def _ground_world(seed):
    """Ground contacts (normal +z) on rotated dynamic bodies and a kinematic
    one, at random points and depths, with friction 0, 0.5 and 1."""
    rng = np.random.default_rng(seed)
    world = World(SimConfig())
    bodies = [_random_body(rng, f"b{i}", rng.uniform(-1.0, 1.0, size=3))
              for i in range(4)]
    bodies[3].kinematic = True
    world.bodies += bodies
    for body in bodies:
        body.refresh_pose_cache()
        # moving down, so most rows start out approaching
        body.v[2] = -abs(body.v[2])
    contacts = [
        Contact(None, body, body.x + rng.normal(scale=0.2, size=3),
                engine._UP, float(rng.uniform(0.0, 2e-3)), friction)
        for body in bodies for friction in (0.0, 0.5, 1.0)]
    # a fresh +z array, as the hit test's peg hook builds its floor normal
    contacts.append(Contact(None, bodies[0],
                            bodies[0].x + rng.normal(scale=0.2, size=3),
                            np.array([0.0, 0.0, 1.0]), 1e-3, 0.5))
    return world, contacts


@pytest.mark.parametrize("seed", range(8))
def test_ground_rows_match_generic_rows_bit_for_bit(seed, monkeypatch):
    world, contacts = _ground_world(seed)
    ref_world, ref_contacts = copy.deepcopy((world, contacts))
    dt = world.config.timestep

    rows = world._solve(contacts, dt)
    assert all(isinstance(r, engine._GroundRow) for r in rows)
    monkeypatch.setattr(engine, "_contact_row", engine._ContactRow)
    ref_rows = ref_world._solve(ref_contacts, dt)
    assert all(isinstance(r, engine._ContactRow) for r in ref_rows)

    assert np.array_equal(_state(world), _state(ref_world))
    impulses = [[r.jn, r.jt1, r.jt2, r.pn] for r in rows]
    assert impulses == [[r.jn, r.jt1, r.jt2, r.pn] for r in ref_rows]
    # every update ran: normal, both friction directions, split impulse
    assert any(r.jn > 0.0 for r in rows)
    assert any(r.pn > 0.0 for r in rows)
    assert any(r.jt1 != 0.0 and r.jt2 != 0.0 for r in rows)
    # the kinematic body's rows are skipped and leave it as it was
    assert all(r.jn == 0.0 and r.pn == 0.0 for r in rows[9:12])
