"""The float engine against the numpy arithmetic it replaced.

``_RefContactRow`` and ``_RefJointRow`` below keep the earlier numpy
implementation of one contact and one revolute-joint row: 3-vector numpy
operations on ``_RefBody``, a numpy copy of each body's state with its own
``v``/``w``/``pv``/``pw`` arrays.  Seeded random worlds are solved once with
them and once with ``World._solve`` from identical copies; velocities and
accumulated impulses must agree.  The float rows reorder a few sums
(``w . (r x d)`` for ``(w x r) . d``), so results agree to rounding, not
bit for bit.  The ground row, in turn, must match
the generic float contact row exactly, and the closed-form joint row must
match ``_GenericJointRow``, the generic float joint build it replaced,
exactly.

``_reference_step`` keeps the earlier numpy ``World.step`` around the
solve (inertia refresh, force and torque integration, contact generation,
position and quaternion integration), and whole steps of seeded worlds
must agree with ``World.step`` to rounding.  The reference keeps its own
warm start: each contact row starts from the (jn, jt1, jt2) its key ended
the last step with, each joint from its anchor impulse and its angular
impulse as a world vector, and the second step of a world is compared
after it was warm-started.
"""

import copy
import math

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
# from float64 rounding (~1e-16) grown over the velocity and position
# sweeps of a few rows in up to two steps
RTOL = 1e-12
# engine.FRICTION in the row tests: none, the engine's, and full
FRICTIONS = (0.0, 0.5, 1.0)


def _cross(a, b):
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def _skew(v):
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])


class _RefBody:
    """A numpy copy of one body's state, which the reference arithmetic
    reads and updates in place of the body's floats."""

    def __init__(self, body):
        self.body = body
        self.x = np.array(body.x)
        self.q = np.array(body.q)
        self.rot = np.array(body.rot)
        self.v = np.array(body.vel[:3])
        self.w = np.array(body.vel[3:])
        self.force = np.array(body.force)
        self.torque = np.array(body.torque)
        self.iinv = np.array(body.iinv)
        self.dynamic = body.dynamic
        self.inv_mass = body.inv_mass


def _ref_bodies(world):
    """body -> _RefBody for every body of ``world``, in body order."""
    return {body: _RefBody(body) for body in world.bodies}


class _RefJointRow:
    def __init__(self, joint, refs, beta, dt, impulse=None):
        a, b = refs[joint.body_a], refs[joint.body_b]
        self.a, self.b = a, b
        self.ra = a.rot @ np.array(joint.anchor_local_a)
        self.rb = b.rot @ np.array(joint.anchor_local_b)
        pa = a.x + self.ra
        pb = b.x + self.rb
        self.iinv_a = a.iinv
        self.iinv_b = b.iinv
        inv_ma = a.inv_mass if a.dynamic else 0.0
        inv_mb = b.inv_mass if b.dynamic else 0.0
        sa = _skew(self.ra)
        sb = _skew(self.rb)
        k = (inv_ma + inv_mb) * np.eye(3) \
            - sa @ self.iinv_a @ sa - sb @ self.iinv_b @ sb
        self.kinv = np.linalg.inv(k)
        self.bias = (beta / dt) * (pb - pa)

        axis_a = a.rot @ np.array(joint.axis_local_a)
        axis_b = b.rot @ np.array(joint.axis_local_b)
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
        self.p_total, self.lam_total = np.zeros(3), np.zeros(2)
        if impulse is not None:
            p, ang = (np.asarray(v) for v in impulse)
            self._push_anchor(p)
            self._push_spin(rows @ ang)

    def _push_anchor(self, impulse):
        a, b = self.a, self.b
        if a.dynamic:
            a.v = a.v - impulse * a.inv_mass
            a.w = a.w - self.iinv_a @ _cross(self.ra, impulse)
        if b.dynamic:
            b.v = b.v + impulse * b.inv_mass
            b.w = b.w + self.iinv_b @ _cross(self.rb, impulse)
        self.p_total = self.p_total + impulse

    def _push_spin(self, lam):
        if self.a.dynamic:
            self.a.w = self.a.w - self.rows_iinv_a @ lam
        if self.b.dynamic:
            self.b.w = self.b.w + self.rows_iinv_b @ lam
        self.lam_total = self.lam_total + lam

    def solve(self):
        a, b = self.a, self.b
        vrel = b.v + _cross(b.w, self.rb) - a.v - _cross(a.w, self.ra)
        self._push_anchor(self.kinv @ (-(vrel + self.bias)))
        w_rel = b.w - a.w
        self._push_spin(
            self.kmat_inv @ (-(self.rows @ w_rel + self.ang_bias)))

    def impulse(self):
        return self.p_total, self.rows.T @ self.lam_total


class _RefContactRow:
    def __init__(self, contact, refs, impulse=None):
        self.c = contact
        self.jn, self.jt, self.pn = 0.0, np.zeros(2), 0.0
        a = None if contact.body_a is None else refs[contact.body_a]
        b = refs[contact.body_b]
        self.a, self.b = a, b
        n = np.array(contact.normal)
        self.n = n
        t1 = np.array([1.0, 0.0, 0.0])
        if abs(n @ t1) > 0.9:
            t1 = np.array([0.0, 1.0, 0.0])
        t1 = t1 - (t1 @ n) * n
        t1 /= np.linalg.norm(t1)
        self.t1 = t1
        self.t2 = _cross(n, t1)
        point = np.array(contact.point)
        self.ra = None if a is None else point - a.x
        self.rb = point - b.x
        self.iinv_a = None if a is None else a.iinv
        self.iinv_b = b.iinv
        self.kn = self._k(n)
        self.kt1 = self._k(t1)
        self.kt2 = self._k(self.t2)
        if impulse is not None and self.kn > 0.0:
            self.jn, self.jt = impulse[0], np.array(impulse[1:])
            self._apply(self.jn * n + self.jt[0] * t1 + self.jt[1] * self.t2,
                        "v", "w")

    def _k(self, d):
        k = 0.0
        a, b = self.a, self.b
        if a is not None and a.dynamic:
            rn = _cross(self.ra, d)
            k += a.inv_mass + rn @ self.iinv_a @ rn
        if b.dynamic:
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
        if a is not None and a.dynamic:
            setattr(a, lin, getattr(a, lin) - impulse * a.inv_mass)
            setattr(a, ang, getattr(a, ang)
                    - self.iinv_a @ _cross(self.ra, impulse))
        if b.dynamic:
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
        mu = engine.FRICTION
        if mu <= 0.0:
            return
        max_f = mu * self.jn
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


def _reference_solve(world, refs, contacts, dt, cache=None):
    """The solve on numpy rows over the numpy state ``refs`` of the bodies
    of ``world``.  ``cache`` (None: cold) maps "contacts" to the last step's
    (jn, jt1, jt2) per contact key and "joints" to the (anchor, angular)
    impulses per joint index, and is replaced by this step's."""
    for ref in refs.values():
        ref.pv, ref.pw = np.zeros(3), np.zeros(3)
    warm = cache or {"contacts": {}, "joints": {}}
    joint_rows = [_RefJointRow(j, refs, engine.BAUMGARTE, dt,
                               warm["joints"].get(i))
                  for i, j in enumerate(world.joints)]
    contact_rows = [_RefContactRow(c, refs, warm["contacts"].get(c.key))
                    for c in contacts]
    for _ in range(engine.VELOCITY_SWEEPS):
        for row in joint_rows:
            row.solve()
        for row in contact_rows:
            row.solve_velocity()
    if cache is not None:
        cache["joints"] = {i: row.impulse()
                           for i, row in enumerate(joint_rows)}
        cache["contacts"] = {c.key: (row.jn, *row.jt)
                             for c, row in zip(contacts, contact_rows)
                             if c.key is not None}
    for _ in range(engine.POSITION_SWEEPS):
        for row in contact_rows:
            row.solve_position(engine.BAUMGARTE, engine.SLOP, dt)
    return contact_rows


def _unit(rng):
    v = rng.normal(size=3)
    return tuple((v / np.linalg.norm(v)).tolist())


def _near(rng, x):
    """A random point about 0.2 from ``x``, as floats."""
    return tuple((np.array(x) + rng.normal(scale=0.2, size=3)).tolist())


def _random_body(rng, body_id, center):
    if rng.random() < 0.5:
        solid = Solid.box(tuple(rng.uniform(0.1, 0.6, size=3)))
    else:
        solid = Solid.cylinder(rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.5),
                               int(rng.integers(3)))
    body = RigidBody.from_parts(body_id, [("p", solid, center)],
                                float(rng.uniform(1.0, 20.0)))
    q = np.concatenate([[1.0], rng.normal(scale=0.3, size=3)])
    body.q = tuple((q / np.linalg.norm(q)).tolist())
    body.vel = rng.normal(size=3).tolist() + rng.normal(size=3).tolist()
    return body


def _random_contact(rng, a, b):
    point = _near(rng, b.x)
    # normals face a into b, so most rows start out approaching
    return Contact(a, b, point, _unit(rng), float(rng.uniform(0.0, 2e-3)))


def _random_world(seed):
    """Static, dynamic-dynamic and kinematic contacts plus a revolute joint;
    the contacts have no key, so every solve of them starts cold."""
    rng = np.random.default_rng(seed)
    world = World(SimConfig().timestep)
    bodies = [_random_body(rng, f"b{i}", rng.uniform(-1.0, 1.0, size=3))
              for i in range(4)]
    bodies[3].kinematic = True
    world.bodies += bodies
    anchor = (np.array(bodies[0].x) + bodies[1].x) / 2.0
    axis = np.array(_unit(rng))
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


def _state(refs):
    return np.array([np.concatenate([r.v, r.w, r.pv, r.pw])
                     for r in refs.values()])


def _float_solve(world, contacts, dt):
    """``World._solve`` from the bodies' velocities, which it leaves as they
    were: the rows, and per body the velocity and pseudo-velocity the solve
    ends with, laid out as ``_state``."""
    start = [list(b.vel) for b in world.bodies]
    for body in world.bodies:
        body._start_step()
    rows = world._solve(contacts, dt)
    state = np.array([b.vel + b.pvel for b in world.bodies])
    for body, vel in zip(world.bodies, start):
        body.vel = vel
    return rows, state


def _assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = np.max(np.abs(expected))
    assert scale > 0.0
    assert np.max(np.abs(actual - expected)) <= RTOL * scale


@pytest.mark.parametrize("seed", range(8))
def test_float_rows_match_numpy_rows(seed, monkeypatch):
    """One cold solve under each friction coefficient of FRICTIONS."""
    for mu in FRICTIONS:
        monkeypatch.setattr(engine, "FRICTION", mu)
        world, contacts = _random_world(seed)
        ref_world, ref_contacts = copy.deepcopy((world, contacts))
        refs = _ref_bodies(ref_world)
        dt = world.timestep

        rows, state = _float_solve(world, contacts, dt)
        ref_rows = _reference_solve(ref_world, refs, ref_contacts, dt)

        _assert_close(state, _state(refs))
        _assert_close([[r.jn, r.jt1, r.jt2, r.pn] for r in rows],
                      [[r.jn, r.jt[0], r.jt[1], r.pn] for r in ref_rows])
        # the rows did work: impulses flowed and the solve moved velocities
        assert any(r.jn > 0.0 for r in rows)
        assert any(r.pn > 0.0 for r in rows)
        if mu > 0.0:
            assert any(r.jt1 != 0.0 for r in rows)
        else:
            assert all(r.jt1 == 0.0 and r.jt2 == 0.0 for r in rows)
        # the kinematic body ends the solve as it started
        assert np.array_equal(state[3], _state(refs)[3])


def test_ground_contacts_match_numpy_rows():
    """A resting and a sliding box on the generated ground contacts."""
    world = World(SimConfig().timestep)
    for i, v in enumerate(([0.0, 0.0, -0.5], [1.0, 0.3, -0.2])):
        body = RigidBody.from_parts(
            f"box{i}", [("p", Solid.box((0.2, 0.3, 0.2)),
                         np.array([2.0 * i, 0.0, 0.099]))], 10.0)
        body.vel = v + [0.1, -0.2, 0.3]
        world.bodies.append(body)
    for body in world.bodies:
        body.refresh_pose_cache()
    contacts = world.gather_contacts()
    assert len(contacts) == 8
    ref_world = copy.deepcopy(world)
    refs = _ref_bodies(ref_world)
    rows, state = _float_solve(world, contacts, world.timestep)
    assert all(isinstance(r, engine._GroundRow) for r in rows)
    ref_rows = _reference_solve(
        ref_world, refs, ref_world.gather_contacts(), world.timestep)
    _assert_close(state, _state(refs))
    _assert_close([[r.jn, r.jt1, r.jt2, r.pn] for r in rows],
                  [[r.jn, r.jt[0], r.jt[1], r.pn] for r in ref_rows])


def _ground_world(seed):
    """Ground contacts (normal +z), three per body, on rotated dynamic
    bodies and a kinematic one, at random points and depths."""
    rng = np.random.default_rng(seed)
    world = World(SimConfig().timestep)
    bodies = [_random_body(rng, f"b{i}", rng.uniform(-1.0, 1.0, size=3))
              for i in range(4)]
    bodies[3].kinematic = True
    world.bodies += bodies
    for body in bodies:
        body.refresh_pose_cache()
        # moving down, so most rows start out approaching
        body.vel[2] = -abs(body.vel[2])
    contacts = [
        Contact(None, body, _near(rng, body.x),
                engine._UP, float(rng.uniform(0.0, 2e-3)), (body.id, 0, k))
        for body in bodies for k in range(3)]
    # a fresh +z tuple, as the hit test's peg hook builds its floor normal
    contacts.append(Contact(None, bodies[0], _near(rng, bodies[0].x),
                            (0.0, 0.0, 1.0), 1e-3, (bodies[0].id, 0, 3)))
    return world, contacts


@pytest.mark.parametrize("seed", range(8))
def test_ground_rows_match_generic_rows_bit_for_bit(seed, monkeypatch):
    """A cold solve, then a second one warm-started from its impulses,
    under each friction coefficient of FRICTIONS."""
    for mu in FRICTIONS:
        with monkeypatch.context() as patch:
            patch.setattr(engine, "FRICTION", mu)
            _ground_rows_match_generic_rows(seed, mu, patch)


def _ground_rows_match_generic_rows(seed, mu, patch):
    world, contacts = _ground_world(seed)
    ref_world, ref_contacts = copy.deepcopy((world, contacts))
    dt = world.timestep

    solves = [_float_solve(world, contacts, dt) for _ in range(2)]
    patch.setattr(engine, "_contact_row", engine._ContactRow)
    ref_solves = [_float_solve(ref_world, ref_contacts, dt)
                  for _ in range(2)]
    for (rows, state), (ref_rows, ref_state) in zip(solves, ref_solves):
        assert all(isinstance(r, engine._GroundRow) for r in rows)
        assert all(isinstance(r, engine._ContactRow) for r in ref_rows)
        assert np.array_equal(state, ref_state)
        impulses = [[r.jn, r.jt1, r.jt2, r.pn] for r in rows]
        assert impulses == [[r.jn, r.jt1, r.jt2, r.pn] for r in ref_rows]
    # the warm start changed the second solve
    assert solves[1][1].tolist() != solves[0][1].tolist()
    for rows, _ in solves:
        # every update ran: normal, both friction directions (none without
        # friction), split impulse
        assert any(r.jn > 0.0 for r in rows)
        assert any(r.pn > 0.0 for r in rows)
        if mu > 0.0:
            assert any(r.jt1 != 0.0 and r.jt2 != 0.0 for r in rows)
        else:
            assert all(r.jt1 == 0.0 and r.jt2 == 0.0 for r in rows)
        # the kinematic body's rows are skipped and leave it as it was
        assert all(r.jn == 0.0 and r.pn == 0.0 for r in rows[9:12])


# -- the closed-form joint row -------------------------------------------------
#
# _GenericJointRow keeps the generic joint build that the closed-form
# engine._JointRow replaced: rotations, lever columns and the angular mass
# through 3-vector helpers, K summed by _anchor_lever into a nested list,
# and impulses applied by _push_anchor and _push_spin.

def _matvec3(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
            m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
            m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2])


def _cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _unit_perpendicular(d):
    u = (0.0, 1.0, 0.0) if abs(d[0]) > 0.9 else (1.0, 0.0, 0.0)
    s = _dot3(u, d)
    u = (u[0] - s * d[0], u[1] - s * d[1], u[2] - s * d[2])
    norm = math.sqrt(_dot3(u, u))
    return (u[0] / norm, u[1] / norm, u[2] / norm)


def _inverse3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    c0, c1, c2 = e * i - f * h, f * g - d * i, d * h - e * g
    s = 1.0 / (a * c0 + b * c1 + c * c2)
    return ((c0 * s, (c * h - b * i) * s, (b * f - c * e) * s),
            (c1 * s, (a * i - c * g) * s, (c * d - a * f) * s),
            (c2 * s, (b * g - a * h) * s, (a * e - b * d) * s))


def _push_anchor(v, lever, px, py, pz):
    m, ((a00, a01, a02), (a10, a11, a12), (a20, a21, a22)) = lever
    v[0] += m * px
    v[1] += m * py
    v[2] += m * pz
    v[3] += a00 * px + a01 * py + a02 * pz
    v[4] += a10 * px + a11 * py + a12 * pz
    v[5] += a20 * px + a21 * py + a22 * pz


def _push_spin(va, vb, spin_a, spin_b, l1, l2):
    if spin_a is not None:
        (x1, y1, z1), (x2, y2, z2) = spin_a
        va[3] -= x1 * l1 + x2 * l2
        va[4] -= y1 * l1 + y2 * l2
        va[5] -= z1 * l1 + z2 * l2
    if spin_b is not None:
        (x1, y1, z1), (x2, y2, z2) = spin_b
        vb[3] += x1 * l1 + x2 * l2
        vb[4] += y1 * l1 + y2 * l2
        vb[5] += z1 * l1 + z2 * l2


class _GenericJointRow:
    def __init__(self, joint, beta, dt, impulse):
        a, b = joint.body_a, joint.body_b
        self.va, self.vb = a.vel, b.vel
        ra = self.ra = _matvec3(a.rot, joint.anchor_local_a)
        rb = self.rb = _matvec3(b.rot, joint.anchor_local_b)
        f = beta / dt
        self.bias = tuple(
            f * ((b.x[i] + rb[i]) - (a.x[i] + ra[i])) for i in range(3))
        k = [[0.0] * 3 for _ in range(3)]
        self.lever_a = self._anchor_lever(a, ra, k)
        self.lever_b = self._anchor_lever(b, rb, k)
        self.kinv = _inverse3(k)

        axis_a = _matvec3(a.rot, joint.axis_local_a)
        axis_b = _matvec3(b.rot, joint.axis_local_b)
        u1 = self.u1 = _unit_perpendicular(axis_a)
        u2 = self.u2 = _cross3(axis_a, u1)
        iu_a = (_matvec3(a.iinv, u1), _matvec3(a.iinv, u2))
        iu_b = (_matvec3(b.iinv, u1), _matvec3(b.iinv, u2))
        k11 = _dot3(u1, iu_a[0]) + _dot3(u1, iu_b[0])
        k12 = _dot3(u1, iu_a[1]) + _dot3(u1, iu_b[1])
        k21 = _dot3(u2, iu_a[0]) + _dot3(u2, iu_b[0])
        k22 = _dot3(u2, iu_a[1]) + _dot3(u2, iu_b[1])
        det = k11 * k22 - k12 * k21
        self.kang_inv = ((k22 / det, -k12 / det), (-k21 / det, k11 / det))
        err = _cross3(axis_a, axis_b)
        self.ang_bias = (f * _dot3(u1, err), f * _dot3(u2, err))
        self.spin_a = iu_a if a.dynamic else None
        self.spin_b = iu_b if b.dynamic else None
        self.px = self.py = self.pz = self.l1 = self.l2 = 0.0
        if impulse is not None:
            (px, py, pz), ang = impulse
            if self.lever_a is not None:
                _push_anchor(a.vel, self.lever_a, -px, -py, -pz)
            if self.lever_b is not None:
                _push_anchor(b.vel, self.lever_b, px, py, pz)
            l1, l2 = _dot3(u1, ang), _dot3(u2, ang)
            _push_spin(a.vel, b.vel, self.spin_a, self.spin_b, l1, l2)
            self.px, self.py, self.pz, self.l1, self.l2 = px, py, pz, l1, l2

    @staticmethod
    def _anchor_lever(body, r, k):
        """Add one body's share to K; return (m, I^-1 [r]x) or None."""
        if not body.dynamic:
            return None
        rx, ry, rz = r
        (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = body.iinv
        cols = (
            (i01 * rz - i02 * ry, i11 * rz - i12 * ry, i21 * rz - i22 * ry),
            (i02 * rx - i00 * rz, i12 * rx - i10 * rz, i22 * rx - i20 * rz),
            (i00 * ry - i01 * rx, i10 * ry - i11 * rx, i20 * ry - i21 * rx))
        for j, col in enumerate(cols):
            dv = _cross3(r, col)
            for i in range(3):
                k[i][j] -= dv[i]
            k[j][j] += body.inv_mass
        return body.inv_mass, tuple(zip(*cols))

    def solve(self):
        va, vb = self.va, self.vb
        rax, ray, raz = self.ra
        rbx, rby, rbz = self.rb
        bx, by, bz = self.bias
        ex = -((vb[0] + (vb[4] * rbz - vb[5] * rby)
                - va[0] - (va[4] * raz - va[5] * ray)) + bx)
        ey = -((vb[1] + (vb[5] * rbx - vb[3] * rbz)
                - va[1] - (va[5] * rax - va[3] * raz)) + by)
        ez = -((vb[2] + (vb[3] * rby - vb[4] * rbx)
                - va[2] - (va[3] * ray - va[4] * rax)) + bz)
        px, py, pz = _matvec3(self.kinv, (ex, ey, ez))
        if self.lever_a is not None:
            _push_anchor(va, self.lever_a, -px, -py, -pz)
        if self.lever_b is not None:
            _push_anchor(vb, self.lever_b, px, py, pz)
        self.px += px
        self.py += py
        self.pz += pz
        w = (vb[3] - va[3], vb[4] - va[4], vb[5] - va[5])
        e1 = -(_dot3(self.u1, w) + self.ang_bias[0])
        e2 = -(_dot3(self.u2, w) + self.ang_bias[1])
        (q11, q12), (q21, q22) = self.kang_inv
        l1, l2 = q11 * e1 + q12 * e2, q21 * e1 + q22 * e2
        _push_spin(va, vb, self.spin_a, self.spin_b, l1, l2)
        self.l1 += l1
        self.l2 += l2

    def impulse(self):
        (u1x, u1y, u1z), (u2x, u2y, u2z) = self.u1, self.u2
        l1, l2 = self.l1, self.l2
        return ((self.px, self.py, self.pz),
                (l1 * u1x + l2 * u2x, l1 * u1y + l2 * u2y,
                 l1 * u1z + l2 * u2z))


def _joint_world(seed):
    """Five random rotated bodies, the last one kinematic, in a chain of
    joints: dynamic to dynamic, kinematic as body a, kinematic as body b,
    and one anchored at a body's centre of mass; each joint's axes are a
    little out of line.  One ground contact keeps a contact row in the
    solve as well."""
    rng = np.random.default_rng(seed)
    world = World(SimConfig().timestep)
    bodies = [_random_body(rng, f"b{i}", rng.uniform(-1.0, 1.0, size=3))
              for i in range(5)]
    bodies[4].kinematic = True
    world.bodies += bodies
    for body in bodies:
        body.refresh_pose_cache()
    for ia, ib in ((0, 1), (4, 2), (3, 4), (1, 3)):
        a, b = bodies[ia], bodies[ib]
        anchor = _near(rng, (np.array(a.x) + b.x) / 2.0)
        if ib == 3:
            anchor = b.x
        axis = np.array(_unit(rng))
        world.joints.append(RevoluteJoint(
            body_a=a, body_b=b, anchor_local_a=np.subtract(anchor, a.x),
            anchor_local_b=np.subtract(anchor, b.x),
            axis_local_a=axis,
            axis_local_b=axis + rng.normal(scale=0.05, size=3)))
    contacts = [Contact(None, bodies[0], _near(rng, bodies[0].x), engine._UP,
                        1e-3, (bodies[0].id, 0, 0))]
    return world, contacts


@pytest.mark.parametrize("seed", range(8))
def test_joint_rows_match_generic_rows_bit_for_bit(seed, monkeypatch):
    """A cold solve, then a second one warm-started from its impulses."""
    world, contacts = _joint_world(seed)
    ref_world, ref_contacts = copy.deepcopy((world, contacts))
    dt = world.timestep

    solves, impulses = [], []
    for _ in range(2):
        solves.append(_float_solve(world, contacts, dt)[1])
        impulses.append(dict(world._joint_impulses))
    monkeypatch.setattr(engine, "_JointRow", _GenericJointRow)
    for state, joint_impulses in zip(solves, impulses):
        ref_state = _float_solve(ref_world, ref_contacts, dt)[1]
        assert np.array_equal(state, ref_state)
        assert joint_impulses == ref_world._joint_impulses
    # the warm start changed the second solve
    assert solves[1].tolist() != solves[0].tolist()
    # every joint carried impulse, and the kinematic body was not moved
    for joint_impulses in impulses:
        assert all(any(p) and any(ang)
                   for p, ang in joint_impulses.values())
    kin = world.bodies[4]
    assert all(state[4, :6].tolist() == kin.vel for state in solves)


# -- the whole step ----------------------------------------------------------

def _ref_quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _ref_quat_integrate(q, omega, dt):
    w, x, y, z = q
    ox, oy, oz = omega
    dq = 0.5 * np.array([
        -ox * x - oy * y - oz * z,
        ox * w + oy * z - oz * y,
        oy * w + oz * x - ox * z,
        oz * w + ox * y - oy * x,
    ])
    q = q + dq * dt
    return q / np.linalg.norm(q)


_REF_BOX_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
    dtype=float)


def _ref_ground_contacts(world, refs, contacts, centers):
    margin = engine.CONTACT_GEN_MARGIN
    for body, body_centers in zip(world.bodies, centers):
        if body.inv_mass == 0.0 and not body.kinematic:
            continue
        r = refs[body].rot
        for index, (part, c) in enumerate(zip(body.parts, body_centers)):
            solid = part.solid
            if part.half is not None:
                half = np.asarray(part.half)
                if c[2] - float(np.abs(r[2, :]) @ half) >= margin:
                    continue
                for k, corner in enumerate(c + (_REF_BOX_SIGNS * half) @ r.T):
                    if corner[2] < margin:
                        contacts.append(engine.Contact(
                            None, body, corner, engine._UP,
                            max(0.0, -corner[2]), (body.id, index, k)))
                continue
            axis = r[:, solid.axis]
            hl = solid.length / 2.0
            if abs(axis[2]) > 0.99:
                low = c - axis * hl if axis[2] > 0 else c + axis * hl
                if low[2] - solid.radius >= margin:
                    continue
                u = np.array([1.0, 0.0, 0.0])
                u = u - (u @ axis) * axis
                u /= np.linalg.norm(u)
                vperp = _cross(axis, u)
                points = [(k, low + solid.radius * (np.cos(ang) * u
                                                    + np.sin(ang) * vperp))
                          for k, ang in ((k, 2 * np.pi * k / 8)
                                         for k in range(8))]
            else:
                down = np.array([0.0, 0.0, -1.0])
                u = down - (down @ axis) * axis
                u /= np.linalg.norm(u)
                points = [(k, c + axis * (s * hl) + solid.radius * u)
                          for k, s in ((8, -1), (9, 1))]
            for k, p in points:
                if p[2] < margin:
                    contacts.append(engine.Contact(
                        None, body, p, engine._UP, max(0.0, -p[2]),
                        (body.id, index, k)))


def _ref_overlaps(ca, sa, cb, sb):
    """Overlap of the two world AABBs along each axis."""
    lo_a, hi_a = sa.aabb(ca)
    lo_b, hi_b = sb.aabb(cb)
    return np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)


def _ref_separation_axis(ca, sa, cb, sb):
    """The earlier numpy ``World._separation_axis``: the axis of least
    overlap between the two world AABBs, and the normal's sign along it."""
    axis = int(np.argmin(_ref_overlaps(ca, sa, cb, sb)))
    return axis, 1.0 if cb[axis] >= ca[axis] else -1.0


@pytest.mark.parametrize("seed", range(4))
def test_separation_axis_matches_numpy_reference(seed):
    """The float separation axis picks the numpy reference's (axis, sign)
    on random box and cylinder pairs.  Half the pairs sit on a grid of
    quarter units, where equal overlaps and equal centre coordinates are
    common; np.argmin takes the first of equal overlaps, and so must the
    float version."""
    rng = np.random.default_rng(seed)

    def solid(step):
        def size():
            return float(rng.integers(1, 9)) * 0.25 if step \
                else float(rng.uniform(0.1, 2.0))
        if rng.integers(2):
            return Solid.box((size(), size(), size()))
        return Solid.cylinder(size() / 2.0, size(), int(rng.integers(3)))

    def center(step):
        if step:
            return tuple(float(v) * 0.25 for v in rng.integers(-4, 5, 3))
        return tuple(float(v) for v in rng.uniform(-1.0, 1.0, 3))

    ties = 0
    for n in range(400):
        step = n % 2 == 0
        sa, sb = solid(step), solid(step)
        ca, cb = center(step), center(step)
        want = _ref_separation_axis(np.array(ca), sa, np.array(cb), sb)
        assert World._separation_axis(ca, sa, cb, sb) == want
        overlaps = _ref_overlaps(ca, sa, cb, sb)
        ties += int(np.sum(overlaps == overlaps.min()) > 1)
    assert ties >= 20


def _ref_body_body_contacts(world, refs, contacts, centers):
    jointed = {frozenset((j.body_a.id, j.body_b.id)) for j in world.joints}
    for i, a in enumerate(world.bodies):
        for j in range(i + 1, len(world.bodies)):
            b = world.bodies[j]
            if not (refs[a].dynamic or a.kinematic) \
                    and not (refs[b].dynamic or b.kinematic):
                continue
            if frozenset((a.id, b.id)) in jointed:
                continue
            for ia, (pa, ca) in enumerate(zip(a.parts, centers[i])):
                for ib, (pb, cb) in enumerate(zip(b.parts, centers[j])):
                    # a sphere bound of its own, around each part's box
                    d = cb - ca
                    reach = 0.5 * (np.linalg.norm(pa.solid.extents)
                                   + np.linalg.norm(pb.solid.extents))
                    if d @ d > reach ** 2 + 1e-6:
                        continue
                    hit = engine.pair_overlap(ca, pa.solid, cb, pb.solid,
                                              tol=1e-9)
                    if hit is None:
                        continue
                    depth, witness = hit
                    axis, sign = _ref_separation_axis(ca, pa.solid,
                                                      cb, pb.solid)
                    normal = np.zeros(3)
                    normal[axis] = sign
                    contacts.append(engine.Contact(
                        a, b, np.asarray(witness), normal, depth,
                        (a.id, b.id, ia, ib, axis, sign)))


def _ref_part_min_z(ref, part):
    r = ref.rot
    c = ref.x + r @ part.local_center
    if part.half is not None:
        return c[2] - float(np.abs(r[2, :]) @ np.asarray(part.half))
    axis = r[:, part.solid.axis]
    hl = part.solid.length / 2.0
    radial = np.sqrt(max(1.0 - axis[2] ** 2, 0.0)) * part.solid.radius
    return c[2] - abs(axis[2]) * hl - radial


def _reference_gather(world, refs):
    contacts = []
    centers = [[refs[body].x + refs[body].rot @ part.local_center
                for part in body.parts] for body in world.bodies]
    _ref_ground_contacts(world, refs, contacts, centers)
    _ref_body_body_contacts(world, refs, contacts, centers)
    return contacts


def _reference_step(world, refs, dt, cache):
    """One ``World.step`` on the 3-vector numpy arrays of ``refs``,
    warm-started from and updating ``cache`` as ``_reference_solve`` does;
    returns the contacts."""
    for body, ref in refs.items():
        ref.dynamic = not body.kinematic and body.inv_mass != 0.0
        if not ref.dynamic:
            ref.iinv = np.zeros((3, 3))
            ref.force[:] = 0.0
            ref.torque[:] = 0.0
            continue
        ref.iinv = ref.rot @ np.array(body.inv_inertia_body) @ ref.rot.T
        accel = ref.force * body.inv_mass
        if not body.gravity_exempt:
            accel = accel + np.array([0.0, 0.0, -engine.GRAVITY])
        ref.v = ref.v + accel * dt
        ref.w = ref.w + ref.iinv @ ref.torque * dt
        ref.force[:] = 0.0
        ref.torque[:] = 0.0
    contacts = _reference_gather(world, refs)
    _reference_solve(world, refs, contacts, dt, cache)
    for body, ref in refs.items():
        if not ref.dynamic and not body.kinematic:
            continue
        ref.x = ref.x + (ref.v + ref.pv) * dt
        ref.q = _ref_quat_integrate(ref.q, ref.w + ref.pw, dt)
        ref.rot = _ref_quat_to_matrix(ref.q)
    world.time += dt
    return contacts


def _step_world(seed):
    """Tilted bodies resting on or just above the ground: two fused boxes,
    a lying and a standing cylinder, a box overlapping the lying cylinder,
    a kinematic box with a set velocity and a gravity-exempt box, with
    forces and torques on the dynamic ones and a revolute joint."""
    rng = np.random.default_rng(seed)
    world = World(SimConfig().timestep)

    def box():
        return Solid.box(tuple(rng.uniform(0.1, 0.6, size=3)))

    solids = [
        (box(), (0.0, 0.0), 0.3),
        (Solid.cylinder(rng.uniform(0.1, 0.3), rng.uniform(0.2, 0.5),
                        int(rng.integers(2))), (2.0, 0.0), 0.3),
        (box(), (2.1, 0.0), 0.3),
        (Solid.cylinder(rng.uniform(0.1, 0.3), rng.uniform(0.2, 0.5), 2),
         (4.0, 0.0), 0.02),
        (box(), (6.0, 0.0), 0.3),
        (box(), (8.0, 0.0), 0.3),
    ]
    for i, (solid, (x, y), tilt) in enumerate(solids):
        parts = [("p", solid, np.array([x, y, 1.0]))]
        if i == 0:  # a second part, off the body centre
            parts.append(("q", box(), np.array([x + 0.4, y + 0.2, 1.2])))
        body = RigidBody.from_parts(f"b{i}", parts,
                                    float(rng.uniform(1.0, 20.0)))
        q = np.concatenate([[1.0], rng.normal(scale=tilt, size=3)])
        body.q = tuple((q / np.linalg.norm(q)).tolist())
        body.refresh_pose_cache()
        # lowest point into the ground, so that some corners or rim points
        # are under the contact margin
        ref = _RefBody(body)
        low = min(_ref_part_min_z(ref, part) for part in body.parts)
        x, y, z = body.x
        body.x = (x, y, z - (low + rng.uniform(0.0, 0.15)))
        body.vel = rng.normal(scale=0.5, size=3).tolist() + \
            rng.normal(scale=2.0, size=3).tolist()
        world.bodies.append(body)
    world.bodies[4].kinematic = True
    world.bodies[4].vel[:3] = [0.3, -0.2, 0.1]
    world.bodies[5].gravity_exempt = True
    for body in world.bodies:
        body.apply_force(rng.normal(scale=50.0, size=3),
                         body.x + rng.normal(scale=0.1, size=3))
        body.apply_torque(rng.normal(scale=5.0, size=3))
    a, b = world.bodies[0], world.bodies[5]
    anchor = (np.array(a.x) + b.x) / 2.0
    axis = _unit(rng)
    world.joints.append(RevoluteJoint(
        body_a=a, body_b=b, anchor_local_a=anchor - a.x,
        anchor_local_b=anchor - b.x, axis_local_a=axis, axis_local_b=axis))
    return world


def _assert_steps_agree(world, ref_world, refs, contacts, ref_contacts):
    assert len(contacts) == len(ref_contacts)
    for c, ref in zip(contacts, ref_contacts):
        assert (c.body_a and c.body_a.id, c.body_b.id, c.key) == \
            (ref.body_a and ref.body_a.id, ref.body_b.id, ref.key)
        assert np.array_equal(c.normal, ref.normal)
    _assert_close([c.point for c in contacts],
                  [c.point for c in ref_contacts])
    _assert_close([c.depth for c in contacts],
                  [c.depth for c in ref_contacts])
    for name in ("x", "q", "rot", "iinv"):
        _assert_close([getattr(b, name) for b in world.bodies],
                      [getattr(r, name) for r in refs.values()])
    _assert_close([b.vel[:3] for b in world.bodies],
                  [r.v for r in refs.values()])
    _assert_close([b.vel[3:] for b in world.bodies],
                  [r.w for r in refs.values()])
    _assert_close([b.part_min_z(p) for b in world.bodies for p in b.parts],
                  [_ref_part_min_z(r, p)
                   for r in refs.values() for p in r.body.parts])
    assert world.time == ref_world.time


@pytest.mark.parametrize("seed", range(8))
def test_float_step_matches_numpy_step(seed):
    world = _step_world(seed)
    ref_world = copy.deepcopy(world)
    refs = _ref_bodies(ref_world)
    dt = world.timestep
    cache = {"contacts": {}, "joints": {}}

    contacts = world.step()
    ref_contacts = _reference_step(ref_world, refs, dt, cache)
    _assert_steps_agree(world, ref_world, refs, contacts, ref_contacts)
    # the step exercised every path: corners, both cylinder branches, a
    # body-body contact, forces, the kinematic drive and no gravity
    kinds = {(c.body_a is not None, c.body_b.id) for c in contacts}
    assert {(False, "b0"), (False, "b1"), (False, "b3")} <= kinds
    assert any(a for a, _ in kinds)
    kin = world.bodies[4]
    assert np.array_equal(kin.x, refs[ref_world.bodies[4]].x)
    assert kin.x[0] != _step_world(seed).bodies[4].x[0]
    for body in world.bodies:
        assert not any(body.force) and not any(body.torque)

    # the second step starts from the first one's impulses
    warm = world._contact_impulses
    assert list(warm) == list(cache["contacts"])
    _assert_close(list(warm.values()), list(cache["contacts"].values()))
    _assert_close(world._joint_impulses[0], cache["joints"][0])
    contacts = world.step()
    ref_contacts = _reference_step(ref_world, refs, dt, cache)
    _assert_steps_agree(world, ref_world, refs, contacts, ref_contacts)
    _assert_close(list(world._contact_impulses.values()),
                  list(cache["contacts"].values()))
    _assert_close(world._joint_impulses[0], cache["joints"][0])
    # ground features carried a normal impulse over, and the body-body
    # feature kept its key
    assert any(c.body_a is None and warm.get(c.key, (0.0,))[0] > 0.0
               for c in contacts)
    assert any(c.body_a is not None and c.key in warm for c in contacts)


# -- the warm start ----------------------------------------------------------

def _resting_box(body_id, x):
    body = RigidBody.from_parts(
        body_id, [("p", Solid.box((0.2, 0.3, 0.2)),
                   np.array([x, 0.0, 0.0995]))], 10.0)
    body.refresh_pose_cache()
    return body


def test_a_feature_absent_in_the_last_step_starts_at_zero(monkeypatch):
    world = World(SimConfig().timestep)
    world.bodies.append(_resting_box("old", 0.0))
    world.step()
    cached = dict(world._contact_impulses)
    assert len(cached) == 4 and all(jn > 0.0 for jn, _, _ in
                                    cached.values())

    # a box set down beside it: its four corners are new features
    world.bodies.append(_resting_box("new", 2.0))
    contacts = world.gather_contacts()
    assert [c.key in cached for c in contacts] == [True] * 4 + [False] * 4
    monkeypatch.setattr(engine, "VELOCITY_SWEEPS", 0)
    monkeypatch.setattr(engine, "POSITION_SWEEPS", 0)
    rows, state = _float_solve(world, contacts, world.timestep)
    # with no sweeps, a row holds what it started from
    assert [(r.jn, r.jt1, r.jt2) for r in rows[:4]] == \
        [cached[c.key] for c in contacts[:4]]
    assert [(r.jn, r.jt1, r.jt2) for r in rows[4:]] == [(0.0, 0.0, 0.0)] * 4
    old, new = world.bodies
    assert state[0, :6].tolist() != old.vel
    assert state[1, :6].tolist() == new.vel
    # the cache now holds this solve's features only
    assert list(world._contact_impulses) == [c.key for c in contacts]


@pytest.mark.parametrize("generic", [False, True])
def test_friction_without_normal_impulse_carries_nothing_over(generic,
                                                              monkeypatch):
    """Corners cached with friction but no normal impulse, on a box lifting
    off the ground: every friction impulse ends the step at 0, none is
    cached, and the velocity is the one a cold solve leaves, to rounding."""
    if generic:
        monkeypatch.setattr(engine, "_contact_row", engine._ContactRow)
    world = World(SimConfig().timestep)
    box = _resting_box("box", 0.0)
    box.vel = [0.1, -0.05, 1.0, 0.2, 0.1, -0.3]
    world.bodies.append(box)
    cold = copy.deepcopy(world)
    dt = world.timestep
    contacts = world.gather_contacts()
    assert len(contacts) == 4
    world._contact_impulses = {c.key: (0.0, 0.02, -0.03) for c in contacts}

    rows, state = _float_solve(world, contacts, dt)
    cold_rows, cold_state = _float_solve(cold, cold.gather_contacts(), dt)
    assert all(isinstance(r, engine._ContactRow) == generic for r in rows)
    assert [(r.jn, r.jt1, r.jt2) for r in rows] == [(0.0, 0.0, 0.0)] * 4
    assert list(world._contact_impulses.values()) == [(0.0, 0.0, 0.0)] * 4
    assert [(r.jn, r.jt1, r.jt2) for r in cold_rows] == [(0.0, 0.0, 0.0)] * 4
    _assert_close(state, cold_state)


def test_deep_copies_step_byte_identical():
    """Keys hold body ids and indices, never object identities, so a deep
    copy of a warm world steps exactly like the original."""
    world = _step_world(3)
    world.step()
    twin = copy.deepcopy(world)
    assert twin._contact_impulses == world._contact_impulses
    for _ in range(200):
        world.step()
        twin.step()
    for name in ("x", "q", "vel"):
        assert [np.array(getattr(b, name)).tobytes()
                for b in world.bodies] == \
            [np.array(getattr(b, name)).tobytes() for b in twin.bodies]
    assert twin._contact_impulses == world._contact_impulses
    assert twin._joint_impulses == world._joint_impulses
    assert world._contact_impulses and world._joint_impulses
