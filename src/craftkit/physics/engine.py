"""Minimal impulse-based rigid-body engine.

Semi-implicit Euler, sequential impulses with Coulomb friction, split-impulse
positional correction, and revolute joints solved as point + axis constraints.
Bodies carry lists of primitive parts (boxes / cylinders) expressed in the
body frame, which is world-aligned at compile time.

Positions are frozen during the velocity solve, so all constraint geometry
(lever arms, effective masses, biases) is precomputed once per step and the
iteration loop only touches velocities.  The solve runs on plain Python
floats in the "solver body" layout of Box2D's contact solver: each step
copies every body's velocity, pseudo-velocity, inverse mass and world inverse
inertia into a float solver body, each contact row keeps r x d and
I^-1 (r x d) per body and direction, and each joint row keeps its 3x3 and
2x2 inverse masses as nested floats.  After the position iterations the
velocities are written back to the bodies' numpy arrays, which are the
public state between steps.

A contact with the static environment whose normal is exactly +z (compared
by value, so the hit test's floor contacts qualify) gets a _GroundRow: its
directions are z, x and y, so the row keeps only the non-zero terms of
each Jacobian and response and solves all three directions in one call,
bit-identical to the generic _ContactRow that every other contact uses.
Per-part constants of contact generation (bounding radius, box half
extents and corner offsets) are computed once per part, and each part's
world centre once per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..collision import pair_overlap
from ..errors import NumericalDivergence
from ..geometry import BOX, Solid, solid_inertia_diag

MAX_SPEED = 1e3  # m/s
MAX_SPIN = 1e4  # rad/s
_INF = float("inf")
_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
CONTACT_GEN_MARGIN = 1e-3  # start tracking ground contacts this close

_BOX_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
    dtype=float)
_UP = np.array([0.0, 0.0, 1.0])


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_integrate(q, omega, dt):
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


@dataclass
class BodyPart:
    name: str
    solid: Solid
    local_center: np.ndarray  # offset from body COM in the body frame
    # constants of contact generation, fixed with the solid
    radius: float = field(init=False)  # half the diagonal of the solid's AABB
    half: np.ndarray | None = field(init=False)  # box half extents
    corners: np.ndarray | None = field(init=False)  # box corners, body frame

    def __post_init__(self):
        self.radius = 0.5 * float(np.linalg.norm(self.solid.extents))
        self.half = self.corners = None
        if self.solid.kind == BOX:
            self.half = np.asarray(self.solid.extents) / 2.0
            self.corners = _BOX_SIGNS * self.half


class RigidBody:
    @classmethod
    def from_parts(cls, body_id, named_solids, part_mass):
        """named_solids: list of (name, Solid, world_center) at compile pose."""
        self = cls.__new__(cls)
        self.id = body_id
        centers = np.array([c for _, _, c in named_solids], dtype=float)
        com = centers.mean(axis=0)
        self.mass = part_mass * len(named_solids)
        self.parts = [
            BodyPart(name=n, solid=s, local_center=np.asarray(c, float) - com)
            for n, s, c in named_solids
        ]
        inertia = np.zeros((3, 3))
        for part in self.parts:
            diag = solid_inertia_diag(part_mass, part.solid)
            d = part.local_center
            inertia += np.diag(diag)
            inertia += part_mass * (np.dot(d, d) * np.eye(3) - np.outer(d, d))
        self.x = com.copy()
        self.q = np.array([1.0, 0.0, 0.0, 0.0])
        self.v = np.zeros(3)
        self.w = np.zeros(3)
        self.pv = np.zeros(3)
        self.pw = np.zeros(3)
        self.force = np.zeros(3)
        self.torque = np.zeros(3)
        self.kinematic = False
        self.gravity_exempt = False
        self.inv_mass = 1.0 / self.mass
        self.inv_inertia_body = np.linalg.inv(inertia)
        self._rot = np.eye(3)
        self._iinv = self.inv_inertia_body.copy()
        self._dynamic = True
        self.refresh_pose_cache()
        return self

    # -- kinematics -------------------------------------------------------
    def refresh_pose_cache(self):
        """Recompute the cached rotation after setting ``q`` directly."""
        self._rot = quat_to_matrix(self.q)
        self._refresh_inertia()

    def _refresh_inertia(self):
        self._dynamic = not self.kinematic and self.inv_mass != 0.0
        if self._dynamic:
            self._iinv = self._rot @ self.inv_inertia_body @ self._rot.T
        else:
            self._iinv = np.zeros((3, 3))

    @property
    def rotation(self):
        """Rotation matrix of ``q``, cached when ``q`` changes; read only."""
        return self._rot

    def world_point(self, local):
        return self.x + self.rotation @ local

    def apply_force(self, force, point=None):
        self.force = self.force + np.asarray(force, float)
        if point is not None:
            self.torque = self.torque + _cross3(
                np.asarray(point, float) - self.x, force)

    def apply_torque(self, torque):
        self.torque = self.torque + np.asarray(torque, float)

    def part_world_center(self, part: BodyPart):
        return self.world_point(part.local_center)

    def part_min_z(self, part: BodyPart):
        """Lowest world z over the (rotated) part geometry."""
        r = self.rotation
        c = self.x + r @ part.local_center
        if part.solid.kind == BOX:
            # support point of a rotated box along -z
            return c[2] - float(np.abs(r[2, :]) @ part.half)
        axis = r[:, part.solid.axis]
        hl = part.solid.length / 2.0
        radial = np.sqrt(max(1.0 - axis[2] ** 2, 0.0)) * part.solid.radius
        return c[2] - abs(axis[2]) * hl - radial

    def kinetic_energy(self):
        if self.inv_mass == 0.0:
            return 0.0
        r = self.rotation
        inertia = r @ np.linalg.inv(self.inv_inertia_body) @ r.T
        return 0.5 * self.mass * float(self.v @ self.v) + \
            0.5 * float(self.w @ inertia @ self.w)


@dataclass
class RevoluteJoint:
    body_a: RigidBody
    body_b: RigidBody
    anchor_local_a: np.ndarray
    anchor_local_b: np.ndarray
    axis_local_a: np.ndarray
    axis_local_b: np.ndarray

    def world_axis_a(self):
        return self.body_a.rotation @ self.axis_local_a

    def world_axis_b(self):
        return self.body_b.rotation @ self.axis_local_b


@dataclass
class Contact:
    body_a: RigidBody | None  # None = static environment (ground / fixture)
    body_b: RigidBody
    point: np.ndarray
    normal: np.ndarray  # from a to b
    depth: float
    friction: float


# -- solver: plain-float rows over float copies of the bodies ---------------
#
# A body's velocity state is the 6-list (vx, vy, vz, wx, wy, wz).  A row
# direction d acting at lever arm r reads a body through its Jacobian
# (d, r x d), so the speed along d is a 6-term dot product, and an impulse
# dj along d changes the body by dj * (m d, I^-1 (r x d)): both 6-tuples are
# built once per step, and the iterations only multiply and add floats.


def _cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _matvec3(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
            m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
            m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2])


def _unit_perpendicular(d):
    """x (or y, when d is near x) with its d component removed, normalized."""
    u = (0.0, 1.0, 0.0) if abs(d[0]) > 0.9 else (1.0, 0.0, 0.0)
    s = _dot3(u, d)
    u = (u[0] - s * d[0], u[1] - s * d[1], u[2] - s * d[2])
    norm = math.sqrt(_dot3(u, u))
    return (u[0] / norm, u[1] / norm, u[2] / norm)


class _SolverBody:
    """Float copy of one body's solver state for the duration of a step."""

    __slots__ = ("body", "x", "rot", "vel", "pvel", "dynamic", "inv_mass",
                 "iinv")

    def __init__(self, body: RigidBody):
        self.body = body
        self.x = body.x.tolist()
        self.rot = body._rot.tolist()
        self.vel = body.v.tolist() + body.w.tolist()
        self.pvel = body.pv.tolist() + body.pw.tolist()
        self.dynamic = body._dynamic
        self.inv_mass = body.inv_mass if body._dynamic else 0.0
        self.iinv = body._iinv.tolist()

    def lever(self, r, d):
        """Jacobian, impulse response and effective mass along d at r.

        The response is None (and the mass 0) for a body impulses do not move.
        """
        c = _cross3(r, d)
        jac = (d[0], d[1], d[2], c[0], c[1], c[2])
        if not self.dynamic:
            return jac, None, 0.0
        m = self.inv_mass
        ic = _matvec3(self.iinv, c)
        resp = (m * d[0], m * d[1], m * d[2], ic[0], ic[1], ic[2])
        return jac, resp, m + _dot3(c, ic)

    def store(self):
        body, v, p = self.body, self.vel, self.pvel
        body.v = np.array(v[:3])
        body.w = np.array(v[3:])
        body.pv = np.array(p[:3])
        body.pw = np.array(p[3:])


def _solve_row(row, va, vb, acc, target, lo, hi):
    """One sequential-impulse update along one row direction.

    Drives the relative speed J_b . V_b - J_a . V_a toward ``target`` with
    the accumulated impulse clamped to [lo, hi], applies the change to the
    6-velocities ``va`` (None for the static environment) and ``vb`` in
    place, and returns the new accumulated impulse.
    """
    ja, jb, resp_a, resp_b, k = row
    s = target - (jb[0] * vb[0] + jb[1] * vb[1] + jb[2] * vb[2]
                  + jb[3] * vb[3] + jb[4] * vb[4] + jb[5] * vb[5])
    if ja is not None:
        s += (ja[0] * va[0] + ja[1] * va[1] + ja[2] * va[2]
              + ja[3] * va[3] + ja[4] * va[4] + ja[5] * va[5])
    new = acc + s / k
    if new < lo:
        new = lo
    elif new > hi:
        new = hi
    dj = new - acc
    if dj != 0.0:
        if resp_b is not None:
            vb[0] += dj * resp_b[0]
            vb[1] += dj * resp_b[1]
            vb[2] += dj * resp_b[2]
            vb[3] += dj * resp_b[3]
            vb[4] += dj * resp_b[4]
            vb[5] += dj * resp_b[5]
        if resp_a is not None:
            va[0] -= dj * resp_a[0]
            va[1] -= dj * resp_a[1]
            va[2] -= dj * resp_a[2]
            va[3] -= dj * resp_a[3]
            va[4] -= dj * resp_a[4]
            va[5] -= dj * resp_a[5]
    return new


class _ContactRow:
    """One contact point: the normal and two friction directions.

    Each direction is (J_a, J_b, response_a, response_b, effective mass);
    J_a is None against the static environment, and a response is None for
    a side that impulses do not move.  jn, jt1, jt2 and pn accumulate the
    normal, friction and split (position) impulses of this step.
    """

    __slots__ = ("va", "vb", "pa", "pb", "friction", "depth", "n", "t1",
                 "t2", "jn", "jt1", "jt2", "pn")

    def __init__(self, contact: Contact, bodies: dict):
        b = bodies[contact.body_b]
        a = None if contact.body_a is None else bodies[contact.body_a]
        self.vb, self.pb = b.vel, b.pvel
        self.va, self.pa = (None, None) if a is None else (a.vel, a.pvel)
        self.friction = contact.friction
        self.depth = contact.depth
        n = contact.normal.tolist()
        t1 = _unit_perpendicular(n)
        t2 = _cross3(n, t1)
        px, py, pz = contact.point.tolist()
        rb = (px - b.x[0], py - b.x[1], pz - b.x[2])
        ra = None if a is None else (px - a.x[0], py - a.x[1], pz - a.x[2])
        self.n, self.t1, self.t2 = (_direction(a, ra, b, rb, d)
                                    for d in (n, t1, t2))
        self.jn = self.jt1 = self.jt2 = self.pn = 0.0

    def solve_velocity(self):
        if self.n[4] <= 0.0:
            return
        va, vb = self.va, self.vb
        jn = self.jn = _solve_row(self.n, va, vb, self.jn, 0.0, 0.0, _INF)
        if self.friction <= 0.0 or jn <= 0.0:
            return
        max_f = self.friction * jn
        if self.t1[4] > 0.0:
            self.jt1 = _solve_row(self.t1, va, vb, self.jt1, 0.0, -max_f,
                                  max_f)
        if self.t2[4] > 0.0:
            self.jt2 = _solve_row(self.t2, va, vb, self.jt2, 0.0, -max_f,
                                  max_f)

    def solve_position(self, beta, slop, dt):
        pen = self.depth - slop
        if pen <= 0.0 or self.n[4] <= 0.0:
            return
        self.pn = _solve_row(self.n, self.pa, self.pb, self.pn,
                             beta * pen / dt, 0.0, _INF)


def _direction(a, ra, b, rb, d):
    """Row direction d of a contact between a (None: static) and b."""
    jb, resp_b, k = b.lever(rb, d)
    if a is None:
        return None, jb, None, resp_b, k
    ja, resp_a, ka = a.lever(ra, d)
    return ja, jb, resp_a, resp_b, k + ka


class _GroundRow:
    """A contact with the static environment whose normal is exactly +z.

    For this normal _ContactRow picks t1 = x and t2 = y, so each Jacobian
    (d, r x d) has three exact zeros: r x z = (ry, -rx, 0),
    r x x = (0, rz, -ry) and r x y = (-rz, 0, rx).  The setup and the
    updates multiply only the other terms, summed in the order
    _ContactRow sums them.  The products left out are exact zeros, so
    velocities and impulses come out bit-identical to _ContactRow's.
    Each direction keeps (k, I^-1 (r x d)); ``n`` is None for a body that
    impulses do not move (k = 0), and the row is then skipped.
    """

    __slots__ = ("v", "p", "friction", "depth", "r", "m", "n", "t1", "t2",
                 "jn", "jt1", "jt2", "pn")

    def __init__(self, contact: Contact, b: _SolverBody):
        self.v, self.p = b.vel, b.pvel
        self.friction = contact.friction
        self.depth = contact.depth
        self.jn = self.jt1 = self.jt2 = self.pn = 0.0
        px, py, pz = contact.point.tolist()
        rx, ry, rz = self.r = (px - b.x[0], py - b.x[1], pz - b.x[2])
        if not b.dynamic:
            self.n = None
            return
        m = self.m = b.inv_mass
        (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = b.iinv
        a0, a1, a2 = i00 * ry - i01 * rx, i10 * ry - i11 * rx, \
            i20 * ry - i21 * rx
        self.n = (m + (ry * a0 - rx * a1), a0, a1, a2)
        a0, a1, a2 = i01 * rz - i02 * ry, i11 * rz - i12 * ry, \
            i21 * rz - i22 * ry
        self.t1 = (m + (rz * a1 - ry * a2), a0, a1, a2)
        a0, a1, a2 = i02 * rx - i00 * rz, i12 * rx - i10 * rz, \
            i22 * rx - i20 * rz
        self.t2 = (m + (rx * a2 - rz * a0), a0, a1, a2)

    # With a zero target, acc - u / k is _solve_row's acc + (0 - u) / k.
    def solve_velocity(self):
        if self.n is None:
            return
        v, m = self.v, self.m
        rx, ry, rz = self.r
        k, a0, a1, a2 = self.n
        acc = self.jn
        new = acc - ((v[2] + ry * v[3]) - rx * v[4]) / k
        if new < 0.0:
            new = 0.0
        dj = new - acc
        if dj != 0.0:
            v[2] += dj * m
            v[3] += dj * a0
            v[4] += dj * a1
            v[5] += dj * a2
        self.jn = new
        if self.friction <= 0.0 or new <= 0.0:
            return
        hi = self.friction * new
        lo = -hi

        k, a0, a1, a2 = self.t1
        acc = self.jt1
        new = acc - ((v[0] + rz * v[4]) - ry * v[5]) / k
        if new < lo:
            new = lo
        elif new > hi:
            new = hi
        dj = new - acc
        if dj != 0.0:
            v[0] += dj * m
            v[3] += dj * a0
            v[4] += dj * a1
            v[5] += dj * a2
        self.jt1 = new

        k, a0, a1, a2 = self.t2
        acc = self.jt2
        new = acc - ((v[1] - rz * v[3]) + rx * v[5]) / k
        if new < lo:
            new = lo
        elif new > hi:
            new = hi
        dj = new - acc
        if dj != 0.0:
            v[1] += dj * m
            v[3] += dj * a0
            v[4] += dj * a1
            v[5] += dj * a2
        self.jt2 = new

    def solve_position(self, beta, slop, dt):
        pen = self.depth - slop
        if pen <= 0.0 or self.n is None:
            return
        p = self.p
        rx, ry, _ = self.r
        k, a0, a1, a2 = self.n
        acc = self.pn
        new = acc + (beta * pen / dt - ((p[2] + ry * p[3]) - rx * p[4])) / k
        if new < 0.0:
            new = 0.0
        dj = new - acc
        if dj != 0.0:
            p[2] += dj * self.m
            p[3] += dj * a0
            p[4] += dj * a1
            p[5] += dj * a2
        self.pn = new


def _contact_row(contact: Contact, bodies: dict):
    """The row for one contact: _GroundRow where it applies, by value."""
    if contact.body_a is None and contact.normal.tolist() == [0.0, 0.0, 1.0]:
        return _GroundRow(contact, bodies[contact.body_b])
    return _ContactRow(contact, bodies)


def _inverse3(m):
    """Inverse of a 3x3 nested list by cofactors."""
    (a, b, c), (d, e, f), (g, h, i) = m
    c0, c1, c2 = e * i - f * h, f * g - d * i, d * h - e * g
    s = 1.0 / (a * c0 + b * c1 + c * c2)
    return ((c0 * s, (c * h - b * i) * s, (b * f - c * e) * s),
            (c1 * s, (a * i - c * g) * s, (c * d - a * f) * s),
            (c2 * s, (b * g - a * h) * s, (a * e - b * d) * s))


class _JointRow:
    """One revolute joint: a 3-row point constraint and 2 angular rows.

    The anchor rows use K^-1 (3x3) and, per dynamic body, the mass and the
    matrix I^-1 [r]x that turn an anchor impulse into velocity changes.  The
    angular rows keep the two hinge-perpendicular directions u1, u2, their
    2x2 inverse mass and I^-1 u per body.
    """

    __slots__ = ("va", "vb", "ra", "rb", "kinv", "bias", "lever_a",
                 "lever_b", "u1", "u2", "kang_inv", "ang_bias", "spin_a",
                 "spin_b")

    def __init__(self, joint: RevoluteJoint, bodies: dict, beta, dt):
        a, b = bodies[joint.body_a], bodies[joint.body_b]
        self.va, self.vb = a.vel, b.vel
        ra = self.ra = _matvec3(a.rot, joint.anchor_local_a.tolist())
        rb = self.rb = _matvec3(b.rot, joint.anchor_local_b.tolist())
        f = beta / dt
        self.bias = tuple(
            f * ((b.x[i] + rb[i]) - (a.x[i] + ra[i])) for i in range(3))

        # K e_j = sum over dynamic bodies of m e_j - r x (I^-1 (r x e_j))
        k = [[0.0] * 3 for _ in range(3)]
        self.lever_a = self._anchor_lever(a, ra, k)
        self.lever_b = self._anchor_lever(b, rb, k)
        self.kinv = _inverse3(k)

        axis_a = _matvec3(a.rot, joint.axis_local_a.tolist())
        axis_b = _matvec3(b.rot, joint.axis_local_b.tolist())
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
        # driving the perpendicular relative spin toward
        # -beta/dt * (axis_a x axis_b) decays the misalignment without
        # cross-coupling the two error components
        err = _cross3(axis_a, axis_b)
        self.ang_bias = (f * _dot3(u1, err), f * _dot3(u2, err))
        self.spin_a = iu_a if a.dynamic else None
        self.spin_b = iu_b if b.dynamic else None

    @staticmethod
    def _anchor_lever(sb, r, k):
        """Add one body's share to K; return (m, I^-1 [r]x) or None."""
        if not sb.dynamic:
            return None
        # column j of I^-1 [r]x is I^-1 (r x e_j)
        cols = [_matvec3(sb.iinv, _cross3(r, e)) for e in _AXES]
        for j, col in enumerate(cols):
            dv = _cross3(r, col)
            for i in range(3):
                k[i][j] -= dv[i]
            k[j][j] += sb.inv_mass
        return sb.inv_mass, tuple(zip(*cols))

    def solve(self):
        va, vb = self.va, self.vb
        rax, ray, raz = self.ra
        rbx, rby, rbz = self.rb
        bx, by, bz = self.bias
        # minus (relative anchor velocity + drift bias)
        ex = -((vb[0] + (vb[4] * rbz - vb[5] * rby)
                - va[0] - (va[4] * raz - va[5] * ray)) + bx)
        ey = -((vb[1] + (vb[5] * rbx - vb[3] * rbz)
                - va[1] - (va[5] * rax - va[3] * raz)) + by)
        ez = -((vb[2] + (vb[3] * rby - vb[4] * rbx)
                - va[2] - (va[3] * ray - va[4] * rax)) + bz)
        (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = self.kinv
        px = k00 * ex + k01 * ey + k02 * ez
        py = k10 * ex + k11 * ey + k12 * ez
        pz = k20 * ex + k21 * ey + k22 * ez
        if self.lever_a is not None:
            _push_anchor(va, self.lever_a, -px, -py, -pz)
        if self.lever_b is not None:
            _push_anchor(vb, self.lever_b, px, py, pz)

        wx, wy, wz = vb[3] - va[3], vb[4] - va[4], vb[5] - va[5]
        (u1x, u1y, u1z), (u2x, u2y, u2z) = self.u1, self.u2
        e1 = -((u1x * wx + u1y * wy + u1z * wz) + self.ang_bias[0])
        e2 = -((u2x * wx + u2y * wy + u2z * wz) + self.ang_bias[1])
        (q11, q12), (q21, q22) = self.kang_inv
        l1, l2 = q11 * e1 + q12 * e2, q21 * e1 + q22 * e2
        if self.spin_a is not None:
            (x1, y1, z1), (x2, y2, z2) = self.spin_a
            va[3] -= x1 * l1 + x2 * l2
            va[4] -= y1 * l1 + y2 * l2
            va[5] -= z1 * l1 + z2 * l2
        if self.spin_b is not None:
            (x1, y1, z1), (x2, y2, z2) = self.spin_b
            vb[3] += x1 * l1 + x2 * l2
            vb[4] += y1 * l1 + y2 * l2
            vb[5] += z1 * l1 + z2 * l2


def _push_anchor(v, lever, px, py, pz):
    """Apply anchor impulse p to a 6-velocity: v += (m p, I^-1 (r x p))."""
    m, ((a00, a01, a02), (a10, a11, a12), (a20, a21, a22)) = lever
    v[0] += m * px
    v[1] += m * py
    v[2] += m * pz
    v[3] += a00 * px + a01 * py + a02 * pz
    v[4] += a10 * px + a11 * py + a12 * pz
    v[5] += a20 * px + a21 * py + a22 * pz


class World:
    def __init__(self, config):
        self.config = config
        self.bodies: list[RigidBody] = []
        self.joints: list[RevoluteJoint] = []
        self.time = 0.0
        self.extra_contact_hooks = []  # callables(world) -> list[Contact]
        self.gravity = np.array([0.0, 0.0, -config.gravity])
        self.ground_enabled = True
        self._pair_skip = None

    # -- contact generation ----------------------------------------------
    def _ground_contacts(self, contacts, centers):
        mu = self.config.friction
        for body, body_centers in zip(self.bodies, centers):
            if body.inv_mass == 0.0 and not body.kinematic:
                continue
            r = body._rot
            for part, c in zip(body.parts, body_centers):
                if part.solid.kind == BOX:
                    # quick reject on the lowest support point
                    low = c[2] - float(np.abs(r[2, :]) @ part.half)
                    if low >= CONTACT_GEN_MARGIN:
                        continue
                    corners = c + part.corners @ r.T
                    for corner in corners:
                        if corner[2] < CONTACT_GEN_MARGIN:
                            contacts.append(Contact(
                                None, body, corner, _UP,
                                max(0.0, -corner[2]), mu))
                else:
                    axis = r[:, part.solid.axis]
                    hl = part.solid.length / 2.0
                    if abs(axis[2]) > 0.99:
                        # near-vertical: sample the lower rim
                        low = c - axis * hl if axis[2] > 0 else c + axis * hl
                        if low[2] - part.solid.radius >= CONTACT_GEN_MARGIN:
                            continue
                        u = np.array([1.0, 0.0, 0.0])
                        u = u - (u @ axis) * axis
                        u /= np.linalg.norm(u)
                        vperp = np.array(_cross3(axis, u))
                        for k in range(8):
                            ang = 2 * np.pi * k / 8
                            p = low + part.solid.radius * (
                                np.cos(ang) * u + np.sin(ang) * vperp)
                            if p[2] < CONTACT_GEN_MARGIN:
                                contacts.append(Contact(
                                    None, body, p, _UP,
                                    max(0.0, -p[2]), mu))
                    else:
                        down = np.array([0.0, 0.0, -1.0])
                        u = down - (down @ axis) * axis
                        u /= np.linalg.norm(u)
                        for s in (-1, 1):
                            p = c + axis * (s * hl) + part.solid.radius * u
                            if p[2] < CONTACT_GEN_MARGIN:
                                contacts.append(Contact(
                                    None, body, p, _UP,
                                    max(0.0, -p[2]), mu))

    def _jointed(self, a: RigidBody, b: RigidBody):
        if self._pair_skip is None:
            self._pair_skip = {
                frozenset((j.body_a.id, j.body_b.id)) for j in self.joints}
        return frozenset((a.id, b.id)) in self._pair_skip

    def _body_body_contacts(self, contacts, centers):
        mu = self.config.friction
        n_bodies = len(self.bodies)
        for i in range(n_bodies):
            for j in range(i + 1, n_bodies):
                a, b = self.bodies[i], self.bodies[j]
                if not (a._dynamic or a.kinematic) \
                        and not (b._dynamic or b.kinematic):
                    continue
                if self._jointed(a, b):
                    continue
                for pa, ca in zip(a.parts, centers[i]):
                    for pb, cb in zip(b.parts, centers[j]):
                        # coarse sphere reject before the exact test
                        d = cb - ca
                        if d @ d > (pa.radius + pb.radius) ** 2 + 1e-6:
                            continue
                        hit = pair_overlap(ca, pa.solid, cb, pb.solid,
                                           tol=1e-9)
                        if hit is None:
                            continue
                        depth, witness = hit
                        normal = self._separation_axis(ca, pa.solid,
                                                      cb, pb.solid)
                        contacts.append(Contact(
                            a, b, np.asarray(witness), normal, depth, mu))

    @staticmethod
    def _separation_axis(ca, sa, cb, sb):
        """Axis of least overlap between the two world AABBs, from a to b."""
        lo_a, hi_a = sa.aabb(ca)
        lo_b, hi_b = sb.aabb(cb)
        overlaps = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
        axis = int(np.argmin(overlaps))
        normal = np.zeros(3)
        normal[axis] = 1.0 if cb[axis] >= ca[axis] else -1.0
        return normal

    def gather_contacts(self):
        contacts = []
        # world centres of every part, shared by both generators
        centers = [[body.x + body._rot @ part.local_center
                    for part in body.parts] for body in self.bodies]
        if self.ground_enabled:
            self._ground_contacts(contacts, centers)
        self._body_body_contacts(contacts, centers)
        for hook in self.extra_contact_hooks:
            contacts.extend(hook(self))
        return contacts

    def _solve(self, contacts, dt):
        """Velocity then position iterations; returns the contact rows.

        Runs on float copies of the bodies, written back to the bodies'
        arrays at the end.
        """
        cfg = self.config
        bodies = {body: _SolverBody(body) for body in self.bodies}
        joint_rows = [_JointRow(j, bodies, cfg.baumgarte, dt)
                      for j in self.joints]
        contact_rows = [_contact_row(c, bodies) for c in contacts]
        for _ in range(cfg.solver_iterations):
            for row in joint_rows:
                row.solve()
            for row in contact_rows:
                row.solve_velocity()
        for _ in range(cfg.position_iterations):
            for row in contact_rows:
                row.solve_position(cfg.baumgarte, cfg.slop, dt)
        for sb in bodies.values():
            if sb.dynamic:
                sb.store()
        return contact_rows

    def step(self, dt=None):
        cfg = self.config
        dt = cfg.timestep if dt is None else dt
        self._pair_skip = None

        for body in self.bodies:
            # kinematic may have been set since the last step
            body._refresh_inertia()
            if not body._dynamic:
                body.force[:] = 0.0
                body.torque[:] = 0.0
                continue
            accel = body.force * body.inv_mass
            if not body.gravity_exempt:
                accel = accel + self.gravity
            body.v = body.v + accel * dt
            body.w = body.w + body._iinv @ body.torque * dt
            body.force[:] = 0.0
            body.torque[:] = 0.0

        contacts = self.gather_contacts()
        self._solve(contacts, dt)

        for body in self.bodies:
            if not body._dynamic and not body.kinematic:
                continue
            # written so that NaN fails the checks too
            speed = float(body.v @ body.v) ** 0.5
            if not speed <= MAX_SPEED:
                raise NumericalDivergence(
                    body.id, f"reached {speed:.3g} m/s", self.time + dt)
            spin = float(body.w @ body.w) ** 0.5
            if not spin <= MAX_SPIN:
                raise NumericalDivergence(
                    body.id, f"spun at {spin:.3g} rad/s", self.time + dt)
            body.x = body.x + (body.v + body.pv) * dt
            body.q = quat_integrate(body.q, body.w + body.pw, dt)
            body._rot = quat_to_matrix(body.q)
            body.pv[:] = 0.0
            body.pw[:] = 0.0
        self.time += dt
        return contacts
