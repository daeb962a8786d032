"""Minimal impulse-based rigid-body engine.

Semi-implicit Euler, sequential impulses with Coulomb friction, split-impulse
positional correction, and revolute joints solved as point + axis constraints.
Bodies carry lists of primitive parts (boxes / cylinders) expressed in the
body frame, which is world-aligned at compile time.

Body state is plain Python floats, during a step and between steps, in
the layout of Box2D's contact solver: a body's position ``x``, quaternion
``q``, the rows ``rot`` of its rotation matrix, one 6-list velocity ``vel``
(linear, then angular), and the ``force`` and ``torque`` applied since the
last step.  A step first refreshes each body's world inverse inertia
``iinv`` = R I^-1 R^T (zero if ``kinematic``) and zeroes its pseudo-velocity
``pvel`` in place; the constraint rows then update ``vel`` and ``pvel`` in
place, and integration moves ``x`` and ``q``.  Contact points and normals and
joint anchors and axes are float tuples as well, and so are a body's mass
properties.  The package imports no numpy and computes with + - * / and
``math.sqrt`` only, which IEEE 754 rounds correctly, so no verdict depends
on the BLAS kernel, the C library or the CPython release.  The body-body
test ``collision.pair_overlap`` returns a float depth and witness point
too, with no numpy, and ``_separation_axis`` reads the same
``geometry.aabb_overlap`` as that test.

Positions are frozen during the velocity solve, so all constraint geometry
(lever arms, effective masses, biases) is prepared once per step and the
iteration loop only touches velocities.  Each contact row keeps r x d and
I^-1 (r x d) per body and direction.  Each joint row is prepared in closed
form: straight-line float code, in locals, that sums its 3x3 anchor mass
term by term and builds its 2x2 angular mass with the same products and
sums, in the same order, as the 3-vector form, so its bits are that
form's.  A body's world inverse inertia R I^-1 R^T is formed the same
way, with no helper call.

Contact generation writes every contact straight into its feature's row
through ``_write_row``, the one place that picks a row's kind; only the
contacts of an extra contact hook are ``Contact`` objects first.  A
contact of a body that is not kinematic with the static environment,
whose normal is +z (compared by value, so the hit test's floor contacts
qualify) and whose depth is at most SLOP, gets a _GroundRow: its
directions are z, x and y, so the row keeps only the non-zero terms of
each Jacobian and response and solves all three directions in one call,
bit-identical to the generic _ContactRow.  Such a contact has no split
impulse, and its body moves.  Every other contact, deeper ground contacts
and those of a kinematic body included, gets the _ContactRow, so the
split impulse and the rule for a body that impulses do not move
(``RigidBody._lever``) each have one implementation.
Per-part constants of contact generation (box half extents, the offset
from the body centre) are computed once per part, each part's world
centre once per step, and the unjointed body pairs once per world.
Body-body contacts test every part pair of every unjointed body pair with
``pair_overlap``, whose box reject is the only broad phase.  Boxes and
lying cylinders whose lowest point is above the contact margin are
skipped before any corner or rim point is built.

Velocity impulses are warm-started (Catto, "Iterative Dynamics with
Temporal Coherence", GDC 2005; Box2D's contact solver).  Rows live across
steps: the World keeps exactly the last step's contact rows, by feature
key, and one joint row per joint index, and each row owns the impulses
it accumulated, which are its warm start.  A feature key is built from
body ids and indices only, never object identities, so a deep copy of a
world steps exactly like it:
(body id, part index, feature index) for a ground contact, where the
feature is a box corner (0-7), a standing cylinder's rim sample (0-7) or a
lying cylinder's end (8, 9); (id a, id b, part index a, part index b,
normal axis, normal sign) for a body-body contact; None, which gets a new
row in every step, for a contact from an extra contact hook.  Preparing a
row applies its (jn, jt1, jt2), or a joint's anchor impulse and its
angular impulse (kept as a world vector across the change of hinge
directions), to the bodies' velocities before the first sweep: joints by
index, then contacts in generation order.  A feature that was not live
in the last step has no row kept, so it gets a new row whose impulses
are zero, and a feature whose row changes kind (its depth crossing SLOP)
keeps its impulses.  Every sweep clamps a contact's friction to
FRICTION * jn, also when jn is 0, so no friction impulse outlives the
normal impulse that bounds it.
Impulses carry over unscaled, so every step is one timestep long: ``World``
takes that timestep, and the solver's other settings, the friction of
every contact included, are the module constants below.  Split (position)
impulses start at zero in every step.  Every world has a ground, the plane
z = 0.  Quantities are SI: metres, kilograms, seconds, newtons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..collision import pair_overlap
from ..errors import NumericalDivergence
from ..geometry import BOX, Solid, aabb_overlap, solid_inertia_diag

GRAVITY = 9.81  # m/s^2, downward along -z
FRICTION = 0.5  # Coulomb coefficient of every contact
# 3 velocity sweeps suffice because every row starts from the impulse its
# feature ended the last step with: the support goldens' margins to the
# support threshold stay above 180x, against as little as 1.01x for 3
# sweeps that start from zero (tests/test_outcome_gate.py)
VELOCITY_SWEEPS = 3
POSITION_SWEEPS = 4
BAUMGARTE = 0.2  # share of the position error corrected per step
SLOP = 1e-5  # m, contact depth left uncorrected
MAX_SPEED = 100.0  # m/s, past which a body has diverged
MAX_SPIN = 1e4  # rad/s
_INF = float("inf")
CONTACT_GEN_MARGIN = 1e-4  # m, start tracking ground contacts this close

_BOX_SIGNS = tuple((sx, sy, sz) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)
                   for sz in (-1.0, 1.0))
# (cos, sin) of the 8 rim samples of a standing cylinder, at k pi/4
_SQRT_HALF = math.sqrt(0.5)
_RIM = ((1.0, 0.0), (_SQRT_HALF, _SQRT_HALF), (0.0, 1.0),
        (-_SQRT_HALF, _SQRT_HALF), (-1.0, 0.0), (-_SQRT_HALF, -_SQRT_HALF),
        (0.0, -1.0), (_SQRT_HALF, -_SQRT_HALF))
_ZERO3 = (0.0, 0.0, 0.0)
_ZERO6 = (0.0,) * 6
_ZERO33 = (_ZERO3,) * 3
_UP = (0.0, 0.0, 1.0)


def quat_to_matrix(q):
    """The rows of the rotation matrix of the unit quaternion q."""
    w, x, y, z = q
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


def quat_integrate(q, omega, dt):
    """q advanced by the angular velocity omega over dt and normalized."""
    w, x, y, z = q
    ox, oy, oz = omega
    w, x, y, z = (w + 0.5 * (-ox * x - oy * y - oz * z) * dt,
                  x + 0.5 * (ox * w + oy * z - oz * y) * dt,
                  y + 0.5 * (oy * w + oz * x - ox * z) * dt,
                  z + 0.5 * (oz * w + ox * y - oy * x) * dt)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return w / n, x / n, y / n, z / n


def _floats(v):
    """A sequence of numbers (numpy's included) as a tuple of floats."""
    return tuple(map(float, v))


def _inverse3(m):
    """The inverse of the 3x3 matrix m (rows) by cofactors, as rows."""
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = m
    c0 = k11 * k22 - k12 * k21
    c1 = k12 * k20 - k10 * k22
    c2 = k10 * k21 - k11 * k20
    s = 1.0 / (k00 * c0 + k01 * c1 + k02 * c2)
    return ((c0 * s, (k02 * k21 - k01 * k22) * s, (k01 * k12 - k02 * k11) * s),
            (c1 * s, (k00 * k22 - k02 * k20) * s, (k02 * k10 - k00 * k12) * s),
            (c2 * s, (k01 * k20 - k00 * k21) * s, (k00 * k11 - k01 * k10) * s))


@dataclass
class BodyPart:
    name: str
    solid: Solid
    local_center: tuple  # offset from body COM in the body frame, as floats
    # constants of contact generation, fixed with the solid
    half: tuple | None = field(init=False)  # box half extents

    def __post_init__(self):
        self.half = None
        if self.solid.kind == BOX:
            self.half = tuple(e / 2.0 for e in self.solid.extents)

    def low_z(self, cz, rot_z):
        """Lowest world z of the part, centred at height ``cz`` in a body
        whose rotation has bottom row ``rot_z``."""
        if self.half is not None:
            # support point of a rotated box along -z
            h0, h1, h2 = self.half
            return cz - (abs(rot_z[0]) * h0 + abs(rot_z[1]) * h1
                         + abs(rot_z[2]) * h2)
        az = rot_z[self.solid.axis]
        radial = math.sqrt(max(1.0 - az * az, 0.0)) * self.solid.radius
        return cz - abs(az) * (self.solid.length / 2.0) - radial


class RigidBody:
    """A rigid body of primitive parts, its state as plain floats: centre
    of mass ``x``, orientation ``q`` (w, x, y, z) with rotation rows ``rot``
    (call ``refresh_pose_cache`` after setting ``q`` or ``kinematic``), the
    6-list velocity ``vel`` (vx, vy, vz, wx, wy, wz), and the ``force`` and
    ``torque`` that the next step applies and clears."""

    @classmethod
    def from_parts(cls, body_id, named_solids, part_mass):
        """named_solids: list of (name, Solid, world_center) at compile pose;
        the centre of mass is the unweighted mean of the centres."""
        self = cls.__new__(cls)
        self.id = body_id
        centers = [_floats(c) for _, _, c in named_solids]
        n = len(centers)
        sx = sy = sz = 0.0
        for x, y, z in centers:
            sx, sy, sz = sx + x, sy + y, sz + z
        self.x = com = (sx / n, sy / n, sz / n)
        self.mass = part_mass * n
        self.parts = [BodyPart(name, s, tuple(c - o for c, o in zip(p, com)))
                      for (name, s, _), p in zip(named_solids, centers)]
        inertia = [[0.0] * 3 for _ in range(3)]
        for part in self.parts:
            diag = solid_inertia_diag(part_mass, part.solid)
            d = part.local_center
            dd = _dot3(d, d)
            for i, row in enumerate(inertia):
                row[i] += diag[i]
                for j in range(3):
                    row[j] += part_mass * ((dd if i == j else 0.0)
                                           - d[i] * d[j])
        self.q = (1.0, 0.0, 0.0, 0.0)
        self.vel = [0.0] * 6
        self.pvel = [0.0] * 6
        self.force = self.torque = _ZERO3
        self.kinematic = False
        self.gravity_exempt = False
        self.inv_mass = 1.0 / self.mass
        self.inertia_body = tuple(map(tuple, inertia))
        self.inv_inertia_body = _inverse3(self.inertia_body)
        self.refresh_pose_cache()
        return self

    # -- kinematics -------------------------------------------------------
    def refresh_pose_cache(self):
        """Recompute ``rot`` from ``q``, and the state a step derives from
        the pose, after setting ``q`` or ``kinematic`` directly."""
        self.rot = quat_to_matrix(self.q)
        self._start_step()

    def _start_step(self):
        """Set the world inverse inertia ``iinv`` = R I^-1 R^T (zero for a
        kinematic body, which impulses do not move) and zero the
        pseudo-velocity ``pvel`` in place, where contact rows read it.  Each
        step starts here, since ``kinematic`` may have been set since the
        last one."""
        self.pvel[:] = _ZERO6
        if self.kinematic:
            self.iinv = _ZERO33
            return
        # column j of I^-1 R^T is I^-1 applied to row j of R: (a, b, c)
        # from row 0, (d, e, f) from row 1 and (g, h, i) from row 2
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = self.rot
        (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = \
            self.inv_inertia_body
        a = i00 * r00 + i01 * r01 + i02 * r02
        b = i10 * r00 + i11 * r01 + i12 * r02
        c = i20 * r00 + i21 * r01 + i22 * r02
        d = i00 * r10 + i01 * r11 + i02 * r12
        e = i10 * r10 + i11 * r11 + i12 * r12
        f = i20 * r10 + i21 * r11 + i22 * r12
        g = i00 * r20 + i01 * r21 + i02 * r22
        h = i10 * r20 + i11 * r21 + i12 * r22
        i = i20 * r20 + i21 * r21 + i22 * r22
        self.iinv = (
            (r00 * a + r01 * b + r02 * c, r00 * d + r01 * e + r02 * f,
             r00 * g + r01 * h + r02 * i),
            (r10 * a + r11 * b + r12 * c, r10 * d + r11 * e + r12 * f,
             r10 * g + r11 * h + r12 * i),
            (r20 * a + r21 * b + r22 * c, r20 * d + r21 * e + r22 * f,
             r20 * g + r21 * h + r22 * i))

    def world_point(self, local):
        """The world position x + R p of a point p given in the body
        frame."""
        px, py, pz = local
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = self.rot
        x, y, z = self.x
        return (x + (r00 * px + r01 * py + r02 * pz),
                y + (r10 * px + r11 * py + r12 * pz),
                z + (r20 * px + r21 * py + r22 * pz))

    def apply_force(self, force, point=None):
        """Add a world force, acting at the world ``point`` (None: at the
        centre of mass); the torque is (point - x) x force."""
        fx, fy, fz = force
        fx, fy, fz = float(fx), float(fy), float(fz)
        gx, gy, gz = self.force
        self.force = (gx + fx, gy + fy, gz + fz)
        if point is not None:
            px, py, pz = point
            x, y, z = self.x
            rx, ry, rz = float(px) - x, float(py) - y, float(pz) - z
            tx, ty, tz = self.torque
            self.torque = (tx + (ry * fz - rz * fy), ty + (rz * fx - rx * fz),
                           tz + (rx * fy - ry * fx))

    def apply_torque(self, torque):
        self.torque = tuple(t + u for t, u in zip(self.torque,
                                                  _floats(torque)))

    def part_min_z(self, part: BodyPart):
        """Lowest world z over the (rotated) part geometry."""
        rz = self.rot[2]
        px, py, pz = part.local_center
        cz = self.x[2] + (rz[0] * px + rz[1] * py + rz[2] * pz)
        return part.low_z(cz, rz)

    def kinetic_energy(self):
        """1/2 m v.v + 1/2 w_b . I w_b, with w_b = R^T w in the body frame."""
        v, w = self.vel[:3], _matvec3(tuple(zip(*self.rot)), self.vel[3:])
        return (0.5 * self.mass * _dot3(v, v)
                + 0.5 * _dot3(w, _matvec3(self.inertia_body, w)))

    # -- the step's share of one body ---------------------------------------
    def _integrate_forces(self, gravity, dt):
        """Integrate the force, torque and ``gravity`` (None for a
        gravity-exempt body) into the velocity over dt."""
        v, m = self.vel, self.inv_mass
        fx, fy, fz = self.force
        ax, ay, az = fx * m, fy * m, fz * m
        if gravity is not None:
            ax, ay, az = ax + gravity[0], ay + gravity[1], az + gravity[2]
        a0, a1, a2 = _matvec3(self.iinv, self.torque)
        v[0] += ax * dt
        v[1] += ay * dt
        v[2] += az * dt
        v[3] += a0 * dt
        v[4] += a1 * dt
        v[5] += a2 * dt

    def _integrate(self, dt, time):
        """Move the body over dt by its velocity plus pseudo-velocity.

        Raises NumericalDivergence, dated ``time``, when the speed or spin
        is past its bound or not a number.
        """
        vx, vy, vz, wx, wy, wz = self.vel
        # written so that NaN fails the checks too
        speed = math.sqrt(vx * vx + vy * vy + vz * vz)
        if not speed <= MAX_SPEED:
            raise NumericalDivergence(
                self.id, f"reached {speed:.3g} m/s", time)
        spin = math.sqrt(wx * wx + wy * wy + wz * wz)
        if not spin <= MAX_SPIN:
            raise NumericalDivergence(
                self.id, f"spun at {spin:.3g} rad/s", time)
        pvx, pvy, pvz, pwx, pwy, pwz = self.pvel
        x, y, z = self.x
        self.x = (x + (vx + pvx) * dt, y + (vy + pvy) * dt,
                  z + (vz + pvz) * dt)
        self.q = quat_integrate(self.q, (wx + pwx, wy + pwy, wz + pwz), dt)
        self.rot = quat_to_matrix(self.q)

    def _lever(self, r, d):
        """Jacobian, impulse response and effective mass along d at r.

        The response is None (and the mass 0) for a body impulses do not move.
        """
        c = _cross3(r, d)
        jac = (d[0], d[1], d[2], c[0], c[1], c[2])
        if self.kinematic:
            return jac, None, 0.0
        m = self.inv_mass
        ic = _matvec3(self.iinv, c)
        resp = (m * d[0], m * d[1], m * d[2], ic[0], ic[1], ic[2])
        return jac, resp, m + _dot3(c, ic)


@dataclass
class RevoluteJoint:
    """A hinge: anchor points and axes in each body's frame, stored as float
    tuples whatever sequence they are given as."""
    body_a: RigidBody
    body_b: RigidBody
    anchor_local_a: tuple
    anchor_local_b: tuple
    axis_local_a: tuple
    axis_local_b: tuple

    def __post_init__(self):
        self.anchor_local_a = _floats(self.anchor_local_a)
        self.anchor_local_b = _floats(self.anchor_local_b)
        self.axis_local_a = _floats(self.axis_local_a)
        self.axis_local_b = _floats(self.axis_local_b)


@dataclass
class Contact:
    """One point where body_b touches body_a or the static environment, as
    an extra contact hook returns it; ``World`` writes it into its
    feature's row.  Every contact has the friction coefficient
    ``FRICTION``."""
    body_a: RigidBody | None  # None = static environment (ground / fixture)
    body_b: RigidBody
    point: tuple  # world, 3 floats
    normal: tuple  # from a to b, 3 floats
    depth: float
    # the feature this contact comes from, built from body ids and part and
    # feature indices, which keys its row across steps; None: a new row
    key: tuple | None = None


# -- solver: plain-float rows over the bodies' velocity lists ----------------
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


def _solve_row(row, va, vb, acc, target, lo, hi):
    """One sequential-impulse update along one row direction.

    Drives the relative speed J_b . V_b - J_a . V_a toward ``target`` with
    the accumulated impulse clamped to [lo, hi], applies the change to the
    6-velocities ``va`` (None for the static environment) and ``vb`` in
    place, and returns the new accumulated impulse.
    """
    ja, jb, _, _, k = row
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
        _push_row(row, va, vb, dj)
    return new


def _push_row(row, va, vb, dj):
    """Apply impulse dj along one row direction to va (None: static) and
    vb in place; for _solve_row and the warm start at row setup."""
    _, _, resp_a, resp_b, _ = row
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


class _ContactRow:
    """One contact point: the normal and two friction directions.

    ``body_a`` (None: the static environment), ``body_b``, ``point``,
    ``normal``, ``depth`` and the feature ``key`` are the contact's, and
    ``_write_row`` rewrites them in every step the feature is live.
    ``prepare`` builds each direction as (J_a, J_b, response_a, response_b,
    effective mass); J_a is None against the static environment, and a
    response is None for a side that impulses do not move.  jn, jt1, jt2
    and pn accumulate the normal, friction and split (position) impulses;
    the first three start at zero in a new row, carry over from the last
    step in a kept one, and are applied to the bodies when the row is
    prepared.
    ``target`` is the split impulse's speed target BAUMGARTE * (depth -
    SLOP) / dt, None where the contact is not that deep or no side moves;
    World._solve runs ``solve_position`` only where it is set.
    """

    __slots__ = ("body_a", "body_b", "point", "normal", "depth", "key",
                 "va", "vb", "pa", "pb", "target", "n", "t1", "t2",
                 "jn", "jt1", "jt2", "pn")

    def __init__(self, key):
        """A cold row; ``_write_row`` writes its contact's fields."""
        self.key = key
        self.jn = self.jt1 = self.jt2 = 0.0

    def prepare(self, dt):
        a, b = self.body_a, self.body_b
        self.vb, self.pb = b.vel, b.pvel
        self.va, self.pa = (None, None) if a is None else (a.vel, a.pvel)
        n = self.normal
        t1 = _unit_perpendicular(n)
        t2 = _cross3(n, t1)
        px, py, pz = self.point
        rb = (px - b.x[0], py - b.x[1], pz - b.x[2])
        ra = None if a is None else (px - a.x[0], py - a.x[1], pz - a.x[2])
        self.n, self.t1, self.t2 = (_direction(a, ra, b, rb, d)
                                    for d in (n, t1, t2))
        pen = self.depth - SLOP
        self.target = None if pen <= 0.0 or self.n[4] <= 0.0 \
            else BAUMGARTE * pen / dt
        self.pn = 0.0
        if self.n[4] > 0.0:
            for row, j in zip((self.n, self.t1, self.t2),
                              (self.jn, self.jt1, self.jt2)):
                _push_row(row, self.va, self.vb, j)
        else:
            self.jn = self.jt1 = self.jt2 = 0.0

    def solve_velocity(self):
        if self.n[4] <= 0.0:
            return
        va, vb = self.va, self.vb
        jn = self.jn = _solve_row(self.n, va, vb, self.jn, 0.0, 0.0, _INF)
        # with jn = 0 the friction is clamped to 0, so no friction impulse
        # outlives the normal impulse that bounds it, in this step or the
        # next one's warm start
        max_f = FRICTION * jn
        # n[4] > 0: a side moves, adding inv_mass > 0 and c . (I^-1 c) >= 0
        # (I^-1 is positive semi-definite) to every direction's mass, so
        # t1[4] and t2[4] are positive too
        self.jt1 = _solve_row(self.t1, va, vb, self.jt1, 0.0, -max_f, max_f)
        self.jt2 = _solve_row(self.t2, va, vb, self.jt2, 0.0, -max_f, max_f)

    def solve_position(self):
        self.pn = _solve_row(self.n, self.pa, self.pb, self.pn, self.target,
                             0.0, _INF)


def _direction(a, ra, b, rb, d):
    """Row direction d of a contact between a (None: static) and b."""
    jb, resp_b, k = b._lever(rb, d)
    if a is None:
        return None, jb, None, resp_b, k
    ja, resp_a, ka = a._lever(ra, d)
    return ja, jb, resp_a, resp_b, k + ka


class _GroundRow:
    """A contact of a moving body with the static environment whose normal
    is exactly +z and whose depth is at most SLOP (see _write_row).

    For this normal _ContactRow picks t1 = x and t2 = y, so each Jacobian
    (d, r x d) has three exact zeros: r x z = (ry, -rx, 0),
    r x x = (0, rz, -ry) and r x y = (-rz, 0, rx).  The preparation and the
    updates multiply only the other terms, summed in the order
    _ContactRow sums them.  The products left out are exact zeros, so
    velocities and impulses come out bit-identical to _ContactRow's.
    Each direction keeps (k, I^-1 (r x d)), k > 0 as the body moves.  The
    fields, the carried impulses and the warm start are _ContactRow's, the
    latter added in _ContactRow's order too.  A contact this shallow has
    no split impulse.
    """

    __slots__ = ("body_b", "point", "depth", "key", "v", "r", "m", "n",
                 "t1", "t2", "jn", "jt1", "jt2")
    body_a = None
    normal = _UP
    target = None

    def __init__(self, key):
        self.key = key
        self.jn = self.jt1 = self.jt2 = 0.0

    def prepare(self, dt):
        b = self.body_b
        v = self.v = b.vel
        px, py, pz = self.point
        x, y, z = b.x
        rx, ry, rz = self.r = (px - x, py - y, pz - z)
        m = self.m = b.inv_mass
        (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = b.iinv
        n0, n1, n2 = i00 * ry - i01 * rx, i10 * ry - i11 * rx, \
            i20 * ry - i21 * rx
        self.n = (m + (ry * n0 - rx * n1), n0, n1, n2)
        x0, x1, x2 = i01 * rz - i02 * ry, i11 * rz - i12 * ry, \
            i21 * rz - i22 * ry
        self.t1 = (m + (rz * x1 - ry * x2), x0, x1, x2)
        y0, y1, y2 = i02 * rx - i00 * rz, i12 * rx - i10 * rz, \
            i22 * rx - i20 * rz
        self.t2 = (m + (rx * y2 - rz * y0), y0, y1, y2)
        # n, then t1, then t2 onto each component, as _push_row adds
        jn, jt1, jt2 = self.jn, self.jt1, self.jt2
        v[0] += jt1 * m
        v[1] += jt2 * m
        v[2] += jn * m
        v[3] = v[3] + jn * n0 + jt1 * x0 + jt2 * y0
        v[4] = v[4] + jn * n1 + jt1 * x1 + jt2 * y1
        v[5] = v[5] + jn * n2 + jt1 * x2 + jt2 * y2

    # With a zero target, acc - u / k is _solve_row's acc + (0 - u) / k.
    def solve_velocity(self):
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
        # as in _ContactRow, jn = 0 clamps the friction to 0
        hi = FRICTION * new
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


class _JointRow:
    """One revolute joint: a 3-row point constraint and 2 angular rows.

    The row lives across steps, one per joint index, and ``prepare``
    rebuilds it for the step in straight-line float code in locals: it
    rotates the anchors and axes into the world, sums K = sum over dynamic
    bodies of m 1 - [r]x I^-1 [r]x term by term, and inverts K and the
    angular rows' 2x2 mass by cofactors.  Every product and sum is the one
    the 3-vector form (R p, I^-1 (r x e_j), r x (I^-1 (r x e_j)), ...)
    computes, in the same order, so the rows are bit-identical to it.  The
    anchor rows keep K^-1 and, per dynamic body, the 10-tuple ``lever`` (m,
    then I^-1 [r]x row by row; negated for body a, which takes the opposite
    impulse) that turns an anchor impulse into velocity changes.  The
    angular rows keep the two hinge-perpendicular directions u1, u2, their
    2x2 inverse mass and, per dynamic body, the 6-tuple ``spin`` (I^-1 u1,
    I^-1 u2).  A body that impulses do not move has neither, and adds
    nothing to either mass.  ``solve`` and the warm start apply impulses
    through these tuples in ``_push_anchor`` and ``_push_spin``, with no
    call per body.

    (px, py, pz) and (l1, l2) total the anchor and angular impulses.  They
    carry over from the last step, the angular one as the world vector
    ``impulse`` gives, projected onto this step's u1 and u2, and are
    applied to the bodies when the row is prepared, with the updates
    ``solve`` makes.  A new row starts at zero.
    """

    __slots__ = ("va", "vb", "ra", "rb", "kinv", "bias", "lever_a",
                 "lever_b", "u1", "u2", "kang_inv", "ang_bias", "spin_a",
                 "spin_b", "px", "py", "pz", "l1", "l2")

    def __init__(self):
        self.u1 = None  # no step solved yet: start cold

    def prepare(self, joint: RevoluteJoint, dt):
        impulse = None if self.u1 is None else self.impulse()
        a, b = joint.body_a, joint.body_b
        self.va, self.vb = a.vel, b.vel
        # anchors and axes in the world: R p, row by row
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = a.rot
        x, y, z = joint.anchor_local_a
        rax, ray, raz = self.ra = (r00 * x + r01 * y + r02 * z,
                                   r10 * x + r11 * y + r12 * z,
                                   r20 * x + r21 * y + r22 * z)
        x, y, z = joint.axis_local_a
        axis_a = (r00 * x + r01 * y + r02 * z,
                  r10 * x + r11 * y + r12 * z,
                  r20 * x + r21 * y + r22 * z)
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = b.rot
        x, y, z = joint.anchor_local_b
        rbx, rby, rbz = self.rb = (r00 * x + r01 * y + r02 * z,
                                   r10 * x + r11 * y + r12 * z,
                                   r20 * x + r21 * y + r22 * z)
        x, y, z = joint.axis_local_b
        axis_b = (r00 * x + r01 * y + r02 * z,
                  r10 * x + r11 * y + r12 * z,
                  r20 * x + r21 * y + r22 * z)
        f = BAUMGARTE / dt
        (xa, ya, za), (xb, yb, zb) = a.x, b.x
        self.bias = (f * ((xb + rbx) - (xa + rax)),
                     f * ((yb + rby) - (ya + ray)),
                     f * ((zb + rbz) - (za + raz)))

        # u1 perpendicular to axis_a, u2 = axis_a x u1
        u1x, u1y, u1z = self.u1 = _unit_perpendicular(axis_a)
        u2x, u2y, u2z = self.u2 = _cross3(axis_a, self.u1)
        # driving the perpendicular relative spin toward
        # -BAUMGARTE/dt * (axis_a x axis_b) decays the misalignment without
        # cross-coupling the two error components
        x, y, z = _cross3(axis_a, axis_b)
        self.ang_bias = (f * (u1x * x + u1y * y + u1z * z),
                         f * (u2x * x + u2y * y + u2z * z))

        k00 = k01 = k02 = k10 = k11 = k12 = k20 = k21 = k22 = 0.0
        # adding -0.0 changes no float, so these sums hold the dynamic
        # bodies' terms only
        g11 = g12 = g21 = g22 = -0.0
        sides = []
        for body, rx, ry, rz in ((a, rax, ray, raz), (b, rbx, rby, rbz)):
            if body.kinematic:
                sides.append((None, None))
                continue
            m = body.inv_mass
            (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = body.iinv
            # cj0, cj1, cj2 is column j of I^-1 [r]x, I^-1 (r x e_j), with
            # r x x = (0, rz, -ry), r x y = (-rz, 0, rx) and
            # r x z = (ry, -rx, 0); the products with the exact zero are
            # left out, which changes no bit of the sums
            c00, c10, c20 = (i01 * rz - i02 * ry, i11 * rz - i12 * ry,
                             i21 * rz - i22 * ry)
            c01, c11, c21 = (i02 * rx - i00 * rz, i12 * rx - i10 * rz,
                             i22 * rx - i20 * rz)
            c02, c12, c22 = (i00 * ry - i01 * rx, i10 * ry - i11 * rx,
                             i20 * ry - i21 * rx)
            # column j of K: minus r x (column j of I^-1 [r]x), then m on
            # the diagonal
            k00 -= ry * c20 - rz * c10
            k10 -= rz * c00 - rx * c20
            k20 -= rx * c10 - ry * c00
            k00 += m
            k01 -= ry * c21 - rz * c11
            k11 -= rz * c01 - rx * c21
            k21 -= rx * c11 - ry * c01
            k11 += m
            k02 -= ry * c22 - rz * c12
            k12 -= rz * c02 - rx * c22
            k22 -= rx * c12 - ry * c02
            k22 += m
            # I^-1 u1 = (p0, p1, p2) and I^-1 u2 = (q0, q1, q2)
            p0 = i00 * u1x + i01 * u1y + i02 * u1z
            p1 = i10 * u1x + i11 * u1y + i12 * u1z
            p2 = i20 * u1x + i21 * u1y + i22 * u1z
            q0 = i00 * u2x + i01 * u2y + i02 * u2z
            q1 = i10 * u2x + i11 * u2y + i12 * u2z
            q2 = i20 * u2x + i21 * u2y + i22 * u2z
            g11 += u1x * p0 + u1y * p1 + u1z * p2
            g12 += u1x * q0 + u1y * q1 + u1z * q2
            g21 += u2x * p0 + u2y * p1 + u2z * p2
            g22 += u2x * q0 + u2y * q1 + u2z * q2
            if body is a:
                # a takes the opposite impulse: (-c) p is c (-p), bit for bit
                m, c00, c01, c02, c10, c11, c12, c20, c21, c22 = (
                    -m, -c00, -c01, -c02, -c10, -c11, -c12, -c20, -c21, -c22)
            sides.append(((m, c00, c01, c02, c10, c11, c12, c20, c21, c22),
                          (p0, p1, p2, q0, q1, q2)))
        (self.lever_a, self.spin_a), (self.lever_b, self.spin_b) = sides

        self.kinv = _inverse3(((k00, k01, k02), (k10, k11, k12),
                               (k20, k21, k22)))
        det = g11 * g22 - g12 * g21
        self.kang_inv = (g22 / det, -g12 / det, -g21 / det, g11 / det)

        self.px = self.py = self.pz = self.l1 = self.l2 = 0.0
        if impulse is None:
            return
        # the updates of solve: the anchor impulse, then the angular one
        (px, py, pz), (x, y, z) = impulse
        self._push_anchor(px, py, pz)
        l1 = u1x * x + u1y * y + u1z * z
        l2 = u2x * x + u2y * y + u2z * z
        self._push_spin(l1, l2)
        self.px, self.py, self.pz, self.l1, self.l2 = px, py, pz, l1, l2

    def _push_anchor(self, px, py, pz):
        """Apply the anchor impulse (px, py, pz) to both bodies."""
        va, vb = self.va, self.vb
        lever = self.lever_a
        if lever is not None:
            m, c00, c01, c02, c10, c11, c12, c20, c21, c22 = lever
            va[0] += m * px
            va[1] += m * py
            va[2] += m * pz
            va[3] += c00 * px + c01 * py + c02 * pz
            va[4] += c10 * px + c11 * py + c12 * pz
            va[5] += c20 * px + c21 * py + c22 * pz
        lever = self.lever_b
        if lever is not None:
            m, c00, c01, c02, c10, c11, c12, c20, c21, c22 = lever
            vb[0] += m * px
            vb[1] += m * py
            vb[2] += m * pz
            vb[3] += c00 * px + c01 * py + c02 * pz
            vb[4] += c10 * px + c11 * py + c12 * pz
            vb[5] += c20 * px + c21 * py + c22 * pz

    def _push_spin(self, l1, l2):
        """Apply the angular impulse l1 u1 + l2 u2 to both bodies."""
        va, vb = self.va, self.vb
        spin = self.spin_a
        if spin is not None:
            x1, y1, z1, x2, y2, z2 = spin
            va[3] -= x1 * l1 + x2 * l2
            va[4] -= y1 * l1 + y2 * l2
            va[5] -= z1 * l1 + z2 * l2
        spin = self.spin_b
        if spin is not None:
            x1, y1, z1, x2, y2, z2 = spin
            vb[3] += x1 * l1 + x2 * l2
            vb[4] += y1 * l1 + y2 * l2
            vb[5] += z1 * l1 + z2 * l2

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
        self._push_anchor(px, py, pz)
        self.px += px
        self.py += py
        self.pz += pz

        wx, wy, wz = vb[3] - va[3], vb[4] - va[4], vb[5] - va[5]
        (u1x, u1y, u1z), (u2x, u2y, u2z) = self.u1, self.u2
        e1 = -((u1x * wx + u1y * wy + u1z * wz) + self.ang_bias[0])
        e2 = -((u2x * wx + u2y * wy + u2z * wz) + self.ang_bias[1])
        q11, q12, q21, q22 = self.kang_inv
        l1, l2 = q11 * e1 + q12 * e2, q21 * e1 + q22 * e2
        self._push_spin(l1, l2)
        self.l1 += l1
        self.l2 += l2

    def impulse(self):
        """The step's anchor and angular impulses as world vectors."""
        (u1x, u1y, u1z), (u2x, u2y, u2z) = self.u1, self.u2
        l1, l2 = self.l1, self.l2
        return ((self.px, self.py, self.pz),
                (l1 * u1x + l2 * u2x, l1 * u1y + l2 * u2y,
                 l1 * u1z + l2 * u2z))


def _write_row(rows, out, a, b, point, normal, depth, key):
    """Write the contact of body ``b`` with ``a`` (None: the static
    environment) at the world ``point``, ``normal`` from a to b, ``depth``
    deep, into a row for its feature ``key``, and append that row to
    ``out``.  The one rule for a row's kind: a _GroundRow where a is None,
    the normal is +z (by value, so a hook's floor contact qualifies), b is
    not kinematic and the depth is at most SLOP, else a _ContactRow.  The
    row is the feature's row in ``rows``, the last step's, if it is of
    that kind, else a new one that keeps what the last step's row of the
    feature carried, if there was one."""
    ground = (a is None and (normal is _UP or normal == _UP)
              and not b.kinematic and depth - SLOP <= 0.0)
    cls = _GroundRow if ground else _ContactRow
    row = rows.get(key)
    if type(row) is not cls:
        old, row = row, cls(key)
        if old is not None:
            row.jn, row.jt1, row.jt2 = old.jn, old.jt1, old.jt2
    if cls is _ContactRow:
        row.body_a, row.normal = a, normal
    row.body_b, row.point, row.depth = b, point, depth
    out.append(row)


def _ground_feature(rows, out, body, key, point):
    """``_write_row`` for the ground feature ``key`` of ``body`` at the
    world ``point``, under the contact margin, as deep as it is below z = 0."""
    z = point[2]
    _write_row(rows, out, None, body, point, _UP, -z if z < 0.0 else 0.0, key)


def _standing_rim_rows(rows, out, body, index, part, r, c):
    """Ground features at 8 samples of the lower rim of a near-vertical
    cylinder, part ``index`` of ``body``; rim sample k is feature k."""
    solid = part.solid
    a0, a1, a2 = (row[solid.axis] for row in r)
    hl = solid.length / 2.0 if a2 > 0 else -solid.length / 2.0
    low = (c[0] - a0 * hl, c[1] - a1 * hl, c[2] - a2 * hl)
    rad = solid.radius
    if low[2] - rad >= CONTACT_GEN_MARGIN:
        return
    # x with its axis component removed, normalized, and axis x u
    u = (1.0 - a0 * a0, -(a0 * a1), -(a0 * a2))
    norm = math.sqrt(_dot3(u, u))
    u = (u[0] / norm, u[1] / norm, u[2] / norm)
    vp = _cross3((a0, a1, a2), u)
    for k, (cs, sn) in enumerate(_RIM):
        z = low[2] + rad * (cs * u[2] + sn * vp[2])
        if z < CONTACT_GEN_MARGIN:
            _ground_feature(rows, out, body, (body.id, index, k), (
                low[0] + rad * (cs * u[0] + sn * vp[0]),
                low[1] + rad * (cs * u[1] + sn * vp[1]), z))


class World:
    def __init__(self, timestep):
        self.timestep = timestep
        self.bodies: list[RigidBody] = []
        self.joints: list[RevoluteJoint] = []
        self.time = 0.0
        self.extra_contact_hooks = []  # callables(world) -> list[Contact]
        # the rows that live across steps: the last step's contact rows by
        # feature key, and one joint row per joint index
        self._rows = {}
        self._joint_rows = []
        # the unjointed body pairs, and the bodies and joints they are of
        self._pairs = self._pairs_of = None

    # -- contact generation ----------------------------------------------
    def _ground_rows(self, out, centers):
        rows = self._rows
        for body, body_centers in zip(self.bodies, centers):
            r = body.rot
            rz = r[2]
            bid = body.id
            for index, (part, c) in enumerate(zip(body.parts, body_centers)):
                cx, cy, cz = c
                solid = part.solid
                if part.half is None and abs(rz[solid.axis]) > 0.99:
                    _standing_rim_rows(rows, out, body, index, part, r, c)
                    continue
                # quick reject on the lowest point of a box or lying cylinder
                if part.low_z(cz, rz) >= CONTACT_GEN_MARGIN:
                    continue
                if part.half is not None:
                    # rotation times each signed half extent: corner z
                    # first, x and y only for corners under the margin
                    h0, h1, h2 = part.half
                    (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = r
                    e00, e01, e02 = e00 * h0, e01 * h1, e02 * h2
                    e10, e11, e12 = e10 * h0, e11 * h1, e12 * h2
                    e20, e21, e22 = e20 * h0, e21 * h1, e22 * h2
                    for k, (s0, s1, s2) in enumerate(_BOX_SIGNS):
                        z = cz + ((s0 * e20 + s1 * e21) + s2 * e22)
                        if z < CONTACT_GEN_MARGIN:
                            _ground_feature(rows, out, body, (bid, index, k), (
                                cx + ((s0 * e00 + s1 * e01) + s2 * e02),
                                cy + ((s0 * e10 + s1 * e11) + s2 * e12),
                                z))
                    continue
                # lying cylinder: the two rim points lowest along -z, where
                # u is -z with its axis component removed, normalized; they
                # are features 8 and 9, apart from the standing rim's 0-7
                a0, a1, a2 = (row[solid.axis] for row in r)
                ux, uy, uz = a2 * a0, a2 * a1, a2 * a2 - 1.0
                norm = math.sqrt(ux * ux + uy * uy + uz * uz)
                ux, uy, uz = ux / norm, uy / norm, uz / norm
                hl, rad = solid.length / 2.0, solid.radius
                for k, e in ((8, -hl), (9, hl)):
                    z = (cz + a2 * e) + rad * uz
                    if z < CONTACT_GEN_MARGIN:
                        _ground_feature(rows, out, body, (bid, index, k), (
                            (cx + a0 * e) + rad * ux,
                            (cy + a1 * e) + rad * uy, z))

    def _unjointed_pairs(self):
        """The indices (i, j), i < j, of every body pair that no joint
        hinges, computed again only when the bodies or joints change."""
        of = (tuple(self.bodies), tuple(self.joints))
        if of != self._pairs_of:
            jointed = {frozenset((j.body_a.id, j.body_b.id))
                       for j in self.joints}
            n = len(self.bodies)
            self._pairs = [
                (i, j) for i in range(n) for j in range(i + 1, n)
                if frozenset((self.bodies[i].id, self.bodies[j].id))
                not in jointed]
            self._pairs_of = of
        return self._pairs

    def _body_body_contacts(self, out, centers):
        rows = self._rows
        # hinged bodies are not tested against each other
        for i, j in self._unjointed_pairs():
            a, b = self.bodies[i], self.bodies[j]
            for ia, (pa, ca) in enumerate(zip(a.parts, centers[i])):
                for ib, (pb, cb) in enumerate(zip(b.parts, centers[j])):
                    hit = pair_overlap(ca, pa.solid, cb, pb.solid, tol=1e-10)
                    if hit is None:
                        continue
                    depth, witness = hit
                    axis, sign = self._separation_axis(
                        ca, pa.solid, cb, pb.solid)
                    normal = [0.0, 0.0, 0.0]
                    normal[axis] = sign
                    _write_row(rows, out, a, b, witness, tuple(normal), depth,
                               (a.id, b.id, ia, ib, axis, sign))

    @staticmethod
    def _separation_axis(ca, sa, cb, sb):
        """Axis of least overlap between the two world AABBs, the first of
        equal ones, and the sign of the normal along it from a to b."""
        overlaps = [hi - lo for lo, hi in
                    aabb_overlap(ca, sa.extents, cb, sb.extents)]
        axis = min(range(3), key=overlaps.__getitem__)
        return axis, 1.0 if cb[axis] >= ca[axis] else -1.0

    def gather_contacts(self):
        """The step's contact rows, one per contact, in generation order:
        ground features, body-body contacts, then each extra hook's.  They
        become the rows kept by feature key, all but a hook's of key None."""
        rows = []
        # world centres of every part, shared by both generators
        centers = [[body.world_point(part.local_center)
                    for part in body.parts] for body in self.bodies]
        self._ground_rows(rows, centers)
        self._body_body_contacts(rows, centers)
        for hook in self.extra_contact_hooks:
            for c in hook(self):
                _write_row(self._rows, rows, c.body_a, c.body_b, c.point,
                           c.normal, c.depth, c.key)
        self._rows = {row.key: row for row in rows if row.key is not None}
        return rows

    def _solve(self, rows, dt):
        """Velocity then position iterations on the bodies' ``vel`` and
        ``pvel``; returns the contact rows.

        Each joint row, by index, and then each contact row, in order, is
        prepared and applies the impulses it carried over from the last
        step, zero in a new row; the impulses of this step's velocity
        sweeps stay on the rows for the next one.
        """
        joints, joint_rows = self.joints, self._joint_rows
        del joint_rows[len(joints):]
        joint_rows += [_JointRow() for _ in joints[len(joint_rows):]]
        for row, joint in zip(joint_rows, joints):
            row.prepare(joint, dt)
        for row in rows:
            row.prepare(dt)
        for _ in range(VELOCITY_SWEEPS):
            for row in joint_rows:
                row.solve()
            for row in rows:
                row.solve_velocity()
        # only a _ContactRow has a split impulse, where its target is set
        position_rows = [row for row in rows if row.target is not None]
        for _ in range(POSITION_SWEEPS):
            for row in position_rows:
                row.solve_position()
        return rows

    def step(self):
        """Advance the world by one timestep; returns the step's contact
        rows, each naming ``body_a`` (None: the environment) and
        ``body_b``."""
        dt = self.timestep
        gravity = (0.0, 0.0, -GRAVITY)
        for body in self.bodies:
            body._start_step()
            if not body.kinematic:
                body._integrate_forces(
                    None if body.gravity_exempt else gravity, dt)
            body.force = body.torque = _ZERO3

        rows = self.gather_contacts()
        self._solve(rows, dt)

        for body in self.bodies:
            body._integrate(dt, self.time + dt)
        self.time += dt
        return rows
