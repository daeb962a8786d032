"""Functional simulation tests for built assemblies.

An assembly is compiled into rigid bodies by merging FIXED connections and
turning NON_FIXED insertions into revolute joints; the bodies keep the
plan's own solids and positions, lifted to rest on the ground.  The run is
in SI units: lengths in metres, time in seconds, forces in newtons, under
``engine.GRAVITY`` in m/s^2.  Three scripted tests probe whether the craft
actually works: rolling under a push, holding a load, and hammering a peg
into a block.  Each test is a set of hooks around one simulation driver,
``run_functional_test``; the hooks read poses only through the bodies'
``world_point`` and ``world_vector``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

from ..assembler import Assembly, connected_groups
from ..errors import NumericalDivergence
from ..geometry import FACE_AXIS, TRANSVERSE, Solid, aabb_overlap
from ..plan import CraftPlan
from .engine import (CONTACT_GEN_MARGIN, Contact, RevoluteJoint, RigidBody,
                     World)

PART_MASS = 10.0  # kg, every part's, the hit test's peg included

# failure reasons shared by every test
PART_SEPARATED = "PART_SEPARATED"
NEW_GROUND_CONTACT = "NEW_GROUND_CONTACT"
NUMERICAL_DIVERGENCE = "NUMERICAL_DIVERGENCE"
# rolling
INSUFFICIENT_ROTATION = "INSUFFICIENT_ROTATION"
INSUFFICIENT_DISTANCE = "INSUFFICIENT_DISTANCE"
VEERED = "VEERED"
# support
MOVED_UNDER_LOAD = "MOVED_UNDER_LOAD"
# hit
PEG_MISSED = "PEG_MISSED"
PEG_OUTSIDE_HOLE = "PEG_OUTSIDE_HOLE"

# the tests' loads and thresholds, in newtons, the plan's metres and m/s
ROLLING_FORCE = 20.0  # push along +x on the most connected part
SUPPORT_FORCE = 5.0  # downward load on the top of each exec part
SUPPORT_LIMIT = 0.001  # displacement that fails support
HIT_DRIVE_SPEED = 0.05  # downward speed of the hit test's kinematic root
SEPARATION_TOLERANCE = 0.005  # drift that separates a watched connection
GROUND_CONTACT_TOLERANCE = 1e-4  # height at which a part touches the ground
MAX_VEER = 0.03  # sideways drift allowed by the time rolling covers its goal


@dataclass
class SimConfig:
    """The run's ``duration`` in seconds, its one field.  Four class
    constants go with it: the ``timestep`` in seconds, ``trace_every``
    steps per snapshot and the rolling goal, ``min_rotation`` radians and
    ``min_distance`` metres, which the benchmark reads from an instance; a
    study sets them on the class.  The other loads and thresholds are the
    constants above; the solver's settings are constants in ``engine``."""
    duration: float = 5.0
    timestep: ClassVar[float] = 1.0 / 500.0
    trace_every: ClassVar[int] = 25
    min_rotation: ClassVar[float] = 2.0 * math.pi
    min_distance: ClassVar[float] = 0.1


@dataclass
class SimOutcome:
    """A test's verdict.  Its ``_m`` details (``distance_m``, ``veer_m``, ...)
    are in the plan's metres, and ``time`` is in seconds."""
    test: str
    success: bool
    failure_reason: str | None
    time: float
    details: dict = field(default_factory=dict)
    trajectory: list = field(default_factory=list)

    def to_dict(self):
        return {
            "test": self.test,
            "success": self.success,
            "failure_reason": self.failure_reason,
            "time_s": self.time,
            "details": self.details,
            "trajectory": self.trajectory,
        }


@dataclass
class ConnectionWatch:
    """Bookkeeping for the separation check on one inter-body connection;
    the points and the normal are float tuples in their body's frame."""
    kind: str  # SURFACE or INSERTED
    part: str
    to_part: str
    body_a: RigidBody
    body_b: RigidBody
    local_a: tuple
    local_b: tuple
    normal_local_a: tuple | None  # SURFACE only, frame of body_a

    def drift(self):
        """The watched points' distance at the bodies' poses (``math.sqrt``
        of the squares, rounded alike in every CPython release, unlike
        ``math.dist``), or for SURFACE their gap along the normal rotated
        into the world."""
        ax, ay, az = self.body_a.world_point(self.local_a)
        bx, by, bz = self.body_b.world_point(self.local_b)
        dx, dy, dz = bx - ax, by - ay, bz - az
        if self.kind == "SURFACE":
            nx, ny, nz = self.body_a.world_vector(self.normal_local_a)
            return abs(dx * nx + dy * ny + dz * nz)
        return math.sqrt(dx * dx + dy * dy + dz * dz)


@dataclass
class CompiledCraft:
    world: World
    parts: dict  # part name -> (RigidBody, BodyPart), body by body
    joints_by_part: dict  # part name -> RevoluteJoint (wheel side)
    watches: list
    lifted: list  # (name, body, part) off the ground, in parts order


def _surface_anchor(pa, pb, conn):
    """Center of the shared contact patch of a SURFACE connection, in plan
    metres, and its normal, as float tuples."""
    ax, sign = FACE_AXIS[conn.to_face]
    ca, ea = pa.position, pa.solid.extents
    shared = aabb_overlap(ca, ea, pb.position, pb.solid.extents)
    anchor = [0.0, 0.0, 0.0]
    anchor[ax] = ca[ax] + sign * ea[ax] / 2.0
    for t in TRANSVERSE[ax]:
        lo, hi = shared[t]
        anchor[t] = (lo + hi) / 2.0
    normal = [0.0, 0.0, 0.0]
    normal[ax] = float(sign)
    return tuple(anchor), tuple(normal)


def _local(point, body: RigidBody):
    """A plan point relative to the body's centre, in its (compile-time,
    plan-aligned) frame."""
    return tuple(p - x for p, x in zip(point, body.x))


def compile_craft(assembly: Assembly) -> CompiledCraft:
    """The assembly's rigid bodies, joints and watches, in a world of
    ``SimConfig.timestep``, built at the plan's own positions and then
    lifted to rest on the ground."""
    world = World(SimConfig.timestep)
    clusters = connected_groups(
        list(assembly.placed),
        [(a, b) for a, b, conn in assembly.graph if conn.joint_type == "FIXED"])
    parts = {}
    for idx, members in enumerate(clusters):
        named = [(name, assembly.placed[name].solid,
                  assembly.placed[name].position) for name in members]
        body = RigidBody.from_parts(f"body{idx}", named, PART_MASS)
        world.bodies.append(body)
        for part in body.parts:
            parts[part.name] = body, part

    # every connection between two bodies is watched for separation; FIXED
    # ones never join two bodies, so each insertion here is a hinge
    joints_by_part = {}
    watches = []
    for a, b, conn in assembly.graph:
        body_a, _ = parts[a]
        body_b, _ = parts[b]
        if body_a is body_b:
            continue
        pa = assembly.placed[a]
        pb = assembly.placed[b]
        if conn.contact_type == "SURFACE":
            anchor, normal = _surface_anchor(pa, pb, conn)
        else:
            hole = pb.solid.hole(conn.to_modification)
            anchor = pb.hole_center(hole)
            normal = None
            axis = [0.0, 0.0, 0.0]
            axis[hole.axis] = 1.0
            joint = RevoluteJoint(
                body_a=body_a, body_b=body_b,
                anchor_local_a=_local(anchor, body_a),
                anchor_local_b=_local(anchor, body_b),
                axis_local_a=axis, axis_local_b=axis)
            world.joints.append(joint)
            joints_by_part.setdefault(a, joint)
            joints_by_part.setdefault(b, joint)
        watches.append(ConnectionWatch(
            kind=conn.contact_type, part=a, to_part=b,
            body_a=body_a, body_b=body_b,
            local_a=_local(anchor, body_a),
            local_b=_local(anchor, body_b),
            normal_local_a=normal))

    # the anchors above are relative to their bodies, so the lift keeps them
    lift = -assembly.min_z()
    for body in world.bodies:
        x, y, z = body.x
        body.x = (x, y, z + lift)
    lifted = [(name, body, part) for name, (body, part) in parts.items()
              if name not in assembly.ground_set]
    return CompiledCraft(
        world=world, parts=parts, joints_by_part=joints_by_part,
        watches=watches, lifted=lifted)


def check_common_failures(craft: CompiledCraft):
    """Shared per-step checks; returns (reason, detail) or None."""
    for watch in craft.watches:
        d = watch.drift()
        if d > SEPARATION_TOLERANCE:
            return PART_SEPARATED, {
                "part": watch.part, "to_part": watch.to_part, "drift_m": d}
    for name, body, part in craft.lifted:
        z = body.part_min_z(part)
        if z <= GROUND_CONTACT_TOLERANCE:
            return NEW_GROUND_CONTACT, {"part": name, "min_z_m": z}
    return None


def _most_connected(assembly: Assembly):
    degrees = Counter(name for a, b, _ in assembly.graph for name in (a, b))
    # max keeps the first of equal degrees: placement order breaks ties
    return max(assembly.placed, key=degrees.__getitem__)


def _com_reader(craft: CompiledCraft):
    """A function of no arguments that returns the mass-weighted mean of
    the centres of the craft's bodies, as floats; the bodies and their
    total mass are read once, here."""
    bodies = [(b.mass, b) for b in craft.world.bodies]
    total = sum(m for m, _ in bodies)

    def com():
        cx = cy = cz = 0.0
        for m, b in bodies:
            x, y, z = b.x
            cx, cy, cz = cx + m * x, cy + m * y, cz + m * z
        return cx / total, cy / total, cz / total

    return com


def _part_centers(craft: CompiledCraft):
    """(name, world centre) of every part of the craft."""
    for name, (body, part) in craft.parts.items():
        yield name, body.world_point(part.local_center)


def _snapshot(craft: CompiledCraft, t):
    return {
        "t": round(t, 6),
        "parts": {name: [round(v, 6) for v in c]
                  for name, c in _part_centers(craft)},
    }


def _rolling_test(craft: CompiledCraft, assembly: Assembly, plan: CraftPlan):
    """Push the most connected part along +x; every exec part must turn."""
    push_part = _most_connected(assembly)
    push_body, push_shape = craft.parts[push_part]
    push_local = push_shape.local_center

    exec_parts = [p.name for p in plan.parts if p.exec_function]
    rotation = {name: 0.0 for name in exec_parts}
    # (name, body, hinge partner, hinge axis in the body's frame) per exec
    # part; partner and axis are None for a part on no hinge
    spinners = []
    for name in exec_parts:
        joint = craft.joints_by_part.get(name)
        body, _ = craft.parts[name]
        if joint is None:
            spinners.append((name, body, None, None))
        elif joint.body_b is body:
            spinners.append((name, body, joint.body_a, joint.axis_local_b))
        else:
            spinners.append((name, body, joint.body_b, joint.axis_local_a))
    craft_com = _com_reader(craft)
    start_com = craft_com()
    veer_at_goal = None
    dt = craft.world.timestep

    def before_step():
        point = push_body.world_point(push_local)
        push_body.apply_force((ROLLING_FORCE, 0.0, 0.0), point)

    def after_step(contacts):
        nonlocal veer_at_goal
        for name, body, other, axis_local in spinners:
            w = body.vel
            if other is None:
                wx, wy, wz = w[3:]
                rotation[name] += math.sqrt(wx * wx + wy * wy + wz * wz) * dt
                continue
            # the relative spin about the hinge axis, in the world
            x, y, z = body.world_vector(axis_local)
            u = other.vel
            spin = (w[3] - u[3]) * x + (w[4] - u[4]) * y + (w[5] - u[5]) * z
            rotation[name] += abs(spin) * dt

        com = craft_com()
        if (veer_at_goal is None
                and com[0] - start_com[0] >= SimConfig.min_distance):
            veer_at_goal = abs(com[1] - start_com[1])
        return None

    def finish():
        com = craft_com()
        dx = com[0] - start_com[0]
        details = {
            "distance_m": dx,
            "rotation_rad": dict(rotation),
            "veer_m": veer_at_goal,
            "push_part": push_part,
        }
        lacking = [n for n in exec_parts
                   if rotation[n] < SimConfig.min_rotation]
        if lacking:
            details["parts"] = lacking
            return INSUFFICIENT_ROTATION, details
        if dx < SimConfig.min_distance:
            return INSUFFICIENT_DISTANCE, details
        # after_step has set veer_at_goal by now: its last call saw this
        # pose, and dx >= min_distance
        if veer_at_goal > MAX_VEER:
            return VEERED, details
        return None, details

    return before_step, after_step, finish


def _support_test(craft: CompiledCraft, assembly: Assembly, plan: CraftPlan):
    """Press down on the top of every exec part; nothing may move.

    The test fails on the largest part-centre displacement from the start.
    Every part weighs the same, so the craft's centre of mass moves by the
    mean of those displacements and never further than the largest."""
    exec_parts = [p.name for p in plan.parts if p.exec_function]
    # (body, load point in its frame) per exec part
    loads = []
    for name in exec_parts:
        body, shape = craft.parts[name]
        x, y, z = shape.local_center
        loads.append((body, (x, y, z + shape.solid.extents[2] / 2.0)))
    load = (0.0, 0.0, -SUPPORT_FORCE)
    # (body, centre in its frame, world centre at the start) per part
    centres = [(body, part.local_center, body.world_point(part.local_center))
               for body, part in craft.parts.values()]
    max_disp = 0.0

    def before_step():
        for body, point in loads:
            body.apply_force(load, body.world_point(point))

    def after_step(contacts):
        # each part centre's distance from the start; a larger one replaces
        # max_disp, as max(max_disp, d) does
        nonlocal max_disp
        for body, local, (sx, sy, sz) in centres:
            x, y, z = body.world_point(local)
            dx, dy, dz = x - sx, y - sy, z - sz
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            if d > max_disp:
                max_disp = d
        return None

    def finish():
        details = {"max_displacement_m": max_disp, "loaded_parts": exec_parts}
        reason = MOVED_UNDER_LOAD if max_disp >= SUPPORT_LIMIT else None
        return reason, details

    return before_step, after_step, finish


# hit-test fixture, in metres
HIT_BLOCK_TOP = 0.1
HIT_HOLE_RADIUS = 0.012
HIT_HOLE_DEPTH = 0.04
HIT_PEG_RADIUS = 0.01
HIT_PEG_LENGTH = 0.05
HIT_PEG_GAP = 0.005  # peg lower end above the block top
HIT_DROP_GAP = 0.01  # craft lowest point above the peg top
HIT_PEG_TOP = HIT_BLOCK_TOP + HIT_PEG_GAP + HIT_PEG_LENGTH  # at rest
HIT_DESCENT = 0.5 * HIT_HOLE_DEPTH  # peg descent that counts as a hit


def _peg_ends(peg: RigidBody):
    """World (top, low) end points of the peg's axis."""
    h = HIT_PEG_LENGTH / 2.0
    a0, a1, a2 = peg.world_vector((0.0, 0.0, 1.0))
    x, y, z = peg.x
    up = (x + a0 * h, y + a1 * h, z + a2 * h)
    down = (x - a0 * h, y - a1 * h, z - a2 * h)
    return (up, down) if a2 > 0 else (down, up)


def _peg_block_hook(peg: RigidBody):
    """Contacts between the peg and the static slotted block."""

    def hook(world):
        contacts = []
        _, low = _peg_ends(peg)
        rho = math.sqrt(low[0] * low[0] + low[1] * low[1])
        floor_z = HIT_BLOCK_TOP - HIT_HOLE_DEPTH
        if rho <= HIT_HOLE_RADIUS:
            # inside the hole: wall guidance plus the hole floor
            if low[2] < HIT_BLOCK_TOP:
                pen = rho + HIT_PEG_RADIUS - HIT_HOLE_RADIUS
                if pen > 0:
                    n = tuple(-c / rho for c in (low[0], low[1], 0.0))
                    point = tuple(p - c * HIT_PEG_RADIUS
                                  for p, c in zip(low, n))
                    contacts.append(Contact(None, peg, point, n, pen))
            if low[2] < floor_z + CONTACT_GEN_MARGIN:
                contacts.append(Contact(
                    None, peg, low, (0.0, 0.0, 1.0),
                    max(0.0, floor_z - low[2])))
        else:
            # over solid block: its top face acts as a plane
            if low[2] < HIT_BLOCK_TOP + CONTACT_GEN_MARGIN:
                contacts.append(Contact(
                    None, peg, low, (0.0, 0.0, 1.0),
                    max(0.0, HIT_BLOCK_TOP - low[2])))
        return contacts

    return hook


def _hit_test(craft: CompiledCraft, assembly: Assembly, plan: CraftPlan):
    """Drive the craft down over a peg standing on a slotted block; the
    head must knock the peg into the hole."""
    world = craft.world
    exec_parts = [p.name for p in plan.parts if p.exec_function]
    head = exec_parts[0] if exec_parts else plan.parts[-1].name
    head_body, head_shape = craft.parts[head]

    head_c = head_body.world_point(head_shape.local_center)
    head_low = head_body.part_min_z(head_shape)
    # centre the head over the peg, which stands at x = y = 0
    shift = (0.0 - head_c[0], 0.0 - head_c[1],
             (HIT_PEG_TOP + HIT_DROP_GAP) - head_low)
    for body in world.bodies:
        body.x = tuple(x + d for x, d in zip(body.x, shift))

    peg = RigidBody.from_parts(
        "peg",
        [("__peg__", Solid.cylinder(HIT_PEG_RADIUS, HIT_PEG_LENGTH, 2),
          (0.0, 0.0, HIT_BLOCK_TOP + HIT_PEG_GAP + HIT_PEG_LENGTH / 2.0))],
        PART_MASS)
    peg.gravity_exempt = True
    world.bodies.append(peg)
    world.extra_contact_hooks.append(_peg_block_hook(peg))

    root, _ = craft.parts[plan.parts[0].name]
    root.kinematic = True
    root.vel[:3] = (0.0, 0.0, -HIT_DRIVE_SPEED)
    touched = False

    def after_step(contacts):
        nonlocal touched
        if not touched:
            for c in contacts:
                if c.body_a is not None and peg in (c.body_a, c.body_b):
                    touched = True
                    peg.gravity_exempt = False
                    break

        top, low = _peg_ends(peg)
        descent = HIT_PEG_TOP - top[2]
        rho_low = math.sqrt(low[0] * low[0] + low[1] * low[1])
        details = {"peg_descent_m": descent, "peg_lateral_m": rho_low,
                   "touched": touched}
        if descent >= HIT_DESCENT and rho_low <= HIT_HOLE_RADIUS:
            return None, details
        if low[2] < HIT_BLOCK_TOP and rho_low > HIT_HOLE_RADIUS:
            return PEG_OUTSIDE_HOLE, details
        return None

    def finish():
        return PEG_MISSED, {"touched": touched}

    # the root is kinematic: nothing to apply before a step
    return (lambda: None), after_step, finish


# Each test sets up from (craft, assembly, plan) and returns three
# hooks: before_step() applies its push or load; after_step(contacts) updates
# its state and returns a verdict (reason, details) to end early, or None;
# finish() returns the verdict at the end.  A reason of None is a success.
TESTS = {
    "rolling": _rolling_test,
    "support": _support_test,
    "hit": _hit_test,
}


def run_functional_test(kind: str, assembly: Assembly, plan: CraftPlan,
                        config: SimConfig | None = None) -> SimOutcome:
    """Compile the assembly and run the functional test ``kind`` on it.

    The run is ``round(duration / SimConfig.timestep)`` steps, with a
    snapshot every ``trace_every`` of them.  A test's own verdict in a step
    goes ahead of the shared checks.  Raises ValueError for an unknown
    ``kind``, and for a duration under one timestep (NaN included) or not
    finite.
    """
    try:
        setup = TESTS[kind]
    except KeyError:
        raise ValueError(f"unknown functional test {kind!r}") from None
    config = config or SimConfig()
    step = SimConfig.timestep
    if not step <= config.duration < math.inf:
        raise ValueError("duration must be finite and at least one timestep "
                         f"({step} s), got {config.duration}")
    n_steps = int(round(config.duration / step))
    craft = compile_craft(assembly)
    world = craft.world
    before_step, after_step, finish = setup(craft, assembly, plan)
    trajectory = [_snapshot(craft, 0.0)]
    try:
        for step in range(n_steps):
            before_step()
            verdict = after_step(world.step())
            if (step + 1) % SimConfig.trace_every == 0:
                trajectory.append(_snapshot(craft, world.time))
            if verdict is None:
                verdict = check_common_failures(craft)
            if verdict is not None:
                break
        else:
            verdict = finish()
    except NumericalDivergence as exc:
        parts = [name for name, (body, _) in craft.parts.items()
                 if body.id == exc.body]
        return SimOutcome(kind, False, NUMERICAL_DIVERGENCE, exc.time,
                          {"body": exc.body, "parts": parts,
                           "message": str(exc)})
    reason, details = verdict
    return SimOutcome(kind, reason is None, reason, world.time, details,
                      trajectory)
