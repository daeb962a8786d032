"""Compile a validated plan into a world-space assembly.

Each part's solid is made once, with its holes already carved: a hole's
place follows from its modification and its owner's extents, and its
cross-section from the extents of the parts the plan inserts into it.

Placement is deterministic: the first listed part seeds the scene at the
origin (resting on z=0) and every other part is positioned by its first
connection, read against the target's extents or carved hole; all further
connections are only checked for consistency.  Parts are placed in passes
over the plan, so ``Assembly.placed`` is in placement order, which is not
always plan order.  Part positions are world coordinates; carved holes are
stored relative to their part's centre.  Positions, extents and offsets
are float tuples throughout; no numpy is needed to place a part.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .catalog import MM, Catalog, ObjectType
from .errors import (
    HoleExceedsOwner,
    HoleNotCarvedYet,
    InconsistentConnection,
    Unplaceable,
)
from .geometry import (
    AXIS_INDEX, CYL, FACE_AXIS, TOUCH_TOL, TRANSVERSE, HoleRegion, Solid,
    aabb_overlap, interval_overlap)
from .plan import CraftPlan, ModificationSpec, PartSpec

HOLE_CLEARANCE = 0.001  # 1 mm in metres
DEFAULT_HOLE_RADIUS = 0.005  # holes nobody inserts into

CYL_AXIS_TOKEN = {"FRONT_BACK": 0, "LEFT_RIGHT": 1, "TOP_BOTTOM": 2}


@dataclass
class PlacedPart:
    spec: PartSpec
    solid: Solid
    position: tuple  # AABB center, metres

    def hole_center(self, hole: HoleRegion):
        """The world centre of one of this part's holes."""
        return tuple(c + o for c, o in zip(self.position, hole.offset))

    def aabb(self):
        return self.solid.aabb(self.position)


@dataclass
class Assembly:
    placed: dict  # name -> PlacedPart, in placement order
    graph: list = field(default_factory=list)  # (part, to_part, ConnectionSpec)
    ground_set: set = field(default_factory=set)

    def part(self, name) -> PlacedPart:
        return self.placed[name]

    def min_z(self):
        return min(p.aabb()[0][2] for p in self.placed.values())

    def to_jsonable(self):
        return {
            "parts": [
                {
                    "name": name,
                    "object": p.spec.available_obj,
                    "position": list(p.position),
                    "axis_map": p.spec.orientation.axis_token
                    if p.spec.orientation.axis_dims is None
                    else list(p.spec.orientation.axis_dims),
                    "solid": p.solid.to_dict(),
                    "exec_function": p.spec.exec_function,
                }
                for name, p in self.placed.items()
            ],
            "graph": [
                {
                    "part": a, "to_part": b,
                    "contact_type": c.contact_type, "type": c.joint_type,
                    "to_face": c.to_face,
                    "to_modification": c.to_modification,
                }
                for a, b, c in self.graph
            ],
            "ground": sorted(self.ground_set),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2)


def _make_solid(spec: PartSpec, obj: ObjectType) -> Solid:
    if obj.is_cuboid:
        return Solid.box(tuple(d * MM for d in spec.orientation.axis_dims))
    axis = CYL_AXIS_TOKEN[spec.orientation.axis_token]
    return Solid.cylinder(obj.dims[0] * MM, obj.dims[1] * MM, axis)


def _carve(owner: str, mod: ModificationSpec, owner_extents, inserted):
    """The hole ``mod`` cuts in its owner, sized to the ``inserted`` solids."""
    ax = AXIS_INDEX[mod.through_axis]
    offset = [0.0, 0.0, 0.0]
    for t in TRANSVERSE[ax]:
        token = mod.align[t]
        if token == "CENTER":
            continue
        _, sign = FACE_AXIS[token]
        # named side puts the hole at the quarter point toward that face
        offset[t] = sign * owner_extents[t] / 4.0
    token = mod.align[ax]
    depth, open_sign = owner_extents[ax], 0
    if not token.endswith("_FULL"):
        _, open_sign = FACE_AXIS[token.split("_")[0]]
        # blind hole: opens on the start face, reaches half the extent
        offset[ax] = open_sign * owner_extents[ax] / 4.0
        depth = owner_extents[ax] / 2.0
    radius, half_widths = DEFAULT_HOLE_RADIUS, None
    if inserted:
        max_half = max(
            max(s.extents[t] / 2.0 for t in TRANSVERSE[ax]) for s in inserted)
        if any(s.kind == CYL for s in inserted):
            radius = max_half + HOLE_CLEARANCE
        else:
            side = 2.0 * max_half + 2.0 * HOLE_CLEARANCE
            radius, half_widths = None, (side / 2.0, side / 2.0)
    return HoleRegion(
        owner=owner, name=mod.name, axis=ax, offset=tuple(offset),
        depth=depth, radius=radius, half_widths=half_widths,
        open_sign=open_sign)


def _make_solids(plan: CraftPlan, catalog: Catalog) -> dict:
    """Each part's solid with its holes carved, by part name."""
    solids = {p.name: _make_solid(p, catalog.lookup(p.available_obj))
              for p in plan.parts}
    inserted = {}  # (owner, modification) -> solids inserted into it
    for spec in plan.parts:
        for conn in spec.connections:
            if conn.contact_type == "INSERTED":
                inserted.setdefault((conn.to_part, conn.to_modification),
                                    []).append(solids[spec.name])
    for spec in plan.parts:
        solid = solids[spec.name]
        for mod in spec.modifications:
            solid.holes.append(_carve(spec.name, mod, solid.extents,
                                      inserted.get((spec.name, mod.name))))
    return solids


def _surface_position(cur_ext, to_center, to_ext, conn):
    face_axis, sign = FACE_AXIS[conn.to_face]
    pos = [0.0, 0.0, 0.0]
    pos[face_axis] = to_center[face_axis] - sign * (
        cur_ext[face_axis] + to_ext[face_axis]) / 2.0
    for t in TRANSVERSE[face_axis]:
        token = conn.align[t]
        if token == "CENTER":
            pos[t] = to_center[t]
        else:
            _, s = FACE_AXIS[token]
            # flush: both extents end on the same plane on that side
            pos[t] = to_center[t] + s * (to_ext[t] - cur_ext[t]) / 2.0
    return pos


def _check_surface_contact(part: PlacedPart, target: PlacedPart, conn):
    face_axis, sign = FACE_AXIS[conn.to_face]
    cur_c, cur_e = part.position, part.solid.extents
    to_c, to_e = target.position, target.solid.extents
    face_cur = cur_c[face_axis] + sign * cur_e[face_axis] / 2.0
    face_to = to_c[face_axis] - sign * to_e[face_axis] / 2.0
    if abs(face_cur - face_to) > TOUCH_TOL:
        return f"faces are {abs(face_cur - face_to):.3g} m apart"
    shared = aabb_overlap(cur_c, cur_e, to_c, to_e)
    for t in TRANSVERSE[face_axis]:
        lo, hi = shared[t]
        if hi - lo < -TOUCH_TOL:
            return f"no overlap on axis {t}"
    return None


def _check_inserted_contact(part: PlacedPart, target: PlacedPart, conn):
    hole = target.solid.hole(conn.to_modification)
    if hole is None:
        return f"{conn.to_modification!r} missing on {conn.to_part!r}"
    ax = hole.axis
    center, pc = target.hole_center(hole), part.position
    for t in TRANSVERSE[ax]:
        if abs(pc[t] - center[t]) > TOUCH_TOL:
            return f"axis offset {abs(pc[t] - center[t]):.3g} m on axis {t}"
    half = part.solid.extents[ax] / 2.0
    if interval_overlap(center[ax] - hole.depth / 2.0,
                        center[ax] + hole.depth / 2.0,
                        pc[ax] - half, pc[ax] + half) <= 0:
        return "no axial overlap with the hole span"
    return None


def _check_hole_inside(solid: Solid, hole: HoleRegion):
    eps = 1e-9
    o = hole.offset
    trans = TRANSVERSE[hole.axis]
    halves = (hole.radius, hole.radius) if hole.radius is not None \
        else hole.half_widths
    if solid.kind == CYL and solid.axis == hole.axis:
        u, v = (o[t] for t in trans)
        reach = hole.radius if hole.radius is not None else \
            math.sqrt(halves[0] * halves[0] + halves[1] * halves[1])
        if math.sqrt(u * u + v * v) + reach > solid.radius + eps:
            raise HoleExceedsOwner(hole.owner, hole.name)
        return
    for t, half in zip(trans, halves):
        half_ext = solid.extents[t] / 2.0
        if o[t] - half < -half_ext - eps or o[t] + half > half_ext + eps:
            raise HoleExceedsOwner(hole.owner, hole.name)


def connected_groups(names, edges):
    """Union-find of ``names`` over ``edges``, a list of name pairs.

    Each group lists its members in the order of ``names``, and the groups
    are ordered by their first member.
    """
    parent = {name: name for name in names}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for name in names:
        groups.setdefault(find(name), []).append(name)
    return list(groups.values())


def connectivity_check(assembly: Assembly):
    """Return None when connected, else the list of components."""
    components = connected_groups(list(assembly.placed),
                                  [(a, b) for a, b, _ in assembly.graph])
    if len(components) == 1:
        return None
    return components


def build_assembly(plan: CraftPlan, catalog: Catalog) -> Assembly:
    solids = _make_solids(plan, catalog)
    placed: dict[str, PlacedPart] = {}

    def place(spec: PartSpec, position):
        placed[spec.name] = PlacedPart(
            spec=spec, solid=solids[spec.name], position=tuple(position))

    # seed: first part; its AABB rests on z=0 centered at the origin
    seed = plan.parts[0]
    place(seed, (0.0, 0.0, solids[seed.name].extents[2] / 2.0))

    changed = True
    while changed:
        changed = False
        for spec in plan.parts:
            if spec.name in placed or not spec.connections:
                continue
            first = spec.connections[0]
            if first.to_part not in placed:
                continue
            target = placed[first.to_part]
            if first.contact_type == "SURFACE":
                pos = _surface_position(solids[spec.name].extents,
                                        target.position, target.solid.extents,
                                        first)
            else:
                pos = target.hole_center(
                    target.solid.hole(first.to_modification))
            place(spec, pos)
            changed = True

    leftovers = [p for p in plan.parts if p.name not in placed]
    if leftovers:
        spec = leftovers[0]
        first = spec.connections[0] if spec.connections else None
        if first is not None and first.contact_type == "INSERTED":
            raise HoleNotCarvedYet(spec.name, first.to_part, first.to_modification)
        raise Unplaceable(spec.name)

    graph = []
    for spec in plan.parts:
        part = placed[spec.name]
        for i, conn in enumerate(spec.connections):
            target = placed[conn.to_part]
            if i > 0:
                if conn.contact_type == "SURFACE":
                    problem = _check_surface_contact(part, target, conn)
                else:
                    problem = _check_inserted_contact(part, target, conn)
                if problem is not None:
                    raise InconsistentConnection(spec.name, conn.to_part, problem)
            graph.append((spec.name, conn.to_part, conn))

    for solid in solids.values():
        for hole in solid.holes:
            _check_hole_inside(solid, hole)

    assembly = Assembly(placed=placed, graph=graph)
    min_z = assembly.min_z()
    for name, part in placed.items():
        if part.aabb()[0][2] <= min_z + TOUCH_TOL:
            assembly.ground_set.add(name)
    return assembly
