"""Triangle meshing and OBJ export for placed parts.

Boxes become 12 triangles, cylinders are tessellated with 64 segments.
Holes along a box axis or along a cylinder's own axis are meshed as real
tunnels (annulus rings on the pierced faces plus an inner wall), so part
meshes stay watertight.  A hole that would pierce the curved wall of a
cylinder is omitted from the mesh; the solid geometry still models it.
Each part is meshed about the origin, in its own frame, and moved to its
centre once.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .geometry import BOX, TRANSVERSE, HoleRegion, Solid

SEGMENTS = 64


class MeshBuilder:
    def __init__(self):
        self.vertices: list = []
        self.faces: list = []

    def add_vertex(self, p) -> int:
        self.vertices.append([float(x) for x in p])
        return len(self.vertices) - 1

    def add_tri(self, a, b, c):
        self.faces.append((a, b, c))

    def add_quad(self, a, b, c, d):
        self.add_tri(a, b, c)
        self.add_tri(a, c, d)

    def arrays(self):
        return (np.asarray(self.vertices, dtype=float),
                np.asarray(self.faces, dtype=int))


def _lift(axis, coord, u, v):
    """(u, v) in the plane `axis`=coord back to 3D."""
    p = [0.0, 0.0, 0.0]
    p[axis] = coord
    t1, t2 = TRANSVERSE[axis]
    p[t1] = u
    p[t2] = v
    return p


def _ray_to_rect(origin, direction, center, half):
    """Distance from origin along direction to an axis-aligned 2D rectangle
    boundary; origin must be inside."""
    best = np.inf
    for k in range(2):
        if abs(direction[k]) < 1e-15:
            continue
        edge = center[k] + (half[k] if direction[k] > 0 else -half[k])
        best = min(best, (edge - origin[k]) / direction[k])
    return best


def _ray_to_circle(origin, direction, radius):
    """Distance from origin along direction to a circle about (0, 0)."""
    d = np.asarray(direction, dtype=float)
    o = np.asarray(origin, dtype=float)
    a = d @ d
    b = 2.0 * (o @ d)
    c = o @ o - radius * radius
    disc = max(b * b - 4 * a * c, 0.0)
    return (-b + np.sqrt(disc)) / (2.0 * a)


def _hole_inner_radius_fn(hole: HoleRegion, hole_uv):
    if hole.radius is not None:
        return lambda ang: hole.radius
    half = hole.half_widths
    return lambda ang: _ray_to_rect(
        hole_uv, (np.cos(ang), np.sin(ang)), hole_uv, half)


def _face_with_hole(mb: MeshBuilder, axis, coord, outer, hole: HoleRegion,
                    flip):
    """Annulus between a convex outer boundary and the hole loop.

    outer(origin, direction) gives the distance from the hole center to the
    outer boundary.
    """
    t1, t2 = TRANSVERSE[axis]
    hu, hv = hole.offset[t1], hole.offset[t2]
    inner_fn = _hole_inner_radius_fn(hole, (hu, hv))
    outer_idx = []
    inner_idx = []
    for k in range(SEGMENTS):
        ang = 2.0 * np.pi * k / SEGMENTS
        c, s = np.cos(ang), np.sin(ang)
        ro = outer((hu, hv), (c, s))
        ri = inner_fn(ang)
        outer_idx.append(mb.add_vertex(
            _lift(axis, coord, hu + ro * c, hv + ro * s)))
        inner_idx.append(mb.add_vertex(
            _lift(axis, coord, hu + ri * c, hv + ri * s)))
    for k in range(SEGMENTS):
        nk = (k + 1) % SEGMENTS
        if flip:
            mb.add_quad(outer_idx[k], inner_idx[k], inner_idx[nk],
                        outer_idx[nk])
        else:
            mb.add_quad(outer_idx[k], outer_idx[nk], inner_idx[nk],
                        inner_idx[k])


def _tunnel(mb: MeshBuilder, ring_a, ring_b, flip=False):
    n = len(ring_a)
    for k in range(n):
        nk = (k + 1) % n
        if flip:
            mb.add_quad(ring_a[k], ring_a[nk], ring_b[nk], ring_b[k])
        else:
            mb.add_quad(ring_a[k], ring_b[k], ring_b[nk], ring_a[nk])


def _hole_ring(mb: MeshBuilder, axis, coord, hole: HoleRegion):
    t1, t2 = TRANSVERSE[axis]
    hu, hv = hole.offset[t1], hole.offset[t2]
    inner_fn = _hole_inner_radius_fn(hole, (hu, hv))
    ring = []
    for k in range(SEGMENTS):
        ang = 2.0 * np.pi * k / SEGMENTS
        ring.append(mb.add_vertex(_lift(
            axis, coord, hu + inner_fn(ang) * np.cos(ang),
            hv + inner_fn(ang) * np.sin(ang))))
    return ring


def _disk(mb: MeshBuilder, ring, center_point, flip=False):
    c = mb.add_vertex(center_point)
    n = len(ring)
    for k in range(n):
        nk = (k + 1) % n
        if flip:
            mb.add_tri(c, ring[nk], ring[k])
        else:
            mb.add_tri(c, ring[k], ring[nk])


def _bore(mb: MeshBuilder, hole: HoleRegion, half_len):
    """Inner wall of a hole through a part `2 * half_len` long on its axis,
    plus the floor of a blind hole."""
    ax = hole.axis
    if hole.through:
        ring_lo = _hole_ring(mb, ax, -half_len, hole)
        ring_hi = _hole_ring(mb, ax, half_len, hole)
        _tunnel(mb, ring_lo, ring_hi)
        return
    lo, hi = hole.span()
    bottom = hi if hole.open_sign < 0 else lo
    ring_open = _hole_ring(mb, ax, hole.open_sign * half_len, hole)
    ring_bot = _hole_ring(mb, ax, bottom, hole)
    _tunnel(mb, ring_open, ring_bot)
    bc = list(hole.offset)
    bc[ax] = bottom
    _disk(mb, ring_bot, bc, flip=hole.open_sign > 0)


def _plain_rect(mb: MeshBuilder, axis, coord, half, flip):
    t1, t2 = TRANSVERSE[axis]
    hu, hv = half[t1], half[t2]
    ids = [mb.add_vertex(_lift(axis, coord, su * hu, sv * hv))
           for su, sv in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    if flip:
        mb.add_quad(ids[3], ids[2], ids[1], ids[0])
    else:
        mb.add_quad(ids[0], ids[1], ids[2], ids[3])


def mesh_box(solid: Solid) -> MeshBuilder:
    """The box about the origin, with every hole meshed as a tunnel."""
    mb = MeshBuilder()
    half = np.asarray(solid.extents) / 2.0
    pierced = {}
    for hole in solid.holes:
        for sign in ((1, -1) if hole.through else (hole.open_sign,)):
            pierced[(hole.axis, sign)] = hole
    for axis in range(3):
        t1, t2 = TRANSVERSE[axis]
        for sign in (1, -1):
            coord = sign * half[axis]
            flip = sign < 0
            hole = pierced.get((axis, sign))
            if hole is None:
                _plain_rect(mb, axis, coord, half, flip)
                continue
            outer = partial(_ray_to_rect, center=(0.0, 0.0),
                            half=(half[t1], half[t2]))
            _face_with_hole(mb, axis, coord, outer, hole, flip)
    for hole in solid.holes:
        _bore(mb, hole, half[hole.axis])
    return mb


def mesh_cylinder(solid: Solid) -> MeshBuilder:
    """The cylinder about the origin, with its first axial hole as a
    tunnel."""
    mb = MeshBuilder()
    axis = solid.axis
    hl = solid.length / 2.0
    axial_holes = [h for h in solid.holes if h.axis == axis]
    hole = axial_holes[0] if axial_holes else None

    rims = {}
    for sign in (1, -1):
        coord = sign * hl
        flip = sign < 0
        ring = [mb.add_vertex(_lift(
            axis, coord,
            solid.radius * np.cos(2 * np.pi * k / SEGMENTS),
            solid.radius * np.sin(2 * np.pi * k / SEGMENTS)))
            for k in range(SEGMENTS)]
        rims[sign] = ring
        pierced = hole is not None and (
            hole.through or hole.open_sign == sign)
        if not pierced:
            _disk(mb, ring, _lift(axis, coord, 0.0, 0.0), flip=flip)
        else:
            outer = partial(_ray_to_circle, radius=solid.radius)
            _face_with_hole(mb, axis, coord, outer, hole, flip)
    _tunnel(mb, rims[-1], rims[1], flip=True)
    if hole is not None:
        _bore(mb, hole, hl)
    return mb


def mesh_part(solid: Solid, center):
    """(vertices, faces) for one part placed at `center`."""
    mb = mesh_box(solid) if solid.kind == BOX else mesh_cylinder(solid)
    vertices, faces = mb.arrays()
    return vertices + np.asarray(center, dtype=float), faces


def mesh_assembly(assembly):
    """Concatenated (vertices, faces) over every placed part."""
    all_v = []
    all_f = []
    offset = 0
    for part in assembly.placed.values():
        v, f = mesh_part(part.solid, part.position)
        all_v.append(v)
        all_f.append(f + offset)
        offset += len(v)
    return np.vstack(all_v), np.vstack(all_f)


def write_obj(path, vertices, faces, comment=None):
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for v in vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for f in faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def export_assembly_obj(assembly, path):
    v, f = mesh_assembly(assembly)
    write_obj(path, v, f, comment="craftkit assembly")
    return v, f
