"""Triangle meshing and OBJ export for placed parts.

Every face is built from three pieces: a ring lifts a closed loop of
(u, v) points into the plane where one axis is constant, a strip joins
two rings with quads, each split on its diagonal from the first ring's
vertex, and a fan closes a ring as a disc about its centre.  A plain box
face is two triangles on its four corners, so a box is 12 triangles; a
cylinder is a strip of SEGMENTS quads between its two rims, closed by a
fan at each end.  A hole along a box axis
or along a cylinder's own axis is meshed as a real tunnel: each pierced
face is a strip from its outer loop to the hole's loop, and the bore is a
strip between two rings of the hole's loop, closed by a fan at the floor
of a blind hole, so part meshes stay watertight.  A hole that would
pierce the curved wall of a cylinder is omitted from the mesh; the solid
geometry still models it.

The loops come from one table of (cos, sin) at SEGMENTS angles, made
with ``math``, and two ray casts from a hole's centre: to a rectangle,
and to a circle about the part's axis.  Every coordinate is plain Python
float arithmetic, so no vertex depends on the BLAS kernel, and a mesh is
a list of (x, y, z) float tuples and a list of (i, j, k) index tuples;
the module imports no numpy.  Each part is meshed about the origin, in
its own frame, and moved to its centre once.
"""

from __future__ import annotations

import math

from .geometry import BOX, TRANSVERSE

SEGMENTS = 64

# (cos, sin) of each segment's angle, counter-clockwise from +u
_UNIT = [(math.cos(2.0 * math.pi * k / SEGMENTS),
          math.sin(2.0 * math.pi * k / SEGMENTS)) for k in range(SEGMENTS)]


def _ring(vertices, axis, coord, loop):
    """Append the (u, v) points of `loop`, lifted into the plane
    `axis` = coord, to `vertices`; return their indices."""
    t1, t2 = TRANSVERSE[axis]
    start = len(vertices)
    for u, v in loop:
        p = [0.0, 0.0, 0.0]
        p[axis] = coord
        p[t1] = u
        p[t2] = v
        vertices.append(p)
    return list(range(start, len(vertices)))


def _strip(faces, a, b, flip):
    """Quads joining the closed rings `a` and `b`, each split on its
    diagonal from a[k]."""
    for a0, a1, b0, b1 in zip(a, a[1:] + a[:1], b, b[1:] + b[:1]):
        if flip:
            faces += ((a0, a1, b1), (a0, b1, b0))
        else:
            faces += ((a0, b0, b1), (a0, b1, a1))


def _fan(vertices, faces, axis, coord, centre, ring, flip):
    """Close `ring` as a disc: triangles from the point `centre` = (u, v)
    in the plane `axis` = coord to each edge of the ring."""
    apex = _ring(vertices, axis, coord, [centre])[0]
    for b, c in zip(ring, ring[1:] + ring[:1]):
        faces.append((apex, c, b) if flip else (apex, b, c))


def _to_rect(ou, ov, cu, cv, hu, hv):
    """Where a ray from (ou, ov) at each table angle leaves the rectangle
    about (cu, cv) with half sizes (hu, hv); the origin is inside."""
    loop = []
    for c, s in _UNIT:
        t = math.inf
        if abs(c) >= 1e-15:
            t = (cu + (hu if c > 0 else -hu) - ou) / c
        if abs(s) >= 1e-15:
            t = min(t, (cv + (hv if s > 0 else -hv) - ov) / s)
        loop.append((ou + t * c, ov + t * s))
    return loop


def _to_circle(ou, ov, radius):
    """Where a ray from (ou, ov) at each table angle leaves the circle of
    `radius` about (0, 0); the origin is inside."""
    loop = []
    for c, s in _UNIT:
        a = c * c + s * s
        b = 2.0 * (ou * c + ov * s)
        q = ou * ou + ov * ov - radius * radius
        t = (-b + math.sqrt(max(b * b - 4 * a * q, 0.0))) / (2.0 * a)
        loop.append((ou + t * c, ov + t * s))
    return loop


def _hole_centre(hole):
    """The hole's centre in the (u, v) plane across its axis."""
    t1, t2 = TRANSVERSE[hole.axis]
    return hole.offset[t1], hole.offset[t2]


def _hole_loop(hole):
    hu, hv = _hole_centre(hole)
    if hole.radius is not None:
        return [(hu + hole.radius * c, hv + hole.radius * s)
                for c, s in _UNIT]
    return _to_rect(hu, hv, hu, hv, *hole.half_widths)


def _annulus(vertices, faces, hole, coord, outer, flip):
    """The face `hole.axis` = coord between the loop `outer` and the
    hole."""
    outer = _ring(vertices, hole.axis, coord, outer)
    inner = _ring(vertices, hole.axis, coord, _hole_loop(hole))
    _strip(faces, outer, inner, not flip)


def _bore(vertices, faces, hole, half_len):
    """Inner wall of a hole through a part `2 * half_len` long on its axis,
    plus the floor of a blind hole."""
    if hole.through:
        ends = (-half_len, half_len)
    else:
        lo, hi = hole.span()
        ends = (hole.open_sign * half_len, hi if hole.open_sign < 0 else lo)
    loop = _hole_loop(hole)
    mouth, end = (_ring(vertices, hole.axis, e, loop) for e in ends)
    _strip(faces, mouth, end, False)
    if not hole.through:
        _fan(vertices, faces, hole.axis, ends[1], _hole_centre(hole), end,
             hole.open_sign > 0)


def _box(solid):
    """The box about the origin, with every hole meshed as a tunnel."""
    vertices, faces = [], []
    half = [e / 2.0 for e in solid.extents]
    pierced = {}
    for hole in solid.holes:
        for sign in ((1, -1) if hole.through else (hole.open_sign,)):
            pierced[(hole.axis, sign)] = hole
    for axis in range(3):
        t1, t2 = TRANSVERSE[axis]
        h1, h2 = half[t1], half[t2]
        for sign in (1, -1):
            coord = sign * half[axis]
            hole = pierced.get((axis, sign))
            if hole is not None:
                _annulus(vertices, faces, hole, coord,
                         _to_rect(*_hole_centre(hole), 0.0, 0.0, h1, h2),
                         sign < 0)
                continue
            a, b, c, d = _ring(vertices, axis, coord,
                               [(-h1, -h2), (h1, -h2), (h1, h2), (-h1, h2)])
            faces += ((d, c, b), (d, b, a)) if sign < 0 else \
                ((a, b, c), (a, c, d))
    for hole in solid.holes:
        _bore(vertices, faces, hole, half[hole.axis])
    return vertices, faces


def _cylinder(solid):
    """The cylinder about the origin, with its first axial hole as a
    tunnel."""
    vertices, faces = [], []
    axis = solid.axis
    hl = solid.length / 2.0
    hole = next((h for h in solid.holes if h.axis == axis), None)
    rim = [(solid.radius * c, solid.radius * s) for c, s in _UNIT]
    rims = {}
    for sign in (1, -1):
        coord = sign * hl
        ring = rims[sign] = _ring(vertices, axis, coord, rim)
        if hole is not None and (hole.through or hole.open_sign == sign):
            _annulus(vertices, faces, hole, coord,
                     _to_circle(*_hole_centre(hole), solid.radius), sign < 0)
        else:
            _fan(vertices, faces, axis, coord, (0.0, 0.0), ring, sign < 0)
    _strip(faces, rims[-1], rims[1], True)
    if hole is not None:
        _bore(vertices, faces, hole, hl)
    return vertices, faces


def mesh_part(solid, center):
    """(vertices, faces) for one part placed at `center`."""
    vertices, faces = (_box if solid.kind == BOX else _cylinder)(solid)
    cx, cy, cz = (float(c) for c in center)
    return [(x + cx, y + cy, z + cz) for x, y, z in vertices], faces


def write_obj(path, vertices, faces, comment=None):
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for x, y, z in vertices:
            fh.write(f"v {x:.9g} {y:.9g} {z:.9g}\n")
        for a, b, c in faces:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


def export_assembly_obj(assembly, path):
    """Write every placed part's mesh, concatenated, to the OBJ ``path``."""
    vertices, faces = [], []
    for part in assembly.placed.values():
        v, f = mesh_part(part.solid, part.position)
        n = len(vertices)
        vertices += v
        faces += [(a + n, b + n, c + n) for a, b, c in f]
    write_obj(path, vertices, faces, comment="craftkit assembly")
