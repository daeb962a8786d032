"""Pairwise overlap tests for axis-aligned primitive solids with holes.

Placement only ever produces axis-aligned boxes and cylinders whose axes are
parallel or perpendicular.  ``pair_overlap`` first rejects a pair whose
boxes (each solid's ``extents`` at its centre) are apart on some axis,
``|cb - ca| > (ea + eb) / 2`` (Ericson, *Real-Time Collision Detection*,
2004, ch. 4).  This box reject is the one broad phase, for placement and
for the engine's body-body contacts alike, and it is exact: boxes apart
leave the base primitives apart, or with a depth of rounding size that
every caller's ``tol`` exceeds, and a hole only ever clears more.

Every pair but perpendicular cylinders has a closed-form test.
Perpendicular cylinders first meet a closed-form upper bound that rejects
separated pairs; a pair that passes it is settled by a ternary search over
the shared coordinate, run to its fixed point.

Overlap that falls entirely inside one hole of either part is exempt,
and that too is decided in closed form, by per-axis interval tests
(Ericson, *Real-Time Collision Detection*, 2004, ch. 4-5): the hole must
hold the parts' shared box along its axis, and across it the shared box
(square hole) or the part that reaches least far from its axis (round
hole).  A pair that no single hole clears collides, with its base depth
and witness, so the test never calls an overlapping pair clear.

Centres, depths and witness points are float tuples: the interval along an
axis comes from ``geometry.aabb_overlap`` and the closed forms use only
+ - * / and ``math.sqrt``.  A distance is the square root of a sum of
products, never ``hypot`` or ``**``, which the C library need not round
alike everywhere: the engine's depths use it.  The module imports no
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import (
    BOX, CYL, TOUCH_TOL, TRANSVERSE, Solid, aabb_overlap, interval_overlap)


@dataclass
class CollisionReport:
    pairs: list = field(default_factory=list)  # (a, b, depth, witness)

    @property
    def ok(self) -> bool:
        return not self.pairs

    def to_dict(self):
        return {
            "ok": self.ok,
            "pairs": [
                {"a": a, "b": b, "depth_m": d, "point": list(w)}
                for a, b, d, w in self.pairs
            ],
        }


def _box_box(ca, ea, cb, eb):
    shared = aabb_overlap(ca, ea, cb, eb)
    overlaps = [hi - lo for lo, hi in shared]
    if any(o <= 0 for o in overlaps):
        return None
    return min(overlaps), tuple((lo + hi) / 2.0 for lo, hi in shared)


def _rect_circle_depth(rect_c, rect_half, circ_c, r):
    """Penetration of a circle into a rectangle (2D); None if separated."""
    dx = abs(circ_c[0] - rect_c[0])
    dy = abs(circ_c[1] - rect_c[1])
    ox = rect_half[0] - dx
    oy = rect_half[1] - dy
    if ox >= 0 and oy >= 0:
        # center inside the rectangle
        return r + min(ox, oy)
    cx = min(max(circ_c[0], rect_c[0] - rect_half[0]), rect_c[0] + rect_half[0])
    cy = min(max(circ_c[1], rect_c[1] - rect_half[1]), rect_c[1] + rect_half[1])
    dx, dy = circ_c[0] - cx, circ_c[1] - cy
    d = math.sqrt(dx * dx + dy * dy)
    if d >= r:
        return None
    return r - d


def _box_cyl(cb, eb, cc, cyl: Solid):
    # the cylinder's box is exact: its half-extents are r and length / 2
    shared = aabb_overlap(cb, eb, cc, cyl.extents)
    lo, hi = shared[cyl.axis]
    if hi - lo <= 0:
        return None
    t0, t1 = TRANSVERSE[cyl.axis]
    radial = _rect_circle_depth(
        (cb[t0], cb[t1]), (eb[t0] / 2, eb[t1] / 2), (cc[t0], cc[t1]),
        cyl.radius)
    if radial is None:
        return None
    return min(hi - lo, radial), tuple((lo + hi) / 2.0 for lo, hi in shared)


def _cyl_cyl_parallel(ca, a: Solid, cb, b: Solid):
    ax = a.axis
    lo, hi = aabb_overlap(ca, a.extents, cb, b.extents)[ax]
    if hi - lo <= 0:
        return None
    t0, t1 = TRANSVERSE[ax]
    dx, dy = ca[t0] - cb[t0], ca[t1] - cb[t1]
    d = math.sqrt(dx * dx + dy * dy)
    radial = a.radius + b.radius - d
    if radial <= 0:
        return None
    witness = [(p + q) / 2.0 for p, q in zip(ca, cb)]
    witness[ax] = (lo + hi) / 2.0
    return min(hi - lo, radial), tuple(witness)


def _cyl_cyl_perpendicular(ca, a: Solid, cb, b: Solid):
    """Axes on different coordinate axes; exact via 1D concave maximization.

    With a on axis i and b on axis j, the free coordinate k is shared: for a
    fixed k both cross-sections give an interval on i and on j, and the
    overlap of each is concave in k, so a ternary search over k is exact.

    Both overlaps grow with the disc half-widths, and rounding is monotone,
    so the overlap at the widest discs bounds the objective from above: a
    pair whose bound is not positive is separated without a search.  The
    search stops at the first iteration that leaves (lo, hi) unchanged,
    since every later one would repeat it.
    """
    i, j = a.axis, b.axis
    k = 3 - i - j

    # half-length of the chord at k = kv through a's disc, which lies in
    # (j, k), so the chord runs along j (width_b: b's disc, along i);
    # -1.0 where kv misses the disc
    def width_a(kv):
        d = kv - ca[k]
        d2 = a.radius * a.radius - d * d
        return math.sqrt(d2) if d2 > 0 else -1.0

    def width_b(kv):
        d = kv - cb[k]
        d2 = b.radius * b.radius - d * d
        return math.sqrt(d2) if d2 > 0 else -1.0

    def overlap(wa, wb):
        if wa < 0 or wb < 0:
            return -1.0
        # a spans its own axis i as a segment; its disc is in (j, k)
        o_i = interval_overlap(ca[i] - a.length / 2, ca[i] + a.length / 2,
                               cb[i] - wb, cb[i] + wb)
        o_j = interval_overlap(cb[j] - b.length / 2, cb[j] + b.length / 2,
                               ca[j] - wa, ca[j] + wa)
        return min(o_i, o_j)

    def f(kv):
        return overlap(width_a(kv), width_b(kv))

    # both discs span 2r along k, so their boxes share (lo, hi) there
    lo, hi = aabb_overlap(ca, a.extents, cb, b.extents)[k]
    if hi <= lo or overlap(width_a(ca[k]), width_b(cb[k])) <= 0:
        return None
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            if m1 == lo:
                break
            lo = m1
        else:
            if m2 == hi:
                break
            hi = m2
    k_best = (lo + hi) / 2.0
    depth = f(k_best)
    if depth <= 0:
        return None
    witness = [0.0, 0.0, 0.0]
    witness[k] = k_best
    wa, wb = width_a(k_best), width_b(k_best)
    witness[i] = (max(ca[i] - a.length / 2, cb[i] - wb)
                  + min(ca[i] + a.length / 2, cb[i] + wb)) / 2.0
    witness[j] = (max(cb[j] - b.length / 2, ca[j] - wa)
                  + min(cb[j] + b.length / 2, ca[j] + wa)) / 2.0
    return depth, tuple(witness)


def base_overlap(ca, a: Solid, cb, b: Solid):
    """Penetration depth and witness point of the two base primitives."""
    if a.kind == BOX and b.kind == BOX:
        return _box_box(ca, a.extents, cb, b.extents)
    if a.kind == BOX and b.kind == CYL:
        return _box_cyl(ca, a.extents, cb, b)
    if a.kind == CYL and b.kind == BOX:
        return _box_cyl(cb, b.extents, ca, a)
    if a.axis == b.axis:
        return _cyl_cyl_parallel(ca, a, cb, b)
    return _cyl_cyl_perpendicular(ca, a, cb, b)


def _farthest_from_axis(center, solid: Solid, ax, u, v):
    """How far ``solid`` at ``center`` reaches from the line along axis
    ``ax`` through (u, v) on its transverse axes: |d| + r for a cylinder
    along ``ax``, else the far corner of its box."""
    t0, t1 = TRANSVERSE[ax]
    d0, d1 = center[t0] - u, center[t1] - v
    if solid.kind == CYL and solid.axis == ax:
        return math.sqrt(d0 * d0 + d1 * d1) + solid.radius
    f0 = abs(d0) + solid.extents[t0] / 2.0
    f1 = abs(d1) + solid.extents[t1] / 2.0
    return math.sqrt(f0 * f0 + f1 * f1)


def _hole_holds(hole, owner_center, shared, ca, a: Solid, cb, b: Solid,
                tol):
    """Whether ``hole``, in the part centred at ``owner_center``, grown by
    ``2 * tol`` holds all that the two parts share: their shared box
    ``shared`` along the hole's axis and, for a square hole, across it;
    for a round hole, the part that reaches less far from its axis."""
    ax = hole.axis
    t0, t1 = TRANSVERSE[ax]
    c = [o + h for o, h in zip(owner_center, hole.offset)]
    box = [(ax, hole.depth / 2.0)]
    if hole.radius is None:
        box += zip((t0, t1), hole.half_widths)
    slack = 2.0 * tol
    if any(shared[i][0] < c[i] - half - slack
           or shared[i][1] > c[i] + half + slack for i, half in box):
        return False
    return hole.radius is None or min(
        _farthest_from_axis(ca, a, ax, c[t0], c[t1]),
        _farthest_from_axis(cb, b, ax, c[t0], c[t1])) <= hole.radius + slack


def pair_overlap(ca, a: Solid, cb, b: Solid, tol: float = TOUCH_TOL):
    """None when separated, touching, or when one hole of either part
    holds all that the two share; else (penetration_depth, witness) of
    the base primitives."""
    # broad phase: boxes apart on some axis leave the primitives apart, or
    # with a depth of rounding size, which every caller's tol rejects
    (a0, a1, a2), (b0, b1, b2) = ca, cb
    (e0, e1, e2), (f0, f1, f2) = a.extents, b.extents
    if (abs(b0 - a0) > (e0 + f0) / 2.0 or abs(b1 - a1) > (e1 + f1) / 2.0
            or abs(b2 - a2) > (e2 + f2) / 2.0):
        return None
    hit = base_overlap(ca, a, cb, b)
    if hit is None or hit[0] <= tol:
        return None
    if a.holes or b.holes:
        shared = aabb_overlap(ca, a.extents, cb, b.extents)
        for owner_center, owner in ((ca, a), (cb, b)):
            for hole in owner.holes:
                if _hole_holds(hole, owner_center, shared, ca, a, cb, b,
                               tol):
                    return None
    return hit


def validate_collisions(assembly) -> CollisionReport:
    report = CollisionReport()
    names = sorted(assembly.placed)
    for idx, na in enumerate(names):
        for nb in names[idx + 1:]:
            pa = assembly.placed[na]
            pb = assembly.placed[nb]
            hit = pair_overlap(pa.position, pa.solid,
                               pb.position, pb.solid)
            if hit is not None:
                report.pairs.append((na, nb, hit[0], hit[1]))
    return report
