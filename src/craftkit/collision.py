"""Pairwise overlap tests for axis-aligned primitive solids with holes.

Placement only ever produces axis-aligned boxes and cylinders whose axes are
parallel or perpendicular.  Every pair but perpendicular cylinders has a
closed-form test.  Perpendicular cylinders first meet a closed-form upper
bound that rejects separated pairs; a pair that passes it is settled by a
ternary search over the shared coordinate, run to its fixed point.  Overlap
that falls entirely inside a hole region of either part is exempt.
A distance is the square root of a sum of squares, never ``hypot``, which
the C library need not round alike everywhere: the engine's depths use it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BOX, CYL, Solid, interval_overlap

TOUCH_TOL = 1e-6


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
                {"a": a, "b": b, "depth_m": float(d),
                 "point": [float(x) for x in w]}
                for a, b, d, w in self.pairs
            ],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def _box_box(ca, ea, cb, eb):
    overlaps = []
    for t in range(3):
        o = interval_overlap(ca[t] - ea[t] / 2, ca[t] + ea[t] / 2,
                             cb[t] - eb[t] / 2, cb[t] + eb[t] / 2)
        if o <= 0:
            return None
        overlaps.append(o)
    depth = min(overlaps)
    witness = [
        (max(ca[t] - ea[t] / 2, cb[t] - eb[t] / 2)
         + min(ca[t] + ea[t] / 2, cb[t] + eb[t] / 2)) / 2.0
        for t in range(3)
    ]
    return depth, tuple(witness)


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
    ax = cyl.axis
    o_ax = interval_overlap(cb[ax] - eb[ax] / 2, cb[ax] + eb[ax] / 2,
                            cc[ax] - cyl.length / 2, cc[ax] + cyl.length / 2)
    if o_ax <= 0:
        return None
    trans = [t for t in range(3) if t != ax]
    radial = _rect_circle_depth(
        (cb[trans[0]], cb[trans[1]]),
        (eb[trans[0]] / 2, eb[trans[1]] / 2),
        (cc[trans[0]], cc[trans[1]]), cyl.radius)
    if radial is None:
        return None
    depth = min(o_ax, radial)
    witness = [0.0, 0.0, 0.0]
    witness[ax] = (max(cb[ax] - eb[ax] / 2, cc[ax] - cyl.length / 2)
                   + min(cb[ax] + eb[ax] / 2, cc[ax] + cyl.length / 2)) / 2.0
    for t in trans:
        lo = max(cb[t] - eb[t] / 2, cc[t] - cyl.radius)
        hi = min(cb[t] + eb[t] / 2, cc[t] + cyl.radius)
        witness[t] = (lo + hi) / 2.0
    return depth, tuple(witness)


def _cyl_cyl_parallel(ca, a: Solid, cb, b: Solid):
    ax = a.axis
    o_ax = interval_overlap(ca[ax] - a.length / 2, ca[ax] + a.length / 2,
                            cb[ax] - b.length / 2, cb[ax] + b.length / 2)
    if o_ax <= 0:
        return None
    trans = [t for t in range(3) if t != ax]
    dx, dy = ca[trans[0]] - cb[trans[0]], ca[trans[1]] - cb[trans[1]]
    d = math.sqrt(dx * dx + dy * dy)
    radial = a.radius + b.radius - d
    if radial <= 0:
        return None
    depth = min(o_ax, radial)
    mid_ax = (max(ca[ax] - a.length / 2, cb[ax] - b.length / 2)
              + min(ca[ax] + a.length / 2, cb[ax] + b.length / 2)) / 2.0
    witness = [0.0, 0.0, 0.0]
    witness[ax] = mid_ax
    for t in trans:
        witness[t] = (ca[t] + cb[t]) / 2.0
    return depth, tuple(witness)


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
        d2 = a.radius ** 2 - (kv - ca[k]) ** 2
        return np.sqrt(d2) if d2 > 0 else -1.0

    def width_b(kv):
        d2 = b.radius ** 2 - (kv - cb[k]) ** 2
        return np.sqrt(d2) if d2 > 0 else -1.0

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

    lo = max(ca[k] - a.radius, cb[k] - b.radius)
    hi = min(ca[k] + a.radius, cb[k] + b.radius)
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
    ca = np.asarray(ca, dtype=float)
    cb = np.asarray(cb, dtype=float)
    if a.kind == BOX and b.kind == BOX:
        return _box_box(ca, a.extents, cb, b.extents)
    if a.kind == BOX and b.kind == CYL:
        return _box_cyl(ca, a.extents, cb, b)
    if a.kind == CYL and b.kind == BOX:
        return _box_cyl(cb, b.extents, ca, a)
    if a.axis == b.axis:
        return _cyl_cyl_parallel(ca, a, cb, b)
    return _cyl_cyl_perpendicular(ca, a, cb, b)


# 16 x 16 x 16 probe points at the cell centres of the unit cube
_GRID = np.stack(np.meshgrid(*[(np.arange(16) + 0.5) / 16] * 3,
                             indexing="ij"), axis=-1).reshape(-1, 3)


def _material_overlap_exists(ca, a: Solid, cb, b: Solid, tol):
    """Deterministic grid probe of the overlap AABB for material-material
    contact; used only when at least one solid carries holes."""
    lo_a, hi_a = a.aabb(ca)
    lo_b, hi_b = b.aabb(cb)
    lo = np.maximum(lo_a, lo_b)
    hi = np.minimum(hi_a, hi_b)
    if np.any(hi - lo <= 0):
        return False
    pts = _GRID * (hi - lo) + lo
    inside = a.material_contains(ca, pts, margin=tol)
    inside &= b.material_contains(cb, pts, margin=tol)
    return bool(inside.any())


def pair_overlap(ca, a: Solid, cb, b: Solid, tol: float = TOUCH_TOL):
    """None when separated/touching, else (penetration_depth, witness)."""
    hit = base_overlap(ca, a, cb, b)
    if hit is None or hit[0] <= tol:
        return None
    if a.holes or b.holes:
        if not _material_overlap_exists(ca, a, cb, b, tol):
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
