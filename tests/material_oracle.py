"""Point-set membership in a solid's base and material, for test oracles.

``pair_overlap`` decides overlap in closed form; these vectorised queries
sample it independently.  Points are world coordinates, a solid is placed
at ``center``, and a positive ``margin`` shrinks the solid (and grows its
holes).
"""

import numpy as np

from craftkit.geometry import BOX, TRANSVERSE


def hole_contains(hole, pts, margin=0.0):
    """Point-in-hole test for points in the owner's frame; margin > 0
    shrinks the hole."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    c = np.asarray(hole.offset)
    ax = hole.axis
    lo, hi = hole.span()
    inside = (pts[:, ax] >= lo + margin) & (pts[:, ax] <= hi - margin)
    trans = TRANSVERSE[ax]
    if hole.radius is not None:
        d2 = sum((pts[:, t] - c[t]) ** 2 for t in trans)
        r = hole.radius - margin
        inside &= d2 <= max(r, 0.0) ** 2
    else:
        for t, hw in zip(trans, hole.half_widths):
            inside &= np.abs(pts[:, t] - c[t]) <= hw - margin
    return inside


def base_contains(solid, center, pts, margin=0.0):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    c = np.asarray(center, dtype=float)
    if solid.kind == BOX:
        half = np.asarray(solid.extents) / 2.0 - margin
        return np.all(np.abs(pts - c) <= half, axis=1)
    ax = solid.axis
    inside = np.abs(pts[:, ax] - c[ax]) <= solid.length / 2.0 - margin
    d2 = sum((pts[:, t] - c[t]) ** 2 for t in TRANSVERSE[ax])
    return inside & (d2 <= max(solid.radius - margin, 0.0) ** 2)


def material_contains(solid, center, pts, margin=0.0):
    """Inside the base by `margin` and outside every hole by `margin`."""
    inside = base_contains(solid, center, pts, margin)
    if solid.holes:
        local = np.atleast_2d(np.asarray(pts, dtype=float)) - center
        for hole in solid.holes:
            inside &= ~hole_contains(hole, local, margin=-margin)
    return inside
