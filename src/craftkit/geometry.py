"""Axis-aligned primitive solids (box / cylinder) with subtracted hole regions.

All lengths are metres.  Solids stay axis-aligned through assembly build;
only the physics engine rotates bodies.

The module is also the geometry vocabulary of placement, collision and the
engine's body-body contacts: ``TRANSVERSE[ax]`` names the two axes across
axis ``ax``, and ``aabb_overlap`` gives the interval that two boxes share
on each axis (the per-axis test of Ericson, *Real-Time Collision
Detection*, 2004, section 4.2).  Both work on plain float tuples, and
the module imports no numpy.

Frame convention: a solid knows nothing of where it is.  Its extents and
its holes are given in its own frame, centred on the solid, and every
query that places it (``aabb``, and the collision tests) takes the
owner's centre as an argument.  A part's world position lives in
exactly one place: ``PlacedPart.position`` in an assembly, the body's pose
applied to ``BodyPart.local_center`` in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

AXIS_INDEX = {"x": 0, "y": 1, "z": 2}
AXIS_NAME = {0: "x", 1: "y", 2: "z"}

# face token -> (axis index, outward sign)
FACE_AXIS = {
    "FRONT": (0, +1), "BACK": (0, -1),
    "LEFT": (1, +1), "RIGHT": (1, -1),
    "TOP": (2, +1), "BOTTOM": (2, -1),
    "HIGH": (2, +1), "LOW": (2, -1),
}

# the two axes across each axis, in ascending order
TRANSVERSE = ((1, 2), (0, 2), (0, 1))

BOX = "box"
CYL = "cyl"

# the one tolerance (m) at which two placed parts touch: a face within it
# is flush in placement, and a depth within it is no collision
TOUCH_TOL = 1e-6


@dataclass(frozen=True)
class HoleRegion:
    owner: str
    name: str
    axis: int  # axis index of the hole direction
    offset: tuple  # (x, y, z) m, hole centre relative to the owner's centre
    depth: float  # m along axis
    radius: float | None = None  # cylindrical hole
    half_widths: tuple | None = None  # square/rect hole: transverse half sizes
    open_sign: int = 0  # blind hole: sign of the face it opens on; 0 = through

    @property
    def through(self):
        return self.open_sign == 0

    def span(self):
        c = self.offset[self.axis]
        return (c - self.depth / 2.0, c + self.depth / 2.0)

    def to_dict(self):
        d = {
            "owner": self.owner, "name": self.name,
            "axis": AXIS_NAME[self.axis], "offset": list(self.offset),
            "depth": self.depth, "through": self.through,
        }
        if self.radius is not None:
            d["radius"] = self.radius
        else:
            d["half_widths"] = list(self.half_widths)
        return d


@dataclass
class Solid:
    """Base primitive minus a list of hole regions.

    kind BOX: extents (ex, ey, ez).
    kind CYL: radius, length, axis (index of principal axis); extents is the
    AABB of the cylinder.
    """
    kind: str
    extents: tuple
    radius: float | None = None
    length: float | None = None
    axis: int | None = None
    holes: list = field(default_factory=list)

    @classmethod
    def box(cls, extents):
        return cls(kind=BOX, extents=tuple(float(e) for e in extents))

    @classmethod
    def cylinder(cls, radius, length, axis):
        ext = [2.0 * radius] * 3
        ext[axis] = length
        return cls(kind=CYL, extents=tuple(ext), radius=float(radius),
                   length=float(length), axis=axis)

    def hole(self, name):
        """The hole carved for modification ``name``, or None."""
        return next((h for h in self.holes if h.name == name), None)

    def aabb(self, center):
        """The (lo, hi) corners of the bounding box, as float tuples."""
        return (tuple(c - e / 2.0 for c, e in zip(center, self.extents)),
                tuple(c + e / 2.0 for c, e in zip(center, self.extents)))

    def to_dict(self):
        d = {"kind": self.kind, "extents": list(self.extents)}
        if self.kind == CYL:
            d["radius"] = self.radius
            d["length"] = self.length
            d["axis"] = AXIS_NAME[self.axis]
        d["holes"] = [h.to_dict() for h in self.holes]
        return d


def solid_inertia_diag(mass, solid: Solid):
    """Inertia of the base primitive about its own center (holes ignored),
    as floats; squares are products, not the C library's ``pow``."""
    if solid.kind == BOX:
        ex, ey, ez = solid.extents
        return (mass / 12.0 * (ey * ey + ez * ez),
                mass / 12.0 * (ex * ex + ez * ez),
                mass / 12.0 * (ex * ex + ey * ey))
    r, length = solid.radius, solid.length
    i_perp = mass * (3.0 * (r * r) + length * length) / 12.0
    diag = [i_perp] * 3
    diag[solid.axis] = 0.5 * mass * (r * r)
    return tuple(diag)


def interval_overlap(lo_a, hi_a, lo_b, hi_b):
    return min(hi_a, hi_b) - max(lo_a, lo_b)


def aabb_overlap(ca, ea, cb, eb):
    """Per axis, the (lo, hi) that the boxes of centre ``ca``, extents
    ``ea`` and of ``cb``, ``eb`` share: ``hi - lo`` is their overlap (not
    positive where they are apart) and ``(lo + hi) / 2`` its midpoint."""
    return tuple((max(a - da / 2.0, b - db / 2.0),
                  min(a + da / 2.0, b + db / 2.0))
                 for a, da, b, db in zip(ca, ea, cb, eb))
