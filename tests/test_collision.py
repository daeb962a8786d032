import hashlib
import json
import math

import numpy as np
import pytest

import craftkit.collision as collision
from craftkit.collision import (
    _cyl_cyl_perpendicular, base_overlap, pair_overlap, validate_collisions)
from craftkit.geometry import TRANSVERSE, HoleRegion, Solid, interval_overlap
from craftkit.physics import run_functional_test

from material_oracle import material_contains


def mc_overlap(ca, a, cb, b, n=20000, seed=0, margin=1e-6):
    """Monte Carlo oracle: sample a's material, test membership in b."""
    rng = np.random.default_rng(seed)
    lo, hi = a.aabb(ca)
    pts = rng.uniform(lo, hi, size=(n, 3))
    pts = pts[material_contains(a, ca, pts, margin=margin)]
    if not len(pts):
        return False
    return bool(material_contains(b, cb, pts, margin=margin).any())


def test_box_box_overlap_and_separation():
    a = Solid.box((0.2, 0.2, 0.2))
    b = Solid.box((0.2, 0.2, 0.2))
    hit = base_overlap((0, 0, 0), a, (0.15, 0, 0), b)
    assert hit is not None
    assert hit[0] == pytest.approx(0.05, abs=1e-12)
    assert base_overlap((0, 0, 0), a, (0.25, 0, 0), b) is None


def test_touching_is_not_collision():
    a = Solid.box((0.1, 0.1, 0.1))
    b = Solid.box((0.1, 0.1, 0.1))
    # exact face contact and contact within tolerance both pass
    assert pair_overlap((0, 0, 0), a, (0.1, 0, 0), b) is None
    assert pair_overlap((0, 0, 0), a, (0.1 - 5e-7, 0, 0), b) is None
    assert pair_overlap((0, 0, 0), a, (0.09, 0, 0), b) is not None


def test_box_cylinder_corner_case():
    box = Solid.box((0.1, 0.1, 0.1))
    cyl = Solid.cylinder(0.03, 0.2, axis=2)
    # circle outside the corner even though the AABBs overlap
    d = 0.05 + 0.03 / np.sqrt(2.0) + 1e-4
    assert base_overlap((0, 0, 0), box, (d, d, 0), cyl) is None
    d = 0.05 + 0.03 / np.sqrt(2.0) - 1e-3
    assert base_overlap((0, 0, 0), box, (d, d, 0), cyl) is not None


def test_cyl_cyl_parallel():
    a = Solid.cylinder(0.05, 0.2, axis=2)
    b = Solid.cylinder(0.05, 0.2, axis=2)
    hit = base_overlap((0, 0, 0), a, (0.08, 0, 0), b)
    assert hit is not None
    assert hit[0] == pytest.approx(0.02, abs=1e-12)
    assert base_overlap((0, 0, 0), a, (0.11, 0, 0), b) is None


def test_cyl_cyl_perpendicular_matches_oracle():
    a = Solid.cylinder(0.04, 0.3, axis=0)
    b = Solid.cylinder(0.03, 0.3, axis=1)
    rng = np.random.default_rng(7)
    for _ in range(60):
        ca = rng.uniform(-0.05, 0.05, 3)
        cb = rng.uniform(-0.05, 0.05, 3)
        analytic = base_overlap(ca, a, cb, b) is not None
        oracle = mc_overlap(ca, a, cb, b)
        if analytic != oracle:
            hit = base_overlap(ca, a, cb, b)
            # only disagree inside the MC resolution band
            assert hit is None or hit[0] < 1e-3


def test_cyl_cyl_perpendicular_grazing():
    a = Solid.cylinder(0.05, 0.2, axis=0)
    b = Solid.cylinder(0.05, 0.2, axis=1)
    # offset along z by just under / over the sum of radii
    assert base_overlap((0, 0, 0), a, (0, 0, 0.0999), b) is not None
    assert base_overlap((0, 0, 0), a, (0, 0, 0.1001), b) is None


def test_symmetry():
    shapes = [
        ((0, 0, 0), Solid.box((0.1, 0.2, 0.1))),
        ((0.05, 0.03, 0.02), Solid.cylinder(0.04, 0.15, axis=2)),
        ((0.02, -0.04, 0.01), Solid.cylinder(0.03, 0.12, axis=0)),
    ]
    for i in range(len(shapes)):
        for j in range(len(shapes)):
            if i == j:
                continue
            (ca, a), (cb, b) = shapes[i], shapes[j]
            ha = base_overlap(ca, a, cb, b)
            hb = base_overlap(cb, b, ca, a)
            assert (ha is None) == (hb is None)
            if ha is not None:
                assert ha[0] == pytest.approx(hb[0], rel=1e-9)


def test_hole_exempts_inserted_axle():
    wheel = Solid.cylinder(0.03, 0.02, axis=1)
    wheel.holes.append(HoleRegion(
        owner="WHEEL_1", name="HOLE_1", axis=1, offset=(0.0, 0.0, 0.0),
        depth=0.02, radius=0.006))
    axle = Solid.cylinder(0.005, 0.15, axis=1)
    # axle through the hole: base solids overlap, material does not
    assert base_overlap((0, 0, 0), wheel, (0, 0, 0), axle) is not None
    assert pair_overlap((0, 0, 0), wheel, (0, 0, 0), axle) is None
    # off-center axle hits the wheel material
    assert pair_overlap((0, 0, 0), wheel, (0, 0.0, 0.02), axle) is not None


def test_validate_collisions_on_goldens(build_fixture):
    for name in ("hammer_valid_1", "table_valid_1", "chair_valid_1",
                 "skateboard_valid_1", "bookshelf_valid_1", "bus_valid_1"):
        _, asm = build_fixture(name)
        report = validate_collisions(asm)
        assert report.ok, (name, report.to_dict())


def test_validate_collisions_flags_bad_fixture(build_fixture):
    _, asm = build_fixture("bookshelf_collision")
    report = validate_collisions(asm)
    assert not report.ok
    pairs = {frozenset((a, b)) for a, b, _, _ in report.pairs}
    assert frozenset(("SHELF_1", "SHELF_2")) in pairs
    payload = report.to_dict()
    assert payload["pairs"][0]["depth_m"] > 0


# -- perpendicular cylinders: the bounded search against the plain search ---

def _reference_cyl_cyl_perpendicular(ca, a: Solid, cb, b: Solid):
    """The fixed 200-step ternary search with no bound, kept verbatim as the
    reference that the bounded search must match bit for bit (squares are
    products, as in the search)."""
    i, j = a.axis, b.axis
    k = 3 - i - j

    def width_a(kv):  # half-width of a's disc along axis... any transverse
        d = kv - ca[k]
        d2 = a.radius * a.radius - d * d
        return np.sqrt(d2) if d2 > 0 else -1.0

    def width_b(kv):
        d = kv - cb[k]
        d2 = b.radius * b.radius - d * d
        return np.sqrt(d2) if d2 > 0 else -1.0

    def f(kv):
        wa = width_a(kv)
        wb = width_b(kv)
        if wa < 0 or wb < 0:
            return -1.0
        # a spans its own axis i as a segment; its disc is in (j, k)
        o_i = interval_overlap(ca[i] - a.length / 2, ca[i] + a.length / 2,
                               cb[i] - wb, cb[i] + wb)
        o_j = interval_overlap(cb[j] - b.length / 2, cb[j] + b.length / 2,
                               ca[j] - wa, ca[j] + wa)
        return min(o_i, o_j)

    lo = max(ca[k] - a.radius, cb[k] - b.radius)
    hi = min(ca[k] + a.radius, cb[k] + b.radius)
    if hi <= lo:
        return None
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            lo = m1
        else:
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


_AXIS_PAIRS = [(i, j) for i in range(3) for j in range(3) if i != j]


def _nudge(x, ulps):
    """x moved by ``ulps`` units in the last place (negative: downwards)."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, toward)
    return x


def _assert_same_as_reference(ca, a, cb, b):
    ca = np.asarray(ca, dtype=float)
    cb = np.asarray(cb, dtype=float)
    got = _cyl_cyl_perpendicular(ca, a, cb, b)
    want = _reference_cyl_cyl_perpendicular(ca, a, cb, b)
    # None matches only None; else depth and every witness coordinate equal
    assert got == want, (ca, a, cb, b, got, want)
    return want


def test_cyl_cyl_perpendicular_matches_reference_on_random_pairs():
    rng = np.random.default_rng(20261018)
    overlapping = separated = 0
    for i, j in _AXIS_PAIRS:
        for _ in range(340):
            # sizes and centres drawn as in acceptance criterion 3
            a = Solid.cylinder(float(rng.uniform(0.02, 0.07)),
                               float(rng.uniform(0.05, 0.15)), i)
            b = Solid.cylinder(float(rng.uniform(0.02, 0.07)),
                               float(rng.uniform(0.05, 0.15)), j)
            ca = rng.uniform(-0.06, 0.06, 3)
            cb = rng.uniform(-0.06, 0.06, 3)
            if _assert_same_as_reference(ca, a, cb, b) is None:
                separated += 1
            else:
                overlapping += 1
    assert overlapping + separated >= 2000
    assert overlapping > 100 and separated > 100, (overlapping, separated)


def test_cyl_cyl_perpendicular_matches_reference_when_grazing():
    rng = np.random.default_rng(5)
    for i, j in _AXIS_PAIRS:
        k = 3 - i - j
        for _ in range(4):
            a = Solid.cylinder(float(rng.uniform(0.02, 0.07)),
                               float(rng.uniform(0.05, 0.15)), i)
            b = Solid.cylinder(float(rng.uniform(0.02, 0.07)),
                               float(rng.uniform(0.05, 0.15)), j)
            ca = [float(x) for x in rng.uniform(-0.06, 0.06, 3)]
            # touching along i (a's end face on b's side), along j (b's end
            # face on a's side) and along k (the two curved sides)
            gaps = {i: a.length / 2 + b.radius,
                    j: b.length / 2 + a.radius,
                    k: a.radius + b.radius}
            for axis, gap in gaps.items():
                for sign in (1.0, -1.0):
                    touching = list(ca)
                    touching[axis] = ca[axis] + sign * gap
                    for ulps in (-2, -1, 0, 1, 2):
                        cb = list(touching)
                        cb[axis] = _nudge(touching[axis], ulps)
                        _assert_same_as_reference(ca, a, cb, b)


def _counting_interval_overlap(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return interval_overlap(*args)

    monkeypatch.setattr(collision, "interval_overlap", counted)
    return calls


def _boxes_apart(ca, a, cb, b):
    return any(abs(q - p) > (da + db) / 2.0
               for p, q, da, db in zip(ca, cb, a.extents, b.extents))


def test_hit_verdict_does_not_search_separated_cylinders(
        build_fixture, monkeypatch):
    # the box reject leaves the primitive test to the 3 steps whose boxes
    # overlap, none of them a cylinder pair that needs a search
    plan, asm = build_fixture("hammer_valid_1")
    intervals = _counting_interval_overlap(monkeypatch)
    apart = []

    def counted(ca, a, cb, b):
        apart.append(_boxes_apart(ca, a, cb, b))
        return base_overlap(ca, a, cb, b)

    monkeypatch.setattr(collision, "base_overlap", counted)
    outcome = run_functional_test("hit", asm, plan)
    assert outcome.success, (outcome.failure_reason, outcome.details)
    assert apart == [False] * 3, apart
    assert intervals[0] == 0, intervals[0]


def test_overlapping_perpendicular_search_stops_at_its_fixed_point(
        monkeypatch):
    a = Solid.cylinder(0.05, 0.2, axis=0)
    b = Solid.cylinder(0.05, 0.2, axis=1)
    ca = np.zeros(3)
    cb = np.array([0.0, 0.0, 0.0999])
    want = _reference_cyl_cyl_perpendicular(ca, a, cb, b)
    calls = _counting_interval_overlap(monkeypatch)
    got = _cyl_cyl_perpendicular(ca, a, cb, b)
    assert want is not None and got == want
    # 2 calls for the bound, 4 per iteration (both widths stay positive
    # inside (lo, hi)) and 2 for the depth at the final midpoint
    iterations = (calls[0] - 4) / 4
    assert iterations == int(iterations) and iterations < 200, calls[0]


def test_hole_exemption_follows_a_moved_solid():
    # holes are stored relative to their owner, so they move with it
    block = Solid.box((0.2, 0.2, 0.2))
    block.holes.append(HoleRegion(
        owner="BLOCK_1", name="HOLE_1", axis=2, offset=(0.0, 0.0, 0.0),
        depth=0.2, radius=0.03))
    peg = Solid.cylinder(0.02, 0.3, axis=2)
    assert pair_overlap((0, 0, 0), block, (0, 0, 0), peg) is None
    shifted = (5.0, 0.0, 0.0)
    assert pair_overlap(shifted, block, shifted, peg) is None


def test_square_hole_walls_cut_by_a_slightly_wider_box_collide():
    # a 100 mm cube with a 90 mm square through hole: a centred box 2, 4 or
    # 6 mm wider than the hole cuts a 1-3 mm sliver from each wall, which a
    # sampled test can step over; an 88 mm box passes through clear
    cube = Solid.box((0.1, 0.1, 0.1))
    cube.holes.append(HoleRegion(
        owner="CUBE_1", name="HOLE_1", axis=2, offset=(0.0, 0.0, 0.0),
        depth=0.1, half_widths=(0.045, 0.045)))
    centre = (0.0, 0.0, 0.0)
    for side in (0.092, 0.094, 0.096):
        hit = pair_overlap(centre, cube, centre, Solid.box((side, side, 0.12)))
        assert hit is not None, side
        assert pair_overlap(centre, Solid.box((side, side, 0.12)),
                            centre, cube) is not None, side
    assert pair_overlap(centre, cube, centre,
                        Solid.box((0.088, 0.088, 0.12))) is None


def _holed_pair(rng, fitted):
    """A box or cylinder with one round or square hole, through or blind,
    on any axis, and a peg near the hole's centre along its axis.  A
    fitted peg is a cylinder (round hole) or a box (square hole) inside
    the hole's cross-section that ends inside a blind hole; an unfitted
    one may be wider than the hole, off its centre, lying across it or
    through a blind hole's bottom."""
    if rng.integers(0, 2) == 0:
        owner = Solid.box(tuple(rng.uniform(0.04, 0.15, 3)))
    else:
        owner = Solid.cylinder(float(rng.uniform(0.03, 0.08)),
                               float(rng.uniform(0.04, 0.15)),
                               int(rng.integers(0, 3)))
    ax = int(rng.integers(0, 3))
    trans = TRANSVERSE[ax]
    room = min(owner.extents[t] for t in trans) / 2.0
    if owner.kind == "cyl" and owner.axis == ax:
        room = owner.radius / math.sqrt(2.0)
    half = float(rng.uniform(0.2, 0.6)) * room
    offset = [0.0, 0.0, 0.0]
    for t in trans:
        offset[t] = float(rng.uniform(-1.0, 1.0)) * (room - half) / 2.0
    through = rng.integers(0, 2) == 0
    depth, open_sign = owner.extents[ax], 0
    if not through:
        open_sign = int(rng.choice((-1, 1)))
        offset[ax] = open_sign * owner.extents[ax] / 4.0
        depth = owner.extents[ax] / 2.0
    round_hole = rng.integers(0, 2) == 0
    owner.holes.append(HoleRegion(
        owner="OWNER_1", name="HOLE_1", axis=ax, offset=tuple(offset),
        depth=depth, radius=half if round_hole else None,
        half_widths=None if round_hole else (half, half),
        open_sign=open_sign))
    length = float(rng.uniform(0.3, 2.0)) * owner.extents[ax]
    jitter = [0.0, 0.0, 0.0]
    jitter[ax] = float(rng.uniform(-0.5, 0.5)) * owner.extents[ax]
    if fitted:
        if not through:
            # the peg's inner end stays short of the blind hole's bottom
            jitter[ax] = open_sign * (length / 2.0 - depth / 2.0 + float(
                rng.uniform(0.0, 0.5)) * depth)
        peg_half = float(rng.uniform(0.5, 0.99)) * half
        for t in trans:
            jitter[t] = float(rng.uniform(-1.0, 1.0)) * (half - peg_half) / 3
    else:
        peg_half = float(rng.uniform(0.5, 1.5)) * half
        for t in trans:
            jitter[t] = float(rng.uniform(-0.5, 0.5)) * half
    peg_ax = ax
    if not fitted and rng.integers(0, 3) == 0:
        peg_ax = trans[0]  # lying across the hole
    cylinder_peg = round_hole if fitted else rng.integers(0, 2) == 0
    if cylinder_peg:
        peg = Solid.cylinder(peg_half, length, peg_ax)
    else:
        ext = [2.0 * peg_half] * 3
        ext[peg_ax] = length
        peg = Solid.box(tuple(ext))
    ca = tuple(float(c) for c in rng.uniform(-0.05, 0.05, 3))
    cb = tuple(c + o + j for c, o, j in zip(ca, offset, jitter))
    return ca, owner, cb, peg


def test_closed_form_misses_no_overlap_the_point_oracle_finds():
    """Seeded holed pairs, alternately with a fitted and an unfitted peg:
    wherever 20 000 uniform points of the shared box find material of both
    parts deeper than the touch tolerance, ``pair_overlap`` reports the
    pair, in either order.  The seed and the resolution were fixed before
    the first run."""
    rng = np.random.default_rng(12)
    tol = collision.TOUCH_TOL
    found = {True: 0, False: 0}
    cleared = {True: 0, False: 0}
    for n in range(400):
        fitted = n % 2 == 0
        ca, owner, cb, peg = _holed_pair(rng, fitted)
        hit = pair_overlap(ca, owner, cb, peg)
        assert (hit is None) == (pair_overlap(cb, peg, ca, owner) is None)
        if hit is None:
            cleared[fitted] += 1
        lo = np.maximum(owner.aabb(ca)[0], peg.aabb(cb)[0])
        hi = np.minimum(owner.aabb(ca)[1], peg.aabb(cb)[1])
        if np.any(hi <= lo):
            continue
        pts = rng.uniform(lo, hi, size=(20000, 3))
        both = material_contains(owner, ca, pts, margin=tol)
        both &= material_contains(peg, cb, pts, margin=tol)
        if both.any():
            found[fitted] += 1
            assert hit is not None, (n, ca, owner, cb, peg)
    # every fitted peg clears its hole, most unfitted ones cut material
    assert cleared[True] == 200 and found[True] == 0, (cleared, found)
    assert found[False] > 150, found


# -- pinned depths and witnesses --------------------------------------------

def _pinning_solids():
    """Every pair kind: boxes, a cylinder on each axis, a box with a round
    through hole, a cylinder with a square one (the hole test), and a
    round and a square peg that fit those holes."""
    holed_box = Solid.box((0.1, 0.1, 0.04))
    holed_box.holes.append(HoleRegion(
        owner="B", name="HOLE_1", axis=2, offset=(0.02, 0.0, 0.0),
        depth=0.04, radius=0.012))
    holed_cyl = Solid.cylinder(0.04, 0.05, axis=2)
    holed_cyl.holes.append(HoleRegion(
        owner="C", name="HOLE_1", axis=2, offset=(0.0, 0.0, 0.0),
        depth=0.05, half_widths=(0.01, 0.01)))
    return [Solid.box((0.1, 0.06, 0.04)), Solid.box((0.05, 0.05, 0.12)),
            Solid.cylinder(0.03, 0.1, axis=0),
            Solid.cylinder(0.02, 0.08, axis=1),
            Solid.cylinder(0.025, 0.06, axis=2), holed_box, holed_cyl,
            Solid.cylinder(0.008, 0.1, axis=2), Solid.box((0.016, 0.016, 0.1))]


def test_pair_overlap_depths_and_witnesses_are_pinned():
    """A sha256 over pair_overlap on every ordered pair of solids at seeded
    centres: drawn uniformly, on a 1 cm grid, where equal bounds and
    touching faces are common, or for a holed first solid with the second
    near its hole's centre, where the hole test decides.  Only
    + - * / max min and sqrt enter the result, so the value is the same on
    every platform."""
    rng = np.random.default_rng(17)
    solids = _pinning_solids()
    digest = hashlib.sha256()
    hits = 0
    for a in solids:
        for b in solids:
            for n in range(24):
                ca = rng.uniform(-0.05, 0.05, 3)
                cb = rng.uniform(-0.05, 0.05, 3)
                if n % 3 == 1:
                    ca, cb = np.round(ca, 2), np.round(cb, 2)
                elif n % 3 == 2 and a.holes:
                    cb = ca + a.holes[0].offset + rng.uniform(-0.004, 0.004, 3)
                hit = pair_overlap(tuple(map(float, ca)), a,
                                   tuple(map(float, cb)), b)
                if hit is not None:
                    hits += 1
                    hit = [hit[0], list(hit[1])]
                digest.update(json.dumps(hit).encode())
    assert hits == 1056, hits
    assert digest.hexdigest() == (
        "4e989fc34dc700142d92bc4bc4d71a6c688ca679cb3beec5d327b7aad07f91ee")


def test_pair_overlap_returns_plain_floats():
    """Depth and witness are floats, not numpy scalars, for every pair
    kind; np.float64 subclasses float, so only the exact type tells."""
    box, cyl_x = Solid.box((0.1, 0.1, 0.1)), Solid.cylinder(0.03, 0.2, 0)
    cyl_z = Solid.cylinder(0.03, 0.2, 2)
    ca, cb = (0.0, 0.0, 0.0), (0.04, 0.01, 0.02)
    for a, b in ((box, box), (box, cyl_x), (cyl_x, box), (cyl_x, cyl_x),
                 (cyl_x, cyl_z)):
        depth, witness = pair_overlap(ca, a, cb, b)
        assert type(depth) is float, (a.kind, b.kind)
        assert len(witness) == 3
        assert all(type(w) is float for w in witness), (a.kind, b.kind)


# -- the box reject ----------------------------------------------------------

def _pair_overlap_without_reject(ca, a, cb, b, tol):
    """``pair_overlap`` with no box reject in front of the primitive test,
    kept as the reference that the rejecting one must match."""
    hit = base_overlap(ca, a, cb, b)
    if hit is None or hit[0] <= tol:
        return None
    if a.holes or b.holes:
        shared = collision.aabb_overlap(ca, a.extents, cb, b.extents)
        for owner_center, owner in ((ca, a), (cb, b)):
            for hole in owner.holes:
                if collision._hole_holds(hole, owner_center, shared,
                                         ca, a, cb, b, tol):
                    return None
    return hit


def _reject_solids(rng, kind):
    def box():
        return Solid.box(tuple(float(e) for e in rng.uniform(0.02, 0.15, 3)))

    def cyl(ax):
        return Solid.cylinder(float(rng.uniform(0.01, 0.07)),
                              float(rng.uniform(0.03, 0.15)), ax)

    if kind == "holed":
        _, owner, _, peg = _holed_pair(rng, bool(rng.integers(0, 2)))
        return owner, peg
    first, second = kind
    return (box() if first is None else cyl(first),
            box() if second is None else cyl(second))


# None is a box, an int a cylinder on that axis: box/box, box/cylinder
# both ways on each axis, parallel and perpendicular cylinders, and a
# holed first solid with a peg
_REJECT_KINDS = ([(None, None)] + [(None, k) for k in range(3)]
                 + [(k, None) for k in range(3)]
                 + [(k, k) for k in range(3)] + _AXIS_PAIRS + ["holed"])

# offsets from the box-touching distance, in and out; 1e-17 is below the
# ulp of most coordinates drawn, so it mostly lands on touching itself
_REJECT_OFFSETS = ("ulp", 0.0, 1e-17, 1e-12, 1e-9)


def test_box_reject_changes_no_result():
    """Seeded pairs of every kind with their boxes touching on one axis,
    or just inside or outside by one ulp, 1e-17, 1e-12 or 1e-9, give the
    same result with the reject as without it, at the engine's tolerance
    and at placement's.  The other two axes overlap, or touch too."""
    rng = np.random.default_rng(29)
    tols = (1e-10, collision.TOUCH_TOL)
    rejected, hits = 0, dict.fromkeys(tols, 0)
    for kind in _REJECT_KINDS:
        for _ in range(12):
            a, b = _reject_solids(rng, kind)
            ca = tuple(float(c) for c in rng.uniform(-0.05, 0.05, 3))
            reach = [(da + db) / 2.0 for da, db in zip(a.extents, b.extents)]
            for axis in range(3):
                for sign in (1.0, -1.0):
                    cb = [c + float(rng.choice((-1.0, 1.0, rng.uniform(
                        -1.0, 1.0)))) * r for c, r in zip(ca, reach)]
                    touching = ca[axis] + sign * reach[axis]
                    for offset in _REJECT_OFFSETS:
                        for out in (1.0, -1.0):
                            if offset == "ulp":
                                cb[axis] = _nudge(touching, int(sign * out))
                            else:
                                cb[axis] = touching + sign * out * offset
                            rejected += _boxes_apart(ca, a, cb, b)
                            for tol in tols:
                                got = pair_overlap(ca, a, tuple(cb), b, tol)
                                want = _pair_overlap_without_reject(
                                    ca, a, tuple(cb), b, tol)
                                assert got == want, (kind, ca, cb, tol)
                                hits[tol] += got is not None
    # 5012 of the 12 240 pairs are rejected, and some 1e-9 overlaps collide
    # at the engine's tolerance but not at placement's (70 and 8 hits)
    assert rejected > 4000, rejected
    assert hits[1e-10] > hits[collision.TOUCH_TOL] > 0, hits


def test_boxes_one_ulp_apart_skip_the_primitive_test(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return base_overlap(*args)

    monkeypatch.setattr(collision, "base_overlap", counted)
    a, b = Solid.box((0.1, 0.1, 0.1)), Solid.box((0.1, 0.1, 0.1))
    apart = (math.nextafter(0.1, math.inf), 0.0, 0.0)
    assert pair_overlap((0.0, 0.0, 0.0), a, apart, b, tol=0.0) is None
    assert calls[0] == 0
    # one ulp closer they touch, so the primitive test runs and finds them
    # touching
    assert pair_overlap((0.0, 0.0, 0.0), a, (0.1, 0.0, 0.0), b,
                        tol=0.0) is None
    assert calls[0] == 1
