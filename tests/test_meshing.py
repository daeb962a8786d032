import hashlib
from collections import Counter

import numpy as np
import pytest

from craftkit.geometry import HoleRegion, Solid
from craftkit.meshing import mesh_part, write_obj
from craftkit.metrics import load_obj

from test_assembler import _buildable_fixture_assemblies


def mesh_arrays(solid, center=(0.0, 0.0, 0.0)):
    """``mesh_part``'s vertex and face lists as arrays."""
    v, f = mesh_part(solid, center)
    return np.asarray(v), np.asarray(f)


def weld(vertices, faces, decimals=9):
    """Merge coincident vertices so shared edges become topological."""
    keys = {}
    remap = np.empty(len(vertices), dtype=int)
    for i, p in enumerate(np.round(vertices, decimals)):
        key = tuple(p)
        remap[i] = keys.setdefault(key, len(keys))
    return remap[np.asarray(faces)]


def edge_counts(faces):
    counts = Counter()
    for a, b, c in faces:
        for u, v in ((a, b), (b, c), (c, a)):
            counts[frozenset((u, v))] += 1
    return counts


def assert_closed(vertices, faces):
    """Every interior edge is shared by two triangles.

    Faces pierced by a hole tessellate their outer boundary finer than the
    neighbouring plain faces, so edges lying on an outer rim of the AABB may
    be T-junctions: geometrically sealed but unmatched.  Those are the only
    odd edges allowed.
    """
    vertices = np.asarray(vertices, dtype=float)
    keys = {}
    remap = np.empty(len(vertices), dtype=int)
    coords = {}
    for i, p in enumerate(np.round(vertices, 9)):
        key = tuple(p)
        remap[i] = keys.setdefault(key, len(keys))
        coords[remap[i]] = p
    welded = remap[np.asarray(faces)]
    lo = vertices.min(axis=0)
    hi = vertices.max(axis=0)

    def on_rim(idx):
        p = coords[idx]
        extreme = sum(
            1 for t in range(3)
            if np.isclose(p[t], lo[t], atol=1e-9)
            or np.isclose(p[t], hi[t], atol=1e-9))
        return extreme >= 2

    for edge, n in edge_counts(welded).items():
        if n == 2:
            continue
        assert all(on_rim(idx) for idx in edge), (edge, n)


def test_box_mesh_closed_and_sized():
    solid = Solid.box((0.2, 0.1, 0.05))
    v, f = mesh_arrays(solid, (1.0, 2.0, 3.0))
    assert_closed(v, f)
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    assert np.allclose(lo, [0.9, 1.95, 2.975])
    assert np.allclose(hi, [1.1, 2.05, 3.025])


def test_box_with_through_hole_closed():
    solid = Solid.box((0.1, 0.1, 0.1))
    solid.holes.append(HoleRegion(
        owner="A_1", name="HOLE_1", axis=2, offset=(0.0, 0.0, 0.0),
        depth=0.1, radius=0.02))
    v, f = mesh_arrays(solid)
    assert_closed(v, f)
    # no vertex inside the bore
    rho = np.hypot(v[:, 0], v[:, 1])
    assert (rho >= 0.02 - 1e-9).all()


def test_box_with_blind_hole_closed():
    solid = Solid.box((0.1, 0.1, 0.1))
    solid.holes.append(HoleRegion(
        owner="A_1", name="HOLE_1", axis=2, offset=(0.0, 0.0, 0.025),
        depth=0.05, radius=0.015, open_sign=1))
    v, f = mesh_arrays(solid)
    assert_closed(v, f)
    # hole floor exists at the blind depth
    floor = v[np.isclose(v[:, 2], 0.0)]
    assert len(floor) > 0


def test_cylinder_mesh_closed():
    solid = Solid.cylinder(0.03, 0.2, axis=1)
    v, f = mesh_arrays(solid)
    assert_closed(v, f)
    rho = np.hypot(v[:, 0], v[:, 2])
    assert rho.max() <= 0.03 + 1e-9
    assert np.isclose(v[:, 1].min(), -0.1)


def test_cylinder_with_axial_hole_closed():
    solid = Solid.cylinder(0.03, 0.02, axis=1)
    solid.holes.append(HoleRegion(
        owner="W_1", name="HOLE_1", axis=1, offset=(0.0, 0.0, 0.0),
        depth=0.02, radius=0.006))
    v, f = mesh_arrays(solid)
    assert_closed(v, f)
    rho = np.hypot(v[:, 0], v[:, 2])
    assert rho.min() >= 0.006 - 1e-9


def _holed(solid, axis, offset, depth, open_sign=0, radius=None,
           half_widths=None):
    solid.holes.append(HoleRegion(
        owner="P_1", name="HOLE_1", axis=axis, offset=offset, depth=depth,
        radius=radius, half_widths=half_widths, open_sign=open_sign))
    return solid


@pytest.mark.parametrize("solid", [
    pytest.param(_holed(Solid.box((0.1, 0.1, 0.1)), 2, (0.0, 0.01, 0.0),
                        0.1, half_widths=(0.02, 0.015)),
                 id="box-square-through"),
    pytest.param(_holed(Solid.box((0.1, 0.08, 0.06)), 0, (-0.03, 0.0, 0.01),
                        0.04, open_sign=-1, half_widths=(0.01, 0.01)),
                 id="box-square-blind-minus-x"),
    pytest.param(_holed(Solid.cylinder(0.03, 0.1, axis=2), 2,
                        (0.0, 0.0, -0.03), 0.04, open_sign=-1, radius=0.01),
                 id="cylinder-blind-minus-z"),
    pytest.param(_holed(Solid.cylinder(0.03, 0.02, axis=1), 1,
                        (0.01, 0.0, -0.005), 0.02, radius=0.006),
                 id="cylinder-offcentre-through",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "the annulus's outer ring is cast from the hole "
                     "centre, so its vertices miss the rim ring's"))),
])
def test_holed_mesh_closed(solid):
    v, f = mesh_arrays(solid)
    assert_closed(v, f)


def test_mesh_digest_of_buildable_fixtures(catalog):
    # the sha256 over the float64 vertex and int64 face array bytes of
    # every part's mesh, over every buildable fixture in sorted file order;
    # the mesh is plain float arithmetic, so the value is the same on every
    # BLAS kernel
    digest = hashlib.sha256()
    parts = 0
    for assembly in _buildable_fixture_assemblies(catalog):
        for part in assembly.placed.values():
            v, f = mesh_part(part.solid, part.position)
            digest.update(np.asarray(v).tobytes())
            digest.update(np.asarray(f).tobytes())
            parts += 1
    assert parts == 127
    assert digest.hexdigest() == (
        "24d09b5f2e75da13671fb25948fa0cb107999d1782f36571de263104604c4aab")


def test_holed_parts_mesh_in_their_own_frame():
    box = Solid.box((0.1, 0.1, 0.1))
    box.holes.append(HoleRegion(
        owner="A_1", name="HOLE_1", axis=2, offset=(0.02, 0.0, 0.0),
        depth=0.1, radius=0.02))
    wheel = Solid.cylinder(0.03, 0.02, axis=1)
    wheel.holes.append(HoleRegion(
        owner="W_1", name="HOLE_1", axis=1, offset=(0.0, 0.0, 0.0),
        depth=0.02, radius=0.006))
    at = np.array([1.0, 2.0, 3.0])
    for solid, (u, w), bore_uv in ((box, (0, 1), (1.02, 2.0)),
                                   (wheel, (0, 2), (1.0, 3.0))):
        v0, f0 = mesh_arrays(solid)
        v, f = mesh_arrays(solid, at)
        assert np.array_equal(f, f0)
        assert np.allclose(v, v0 + at, rtol=0.0, atol=1e-12)
        assert_closed(v, f)
        # no vertex inside the moved bore
        rho = np.hypot(v[:, u] - bore_uv[0], v[:, w] - bore_uv[1])
        assert rho.min() >= solid.holes[0].radius - 1e-9


def test_write_and_reload_roundtrip(tmp_path):
    solid = Solid.box((0.1, 0.2, 0.3))
    v, f = mesh_part(solid, (0.0, 0.0, 0.0))
    path = tmp_path / "box.obj"
    write_obj(path, v, f, comment="unit box")
    v2, f2 = load_obj(path)
    assert len(v2) == len(v)
    assert len(f2) == len(f)
    assert np.allclose(np.sort(v2, axis=0), np.sort(v, axis=0), atol=1e-9)
