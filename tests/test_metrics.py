import json
import os
import subprocess
import sys
import threading
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import craftkit
from craftkit import metrics
from craftkit.errors import DegenerateExtent, MalformedObj
from craftkit.meshing import export_assembly_obj, mesh_part
from craftkit.metrics import (
    compare_assembly_to_mesh,
    compare_meshes,
    compare_point_sets,
    load_obj,
    normalize_points,
    sample_assembly_exterior,
    sample_mesh,
)

import pins
from conftest import buildable_assemblies
from material_oracle import material_contains


def brute_chamfer(a, b):
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())


def brute_hausdorff(a, b):
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def test_load_obj_quads_and_negative_indices(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
        "f 1 2 3 4\n"
        "f -4 -3 -2\n")
    v, f = load_obj(path)
    assert len(v) == 4
    # the quad fans into two triangles plus the explicit one
    assert len(f) == 3
    assert tuple(f[2]) == (0, 1, 2)


def test_load_obj_empty_raises(tmp_path):
    path = tmp_path / "empty.obj"
    path.write_text("# nothing here\n")
    with pytest.raises(MalformedObj, match="no vertices"):
        load_obj(path)
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
    with pytest.raises(MalformedObj, match="no faces"):
        load_obj(path)


def test_normalize_points():
    pts = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 1.0]])
    out = normalize_points(pts)
    lo, hi = out.min(axis=0), out.max(axis=0)
    assert np.allclose((lo + hi) / 2.0, 0.0)
    assert np.linalg.norm(hi - lo) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DegenerateExtent):
        normalize_points(np.zeros((5, 3)))


def test_sampling_is_deterministic():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    f = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    a = sample_mesh(v, f, n_samples=500, seed=42)
    b = sample_mesh(v, f, n_samples=500, seed=42)
    assert np.array_equal(a, b)
    c = sample_mesh(v, f, n_samples=500, seed=43)
    assert not np.array_equal(a, c)


def test_sample_points_lie_on_surface():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    f = np.array([[0, 1, 2]])
    pts = sample_mesh(v, f, n_samples=200, seed=1)
    assert np.allclose(pts[:, 2], 0.0)
    assert (pts[:, 0] >= 0).all() and (pts[:, 1] >= 0).all()
    assert (pts[:, 0] + pts[:, 1] <= 1.0 + 1e-12).all()


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.normal(size=(150, 3))
        b = rng.normal(size=(170, 3))
        report = compare_point_sets(a, b)
        assert report.chamfer == pytest.approx(
            brute_chamfer(a, b), abs=1e-12)
        assert report.hausdorff == pytest.approx(
            brute_hausdorff(a, b), abs=1e-12)


def test_kdtree_and_brute_force_agree():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3000, 3))
    b = rng.normal(size=(3000, 3))
    sub_a, sub_b = a[:500], b[:500]
    assert compare_point_sets(sub_a, sub_b).chamfer == pytest.approx(
        brute_chamfer(sub_a, sub_b), abs=1e-12)
    big = compare_point_sets(a, b).chamfer
    assert big > 0


@pytest.mark.parametrize("n_query,n_target", [(50, 50), (500, 500),
                                              (300, 2100), (2100, 300)])
def test_nearest_distances_match_a_brute_force_reference(n_query, n_target):
    # sizes on both sides of the 2000-point limit below which a brute-force
    # search used to run in place of the k-d tree
    rng = np.random.default_rng(n_query * 7 + n_target)
    query = rng.normal(size=(n_query, 3))
    target = rng.normal(size=(n_target, 3))
    reference = np.array([np.sqrt(((target - q) ** 2).sum(axis=1)).min()
                          for q in query])
    got = metrics._nearest_distances(query, target)
    np.testing.assert_allclose(got, reference, rtol=0.0, atol=1e-15)


def test_identity_scores():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(400, 3))
    report = compare_point_sets(pts, pts.copy())
    assert report.chamfer == 0.0
    assert report.hausdorff == 0.0
    assert report.fscore == 1.0


@pytest.mark.parametrize("n_a,n_b", [(150, 170), (3000, 2500)])
def test_one_nearest_neighbour_search_per_direction(monkeypatch, n_a, n_b):
    rng = np.random.default_rng(13)
    a = rng.normal(size=(n_a, 3))
    b = rng.normal(size=(n_b, 3))
    calls = []
    original = metrics._nearest_distances

    def counting(query, target):
        calls.append((len(query), len(target), threading.get_ident()))
        return original(query, target)

    monkeypatch.setattr(metrics, "_nearest_distances", counting)
    report = compare_point_sets(a, b, threshold=0.3)
    # the two searches run concurrently, so either may start first
    assert Counter(c[:2] for c in calls) == Counter([(n_a, n_b), (n_b, n_a)])
    threads = {c[:2]: c[2] for c in calls}
    assert threads[(n_a, n_b)] == threading.get_ident()
    assert threads[(n_b, n_a)] != threading.get_ident()
    assert 0.0 < report.precision < 1.0 and 0.0 < report.recall < 1.0


class SerialHelper:
    """Stands in for the helper thread: the submitted search runs on the
    caller's thread when its result is asked for, after the forward one."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        return types.SimpleNamespace(result=lambda: fn(*args))


def test_concurrent_point_set_reports_equal_a_serial_run(monkeypatch):
    rng = np.random.default_rng(17)
    pairs = [(rng.normal(size=(n_a, 3)), rng.normal(size=(n_b, 3)))
             for n_a, n_b in [(150, 170), (3000, 2500), (20000, 20000)]]
    concurrent = [compare_point_sets(a, b, 0.2).to_dict() for a, b in pairs]
    monkeypatch.setattr(metrics, "ThreadPoolExecutor", SerialHelper)
    serial = [compare_point_sets(a, b, 0.2).to_dict() for a, b in pairs]
    assert concurrent == serial


def test_concurrent_golden_scores_equal_a_serial_run(monkeypatch,
                                                     build_fixture, tmp_path):
    goldens = ["table_valid_3", "hammer_valid_2", "skateboard_valid_3"]
    refs = {}
    for name in goldens:
        category = name.split("_")[0]
        refs[name] = tmp_path / f"{category}_valid_1.obj"
        export_assembly_obj(build_fixture(f"{category}_valid_1")[1],
                            refs[name])

    def scores():
        return [compare_assembly_to_mesh(build_fixture(name)[1],
                                         refs[name]).to_dict()
                for name in goldens]

    concurrent = scores()
    monkeypatch.setattr(metrics, "ThreadPoolExecutor", SerialHelper)
    assert scores() == concurrent
    assert all(r["chamfer"] > 0.0 for r in concurrent)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_a_failed_search_reaches_the_caller(monkeypatch, direction):
    rng = np.random.default_rng(19)
    a = rng.normal(size=(150, 3))
    b = rng.normal(size=(170, 3))
    failing = len(a) if direction == "forward" else len(b)
    error = MemoryError("no room for the tree")
    original = metrics._nearest_distances

    def search(query, target):
        if len(query) == failing:
            raise error
        return original(query, target)

    monkeypatch.setattr(metrics, "_nearest_distances", search)
    with pytest.raises(MemoryError) as exc:
        compare_point_sets(a, b)
    assert exc.value is error


def test_chamfer_never_exceeds_hausdorff():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=(60, 3))
        b = rng.normal(size=(80, 3))
        report = compare_point_sets(a, b)
        assert report.chamfer <= report.hausdorff + 1e-15


def test_fscore_zero_when_far_apart():
    a = np.zeros((10, 3))
    b = np.full((10, 3), 100.0)
    report = compare_point_sets(a, b)
    assert report.fscore == report.precision == report.recall == 0.0


def test_exterior_sampling_rejects_interior():
    # a part's samples lie on its own surface, never strictly inside
    # another part's material, on every buildable fixture
    built = 0
    for asm in buildable_assemblies():
        pts = sample_assembly_exterior(asm, n_samples=20000, seed=0)
        assert len(pts) == 20000
        for name, part in asm.placed.items():
            inside = material_contains(part.solid, part.position, pts,
                                       margin=1e-6)
            for other_name, other in asm.placed.items():
                if other_name == name:
                    continue
                both = inside & material_contains(
                    other.solid, other.position, pts, margin=1e-6)
                assert not both.any(), (name, other_name)
        built += 1
    assert built == 22


def test_assembly_self_comparison_scores_high(build_fixture, tmp_path):
    _, asm = build_fixture("hammer_valid_1")
    obj_path = tmp_path / "hammer.obj"
    export_assembly_obj(asm, obj_path)
    report = compare_assembly_to_mesh(asm, obj_path, n_samples=3000, seed=0)
    assert report.chamfer < 0.01
    assert report.fscore > 0.99
    payload = report.to_dict()
    assert set(payload) == {"chamfer", "hausdorff", "fscore", "precision",
                            "recall", "samples", "threshold"}


def reference_exterior(assembly, n_samples, seed):
    """``sample_assembly_exterior`` as it was first written: part areas
    summed every round, each sample tested against every other part, and
    the shortfall drawn again for at most 50 rounds."""
    parts = list(assembly.placed.values())
    meshes = [tuple(map(np.asarray, mesh_part(p.solid, p.position)))
              for p in parts]
    areas = np.asarray([metrics._triangle_areas(v, f).sum()
                        for v, f in meshes])
    rng = np.random.default_rng(seed)
    kept = []
    total = 0
    rounds = 0
    need = n_samples
    while total < n_samples and rounds < 50:
        rounds += 1
        counts = rng.multinomial(need, areas / areas.sum())
        for owner, ((v, f), count) in enumerate(zip(meshes, counts)):
            if count == 0:
                continue
            pts = sample_mesh(v, f, n_samples=int(count),
                              seed=int(rng.integers(0, 2 ** 31)))
            visible = np.ones(len(pts), dtype=bool)
            for j, other in enumerate(parts):
                if j != owner:
                    visible &= ~material_contains(
                        other.solid, other.position, pts, margin=1e-9)
            if visible.any():
                kept.append(pts[visible])
                total += int(visible.sum())
        need = max(n_samples - total, 1)
    out = np.vstack(kept)
    return out[:n_samples] if len(out) >= n_samples else out


def test_exterior_samples_equal_the_reference_loop():
    # a valid assembly hides none of its surface, so one draw is the
    # reference loop's first and only round
    built = 0
    for assembly in buildable_assemblies():
        got = sample_assembly_exterior(assembly, 2000, 0)
        want = reference_exterior(assembly, 2000, 0)
        assert got.tobytes() == want.tobytes()
        built += 1
    assert built == 22


CROSS_KERNEL_REPORT = """
import json, sys
from craftkit import build_assembly, default_catalog, load_plan
from craftkit.metrics import compare_assembly_to_mesh
catalog = default_catalog()
plan, _ = load_plan(sys.argv[1], catalog)
report = compare_assembly_to_mesh(build_assembly(plan, catalog), sys.argv[2])
print(json.dumps(report.to_dict()))
"""


def test_a_report_is_the_same_on_another_blas_kernel(build_fixture,
                                                      plan_path, tmp_path):
    # meshing and normalization use no BLAS, so a report built under an old
    # x86 OpenBLAS kernel equals this process's bit for bit
    ref = tmp_path / "table.obj"
    export_assembly_obj(build_fixture("table_valid_1")[1], ref)
    here = compare_assembly_to_mesh(build_fixture("skateboard_valid_1")[1],
                                    ref).to_dict()
    src = str(Path(craftkit.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", CROSS_KERNEL_REPORT,
         str(plan_path("skateboard_valid_1")), str(ref)],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(done.stdout) == here


def test_screen_reports_match_the_pinned_digest():
    pins.assert_holds("screen_report")


@pytest.fixture
def hammer_ref(build_fixture, tmp_path):
    """A hammer plan and its own mesh, with no sampled file kept."""
    metrics._sampled_obj_file.cache_clear()
    asm = build_fixture("hammer_valid_1")[1]
    ref = tmp_path / "ref.obj"
    export_assembly_obj(asm, ref)
    yield asm, ref
    metrics._sampled_obj_file.cache_clear()


def count_loads(monkeypatch):
    loads = []
    original = metrics.load_obj

    def counting(path):
        loads.append(path)
        return original(path)

    monkeypatch.setattr(metrics, "load_obj", counting)
    return loads


def test_a_kept_reference_scores_as_a_cold_one(monkeypatch, hammer_ref):
    asm, ref = hammer_ref
    loads = count_loads(monkeypatch)
    cold = compare_assembly_to_mesh(asm, ref, n_samples=3000).to_dict()
    kept = compare_assembly_to_mesh(asm, ref, n_samples=3000).to_dict()
    assert len(loads) == 1
    assert kept == cold
    # another sample count or seed is another sampling
    compare_assembly_to_mesh(asm, ref, n_samples=3000, seed=1)
    compare_assembly_to_mesh(asm, ref, n_samples=2000)
    assert len(loads) == 3
    # both files of a mesh comparison, one seed apart
    first = compare_meshes(ref, ref, n_samples=3000, seed=0).to_dict()
    assert compare_meshes(ref, ref, n_samples=3000, seed=0).to_dict() == first
    assert len(loads) == 4


def test_a_rewritten_reference_is_read_again(build_fixture, hammer_ref,
                                             tmp_path):
    asm, ref = hammer_ref
    before = compare_assembly_to_mesh(asm, ref, n_samples=2000).to_dict()
    table = build_fixture("table_valid_1")[1]
    export_assembly_obj(table, ref)  # in place, at the same path
    after = compare_assembly_to_mesh(asm, ref, n_samples=2000).to_dict()
    metrics._sampled_obj_file.cache_clear()
    fresh = tmp_path / "table.obj"
    export_assembly_obj(table, fresh)
    assert after == compare_assembly_to_mesh(
        asm, fresh, n_samples=2000).to_dict()
    assert after != before


def test_kept_samples_are_read_only(hammer_ref):
    _, ref = hammer_ref
    points = metrics._sampled_obj(ref, 500, 1)
    assert points.flags.writeable is False
    with pytest.raises(ValueError):
        points[0, 0] = 1.0
    assert metrics._sampled_obj(ref, 500, 1) is points


@pytest.mark.parametrize("body,detail", [
    ("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n", "all triangles degenerate"),
    ("v 1 1 1\nv 1 1 1\nv 1 1 1\nf 1 2 3\n", "point set has zero extent"),
    ("v 0 0 0\nv 1 0 0\nf 1 2 3\n", "line 3: face index 3 names no"),
], ids=["collinear", "coincident", "bad_face"])
def test_a_malformed_reference_raises_on_every_call(monkeypatch, hammer_ref,
                                                    tmp_path, body, detail):
    asm, _ = hammer_ref
    bad = tmp_path / "bad.obj"
    bad.write_text(body)
    loads = count_loads(monkeypatch)
    for _ in range(2):
        with pytest.raises(MalformedObj, match=f"bad.obj.*{detail}"):
            compare_assembly_to_mesh(asm, bad, n_samples=200)
    assert len(loads) == 2
