"""Visual similarity metrics between a built assembly and a reference mesh.

Both shapes are normalized (AABB centered at the origin, diagonal scaled to
one), surface-sampled, and compared point set to point set with chamfer
distance, Hausdorff distance, and an F-score at a fixed distance threshold.
This is the only module that imports numpy: part meshes arrive as lists
of tuples and become arrays where they are sampled, so ``import craftkit``
and the commands that never score a plan do not load numpy.

A mesh file is read, normalized and sampled once per file identity (device,
inode, size and modification time), sample count and seed: the points are
kept, read-only, for the last ``SAMPLED_FILES`` such keys, so scoring many
plans against one reference samples it once, and a file rewritten or
replaced is read again.  A report from kept points equals a cold run's bit
for bit.

Every metric comes from two nearest-neighbour searches, one from each point
set into the other, and the two run at the same time: the backward search
on a helper thread, the forward one on the caller's.  scipy's k-d tree
builds and queries without holding the GIL, so on two cores a comparison
takes little more than one search, and its report equals a serial run's
bit for bit.  The tree splits at the sliding midpoint
(``balanced_tree=False``; Maneewongvatana and Mount, 1999) rather than the
median, with 32 points per leaf and uncompacted nodes: on the fixtures'
samples it builds in about half the time and queries no slower, and a
nearest distance is exact whatever the tree.
scipy is imported by the first comparison, so commands that never score a
plan do not load it.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .catalog import read_text
from .errors import DegenerateExtent, EmptyMesh, MalformedObj
from .meshing import mesh_part

FSCORE_THRESHOLD = 0.1
DEFAULT_SAMPLES = 20000
SAMPLED_FILES = 8  # one reference per category of the paper


@dataclass
class MetricReport:
    chamfer: float
    hausdorff: float
    fscore: float
    precision: float
    recall: float
    samples: int
    threshold: float = FSCORE_THRESHOLD

    def to_dict(self):
        return {
            "chamfer": self.chamfer,
            "hausdorff": self.hausdorff,
            "fscore": self.fscore,
            "precision": self.precision,
            "recall": self.recall,
            "samples": self.samples,
            "threshold": self.threshold,
        }


def load_obj(path):
    """Vertices and fan-triangulated faces of a Wavefront OBJ file.

    A malformed ``v`` or ``f`` line raises ``MalformedObj`` naming the file
    and the line, and so does a file with no vertex or no face; a file that
    is not UTF-8 raises ``UnicodeDecodeError`` naming the file.
    """
    vertices = []
    faces = []
    for number, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, *rest = line.split()
        try:
            if head == "v":
                xyz = [float(x) for x in rest[:3]]
                if len(xyz) < 3 or not all(map(math.isfinite, xyz)):
                    raise ValueError("a vertex needs 3 finite coordinates")
                vertices.append(xyz)
            elif head == "f":
                # 1-based, or negative counting back from the last vertex;
                # either way only a vertex defined above the face
                n = len(vertices)
                idx = [int(token.split("/")[0]) for token in rest]
                if len(idx) < 3:
                    raise ValueError("a face needs 3 vertices")
                for i in idx:
                    if not (1 <= i <= n or -n <= i <= -1):
                        raise ValueError(f"face index {i} names no vertex; "
                                         f"{n} are defined above it")
                idx = [i - 1 if i > 0 else n + i for i in idx]
                for k in range(1, len(idx) - 1):
                    faces.append((idx[0], idx[k], idx[k + 1]))
        except ValueError as exc:
            raise MalformedObj(path, number, str(exc)) from None
    if not faces:
        raise MalformedObj(path, None,
                           "no faces" if vertices else "no vertices")
    return np.asarray(vertices, dtype=float), np.asarray(faces, dtype=int)


def _triangle_areas(vertices, faces):
    a = vertices[faces[:, 0]]
    b = vertices[faces[:, 1]]
    c = vertices[faces[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def normalize_points(points):
    """Center the AABB at the origin and scale its diagonal to one."""
    points = np.asarray(points, dtype=float)
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    dx, dy, dz = (float(x) for x in hi - lo)
    diag = math.sqrt(dx * dx + dy * dy + dz * dz)
    if diag <= 0.0:
        raise DegenerateExtent("point set has zero extent")
    return (points - (lo + hi) / 2.0) / diag


def _sample_triangles(vertices, faces, areas, n_samples, seed):
    """Area-weighted uniform samples of triangles whose areas are given."""
    if len(faces) == 0:
        raise EmptyMesh("all triangles degenerate")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(faces), size=n_samples, p=areas / areas.sum())
    u = rng.random(n_samples)
    v = rng.random(n_samples)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    a = vertices[faces[chosen, 0]]
    b = vertices[faces[chosen, 1]]
    c = vertices[faces[chosen, 2]]
    return a + u[:, None] * (b - a) + v[:, None] * (c - a)


def _kept_triangles(vertices, faces):
    """(faces, areas) of the triangles with area, and the total area."""
    areas = _triangle_areas(vertices, faces)
    keep = areas > 1e-12
    return faces[keep], areas[keep], areas.sum()


def sample_mesh(vertices, faces, n_samples=DEFAULT_SAMPLES, seed=0):
    """Area-weighted uniform surface samples; degenerate triangles dropped."""
    vertices = np.asarray(vertices, dtype=float)
    faces, areas, _ = _kept_triangles(vertices,
                                      np.asarray(faces, dtype=int))
    return _sample_triangles(vertices, faces, areas, n_samples, seed)


def sample_assembly_exterior(assembly, n_samples=DEFAULT_SAMPLES, seed=0):
    """Area-weighted surface samples of an assembly's parts, one draw.

    The assembly must pass the collision check, as every plan that the
    CLI and the pipeline score does: its parts then share no material,
    so no sample lies inside another part and every sample is kept.  One
    multinomial splits ``n_samples`` over the parts by surface area, then
    each part with a share draws it from its own seed.
    """
    meshes = []
    for p in assembly.placed.values():
        v, f = mesh_part(p.solid, p.position)
        v = np.asarray(v, dtype=float)
        meshes.append((v, *_kept_triangles(v, np.asarray(f, dtype=int))))
    areas = np.asarray([total for *_, total in meshes])
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_samples, areas / areas.sum())
    samples = [_sample_triangles(v, f, a, int(count),
                                 int(rng.integers(0, 2 ** 31)))
               for (v, f, a, _), count in zip(meshes, counts) if count]
    if not samples:
        raise EmptyMesh("no exterior surface samples")
    return np.vstack(samples)


def _nearest_distances(query, target):
    from scipy.spatial import cKDTree

    tree = cKDTree(target, leafsize=32, balanced_tree=False,
                   compact_nodes=False)
    d, _ = tree.query(query, k=1)
    return d


def compare_point_sets(points_a, points_b,
                       threshold=FSCORE_THRESHOLD) -> MetricReport:
    """All metrics from one search per direction; a is the prediction.

    The backward search runs on a helper thread while this one runs the
    forward search; an exception from either reaches the caller.
    """
    import scipy.spatial  # noqa: F401  (loaded here, not by both threads)

    with ThreadPoolExecutor(max_workers=1) as helper:
        backward = helper.submit(_nearest_distances, points_b, points_a)
        da = _nearest_distances(points_a, points_b)
        db = backward.result()
    precision = float((da <= threshold).mean())
    recall = float((db <= threshold).mean())
    f = 0.0 if precision + recall == 0.0 else \
        2.0 * precision * recall / (precision + recall)
    return MetricReport(
        chamfer=0.5 * (float(da.mean()) + float(db.mean())),
        hausdorff=max(float(da.max()), float(db.max())),
        fscore=f, precision=precision, recall=recall,
        samples=len(points_a), threshold=threshold)


def _sampled_obj(path, n_samples, seed):
    """Normalized surface samples of an OBJ file, read-only, kept per
    file identity, sample count and seed.

    An OBJ with no extent or with no triangle of any area raises
    ``MalformedObj`` naming the file, on every call.  A file rewritten to
    the same size within one tick of the file system's clock keeps its
    identity and is not read again.
    """
    st = os.stat(path)
    return _sampled_obj_file(path, (st.st_dev, st.st_ino, st.st_size,
                                    st.st_mtime_ns), n_samples, seed)


@functools.lru_cache(maxsize=SAMPLED_FILES)
def _sampled_obj_file(path, identity, n_samples, seed):
    v, f = load_obj(path)
    try:
        points = sample_mesh(normalize_points(v), f, n_samples=n_samples,
                             seed=seed)
    except (DegenerateExtent, EmptyMesh) as exc:
        raise MalformedObj(path, None, str(exc)) from None
    points.flags.writeable = False
    return points


def compare_assembly_to_mesh(assembly, obj_path,
                             n_samples=DEFAULT_SAMPLES, seed=0,
                             threshold=FSCORE_THRESHOLD) -> MetricReport:
    """Normalized similarity between an assembly and a reference OBJ."""
    pred = sample_assembly_exterior(assembly, n_samples=n_samples, seed=seed)
    ref = _sampled_obj(obj_path, n_samples, seed + 1)
    return compare_point_sets(normalize_points(pred), ref, threshold)


def compare_meshes(obj_a, obj_b, n_samples=DEFAULT_SAMPLES, seed=0,
                   threshold=FSCORE_THRESHOLD) -> MetricReport:
    pa = _sampled_obj(obj_a, n_samples, seed)
    pb = _sampled_obj(obj_b, n_samples, seed + 1)
    return compare_point_sets(pa, pb, threshold)
