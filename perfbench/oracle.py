"""The benchmark's own answers, computed apart from the program.

Correctness checks compare the program's outputs with these.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

MAX_LLM_CALLS = 3


def feedback_verdict(stages):
    """(status, failure_stage, llm_calls) of a FEEDBACK job.

    ``stages`` are the designed stages of the job's scripted responses, in
    order.  The rules: success ends the job; one retry is budgeted for a
    pre-simulation failure and one for a simulation failure; never more
    than three calls.  Raises if the script runs out before the job ends.
    """
    pre = sim = 0
    for calls, stage in enumerate(stages, 1):
        if stage == "NONE":
            return "success", stage, calls
        if calls == MAX_LLM_CALLS:
            return "failed", stage, calls
        if stage == "PHYSICS":
            if sim:
                return "failed", stage, calls
            sim = 1
        else:
            if pre:
                return "failed", stage, calls
            pre = 1
    raise ValueError(f"script {stages} runs out of responses")


def trajectory_displacement(trajectory):
    """Largest distance of any part centre from its first snapshot."""
    first = trajectory[0]["parts"]
    worst = 0.0
    for snap in trajectory[1:]:
        for part, p in snap["parts"].items():
            worst = max(worst, math.dist(p, first[part]))
    return worst


def centroid_travel(trajectory):
    """Distance between the mean part centre of the last and first
    snapshot."""

    def centre(snap):
        pts = list(snap["parts"].values())
        return [sum(p[i] for p in pts) / len(pts) for i in range(3)]

    return math.dist(centre(trajectory[-1]), centre(trajectory[0]))


BRUTE_FORCE_QUERIES = 32


def nearest_distances(query, target, rng):
    """Distance from every query point to its nearest target point.

    The benchmark's own search: scipy's k-d tree, queried exactly, without
    the program's code.  A seeded sample of queries is searched again by
    brute force, and the two must agree to 1e-15.
    """
    query = np.asarray(query, dtype=float)
    target = np.asarray(target, dtype=float)
    dist = cKDTree(target).query(query, k=1)[0]
    sample = rng.choice(len(query), size=min(BRUTE_FORCE_QUERIES,
                                             len(query)), replace=False)
    diff = query[sample, None, :] - target[None, :, :]
    brute = np.sqrt((diff ** 2).sum(axis=2)).min(axis=1)
    if np.abs(brute - dist[sample]).max() > 1e-15:
        raise AssertionError("k-d tree and brute force disagree")
    return dist


def point_set_metrics(pred, ref, threshold, rng):
    """Chamfer, Hausdorff, precision and recall of two point sets."""
    d_pred = nearest_distances(pred, ref, rng)
    d_ref = nearest_distances(ref, pred, rng)
    return {
        "chamfer": 0.5 * (float(d_pred.mean()) + float(d_ref.mean())),
        "hausdorff": max(float(d_pred.max()), float(d_ref.max())),
        "precision": float((d_pred <= threshold).mean()),
        "recall": float((d_ref <= threshold).mean()),
    }
