"""Seeded inputs and the verdicts they were designed for.

Every input is a fixture plan of ``tests/fixtures/plans`` re-spelled from
the seed.  The re-spelling changes letter case, hyphens, indentation and
code fences, all of which plan normalization removes, so the seed varies
the raw text the program reads but never the plan it builds or the work
the verdict takes.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "plans"

# Fixed so that every run does the same simulation work whatever the seed.
# 12 and 16 ground contacts per step; the 32-contact goldens take 38-50 s
# each at the default SimConfig, longer than a whole run may.
SUPPORT_PLANS = ("bookshelf_valid_3", "table_valid_3")
ROLLING_PLANS = ("skateboard_valid_2", "skateboard_offcenter",
                 "skateboard_floating")
WARMUP_PLAN = "hammer_valid_1"

# Known-bad variants and the physics verdict each was designed to get
# (acceptance criterion 5); every golden succeeds.
DESIGNED_FAILURE = {
    "skateboard_offcenter": "INSUFFICIENT_ROTATION",
    "skateboard_floating": "NEW_GROUND_CONTACT",
    "hammer_detached": "PART_SEPARATED",
}

# Batch jobs: (category, responses), in manifest order.  "{hammer}" cycles
# through the three golden hammers.  The seed only re-spells the responses:
# with the order fixed, the two workers share the same work in every run.
# Support sims are left out: one takes 15-50 s, which would make the batch
# a single long job.
BATCH_JOBS = (
    ("hammer", ("hammer_invalid_1", "{hammer}")),  # FORMAT, then a hit
    ("bookshelf", ("bookshelf_collision", "bookshelf_collision")),
    ("hammer", ("hammer_detached", "{hammer}")),  # PHYSICS, then a hit
    ("skateboard", ("skateboard_floating", "skateboard_floating")),
) * 3


def fixture_names():
    return sorted(p.stem for p in FIXTURES.glob("*.json"))


def read_fixture(name):
    return (FIXTURES / f"{name}.json").read_text(encoding="utf-8")


def category(name):
    return name.split("_", 1)[0]


def designed_stage(name):
    """Stage a fixture was designed to stop at, from its name alone."""
    if "_invalid_" in name:
        return "FORMAT"
    if name.endswith("_collision"):
        return "COLLISION"
    if name in DESIGNED_FAILURE:
        return "PHYSICS"
    if "_valid_" in name:
        return "NONE"
    raise ValueError(f"fixture {name!r} has no designed verdict")


def designed_screen_stage(name):
    """Stage without a simulation: physics failures pass screening."""
    stage = designed_stage(name)
    return "NONE" if stage == "PHYSICS" else stage


def respell(text, rng):
    """The same plan, spelled as a model might: see the module docstring."""

    def word(s):
        s = (s.lower(), s.upper(), s.title())[rng.randrange(3)]
        return s.replace("_", "-") if rng.random() < 0.5 else s

    def walk(v):
        if isinstance(v, dict):
            return {word(k): walk(x) for k, x in v.items()}
        if isinstance(v, list):
            return [walk(x) for x in v]
        if isinstance(v, str):
            return word(v)
        return v

    out = json.dumps(walk(json.loads(text)),
                     indent=rng.choice((None, 1, 2, 4)))
    if rng.random() < 0.5:
        out = f"```json\n{out}\n```"
    return out
