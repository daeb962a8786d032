"""Seeded mutations of the golden plans never crash the stage sequence.

Each mutant is a golden plan with one to three edits, made with a fixed seed
and fixed rules, half of them with arbitrary values and half within the plan
vocabulary.  ``evaluate_plan_text`` with no functional test must return one
of the pipeline's stage names and a ``Verdict`` at that stage for every
mutant, with a reason whenever it failed, and must never raise.

A second, smaller sample of in-vocabulary mutants that pass every stage
before the simulation runs through all three functional tests at a short
duration.  Each run must end in a ``SimOutcome`` that succeeds or names a
failure reason, with finite numbers throughout; a run whose bodies left the
solver's speed bound must say so as ``NUMERICAL_DIVERGENCE``.  That
sample's verdict counts per test are the ``mutant_verdicts`` pin of
``pins.py``.

Arbitrary edits replace a value anywhere in the plan by one of ``ARBITRARY``
or delete it.  In-vocabulary edits replace a string by a string of the
goldens or a token of the plan language, a number by a number of the
goldens, flip a boolean, reorder a list, or repeat a list entry.
"""

import copy
import functools
import json
import math
import random

from craftkit import plan as plan_language
from craftkit.orchestrator import (
    STAGE_CLIENT,
    STAGE_COLLISION,
    STAGE_CONNECTIVITY,
    STAGE_FORMAT,
    STAGE_NONE,
    STAGE_PHYSICS,
    Verdict,
    evaluate_plan_text,
)
from craftkit.physics import functional
from craftkit.physics.engine import MAX_SPEED

from conftest import CATALOG, PLANS, all_fixture_names

SEED = 16
N_MUTANTS = 300
STAGES = {STAGE_FORMAT, STAGE_COLLISION, STAGE_CONNECTIVITY, STAGE_PHYSICS,
          STAGE_CLIENT, STAGE_NONE}
ARBITRARY = (None, True, False, 0, -1, 7, 1e308, -1e-9, float("nan"),
             float("inf"), "", "?", "TOP_1", [], {}, [0, 0, 0], [1, 2],
             {"Name": 1})
# mutants through the simulation: about 4 s on 2 cores
SIM_SEED = 21
SIM_MUTANTS = 20
SIM_DURATION = 1.0
SIM_TESTS = ("support", "rolling", "hit")
REASONS = {functional.PART_SEPARATED, functional.NEW_GROUND_CONTACT,
           functional.NUMERICAL_DIVERGENCE, functional.INSUFFICIENT_ROTATION,
           functional.INSUFFICIENT_DISTANCE, functional.VEERED,
           functional.MOVED_UNDER_LOAD, functional.PEG_MISSED,
           functional.PEG_OUTSIDE_HOLE}
# a body under the speed bound cannot get further from the origin in
# SIM_DURATION; every golden spans a few metres
REACH = MAX_SPEED * SIM_DURATION + 10.0


def _slots(node, path=()):
    """The path of every value inside ``node``, the root excluded."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _slots(child, path + (key,))


def _leaves(node):
    return [node] if not isinstance(node, (dict, list)) else [
        leaf for child in (node.values() if isinstance(node, dict) else node)
        for leaf in _leaves(child)]


def _goldens():
    return [json.loads((PLANS / f"{name}.json").read_text(encoding="utf-8"))
            for name in all_fixture_names() if "_valid_" in name]


def _numbers(node):
    """Every number inside ``node``, as its JSON would hold it."""
    return [leaf for leaf in _leaves(json.loads(json.dumps(node)))
            if isinstance(leaf, (int, float)) and not isinstance(leaf, bool)]


def _vocabulary(goldens):
    """(strings, numbers) of the goldens, plus the plan language's tokens."""
    leaves = [leaf for plan in goldens for leaf in _leaves(plan)]
    strings = {leaf for leaf in leaves if isinstance(leaf, str)}
    strings.update(plan_language.CYL_ORIENTATIONS, plan_language.FACES,
                   plan_language.CONTACT_TYPES, plan_language.JOINT_TYPES,
                   plan_language.MOD_TYPES)
    for table in (plan_language.ALIGN_POS, plan_language.MOD_POS,
                  plan_language.MOD_THROUGH):
        for tokens in table.values():
            strings.update(tokens)
    numbers = {leaf for leaf in leaves
               if isinstance(leaf, (int, float)) and not isinstance(leaf, bool)}
    return sorted(strings), sorted(numbers)


def _mutate(rng, plan, vocabulary, in_vocabulary):
    """Apply one edit to ``plan`` in place."""
    strings, numbers = vocabulary
    slots = list(_slots(plan))
    if not slots:  # every part deleted
        return
    path = rng.choice(slots)
    parent = plan
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    if not in_vocabulary:
        if rng.random() < 0.2:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(rng.choice(ARBITRARY))
    elif isinstance(value, bool):
        parent[key] = not value
    elif isinstance(value, str):
        parent[key] = rng.choice(strings)
    elif isinstance(value, (int, float)):
        parent[key] = rng.choice(numbers)
    elif isinstance(value, list):
        rng.shuffle(value)
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(value))


def test_mutated_goldens_get_a_stage_and_never_raise(catalog):
    goldens = _goldens()
    vocabulary = _vocabulary(goldens)
    rng = random.Random(SEED)
    seen = set()
    for index in range(N_MUTANTS):
        plan = copy.deepcopy(rng.choice(goldens))
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, plan, vocabulary, in_vocabulary=index % 2 == 1)
        raw = json.dumps(plan)
        stage, verdict, *_ = evaluate_plan_text(raw, catalog)
        assert stage in STAGES, (index, raw)
        assert isinstance(verdict, Verdict), (index, raw)
        assert verdict.stage == stage, (index, raw)
        assert (verdict.reason is None) == (stage == STAGE_NONE), (index, raw)
        seen.add(stage)
    # the edits reach the stages after the format check too
    assert STAGE_FORMAT in seen and len(seen) > 1


@functools.cache
def simulated_mutants():
    """(mutant, test, outcome) for the first SIM_MUTANTS in-vocabulary
    mutants of SIM_SEED that pass every stage before the simulation, run
    once per process."""
    runs = []
    goldens = _goldens()
    vocabulary = _vocabulary(goldens)
    rng = random.Random(SIM_SEED)
    config = functional.SimConfig(duration=SIM_DURATION)
    screened = 0
    while screened < SIM_MUTANTS:
        plan = copy.deepcopy(rng.choice(goldens))
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, plan, vocabulary, in_vocabulary=True)
        raw = json.dumps(plan)
        stage, _, parsed, assembly, _ = evaluate_plan_text(raw, CATALOG)
        if stage != STAGE_NONE:
            continue
        screened += 1
        runs.extend((raw, test, functional.run_functional_test(
            test, assembly, parsed, config)) for test in SIM_TESTS)
    return runs


def test_screened_mutants_get_a_named_sim_outcome():
    runs = 0
    for raw, test, outcome in simulated_mutants():
        assert isinstance(outcome, functional.SimOutcome), (test, raw)
        assert outcome.success == (outcome.failure_reason is None)
        assert outcome.success or outcome.failure_reason in REASONS, (
            test, outcome.failure_reason, raw)
        assert all(map(math.isfinite, _numbers(outcome.to_dict()))), (
            test, raw)
        if outcome.failure_reason != functional.NUMERICAL_DIVERGENCE:
            assert all(abs(x) <= REACH
                       for x in _numbers(outcome.trajectory)), (test, raw)
        runs += 1
    assert runs == SIM_MUTANTS * len(SIM_TESTS)

