"""Every pin against ``fixtures/pins.json``, the outcome gate among them.

``tests/pins.py`` computes the pins; ``PYTHONPATH=src python tests/pins.py``
prints them, and ``--record NAME...`` re-records the named ones, only in a
change that names its intended semantic change.  The ``gate_signatures`` pin
holds, for every golden under its category's test and for the known-bad
variants that reach the simulation, the verdict, the time, and each
threshold-bearing detail's margin: how many times over the craft meets (or,
for a failure, misses) its threshold.  The gate holds while every verdict
stays and every margin is at least ``min(recorded, MARGIN_CAP) /
MARGIN_DROP``, so a change may move trajectories but not flip a verdict or
halve a margin under the cap.  ``outcome_digest`` moves with any trajectory.
"""

import dataclasses
import json
import math

import pytest

import pins
from conftest import buildable_assemblies


@pytest.mark.parametrize("name", list(pins.PINS))
def test_pin_holds(name):
    pins.assert_holds(name)


def test_the_gate_catches_a_flipped_verdict_and_a_thin_margin():
    recorded = pins.recorded()["gate_signatures"]
    assert pins.compare(recorded, recorded)[0]
    flipped = json.loads(json.dumps(recorded))
    flipped["hammer_detached"]["failure_reason"] = None
    assert not pins.compare(recorded, flipped)[0]
    thin = json.loads(json.dumps(recorded))
    m = thin["table_valid_3"]["margins"]
    m["max_displacement_m"] = \
        min(m["max_displacement_m"], pins.MARGIN_CAP) / pins.MARGIN_DROP * 0.99
    assert not pins.compare(recorded, thin)[0]


def test_a_pin_catches_a_one_ulp_change(category_outcome):
    """A digest pin compares exactly: one float of one case's details moved
    by one ulp fails the outcome digest, and one assembly short fails the
    assembly digest."""
    recorded = pins.recorded()
    outcomes = [category_outcome(name) for name in pins.CASES]
    at = pins.CASES.index("table_valid_3")
    moved = dict(outcomes[at].details)
    moved["max_displacement_m"] = math.nextafter(moved["max_displacement_m"],
                                                 math.inf)
    outcomes[at] = dataclasses.replace(outcomes[at], details=moved)
    one_short = buildable_assemblies()[:-1]
    for name, value in (("outcome_digest", pins.outcome_digest(outcomes)),
                        ("assembly_json", pins.assembly_json(one_short))):
        assert not pins.PINS[name][1](recorded[name], value)[0], name
