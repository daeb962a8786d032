"""The outcome-signature gate: verdicts and their margins to the thresholds.

``fixtures/outcomes.json`` records, for every golden under its category's
functional test and for the known-bad variants that reach the simulation,
the verdict (success, reason, failing part), the time, and one margin per
threshold-bearing detail at the default ``SimConfig``.  A margin of at least
1 means the detail lies on the recorded verdict's side of its threshold:
how many times over the craft meets (or, for a recorded failure, misses) it.

A run passes when every verdict equals the recorded one and every margin is
at least ``min(recorded, MARGIN_CAP) / MARGIN_DROP``.  So a change may move
trajectories, but it may not flip a verdict, nor halve a margin that was
under the cap, nor take a large margin below ``MARGIN_CAP / MARGIN_DROP``.

Re-record (only in a change whose intended semantic change is named) with

    PYTHONPATH=src python tests/test_outcome_gate.py

and print, writing nothing, the sha256 over every case's full
``outcome.to_dict()`` (trajectory included; ``json.dumps`` with sorted keys,
one case after the other in ``CASES`` order), which a change that keeps
outcomes byte-identical leaves unchanged, with

    PYTHONPATH=src python tests/test_outcome_gate.py --digest

``DIGEST`` pins that sha256.  The physics package computes with + - * /
and ``math.sqrt`` only, so it holds on every BLAS kernel and CPython
release; a change that moves outcomes on purpose updates it and says so.
"""

import argparse
import hashlib
import json

from craftkit.physics import SimConfig
from craftkit.physics.functional import (
    HIT_DESCENT,
    INSUFFICIENT_ROTATION,
    MAX_VEER,
    SUPPORT_LIMIT,
)

from conftest import FIXTURES, PLANS, all_fixture_names

OUTCOMES = FIXTURES / "outcomes.json"
CASES = [n for n in all_fixture_names() if "_valid_" in n] + [
    "skateboard_offcenter", "skateboard_floating", "hammer_detached"]
MARGIN_CAP = 100.0
MARGIN_DROP = 2.0
DIGEST = "2b5f345a45452d1932ba666d08f3e562df74b8375cdd17e01c787ef4d3a079d9"


def signature(outcome, config):
    """Verdict, time and margins of one ``SimOutcome`` as plain JSON."""
    d = outcome.details
    margins = {}
    if outcome.test == "support" and "max_displacement_m" in d:
        ratio = SUPPORT_LIMIT / d["max_displacement_m"]
        margins["max_displacement_m"] = ratio if outcome.success \
            else 1.0 / ratio
    elif outcome.test == "rolling" and "rotation_rad" in d:
        turns = min(d["rotation_rad"].values())
        if outcome.success:
            margins["distance_m"] = d["distance_m"] / config.min_distance
            margins["rotation_rad"] = turns / config.min_rotation
            margins["veer_m"] = MAX_VEER / d["veer_m"]
        elif outcome.failure_reason == INSUFFICIENT_ROTATION:
            margins["rotation_rad"] = config.min_rotation / turns
    elif outcome.test == "hit" and outcome.success:
        margins["peg_descent_m"] = d["peg_descent_m"] / HIT_DESCENT
    return {"test": outcome.test, "success": outcome.success,
            "failure_reason": outcome.failure_reason,
            "part": d.get("part", d.get("parts")),
            "time_s": outcome.time, "margins": margins}


def _verdict(sig):
    return sig["test"], sig["success"], sig["failure_reason"], sig["part"]


def compare(recorded, current):
    """(table lines, whether every case holds its recorded signature)."""
    lines, ok = [], True
    for name in CASES:
        rec, cur = recorded[name], current[name]
        same = _verdict(rec) == _verdict(cur) \
            and sorted(rec["margins"]) == sorted(cur["margins"])
        ok = ok and same
        lines.append(f"{'ok  ' if same else 'FAIL'} {name}: "
                     f"{_verdict(rec)} -> {_verdict(cur)}, "
                     f"t {rec['time_s']:.3f} -> {cur['time_s']:.3f} s")
        for key, m_rec in rec["margins"].items():
            m_cur = cur["margins"].get(key, float("nan"))
            floor = min(m_rec, MARGIN_CAP) / MARGIN_DROP
            held = m_cur >= floor
            ok = ok and held
            lines.append(f"  {'ok  ' if held else 'FAIL'} {key}: "
                         f"{m_rec:.4g}x -> {m_cur:.4g}x (floor {floor:.4g}x)")
    return lines, ok


def test_outcomes_hold_their_recorded_signatures(category_outcome):
    recorded = json.loads(OUTCOMES.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(CASES)
    config = SimConfig()
    current = {name: signature(category_outcome(name), config)
               for name in CASES}
    lines, ok = compare(recorded, current)
    assert ok, "outcome signatures moved:\n" + "\n".join(lines)


def outcome_digest(outcomes):
    """The sha256, as hex, over each outcome's ``to_dict()`` dumped as JSON
    with sorted keys, in the order given."""
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(json.dumps(outcome.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def test_outcomes_match_the_pinned_digest(category_outcome):
    assert outcome_digest(category_outcome(name) for name in CASES) == DIGEST


def test_the_gate_catches_a_flipped_verdict_and_a_thin_margin():
    recorded = json.loads(OUTCOMES.read_text(encoding="utf-8"))
    assert compare(recorded, recorded)[1]
    flipped = json.loads(json.dumps(recorded))
    flipped["hammer_detached"]["failure_reason"] = None
    assert not compare(recorded, flipped)[1]
    thin = json.loads(json.dumps(recorded))
    margins = thin["table_valid_3"]["margins"]
    margins["max_displacement_m"] = \
        min(margins["max_displacement_m"], MARGIN_CAP) / MARGIN_DROP * 0.99
    assert not compare(recorded, thin)[1]


def _outcomes():
    """(name, outcome) of every case at the default ``SimConfig``, in
    ``CASES`` order."""
    import craftkit
    from craftkit.orchestrator import category_function
    from craftkit.physics import run_functional_test

    catalog = craftkit.default_catalog()
    config = SimConfig()
    for name in CASES:
        plan, _ = craftkit.load_plan(PLANS / f"{name}.json", catalog)
        asm = craftkit.build_assembly(plan, catalog)
        kind = category_function(name.split("_", 1)[0])
        yield name, run_functional_test(kind, asm, plan, config)


def _record():
    config = SimConfig()
    out = {}
    for name, outcome in _outcomes():
        out[name] = signature(outcome, config)
        print(name, out[name], flush=True)
    OUTCOMES.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


def _digest():
    print(outcome_digest(outcome for _, outcome in _outcomes()))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Re-record fixtures/outcomes.json, or print the digest "
                    "of the cases' outcomes.")
    parser.add_argument("--digest", action="store_true",
                        help="print the sha256 over the cases' outcomes "
                             "and write nothing")
    if parser.parse_args().digest:
        _digest()
    else:
        _record()
