"""Run the three functional simulation tests on golden crafts.

Run:  python3 demos/03_simulate.py
"""

from craftkit import build_assembly, default_catalog
from craftkit.orchestrator import load_template
from craftkit.physics import run_functional_test
from craftkit.plan import normalize_raw, parse_plan

catalog = default_catalog()


def run(category, kind):
    plan, _ = parse_plan(normalize_raw(load_template(category)), catalog)
    assembly = build_assembly(plan, catalog)
    outcome = run_functional_test(kind, assembly, plan)
    verdict = "PASS" if outcome.success else f"FAIL ({outcome.failure_reason})"
    print(f"{category:10s} {kind:8s} {verdict}  t={outcome.time:.2f}s")
    for key, value in outcome.details.items():
        print(f"    {key}: {value}")


run("hammer", "hit")          # drive a peg into a slotted block
run("table", "support")       # hold a load without moving
run("skateboard", "rolling")  # pushed forward, wheels must turn
