"""Parse and format-validate a plan, then show how errors accumulate.

Run:  python3 demos/01_validate_plan.py
"""

import json

from craftkit import default_catalog
from craftkit.orchestrator import load_template
from craftkit.plan import normalize_raw, parse_plan

catalog = default_catalog()

# A known-good plan ships with the package as a per-category template.
raw = load_template("hammer")
plan, report = parse_plan(normalize_raw(raw), catalog)
print("golden hammer plan:")
print("  ok:", report.ok)
print("  parts:", [p.name for p in plan.parts])

# Break it in several ways at once: the validator reports every problem,
# it does not stop at the first.
doc = json.loads(raw)
doc[0]["Name"] = "handle"                # lowercase name
doc[1]["Available_obj"] = "CUBOID_1X1X1"  # not in the catalog
doc[1]["Orientation"] = [60, 120, 45]     # not a permutation of the dims

plan, report = parse_plan(normalize_raw(json.dumps(doc)), catalog)
print("\nbroken plan:")
print("  ok:", report.ok)
for err in report.errors:
    print("  -", err)
