"""Compile a plan into world coordinates and inspect the result.

Run:  python3 demos/02_build_assembly.py
"""

from craftkit import build_assembly, default_catalog
from craftkit.assembler import connectivity_check
from craftkit.collision import validate_collisions
from craftkit.orchestrator import load_template
from craftkit.plan import normalize_raw, parse_plan

catalog = default_catalog()
plan, _ = parse_plan(normalize_raw(load_template("skateboard")), catalog)
assembly = build_assembly(plan, catalog)

print("placed parts, in placement order (centers in metres):")
for name, part in assembly.placed.items():
    x, y, z = part.position
    print(f"  {name:12s} ({x:+.3f}, {y:+.3f}, {z:+.3f})"
          + ("  [on the ground]" if name in assembly.ground_set else ""))

print("\nholes carved:")
for name, part in assembly.placed.items():
    for hole in part.solid.holes:
        print(f"  {name}: {hole.name} r={hole.radius * 1000:.1f} mm "
              f"along axis {hole.axis}")

collisions = validate_collisions(assembly)
print("\ncollision check:", "clean" if collisions.ok else collisions.pairs)
print("connectivity:", "connected" if connectivity_check(assembly) is None
      else "DISCONNECTED")
