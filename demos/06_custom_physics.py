"""Use the rigid-body engine directly, outside the craft pipeline.

Builds a hinged pendulum from scratch, measures its period and checks it
against the small-angle formula; exits 1 when they differ by more than 1 %.

Run:  python3 demos/06_custom_physics.py
"""

import math
import sys

from craftkit.geometry import Solid
from craftkit.physics import RevoluteJoint, RigidBody, SimConfig, World
from craftkit.physics.engine import GRAVITY

# the pendulum swings well above the ground plane z = 0
cfg = SimConfig()
world = World(cfg)

pivot = RigidBody.from_parts(
    "pivot", [("p", Solid.box((0.05, 0.05, 0.05)), (0.0, 0.0, 2.0))], 1.0)
pivot.kinematic = True

length = 1.0
bob = RigidBody.from_parts(
    "bob", [("b", Solid.box((0.1, 0.1, 0.1)), (0.05, 0.0, 2.0 - length))],
    10.0)
# start deflected by a small angle
theta0 = 0.05
bob.x = (length * math.sin(theta0), 0.0, 2.0 - length * math.cos(theta0))

world.bodies += [pivot, bob]
anchor = (0.0, 0.0, 2.0)
axis = (0.0, 1.0, 0.0)
world.joints.append(RevoluteJoint(
    body_a=pivot, body_b=bob,
    anchor_local_a=[a - x for a, x in zip(anchor, pivot.x)],
    anchor_local_b=[a - x for a, x in zip(anchor, bob.x)],
    axis_local_a=axis, axis_local_b=axis))

# find the first three zero crossings of x: they span one full period
crossings = []
prev = bob.x[0]
for _ in range(int(round(4.0 / cfg.timestep))):
    world.step()
    if prev > 0 >= bob.x[0] or prev < 0 <= bob.x[0]:
        crossings.append(world.time)
    prev = bob.x[0]
    if len(crossings) >= 3:
        break

period = crossings[2] - crossings[0] if len(crossings) >= 3 else math.nan
expected = 2.0 * math.pi * math.sqrt(length / GRAVITY)
print(f"measured period:  {period:.3f} s")
print(f"small-angle rule: {expected:.3f} s")
if not abs(period - expected) <= 0.01 * expected:
    print("the period is more than 1 % off the small-angle rule")
    sys.exit(1)
