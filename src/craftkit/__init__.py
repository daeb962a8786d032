"""craftkit: compile, validate, simulate, and score craft assembly plans.

A plan is a JSON list of parts drawn from a catalog of primitive objects,
with orientations, hole modifications, and connections.  The package
deterministically places the parts in 3D, checks for collisions and
connectivity, runs functional rigid-body tests (rolling, support, hit),
scores visual similarity against reference meshes, and orchestrates an
LLM client with validator feedback.

Each stage lives in its own module (``plan``, ``assembler``,
``collision``, ``physics``, ``metrics``, ``orchestrator``, ``cli``); the
package itself names only the three entry points below.  Importing it
loads neither numpy nor scipy: only ``craftkit.metrics`` needs them.
"""

from .assembler import build_assembly
from .catalog import default_catalog
from .plan import load_plan

__all__ = ["build_assembly", "default_catalog", "load_plan"]
