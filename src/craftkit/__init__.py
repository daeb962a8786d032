"""craftkit: compile, validate, simulate, and score craft assembly plans.

A plan is a JSON list of parts drawn from a catalog of primitive objects,
with orientations, hole modifications, and connections.  The package
deterministically places the parts in 3D, checks for collisions and
connectivity, runs functional rigid-body tests (rolling, support, hit),
scores visual similarity against reference meshes, and orchestrates an
LLM client with validator feedback.
"""

from .assembler import (
    Assembly,
    PlacedPart,
    build_assembly,
    connectivity_check,
    connectivity_components,
)
from .catalog import Catalog, ObjectType, default_catalog, load_catalog
from .collision import CollisionReport, pair_overlap, validate_collisions
from .errors import CraftError
from .metrics import (
    MetricReport,
    chamfer_distance,
    compare_assembly_to_mesh,
    compare_meshes,
    compare_point_sets,
    fscore,
    hausdorff_distance,
    load_obj,
    sample_assembly_exterior,
    sample_mesh,
)
from .meshing import export_assembly_obj, mesh_assembly, mesh_part, write_obj
from .orchestrator import (
    HttpClient,
    LlmClient,
    PipelineResult,
    ScriptedClient,
    build_prompt,
    classify_failure,
    run_pipeline,
)
from .physics import SimConfig, SimOutcome, run_functional_test
from .plan import (
    CraftPlan,
    FormatReport,
    load_plan,
    normalize_raw,
    parse_plan,
    serialize_plan,
    strip_code_fences,
)

__version__ = "0.1.0"

__all__ = [
    "Assembly", "PlacedPart", "build_assembly", "connectivity_check",
    "connectivity_components",
    "Catalog", "ObjectType", "default_catalog", "load_catalog",
    "CollisionReport", "pair_overlap", "validate_collisions",
    "CraftError",
    "MetricReport", "chamfer_distance", "compare_assembly_to_mesh",
    "compare_meshes", "compare_point_sets", "fscore", "hausdorff_distance",
    "load_obj", "sample_assembly_exterior", "sample_mesh",
    "export_assembly_obj", "mesh_assembly", "mesh_part", "write_obj",
    "HttpClient", "LlmClient", "PipelineResult", "ScriptedClient",
    "build_prompt", "classify_failure", "run_pipeline",
    "SimConfig", "SimOutcome", "run_functional_test",
    "CraftPlan", "FormatReport", "load_plan", "normalize_raw", "parse_plan",
    "serialize_plan", "strip_code_fences",
    "__version__",
]
