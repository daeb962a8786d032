"""Rigid-body simulation and the functional craft tests."""

from .engine import Contact, RevoluteJoint, RigidBody, World
from .functional import (
    INSUFFICIENT_DISTANCE,
    INSUFFICIENT_ROTATION,
    MOVED_UNDER_LOAD,
    NEW_GROUND_CONTACT,
    NUMERICAL_DIVERGENCE,
    PART_SEPARATED,
    PEG_MISSED,
    PEG_OUTSIDE_HOLE,
    VEERED,
    CompiledCraft,
    SimConfig,
    SimOutcome,
    check_common_failures,
    compile_craft,
    run_functional_test,
)

__all__ = [
    "Contact", "RevoluteJoint", "RigidBody", "World",
    "INSUFFICIENT_DISTANCE", "INSUFFICIENT_ROTATION",
    "MOVED_UNDER_LOAD", "NEW_GROUND_CONTACT", "NUMERICAL_DIVERGENCE",
    "PART_SEPARATED",
    "PEG_MISSED", "PEG_OUTSIDE_HOLE", "VEERED",
    "CompiledCraft", "SimConfig", "SimOutcome",
    "check_common_failures", "compile_craft", "run_functional_test",
]
