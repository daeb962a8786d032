"""Rigid-body simulation and the functional craft tests."""

from .engine import Contact, RevoluteJoint, RigidBody, World
from .functional import SimConfig, compile_craft, run_functional_test

__all__ = [
    "Contact", "RevoluteJoint", "RigidBody", "World",
    "SimConfig", "compile_craft", "run_functional_test",
]
