import json
from pathlib import Path

import pytest

from craftkit import build_assembly, default_catalog, load_plan

FIXTURES = Path(__file__).parent / "fixtures"
PLANS = FIXTURES / "plans"


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def plan_path():
    def get(name):
        return PLANS / f"{name}.json"

    return get


@pytest.fixture(scope="session")
def load_fixture_plan(catalog):
    def load(name):
        plan, report = load_plan(PLANS / f"{name}.json", catalog)
        assert plan is not None, report.errors
        return plan

    return load


@pytest.fixture(scope="session")
def build_fixture(catalog, load_fixture_plan):
    cache = {}

    def build(name):
        if name not in cache:
            plan = load_fixture_plan(name)
            cache[name] = (plan, build_assembly(plan, catalog))
        return cache[name]

    return build


@pytest.fixture(scope="session")
def fixture_raw():
    def read(name):
        return (PLANS / f"{name}.json").read_text(encoding="utf-8")

    return read


def all_fixture_names():
    return sorted(p.stem for p in PLANS.glob("*.json"))


@pytest.fixture(scope="session")
def response_text(fixture_raw):
    """Plan fixture content formatted like an LLM reply (fenced)."""

    def wrap(name):
        return "```json\n" + fixture_raw(name) + "\n```"

    return wrap


@pytest.fixture(scope="session")
def category_outcome(build_fixture):
    """The outcome of a fixture under its category's functional test at the
    default ``SimConfig``, simulated once per session."""
    from craftkit.orchestrator import category_function
    from craftkit.physics import run_functional_test

    cache = {}

    def get(name):
        if name not in cache:
            plan, asm = build_fixture(name)
            kind = category_function(name.split("_", 1)[0])
            cache[name] = run_functional_test(kind, asm, plan)
        return cache[name]

    return get
