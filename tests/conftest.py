import functools
import types
from pathlib import Path

import pytest

from craftkit import build_assembly, default_catalog, load_plan
from craftkit.orchestrator import category_function, evaluate_plan_text
from craftkit.physics import run_functional_test

FIXTURES = Path(__file__).parent / "fixtures"
PLANS = FIXTURES / "plans"
CATALOG = default_catalog()


def all_fixture_names():
    return sorted(p.stem for p in PLANS.glob("*.json"))


def raw(name):
    return (PLANS / f"{name}.json").read_text(encoding="utf-8")


def fenced(text):
    return "```json\n" + text + "\n```"


def respelled(text):
    """The same plan in lower case, with hyphens and a code fence."""
    return fenced(text.lower().replace("_", "-"))


def fake_requests(statuses, posts):
    """A stand-in ``requests`` module whose posts answer with ``statuses``
    in turn, the last one repeated."""

    class RequestException(Exception):
        pass

    class Response:
        def __init__(self, status):
            self.status_code = status

        def raise_for_status(self):
            if self.status_code >= 400:
                raise RequestException(f"HTTP {self.status_code}")

        def json(self):
            return {"choices": [{"message": {"content": "[]"}}]}

    def post(url, **kwargs):
        posts.append(url)
        return Response(statuses[min(len(posts), len(statuses)) - 1])

    return types.SimpleNamespace(post=post,
                                 RequestException=RequestException)


@functools.cache
def built(name):
    """(plan, assembly) of a fixture plan, built once per process."""
    plan, report = load_plan(PLANS / f"{name}.json", CATALOG)
    assert plan is not None, report.errors
    return plan, build_assembly(plan, CATALOG)


@functools.cache
def outcome(name):
    """The outcome of a fixture under its category's functional test at the
    default ``SimConfig``, simulated once per process."""
    plan, asm = built(name)
    return run_functional_test(category_function(name.split("_", 1)[0]),
                               asm, plan)


@functools.cache
def evaluated(name):
    """``evaluate_plan_text`` of a fixture plan, unsimulated, once."""
    return evaluate_plan_text(raw(name), CATALOG)


def buildable_assemblies():
    """The assembly of every fixture that builds, in sorted file order."""
    return [assembly for assembly in (evaluated(name)[3]
                                      for name in all_fixture_names())
            if assembly is not None]


@pytest.fixture(scope="session")
def catalog():
    return CATALOG


@pytest.fixture(scope="session")
def plan_path():
    return lambda name: PLANS / f"{name}.json"


@pytest.fixture(scope="session")
def build_fixture():
    return built


@pytest.fixture(scope="session")
def fixture_raw():
    return raw


@pytest.fixture(scope="session")
def response_text():
    """Plan fixture content formatted like an LLM reply (fenced)."""
    return lambda name: fenced(raw(name))


@pytest.fixture(scope="session")
def category_outcome():
    return outcome
