"""LLM orchestration: prompting, validation stages, and re-prompting.

The pipeline asks a client for a plan, runs it through format, position,
and physics validation, and optionally asks again.  ``check_format`` is the
FORMAT stage and ``judge_plan`` every stage after it; ``evaluate_plan_text``
runs the two in turn.  A pipeline run parses every answer but judges each
distinct plan once per functional test: an answer whose plan equals one
already judged reuses that verdict.  The memo of verdicts lives for one run
unless the caller passes one in; ``craftkit batch`` shares one across the
jobs of a batch.  A client is any object with ``complete(prompt) -> str``;
the scripted client replays canned responses so the whole pipeline runs
offline and deterministically.
"""

from __future__ import annotations

import copy
import functools
import importlib.resources
import json
import logging
import time
from concurrent.futures import Future
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .assembler import build_assembly, connectivity_check
from .catalog import Catalog, default_catalog, read_text
from .collision import validate_collisions
from .errors import (
    ClientError,
    HoleNotCarvedYet,
    JsonSyntaxError,
    PlacementError,
    Unplaceable,
)
from .physics import run_functional_test
from .plan import FormatReport, normalize_raw, parse_plan

# failure stages
STAGE_FORMAT = "FORMAT"
STAGE_COLLISION = "COLLISION"
STAGE_CONNECTIVITY = "CONNECTIVITY"
STAGE_PHYSICS = "PHYSICS"
STAGE_CLIENT = "CLIENT"  # the client failed after its retries
STAGE_INTERNAL = "INTERNAL"  # judging the plan raised: a defect, not the plan
STAGE_NONE = "NONE"

# re-prompting policies
POLICY_NONE = "NONE"
POLICY_FRESH = "FRESH"
POLICY_FEEDBACK = "FEEDBACK"
POLICIES = (POLICY_NONE, POLICY_FRESH, POLICY_FEEDBACK)

MAX_LLM_CALLS = 3
MAX_CLIENT_RETRIES = 3
CLIENT_BACKOFF_S = 0.5  # first wait between attempts; each next one doubles
HTTP_TEMPERATURE = 0.0  # sampling temperature of every HttpClient request
HTTP_TIMEOUT_S = 120.0  # seconds an HttpClient request may take

log = logging.getLogger("craftkit.pipeline")


@functools.cache
def load_heuristics():
    """heuristics.json, parsed once per process: the dict is shared by
    every caller, so treat it as read-only."""
    ref = importlib.resources.files("craftkit.data") / "heuristics.json"
    return json.loads(ref.read_text(encoding="utf-8"))


@functools.cache
def load_template(category):
    """The example plan text of ``category``, or None; each file is read
    once per process."""
    ref = importlib.resources.files("craftkit.data") / "templates" \
        / f"{category.lower()}.json"
    try:
        return ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def category_function(category):
    """The functional test of ``category`` (in any case), or None for a
    category that heuristics.json does not list."""
    entry = load_heuristics().get(category.lower())
    return entry["function"] if entry else None


def build_prompt(category, catalog: Catalog, feedback=None) -> str:
    """Assemble the full prompt text for one request."""
    heur = load_heuristics().get(category.lower())
    template = load_template(category)

    lines = [
        f"Design a {category} out of the available objects below. "
        "Answer with a JSON array of part entries only, following the "
        "plan language exactly.",
        "",
        "Available objects (dimensions in mm):",
    ]
    for obj in catalog.objects:
        lines.append(f"- {obj.id}")
    if heur:
        lines.append("")
        lines.append("Minimal set of parts:")
        lines.append(json.dumps(heur.get("minimal_parts", {})))
        if heur.get("constraint"):
            lines.append("Constraint: " + heur["constraint"])
    if template:
        lines.append("")
        lines.append("Example of a valid plan for this category:")
        lines.append(template.strip())
    if feedback:
        lines.append("")
        lines.append(
            "Your previous plan failed validation. The validator reported:")
        lines.append(feedback)
        lines.append("Return a corrected plan.")
    return "\n".join(lines)


class HttpClient:
    """Chat-completions style HTTP client, at HTTP_TEMPERATURE and
    HTTP_TIMEOUT_S."""

    def __init__(self, endpoint, model, api_key=None):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key

    def complete(self, prompt: str) -> str:
        try:
            import requests
        except ImportError as exc:
            raise ClientError(
                "HttpClient needs the requests package: "
                "pip install 'craftkit[http]'", retryable=False) from exc

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": self.model,
            "temperature": HTTP_TEMPERATURE,
            "messages": [{"role": "user", "content": prompt}],
        }
        try:
            resp = requests.post(self.endpoint, json=payload,
                                 headers=headers, timeout=HTTP_TIMEOUT_S)
            # a 4xx faults the request itself and a retry cannot help, but
            # 408 Request Timeout and 429 Too Many Requests ask for one
            if 400 <= resp.status_code < 500 \
                    and resp.status_code not in (408, 429):
                raise ClientError(
                    f"HTTP {resp.status_code} from {self.endpoint}",
                    retryable=False)
            resp.raise_for_status()
            data = resp.json()
            content = data["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise ValueError(f"{type(content).__name__} content, not str")
            return content
        except (requests.RequestException, KeyError, IndexError, TypeError,
                ValueError) as exc:
            raise ClientError(str(exc)) from exc


class ScriptedClient:
    """Replays canned responses in order; used for tests and demos.

    Accepts either a list of strings or a directory of numbered files
    (sorted lexicographically).
    """

    def __init__(self, responses):
        if isinstance(responses, (str, Path)):
            directory = Path(responses)
            self.responses = [read_text(p) for p in sorted(directory.iterdir())
                              if p.is_file()]
        else:
            self.responses = list(responses)
        self.cursor = 0
        self.prompts: list = []

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        if self.cursor >= len(self.responses):
            raise ClientError("scripted client has no responses left",
                              retryable=False)
        out = self.responses[self.cursor]
        self.cursor += 1
        return out


@dataclass(frozen=True)
class Verdict:
    """The stage an answer failed at (NONE: it passed), a machine-readable
    reason, the parts at fault, each once, and the stage's own details."""
    stage: str
    reason: str | None = None
    parts: tuple = ()
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(dict.fromkeys(
            p for p in self.parts if p is not None)))

    def to_dict(self):
        return asdict(self)


@dataclass
class AttemptRecord:
    raw: str
    verdict: Verdict


@dataclass
class PipelineResult:
    category: str
    attempts: list = field(default_factory=list)
    llm_calls: int = 0
    plan: object = None
    assembly: object = None
    outcome: object = None

    @property
    def failure_stage(self):  # the last attempt's; NONE for a success
        return self.attempts[-1].verdict.stage

    @property
    def status(self):
        return "success" if self.failure_stage == STAGE_NONE else "failed"

    def to_dict(self):
        return {
            "category": self.category,
            "status": self.status,
            "failure_stage": self.failure_stage,
            "llm_calls": self.llm_calls,
            "attempts": [a.verdict.to_dict() for a in self.attempts],
        }


def classify_failure(stage: str) -> str:
    """The coarse validator bucket of a stage; NONE is "Success"."""
    return {STAGE_FORMAT: "Format Val.", STAGE_COLLISION: "Position Val.",
            STAGE_CONNECTIVITY: "Position Val.", STAGE_PHYSICS: "Physics Val.",
            STAGE_CLIENT: "Client Error",
            STAGE_INTERNAL: "Internal Error"}.get(stage, "Success")


def _as_verdict(stage, place, *args):
    """``stage(*args)``; an ``Exception`` from it, a defect of craftkit and
    not of the plan, is logged under ``craftkit.pipeline`` and ``place``
    puts its INTERNAL verdict in the stage's result.  Ctrl-C propagates."""
    try:
        return stage(*args)
    except Exception as exc:
        log.exception("%s raised", stage.__name__)
        return place(Verdict(STAGE_INTERNAL, type(exc).__name__,
                             details={"message": str(exc)}))


def check_format(raw, catalog):
    """The FORMAT stage: ``raw`` normalized and parsed against ``catalog``.

    Returns (plan, Verdict); the plan is None unless the verdict is NONE.
    A FORMAT verdict's reason is the first error's code.
    """
    return _as_verdict(_format_stage, lambda v: (None, v), raw, catalog)


def _format_stage(raw, catalog):
    try:
        plan, report = parse_plan(normalize_raw(raw), catalog)
    except JsonSyntaxError as exc:
        plan, report = None, FormatReport()
        report.add(None, None, "JsonSyntaxError", str(exc))
    if plan is not None:
        return plan, Verdict(STAGE_NONE)
    errors = [{"part": p, "field": f, "code": c, "message": m}
              for p, f, c, m in report.errors]
    return None, Verdict(STAGE_FORMAT, errors[0]["code"],
                         [e["part"] for e in errors], {"errors": errors})


def judge_plan(plan, catalog, functional=None, sim_config=None):
    """Every stage after FORMAT, in order, for a parsed ``plan``.

    Returns (Verdict, assembly, outcome).  A simulated verdict holds the
    outcome's reason, test, time and details, not its trajectory; a stage
    that raised is INTERNAL (``_as_verdict``).
    """
    return _as_verdict(_judge_stages, lambda v: (v, None, None),
                       plan, catalog, functional, sim_config)


def _judge_stages(plan, catalog, functional, sim_config):
    try:
        assembly = build_assembly(plan, catalog)
    except PlacementError as exc:
        stage = STAGE_CONNECTIVITY if isinstance(
            exc, (Unplaceable, HoleNotCarvedYet)) else STAGE_COLLISION
        return Verdict(stage, type(exc).__name__, exc.parts,
                       {"message": str(exc)}), None, None

    collisions = validate_collisions(assembly)
    if not collisions.ok:
        pairs = collisions.to_dict()["pairs"]
        return Verdict(STAGE_COLLISION, "COLLISION",
                       [p[k] for p in pairs for k in ("a", "b")],
                       {"pairs": pairs}), assembly, None

    components = connectivity_check(assembly)
    if components is not None:
        groups = [sorted(c) for c in components]
        return Verdict(STAGE_CONNECTIVITY, "Disconnected", sum(groups[1:], []),
                       {"components": groups}), assembly, None

    if functional is None:
        return Verdict(STAGE_NONE), assembly, None
    outcome = run_functional_test(functional, assembly, plan, sim_config)
    d = outcome.details  # only a failed test's details name parts
    return Verdict(STAGE_NONE if outcome.success else STAGE_PHYSICS,
                   outcome.failure_reason,
                   [d.get("part"), d.get("to_part"), *d.get("parts", ())],
                   {"test": outcome.test, "time_s": outcome.time, **d}), \
        assembly, outcome


def evaluate_plan_text(raw, catalog, functional=None, sim_config=None):
    """Run one raw response through every validation stage, in order:
    ``check_format``, then ``judge_plan`` on the plan it parsed.

    The CLI's build, simulate and metrics commands call it; the pipeline
    runs the same two functions in turn.  Returns (stage, Verdict, plan,
    assembly, outcome), where stage is the verdict's.
    """
    plan, verdict = check_format(raw, catalog)
    assembly = outcome = None
    if plan is not None:
        verdict, assembly, outcome = judge_plan(
            plan, catalog, functional, sim_config)
    return verdict.stage, verdict, plan, assembly, outcome


def _call(client, prompt):
    """``client.complete(prompt)``, tried up to MAX_CLIENT_RETRIES times.

    Only a retryable ClientError is tried again, after a wait of
    CLIENT_BACKOFF_S that doubles per attempt (0.5 s, then 1 s); any other
    error, and the last attempt's, is raised at once.
    """
    for attempt in range(MAX_CLIENT_RETRIES):
        try:
            return client.complete(prompt)
        except ClientError as exc:
            if not exc.retryable or attempt + 1 == MAX_CLIENT_RETRIES:
                raise
        time.sleep(CLIENT_BACKOFF_S * 2 ** attempt)


def run_pipeline(category, client, policy=POLICY_FEEDBACK, catalog=None,
                 verdicts=None) -> PipelineResult:
    """Prompt, validate, and re-prompt within the policy's budget.

    Budgets: NONE issues a single call; FRESH retries the identical prompt
    up to twice more; FEEDBACK allows one retry for a pre-simulation
    failure and one more for a simulation failure.  Every policy stays
    within three LLM calls; FEEDBACK sends the failed verdict's dict back.
    Every answer is parsed, but a plan already judged under the same
    functional test is not judged again: its attempt gets a copy of that
    verdict, as verdicts are deterministic.
    ``verdicts`` is that memo, a dict from ``(functional, plan)`` to a
    Future of ``judge_plan``'s verdict, simulated at the default
    ``SimConfig``; by default each call starts an empty one.  A caller may
    share one dict across calls, from several threads too, as long as they
    all use the same catalog: a thread that meets a plan another is
    judging waits for its verdict.
    Results that reuse a verdict share its ``assembly`` and ``outcome``
    objects, so treat those as read-only.  A client that still fails
    after its retries, or fails in a way a retry cannot mend, ends the run
    as a failure at stage CLIENT; a stage that raised (FORMAT too) ends it
    at stage INTERNAL under every policy, as asking cannot mend a defect.
    Raises ValueError for an unknown policy, and for a category that
    heuristics.json does not list, which would have no functional test to
    run.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    functional = category_function(category)
    if functional is None:
        raise ValueError(f"unknown category {category!r}")
    if catalog is None:
        catalog = default_catalog()

    result = PipelineResult(category=category)
    retried = set()  # FEEDBACK retries: one before the simulation, one in it
    feedback = None
    if verdicts is None:
        verdicts = {}
    while result.llm_calls < MAX_LLM_CALLS:
        prompt = build_prompt(
            category, catalog,
            feedback if policy == POLICY_FEEDBACK else None)
        try:
            raw = _call(client, prompt)
        except ClientError as exc:
            result.attempts.append(AttemptRecord("", Verdict(
                STAGE_CLIENT, "ClientError", details={"message": str(exc)})))
            result.plan = result.assembly = result.outcome = None
            return result
        result.llm_calls += 1
        plan, verdict = check_format(raw, catalog)
        assembly = outcome = None
        if plan is not None:
            # setdefault is atomic: the first thread to meet a plan judges
            # it, and any other waits for that verdict
            pending = Future()
            judged = verdicts.setdefault((functional, plan), pending)
            if judged is pending:
                try:
                    pending.set_result(judge_plan(plan, catalog, functional))
                except BaseException as exc:
                    pending.set_exception(exc)
                    raise
            verdict, assembly, outcome = judged.result()
            verdict = copy.deepcopy(verdict)  # each attempt owns its verdict
        result.attempts.append(AttemptRecord(raw, verdict))
        result.plan = plan
        result.assembly = assembly
        result.outcome = outcome
        if verdict.stage in (STAGE_NONE, STAGE_INTERNAL) \
                or policy == POLICY_NONE:
            return result
        if policy == POLICY_FRESH:
            continue
        in_simulation = verdict.stage == STAGE_PHYSICS
        if in_simulation in retried:
            return result
        retried.add(in_simulation)
        feedback = json.dumps(verdict.to_dict(), indent=2)
    return result
