"""LLM orchestration: prompting, validation stages, and re-prompting.

The pipeline asks a client for a plan, runs it through format, position,
and physics validation, and optionally asks again.  ``check_format`` is the
FORMAT stage and ``judge_plan`` every stage after it; ``evaluate_plan_text``
runs the two in turn.  A pipeline run parses every answer but judges each
distinct plan once per functional test: an answer whose plan equals one
already judged reuses that verdict.  The memo of verdicts lives for one run
unless the caller passes one in; ``craftkit batch`` shares one across the
jobs of a batch.  Clients are pluggable; the scripted client replays canned
responses so the whole pipeline runs offline and deterministically.
"""

from __future__ import annotations

import copy
import functools
import importlib.resources
import json
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
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
from .physics import SimConfig, run_functional_test
from .plan import FormatReport, normalize_raw, parse_plan

# failure stages
STAGE_FORMAT = "FORMAT"
STAGE_COLLISION = "COLLISION"
STAGE_CONNECTIVITY = "CONNECTIVITY"
STAGE_PHYSICS = "PHYSICS"
STAGE_CLIENT = "CLIENT"  # the client failed after its retries
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


class LlmClient:
    """Interface: complete(prompt) returns the raw model text."""

    def complete(self, prompt: str) -> str:  # pragma: no cover - interface
        raise NotImplementedError


class HttpClient(LlmClient):
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
            if 400 <= resp.status_code < 500:
                # the request itself is at fault; sending it again cannot help
                raise ClientError(
                    f"HTTP {resp.status_code} from {self.endpoint}",
                    retryable=False)
            resp.raise_for_status()
            data = resp.json()
            return data["choices"][0]["message"]["content"]
        except (requests.RequestException, KeyError, IndexError,
                ValueError) as exc:
            raise ClientError(str(exc)) from exc


class ScriptedClient(LlmClient):
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


@dataclass
class AttemptRecord:
    raw: str
    failure_stage: str
    report: dict = field(default_factory=dict)


@dataclass
class PipelineResult:
    category: str
    status: str  # "success" | "failed"
    failure_stage: str
    attempts: list = field(default_factory=list)
    llm_calls: int = 0
    plan: object = None
    assembly: object = None
    outcome: object = None

    def to_dict(self):
        return {
            "category": self.category,
            "status": self.status,
            "failure_stage": self.failure_stage,
            "llm_calls": self.llm_calls,
            "attempts": [
                {"failure_stage": a.failure_stage, "report": a.report}
                for a in self.attempts
            ],
            "outcome": self.outcome.to_dict() if self.outcome else None,
        }


def classify_failure(stage: str) -> str:
    """Map a failure stage onto the coarse validator buckets."""
    if stage == STAGE_FORMAT:
        return "Format Val."
    if stage in (STAGE_COLLISION, STAGE_CONNECTIVITY):
        return "Position Val."
    if stage == STAGE_PHYSICS:
        return "Physics Val."
    if stage == STAGE_CLIENT:
        return "Client Error"
    return "Success"


def check_format(raw, catalog):
    """The FORMAT stage: ``raw`` normalized and parsed against ``catalog``.

    Returns (plan, report_dict); the plan is None when the report, always a
    ``FormatReport`` dict, carries errors.
    """
    try:
        plan, report = parse_plan(normalize_raw(raw), catalog)
    except JsonSyntaxError as exc:
        plan, report = None, FormatReport()
        report.add(None, None, "JsonSyntaxError", str(exc))
    return plan, report.to_dict()


def judge_plan(plan, catalog, functional=None, sim_config=None):
    """Every stage after FORMAT, in order, for a parsed ``plan``.

    Returns (stage, report_dict, assembly, outcome).
    """
    try:
        assembly = build_assembly(plan, catalog)
    except PlacementError as exc:
        stage = STAGE_CONNECTIVITY if isinstance(
            exc, (Unplaceable, HoleNotCarvedYet)) else STAGE_COLLISION
        return stage, {"error": type(exc).__name__,
                       "message": str(exc)}, None, None

    collisions = validate_collisions(assembly)
    if not collisions.ok:
        return STAGE_COLLISION, collisions.to_dict(), assembly, None

    components = connectivity_check(assembly)
    if components is not None:
        return (STAGE_CONNECTIVITY,
                {"error": "Disconnected",
                 "components": [sorted(c) for c in components]},
                assembly, None)

    if functional is None:
        return STAGE_NONE, {}, assembly, None
    outcome = run_functional_test(functional, assembly, plan, sim_config)
    if not outcome.success:
        report = outcome.to_dict()
        report.pop("trajectory", None)
        return STAGE_PHYSICS, report, assembly, outcome
    return STAGE_NONE, {}, assembly, outcome


def evaluate_plan_text(raw, catalog, functional=None, sim_config=None):
    """Run one raw response through every validation stage, in order:
    ``check_format``, then ``judge_plan`` on the plan it parsed.

    The CLI's build, simulate and metrics commands call it; the pipeline
    runs the same two functions in turn.  Returns (stage, report_dict,
    plan, assembly, outcome); a FORMAT report is always a ``FormatReport``
    dict.
    """
    plan, report = check_format(raw, catalog)
    if plan is None:
        return STAGE_FORMAT, report, None, None, None
    stage, report, assembly, outcome = judge_plan(
        plan, catalog, functional, sim_config)
    return stage, report, plan, assembly, outcome


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
                 sim_config=None, verdicts=None) -> PipelineResult:
    """Prompt, validate, and re-prompt within the policy's budget.

    Budgets: NONE issues a single call; FRESH retries the identical prompt
    up to twice more; FEEDBACK allows one retry for a pre-simulation
    failure and one more for a simulation failure.  Every policy stays
    within three LLM calls.  Every answer is parsed, but a plan already
    judged under the same functional test is not judged again: its
    attempt gets a copy of that report, as verdicts are deterministic.
    ``verdicts`` is that memo, a dict from ``(functional, plan)`` to a
    Future of ``judge_plan``'s verdict; by default each call starts an
    empty one.  A caller may share one dict across calls, from several
    threads too, as long as they all use the same catalog and sim_config:
    a thread that meets a plan another is judging waits for its verdict.
    Results that reuse a verdict share its ``assembly`` and ``outcome``
    objects, so treat those as read-only.  A client that still fails
    after its retries, or fails in a way a retry cannot mend, ends the run
    as a failure at stage CLIENT.  Raises ValueError for an unknown policy,
    and for a category that heuristics.json does not list, which would
    have no functional test to run.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    functional = category_function(category)
    if functional is None:
        raise ValueError(f"unknown category {category!r}")
    if catalog is None:
        catalog = default_catalog()
    if sim_config is None:
        sim_config = SimConfig()

    result = PipelineResult(category=category, status="failed",
                            failure_stage=STAGE_NONE)
    pre_sim_retries = 0
    sim_retries = 0
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
            result.attempts.append(AttemptRecord(
                raw="", failure_stage=STAGE_CLIENT,
                report={"error": "ClientError", "message": str(exc)}))
            result.failure_stage = STAGE_CLIENT
            result.plan = result.assembly = result.outcome = None
            return result
        result.llm_calls += 1
        plan, report = check_format(raw, catalog)
        if plan is None:
            stage, assembly, outcome = STAGE_FORMAT, None, None
        else:
            # setdefault is atomic: the first thread to meet a plan judges
            # it, and any other waits for that verdict
            pending = Future()
            verdict = verdicts.setdefault((functional, plan), pending)
            if verdict is pending:
                try:
                    pending.set_result(judge_plan(plan, catalog, functional,
                                                  sim_config))
                except BaseException as exc:
                    pending.set_exception(exc)
                    raise
            stage, report, assembly, outcome = verdict.result()
            report = copy.deepcopy(report)  # each attempt owns its report
        result.attempts.append(AttemptRecord(
            raw=raw, failure_stage=stage, report=report))
        result.failure_stage = stage
        result.plan = plan
        result.assembly = assembly
        result.outcome = outcome
        if stage == STAGE_NONE:
            result.status = "success"
            return result
        if policy == POLICY_NONE:
            return result
        if policy == POLICY_FRESH:
            continue
        # FEEDBACK
        if stage in (STAGE_FORMAT, STAGE_COLLISION, STAGE_CONNECTIVITY):
            if pre_sim_retries >= 1:
                return result
            pre_sim_retries += 1
        else:
            if sim_retries >= 1:
                return result
            sim_retries += 1
        feedback = json.dumps(report, indent=2)
    return result
