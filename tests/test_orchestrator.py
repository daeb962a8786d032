import json
import sys
import time
import types

import pytest

from craftkit import orchestrator
from craftkit.catalog import Catalog
from craftkit.errors import ClientError
from craftkit.orchestrator import (
    MAX_CLIENT_RETRIES,
    POLICY_FEEDBACK,
    POLICY_FRESH,
    POLICY_NONE,
    STAGE_CLIENT,
    STAGE_COLLISION,
    STAGE_CONNECTIVITY,
    STAGE_FORMAT,
    STAGE_INTERNAL,
    STAGE_NONE,
    STAGE_PHYSICS,
    HttpClient,
    ScriptedClient,
    Verdict,
    build_prompt,
    category_function,
    check_format,
    classify_failure,
    evaluate_plan_text,
    load_heuristics,
    load_template,
    run_pipeline,
)
from craftkit.physics import SimConfig, functional

from conftest import all_fixture_names, respelled

FAST_SIM = SimConfig(duration=1.0)


@pytest.fixture(autouse=True)
def sleeps(monkeypatch):
    """``time.sleep`` recorded instead of slept, so client backoff costs
    the tests no time; the list of requested waits."""
    calls = []
    monkeypatch.setattr(time, "sleep", calls.append)
    return calls


def test_load_heuristics_categories():
    heur = load_heuristics()
    for cat in ("hammer", "table", "chair", "skateboard", "bookshelf", "bus",
                "scooter", "truck"):
        assert cat in heur
        assert "function" in heur[cat]
        assert "minimal_parts" in heur[cat]
    assert category_function("hammer") == "hit"
    assert category_function("skateboard") == "rolling"
    assert category_function("table") == "support"
    assert category_function("unknown-thing") is None


def test_build_prompt_contents(catalog):
    prompt = build_prompt("skateboard", catalog)
    assert "skateboard" in prompt
    assert "CYLINDER_R30_L20" in prompt
    assert "Minimal set of parts" in prompt
    assert "Example of a valid plan" in prompt
    assert "previous plan failed" not in prompt
    with_feedback = build_prompt("skateboard", catalog, feedback='{"oops": 1}')
    assert "previous plan failed" in with_feedback
    assert '{"oops": 1}' in with_feedback


@pytest.mark.parametrize("category", ["scooter", "truck"])
def test_a_category_without_a_template_gets_no_example(category, catalog):
    # heuristics.json lists both, but no template ships for either
    assert load_template(category) is None
    prompt = build_prompt(category, catalog)
    assert "Minimal set of parts" in prompt
    assert "Example of a valid plan" not in prompt


def test_scripted_client_replay_and_exhaustion():
    client = ScriptedClient(["one", "two"])
    assert client.complete("p1") == "one"
    assert client.complete("p2") == "two"
    with pytest.raises(ClientError):
        client.complete("p3")
    assert client.prompts == ["p1", "p2", "p3"]


def test_scripted_client_from_directory(tmp_path):
    (tmp_path / "01.txt").write_text("alpha")
    (tmp_path / "02.txt").write_text("beta")
    client = ScriptedClient(tmp_path)
    assert client.complete("x") == "alpha"
    assert client.complete("y") == "beta"


def test_classify_failure_buckets():
    assert classify_failure(STAGE_FORMAT) == "Format Val."
    assert classify_failure(STAGE_COLLISION) == "Position Val."
    assert classify_failure(STAGE_CONNECTIVITY) == "Position Val."
    assert classify_failure(STAGE_PHYSICS) == "Physics Val."
    assert classify_failure(STAGE_INTERNAL) == "Internal Error"
    assert classify_failure(STAGE_NONE) == "Success"


def test_divergence_is_a_physics_verdict(catalog, fixture_raw,
                                         monkeypatch):
    monkeypatch.setattr(functional, "SUPPORT_FORCE", 1e9)
    stage, verdict, plan, _, outcome = evaluate_plan_text(
        fixture_raw("bookshelf_valid_1"), catalog, functional="support")
    assert stage == STAGE_PHYSICS
    assert verdict.reason == "NUMERICAL_DIVERGENCE"
    assert not outcome.success
    # the bookshelf is one body, so every part is at fault
    assert verdict.parts == tuple(p.name for p in plan.parts)


def test_exhausted_client_is_a_classified_failure(catalog, response_text,
                                                  sleeps):
    client = ScriptedClient([response_text("hammer_invalid_1")])
    result = run_pipeline("hammer", client, policy=POLICY_FEEDBACK,
                          catalog=catalog, sim_config=FAST_SIM)
    assert result.status == "failed"
    assert result.failure_stage == STAGE_CLIENT
    assert result.llm_calls == 1
    assert [a.verdict.stage for a in result.attempts] == [
        STAGE_FORMAT, STAGE_CLIENT]
    assert classify_failure(STAGE_CLIENT) == "Client Error"
    # exhaustion is not retried: one prompt per request, the answered one
    # and the one that found no response left, and no backoff
    assert len(client.prompts) == 2
    assert sleeps == []


def _fake_requests(statuses, posts):
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


@pytest.mark.parametrize("status, expected_posts",
                         [(404, 1), (503, MAX_CLIENT_RETRIES)])
def test_http_client_retries_server_errors_only(status, expected_posts,
                                                monkeypatch, catalog, sleeps):
    posts = []
    monkeypatch.setitem(sys.modules, "requests",
                        _fake_requests([status], posts))
    client = HttpClient("http://localhost:9/v1/chat", "m")
    result = run_pipeline("hammer", client, policy=POLICY_NONE,
                          catalog=catalog)
    assert result.failure_stage == STAGE_CLIENT
    assert str(status) in result.attempts[-1].verdict.details["message"]
    assert len(posts) == expected_posts
    # a wait between attempts, none after the last one
    assert sleeps == [0.5, 1.0][:expected_posts - 1]


def test_http_client_backs_off_between_server_errors(monkeypatch, catalog,
                                                     sleeps):
    posts = []
    monkeypatch.setitem(sys.modules, "requests",
                        _fake_requests([503, 503, 200], posts))
    client = HttpClient("http://localhost:9/v1/chat", "m")
    result = run_pipeline("hammer", client, policy=POLICY_NONE,
                          catalog=catalog)
    assert len(posts) == 3
    assert sleeps == [0.5, 1.0]
    # the third answer got through: the plan itself failed, not the client
    assert result.failure_stage == STAGE_FORMAT


def test_http_client_sends_one_message_at_fixed_settings(monkeypatch):
    requests = _fake_requests([200], [])
    answer_ok = requests.post
    sent = []

    def post(url, **kwargs):
        sent.append((url, kwargs))
        return answer_ok(url)

    requests.post = post
    monkeypatch.setitem(sys.modules, "requests", requests)
    answer = HttpClient("http://localhost:9/v1/chat", "m").complete("p")
    assert answer == "[]"
    assert sent == [("http://localhost:9/v1/chat", {
        "json": {"model": "m", "temperature": 0.0,
                 "messages": [{"role": "user", "content": "p"}]},
        "headers": {"Content-Type": "application/json"},
        "timeout": 120.0})]


@pytest.mark.parametrize("answer", [
    {"choices": [{"message": {"content": None}}]},
    {"choices": [{"message": {"content": ["[]"]}}]},
    {"choices": ["[]"]},
    [],
])
def test_http_client_answer_without_text_is_a_client_failure(
        answer, monkeypatch, catalog, sleeps):
    """An answer with no string content is retried as a bad answer and
    ends the run at CLIENT, with no exception out of the pipeline."""
    posts = []
    requests = _fake_requests([200], posts)
    answer_ok = requests.post

    def post(url, **kwargs):
        response = answer_ok(url)
        response.json = lambda: answer
        return response

    requests.post = post
    monkeypatch.setitem(sys.modules, "requests", requests)
    result = run_pipeline("hammer", HttpClient("http://localhost:9/v1/chat",
                                               "m"), catalog=catalog)
    assert result.failure_stage == STAGE_CLIENT
    assert result.llm_calls == 0
    assert result.attempts[-1].verdict.reason == "ClientError"
    assert len(posts) == MAX_CLIENT_RETRIES


def test_http_client_without_requests_names_the_extra(monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)
    with pytest.raises(ClientError) as info:
        HttpClient("http://localhost:9/v1/chat", "m").complete("p")
    assert not info.value.retryable
    assert "pip install 'craftkit[http]'" in str(info.value)


def _nested(kind, depth):
    """A JSON answer of ``depth`` nested arrays or objects."""
    if kind == "array":
        return "[" * depth + "]" * depth
    return '{"a": ' * depth + "1" + "}" * depth


@pytest.mark.parametrize("depth", [400, 500, 1000, 2000, 100_000])
@pytest.mark.parametrize("kind", ["array", "object"])
def test_a_deeply_nested_answer_is_a_format_verdict(catalog, kind, depth):
    """Nesting too deep to parse or normalize is a FORMAT report, never a
    RecursionError out of the stage."""
    plan, verdict = check_format(_nested(kind, depth), catalog)
    assert plan is None
    assert verdict.stage == STAGE_FORMAT and verdict.details["errors"]
    if depth >= 1000:
        assert verdict.details["errors"] == [{
            "part": None, "field": None, "code": "JsonSyntaxError",
            "message": "nested too deeply"}]


def _deeper(frames, fn, *args):
    """``fn(*args)`` called ``frames`` frames further down the stack."""
    if frames == 0:
        return fn(*args)
    return _deeper(frames - 1, fn, *args)


@pytest.mark.parametrize("kind", ["array", "object"])
def test_a_nested_answer_gets_one_report_at_any_stack_depth(catalog, kind):
    for depth in [*range(450, 521), 1000]:
        raw = _nested(kind, depth)
        assert _deeper(60, check_format, raw, catalog) \
            == check_format(raw, catalog), depth
    # a malformed one too, with a bare x innermost: at top level the
    # parser reaches the x, 60 frames down it may run out of stack first
    for depth in range(900, 1001, 5):
        raw = _nested(kind, depth).replace("[]", "[x]").replace("1", "x")
        top = check_format(raw, catalog)
        assert _deeper(60, check_format, raw, catalog) == top, depth
        assert top[1].details["errors"][0]["message"] == "nested too deeply"


def test_a_format_message_shows_a_large_value_cut_short(catalog):
    raw = "[[" + ",".join(["0"] * 200_000) + "]]"
    assert len(raw) == 400_003
    _, verdict = check_format(raw, catalog)
    (error,) = verdict.details["errors"]
    assert error["code"] == "MissingField"
    assert error["message"].startswith("part entry is not an object: [0, 0")
    assert len(error["message"]) < 1000


def test_evaluate_stages(catalog, response_text, fixture_raw):
    stage, verdict, *_ = evaluate_plan_text("garbage {", catalog)
    assert stage == verdict.stage == STAGE_FORMAT
    assert verdict.reason == "JsonSyntaxError"
    assert verdict.details["errors"][0]["code"] == "JsonSyntaxError"

    stage, verdict, *_ = evaluate_plan_text(
        response_text("hammer_invalid_1"), catalog)
    assert stage == STAGE_FORMAT

    stage, verdict, *_ = evaluate_plan_text(
        response_text("bookshelf_collision"), catalog)
    assert stage == STAGE_COLLISION

    stage, *_ = evaluate_plan_text(response_text("hammer_valid_1"), catalog)
    assert stage == STAGE_NONE

    stage, verdict, plan, asm, outcome = evaluate_plan_text(
        response_text("hammer_valid_1"), catalog, functional="hit")
    assert stage == STAGE_NONE
    assert outcome is not None and outcome.success

    stage, verdict, *_ = evaluate_plan_text(
        response_text("hammer_detached"), catalog, functional="hit")
    assert stage == STAGE_PHYSICS
    assert verdict.reason == "PART_SEPARATED"


# LOOSE_1 has no connection, so it cannot be placed
UNPLACEABLE = json.dumps([
    {"Name": "BASE_1", "Available_obj": "CUBOID_100X100X100",
     "Orientation": [100, 100, 100], "exec_function": True},
    {"Name": "LOOSE_1", "Available_obj": "CUBOID_50X50X20",
     "Orientation": [50, 50, 20], "exec_function": False},
])


def test_unplaceable_maps_to_connectivity(catalog):
    stage, verdict, *_ = evaluate_plan_text(UNPLACEABLE, catalog)
    assert stage == STAGE_CONNECTIVITY
    assert verdict.reason == "Unplaceable"
    assert verdict.parts == ("LOOSE_1",)


def test_every_failing_fixture_verdict_names_its_reason_and_parts(
        catalog, fixture_raw, category_outcome, monkeypatch):
    """Each fixture under its category's test: a verdict that failed has a
    reason, and parts wherever a part is at fault.  The simulations are the
    session's, which the outcome gate shares."""
    faulty_parts = set()
    for name in all_fixture_names():
        monkeypatch.setattr(orchestrator, "run_functional_test",
                            lambda *args, name=name: category_outcome(name))
        stage, verdict, *_ = evaluate_plan_text(
            fixture_raw(name), catalog,
            category_function(name.split("_", 1)[0]))
        assert verdict.stage == stage
        assert bool(verdict.reason) == (stage != STAGE_NONE), name
        if stage == STAGE_FORMAT:
            named = {e["part"] for e in verdict.details["errors"]} - {None}
            assert set(verdict.parts) == named, name
        if verdict.parts:
            faulty_parts.add(name)
    formats = {n for n in all_fixture_names() if "_invalid_" in n}
    assert faulty_parts >= formats | {
        "bookshelf_collision", "hammer_detached", "skateboard_offcenter"}


@pytest.mark.parametrize("category, first, stage, reason, parts", [
    ("hammer", "hammer_invalid_1", STAGE_FORMAT, "BadOrientationPermutation",
     ["HEAD_1"]),
    ("bookshelf", "bookshelf_collision", STAGE_COLLISION, "COLLISION",
     ["SHELF_1", "SHELF_2"]),
    ("hammer", None, STAGE_CONNECTIVITY, "Unplaceable", ["LOOSE_1"]),
    ("hammer", "hammer_detached", STAGE_PHYSICS, "PART_SEPARATED",
     ["HEAD_1", "HANDLE_1"]),
], ids=["format", "collision", "connectivity", "physics"])
def test_feedback_names_the_reason_and_the_parts(
        category, first, stage, reason, parts, catalog, fixture_raw):
    """Under FEEDBACK the second prompt holds the first answer's verdict:
    its stage, its reason and the parts at fault."""
    client = ScriptedClient(
        [fixture_raw(first) if first else UNPLACEABLE, "[]"])
    run_pipeline(category, client, policy=POLICY_FEEDBACK, catalog=catalog,
                 sim_config=FAST_SIM)
    feedback = client.prompts[1].split(
        "The validator reported:\n", 1)[1].rsplit("\nReturn a corrected", 1)
    sent = json.loads(feedback[0])
    assert (sent["stage"], sent["reason"], sent["parts"]) == \
        (stage, reason, parts)


def test_policy_none_single_call(catalog, response_text):
    client = ScriptedClient([response_text("hammer_invalid_1"),
                             response_text("hammer_valid_1")])
    result = run_pipeline("hammer", client, policy=POLICY_NONE,
                          catalog=catalog, sim_config=FAST_SIM)
    assert result.llm_calls == 1
    assert result.status == "failed"
    assert result.failure_stage == STAGE_FORMAT


def test_policy_fresh_retries_with_identical_prompt(catalog, response_text):
    client = ScriptedClient([response_text("hammer_invalid_1"),
                             response_text("hammer_invalid_2"),
                             response_text("hammer_valid_1")])
    result = run_pipeline("hammer", client, policy=POLICY_FRESH,
                          catalog=catalog, sim_config=FAST_SIM)
    assert result.status == "success"
    assert result.llm_calls == 3
    # no history: every prompt identical, no feedback section
    assert len(set(client.prompts)) == 1
    assert "previous plan failed" not in client.prompts[0]


def test_policy_fresh_caps_at_three_calls(catalog, response_text):
    client = ScriptedClient([response_text("hammer_invalid_1")] * 5)
    result = run_pipeline("hammer", client, policy=POLICY_FRESH,
                          catalog=catalog, sim_config=FAST_SIM)
    assert result.llm_calls == 3
    assert result.status == "failed"


def test_policy_feedback_reports_verbatim(catalog, response_text):
    client = ScriptedClient([response_text("hammer_invalid_1"),
                             response_text("hammer_valid_1")])
    result = run_pipeline("hammer", client, policy=POLICY_FEEDBACK,
                          catalog=catalog, sim_config=FAST_SIM)
    assert result.status == "success"
    assert result.llm_calls == 2
    # the second prompt embeds the first attempt's verdict verbatim
    verbatim = json.dumps(result.attempts[0].verdict.to_dict(), indent=2)
    assert verbatim in client.prompts[1]


def test_policy_feedback_one_pre_sim_retry(catalog, response_text):
    client = ScriptedClient([response_text("hammer_invalid_1"),
                             response_text("hammer_invalid_2"),
                             response_text("hammer_valid_1")])
    result = run_pipeline("hammer", client, policy=POLICY_FEEDBACK,
                          catalog=catalog, sim_config=FAST_SIM)
    # one pre-simulation retry only: stops after the second format failure
    assert result.llm_calls == 2
    assert result.status == "failed"


def test_policy_feedback_sim_retry_budget(catalog, response_text):
    responses = [
        response_text("hammer_invalid_1"),   # format fail (pre-sim retry)
        response_text("hammer_detached"),    # physics fail (sim retry)
        response_text("hammer_valid_1"),     # success
    ]
    client = ScriptedClient(responses)
    result = run_pipeline("hammer", client, policy=POLICY_FEEDBACK,
                          catalog=catalog, sim_config=FAST_SIM)
    assert result.status == "success"
    assert result.llm_calls == 3
    stages = [a.verdict.stage for a in result.attempts]
    assert stages == [STAGE_FORMAT, STAGE_PHYSICS, STAGE_NONE]


def test_client_error_retried_without_consuming_budget(catalog, response_text):
    class FlakyClient(ScriptedClient):
        def __init__(self, responses, fail_first=2):
            super().__init__(responses)
            self.fail_first = fail_first

        def complete(self, prompt):
            if self.fail_first > 0:
                self.fail_first -= 1
                raise ClientError("transient")
            return super().complete(prompt)

    client = FlakyClient([response_text("hammer_valid_1")])
    result = run_pipeline("hammer", client, policy=POLICY_NONE,
                          catalog=catalog, sim_config=FAST_SIM)
    assert result.status == "success"
    assert result.llm_calls == 1


def test_pipeline_deterministic(catalog, response_text):
    def run():
        client = ScriptedClient([response_text("hammer_detached"),
                                 response_text("hammer_valid_1")])
        return run_pipeline("hammer", client, policy=POLICY_FEEDBACK,
                            catalog=catalog, sim_config=FAST_SIM)

    a, b = run(), run()
    assert json.dumps(a.to_dict(), sort_keys=True) == \
        json.dumps(b.to_dict(), sort_keys=True)


def test_unknown_policy_rejected(catalog):
    with pytest.raises(ValueError):
        run_pipeline("hammer", ScriptedClient([]), policy="WILD",
                     catalog=catalog)


def test_unknown_category_rejected_before_any_call(catalog, fixture_raw):
    """A category missing from heuristics.json has no functional test, so
    a misspelt one would pass a craft that its own test fails."""
    client = ScriptedClient([fixture_raw("skateboard_floating")])
    with pytest.raises(ValueError, match="unknown category 'skatebord'"):
        run_pipeline("skatebord", client, catalog=catalog)
    assert client.prompts == []


def test_an_empty_catalog_is_not_replaced_by_the_default(response_text):
    """A catalog with no objects is falsy, yet it is the caller's catalog:
    a plan naming any object fails FORMAT against it."""
    client = ScriptedClient([response_text("hammer_valid_1")])
    result = run_pipeline("hammer", client, policy=POLICY_NONE,
                          catalog=Catalog([]), sim_config=FAST_SIM)
    assert result.failure_stage == STAGE_FORMAT
    codes = {e["code"] for e in result.attempts[0].verdict.details["errors"]}
    assert codes == {"UnknownObject"}


def _first_face_swapped(text):
    """A different plan: its first TOP face is a BOTTOM one."""
    return text.replace('"to_face": "TOP"', '"to_face": "BOTTOM"', 1)


def _verbatim(text):
    return text


@pytest.mark.parametrize("policy, name, spellings, counted, runs, stages", [
    # the model ignores the feedback and answers the same plan again
    (POLICY_FEEDBACK, "skateboard_floating", (_verbatim, respelled),
     "run_functional_test", 1, [STAGE_PHYSICS] * 2),
    # the identical prompt gets the identical answer
    (POLICY_FRESH, "bookshelf_collision", (_verbatim,) * 3,
     "validate_collisions", 1, [STAGE_COLLISION] * 3),
    # one connection's TO_FACE differs, so both plans are judged
    (POLICY_FEEDBACK, "skateboard_floating", (_verbatim, _first_face_swapped),
     "run_functional_test", 2, [STAGE_PHYSICS] * 2),
], ids=["feedback_ignored", "fresh_identical", "face_differs"])
def test_a_run_judges_each_distinct_plan_once(
        policy, name, spellings, counted, runs, stages, monkeypatch, catalog,
        fixture_raw):
    original = getattr(orchestrator, counted)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(orchestrator, counted, counting)
    raws = [spell(fixture_raw(name)) for spell in spellings]
    category = name.split("_", 1)[0]
    result = run_pipeline(category, ScriptedClient(raws), policy=policy,
                          catalog=catalog, sim_config=FAST_SIM)
    assert len(calls) == runs
    # every answer is still called for, counted and recorded
    assert result.llm_calls == len(raws)
    assert [a.raw for a in result.attempts] == raws
    assert [a.verdict.stage for a in result.attempts] == stages
    verdicts = [a.verdict for a in result.attempts]
    assert len({id(v) for v in verdicts}) == len(verdicts)
    for attempt in result.attempts:
        stage, verdict, *_ = evaluate_plan_text(
            attempt.raw, catalog, category_function(category), FAST_SIM)
        assert (attempt.verdict.stage, attempt.verdict) == (stage, verdict)


def test_runs_that_share_a_memo_judge_a_plan_once(monkeypatch, catalog,
                                                  fixture_raw):
    original = orchestrator.validate_collisions
    calls = []

    def counting(assembly):
        calls.append(assembly)
        return original(assembly)

    monkeypatch.setattr(orchestrator, "validate_collisions", counting)
    raw = fixture_raw("bookshelf_collision")

    def run(verdicts=None):
        return run_pipeline("bookshelf", ScriptedClient([raw]),
                            policy=POLICY_NONE, catalog=catalog,
                            verdicts=verdicts)

    # by default each run keeps its own memo
    run(), run()
    assert len(calls) == 2
    shared = {}
    first, second = run(shared), run(shared)
    assert len(calls) == 3
    assert list(shared) == [("support", first.plan)]
    assert first.assembly is second.assembly
    assert first.attempts[0].verdict == second.attempts[0].verdict
    assert first.attempts[0].verdict is not second.attempts[0].verdict


def test_a_judgement_that_raises_is_raised_to_every_sharer(monkeypatch,
                                                          catalog,
                                                          fixture_raw):
    calls = []

    def failing(*args):
        calls.append(args)
        raise RuntimeError("judge failed")

    monkeypatch.setattr(orchestrator, "judge_plan", failing)
    shared = {}
    for _ in range(2):
        # the second run finds the failed verdict, not one left pending
        with pytest.raises(RuntimeError, match="judge failed"):
            run_pipeline("bookshelf",
                         ScriptedClient([fixture_raw("bookshelf_collision")]),
                         policy=POLICY_NONE, catalog=catalog,
                         verdicts=shared)
    assert len(calls) == 1


def test_a_stage_that_raises_ends_the_run_at_internal(monkeypatch, caplog,
                                                      catalog, fixture_raw):
    """Inside ``judge_plan`` an Exception is a verdict at stage INTERNAL,
    logged with its traceback, and no policy asks the model again; a
    KeyboardInterrupt still propagates."""
    import logging

    def dividing(*args):
        return 1 / 0

    monkeypatch.setattr(orchestrator, "run_functional_test", dividing)
    raw = fixture_raw("hammer_valid_1")
    for policy in (POLICY_NONE, POLICY_FRESH, POLICY_FEEDBACK):
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="craftkit.pipeline"):
            result = run_pipeline("hammer", ScriptedClient([raw] * 3),
                                  policy=policy, catalog=catalog)
        assert (result.status, result.failure_stage, result.llm_calls) == \
            ("failed", STAGE_INTERNAL, 1)
        assert [a.verdict for a in result.attempts] == [
            Verdict(STAGE_INTERNAL, "ZeroDivisionError",
                    details={"message": "division by zero"})]
        (record,) = caplog.records
        assert record.name == "craftkit.pipeline"
        assert record.levelno == logging.ERROR
        assert record.exc_info[0] is ZeroDivisionError

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(orchestrator, "run_functional_test", interrupted)
    with pytest.raises(KeyboardInterrupt):
        evaluate_plan_text(raw, catalog, functional="hit")


def test_package_data_is_read_once_per_process(monkeypatch):
    heuristics = load_heuristics()
    template = load_template("hammer")

    def no_reads(*args):
        raise AssertionError("package data read again")

    monkeypatch.setattr(orchestrator.importlib.resources, "files", no_reads)
    assert load_heuristics() is heuristics
    assert load_template("hammer") == template
    assert category_function("table") == "support"
    assert "Example of a valid plan" in build_prompt("hammer", Catalog([]))
