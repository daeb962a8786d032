import csv
import io
import json
import subprocess
import sys

import pytest

from craftkit.cli import EXIT_INVALID, EXIT_OK, EXIT_USAGE, main

import pins
from conftest import fenced, respelled

# what ``craftkit validate`` prints for a plan that passes FORMAT
PASSED = {"stage": "NONE", "reason": None, "parts": [], "details": {}}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys, plan_path):
    code, out = run_cli(capsys, "validate", str(plan_path("hammer_valid_1")))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["stage"] == "NONE"


def test_validate_output_of_every_fixture_is_pinned():
    pins.assert_holds("validate")


def test_validate_runs_the_format_stage_only(capsys, plan_path,
                                            monkeypatch):
    from craftkit import orchestrator

    def unreachable(*args):
        raise AssertionError("validate placed the plan")

    monkeypatch.setattr(orchestrator, "build_assembly", unreachable)
    code, out = run_cli(capsys, "validate",
                        str(plan_path("bookshelf_collision")))
    assert code == EXIT_OK
    assert json.loads(out) == PASSED


def test_validate_invalid(capsys, plan_path):
    code, out = run_cli(capsys, "validate", str(plan_path("hammer_invalid_1")))
    assert code == EXIT_INVALID
    payload = json.loads(out)
    assert payload["stage"] == "FORMAT"
    assert payload["details"]["errors"]


def test_validate_bad_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, out = run_cli(capsys, "validate", str(bad))
    assert code == EXIT_INVALID
    payload = json.loads(out)
    assert payload["details"]["errors"][0]["code"] == "JsonSyntaxError"


def test_validate_missing_file(capsys, tmp_path):
    code, _ = run_cli(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == EXIT_USAGE


def test_build_success_and_obj_export(capsys, plan_path, tmp_path):
    """A golden builds past COLLISION, holed pairs (the skateboard's wheels
    on axles) too, and prints every part's pose and every hole's offset."""
    for name, holes in (("hammer_valid_1", 0), ("skateboard_valid_1", 6)):
        obj = tmp_path / f"{name}.obj"
        code, out = run_cli(capsys, "build", str(plan_path(name)),
                            "--obj", str(obj))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["stage"] == "NONE"
        assert {k: payload[k] for k in PASSED} == PASSED
        parts = payload["assembly"]["parts"]
        assert parts
        assert all("position" in p and "axis_map" in p for p in parts)
        found = [h for p in parts for h in p["solid"]["holes"]]
        assert len(found) == holes
        assert all("offset" in h for h in found)
        assert obj.read_text().startswith(("#", "v "))


def test_build_collision_fails(capsys, plan_path):
    code, out = run_cli(capsys, "build", str(plan_path("bookshelf_collision")))
    assert code == EXIT_INVALID
    payload = json.loads(out)
    assert payload["stage"] == "COLLISION"
    assert payload["reason"] == "COLLISION"
    assert "SHELF_1" in payload["parts"]
    assert payload["details"]["pairs"]
    assert payload["assembly"]["parts"]


def test_plan_commands_stop_at_the_pipeline_stage(capsys, plan_path,
                                                  tmp_path):
    # the pipeline rejects this plan at COLLISION, so every plan command must
    plan = str(plan_path("bookshelf_collision"))
    for argv in (["simulate", plan, "--test", "support"],
                 ["metrics", "--plan", plan,
                  "--ref", str(tmp_path / "ref.obj")]):
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_INVALID
        payload = json.loads(out)
        assert payload["stage"] == "COLLISION"
        assert payload["details"]["pairs"]


def test_simulate_hammer_hit(capsys, plan_path, tmp_path):
    trace = tmp_path / "trace.json"
    code, out = run_cli(capsys, "simulate", str(plan_path("hammer_valid_1")),
                        "--test", "hit", "--trace", str(trace))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["stage"] == "NONE"
    assert json.loads(trace.read_text())


def test_simulate_failure_exit_code(capsys, plan_path):
    code, out = run_cli(capsys, "simulate", str(plan_path("hammer_detached")),
                        "--test", "hit", "--duration", "1.0")
    assert code == EXIT_INVALID
    payload = json.loads(out)
    assert payload["reason"] == "PART_SEPARATED"


def test_metrics_self_comparison(capsys, plan_path, tmp_path):
    """A golden scored against its own exported mesh matches it."""
    scores = {}
    for name in ("hammer_valid_1", "table_valid_1", "skateboard_valid_1"):
        obj = tmp_path / f"{name}.obj"
        code, _ = run_cli(capsys, "build", str(plan_path(name)),
                          "--obj", str(obj))
        assert code == EXIT_OK
        code, out = run_cli(capsys, "metrics", "--plan", str(plan_path(name)),
                            "--ref", str(obj), "--samples", "2000")
        assert code == EXIT_OK
        scores[name] = json.loads(out)
        assert scores[name]["fscore"] > 0.99
    # the chamfer of 2000 samples grows with the craft; the hammer is small
    assert scores["hammer_valid_1"]["chamfer"] < 0.01


TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
FLAT = "v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n"
POINT = "v 1 1 1\nv 1 1 1\nv 1 1 1\nf 1 2 3\n"


@pytest.mark.parametrize("body,where", [
    (TRIANGLE + "f 1 2 9\n", "line 4: face index 9 names no vertex"),
    (TRIANGLE + "f 0 1 2\n", "line 4: face index 0 names no vertex"),
    (TRIANGLE + "f -5 -4 -3\n", "line 4: face index -5 names no vertex"),
    ("v 0 0 0\nf 1 2 3\n" + TRIANGLE, "line 2: face index 2 names no"),
    (TRIANGLE + "f 1 2\n", "line 4: a face needs 3 vertices"),
    (TRIANGLE + "f 1 b 3\n", "line 4: invalid literal for int()"),
    ("v 0 0 0\nv 1 0\n", "line 2: a vertex needs 3 finite coordinates"),
    ("v 0 0 0\nv 1 zero 0\n", "line 2: could not convert string to float"),
    ("v 0 0 0\nv 1 nan 0\n", "line 2: a vertex needs 3 finite coordinates"),
    (b"\xff" + TRIANGLE.encode() + b"f 1 2 3\n", "invalid start byte"),
    (FLAT, "ref.obj: all triangles degenerate"),
    (POINT, "ref.obj: point set has zero extent"),
], ids=["past_the_last", "zero", "before_the_first", "ahead_of_its_vertex",
        "two_corners", "a_word_index", "two_coordinates", "a_word",
        "not_finite", "not_utf8", "collinear", "coincident"])
def test_metrics_rejects_a_malformed_reference_obj(caplog, capsys, plan_path,
                                                    tmp_path, body, where):
    ref = tmp_path / "ref.obj"
    if isinstance(body, bytes):
        ref.write_bytes(body)
    else:
        ref.write_text(body)
    code = main(["metrics", "--plan", str(plan_path("hammer_valid_1")),
                 "--ref", str(ref), "--samples", "200"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert str(ref) in caplog.text
    assert where in caplog.text
    assert "Traceback" not in caplog.text


# With numpy blocked, any import of it raises; the probe then exits with
# the command's own code, or 99 if scipy was loaded.  No argument means
# ``import craftkit`` alone.
NO_NUMPY_PROBE = """
import sys
sys.modules["numpy"] = None
import craftkit
if sys.argv[1:]:
    from craftkit.cli import main
    code = main(sys.argv[1:])
else:
    code = 0
sys.exit(99 if "scipy" in sys.modules else code)
"""


@pytest.mark.parametrize("command", [
    "import", "validate", "build", "simulate", "pipeline", "batch"])
def test_commands_that_give_no_score_load_neither_numpy_nor_scipy(
        command, plan_path, tmp_path):
    """Only ``metrics`` needs numpy, and only scoring a plan needs scipy's
    k-d tree."""
    (tmp_path / "responses").mkdir()
    (tmp_path / "responses" / "01.txt").write_text(
        plan_path("hammer_valid_1").read_text())
    (tmp_path / "manifest.json").write_text(
        json.dumps([{"category": "hammer", "responses": "responses"}]))
    argv = {
        "import": [],
        "validate": ["validate", str(plan_path("hammer_valid_1"))],
        "build": ["build", str(plan_path("table_valid_1"))],
        "simulate": ["simulate", str(plan_path("table_valid_1")),
                     "--test", "support", "--duration", "0.02"],
        "pipeline": ["pipeline", "--category", "hammer",
                     "--responses", str(tmp_path / "responses")],
        "batch": ["batch", str(tmp_path / "manifest.json"), "--jobs", "1",
                  "--out", str(tmp_path / "out.csv")],
    }[command]
    done = subprocess.run([sys.executable, "-c", NO_NUMPY_PROBE, *argv],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr


def test_metrics_needs_exactly_one_prediction(tmp_path, plan_path):
    import pytest

    ref = str(tmp_path / "ref.obj")
    for pred in ([], ["--plan", str(plan_path("hammer_valid_1")),
                      "--pred", ref]):
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--ref", ref, *pred])
        assert exc.value.code == EXIT_USAGE


def test_metrics_rejects_fewer_than_one_sample(tmp_path, plan_path):
    import pytest

    ref = str(tmp_path / "ref.obj")
    for pred in (["--pred", ref], ["--plan", str(plan_path("hammer_valid_1"))]):
        for samples in ("0", "-5"):
            with pytest.raises(SystemExit) as exc:
                main(["metrics", *pred, "--ref", ref, "--samples", samples])
            assert exc.value.code == EXIT_USAGE


def test_metrics_rejects_a_negative_seed_and_a_bad_threshold(
        capsys, plan_path, tmp_path):
    import pytest

    obj = str(tmp_path / "ref.obj")
    code, _ = run_cli(capsys, "build", str(plan_path("hammer_valid_1")),
                      "--obj", obj)
    assert code == EXIT_OK
    for flag, value in (("--seed", "-1"), ("--threshold", "nan"),
                        ("--threshold", "-1")):
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--pred", obj, "--ref", obj, "--samples", "50",
                  flag, value])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""


def test_simulate_rejects_a_duration_that_is_not_positive(plan_path):
    import pytest

    for duration in ("0", "-1", "nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(plan_path("hammer_valid_1")), "--test", "hit",
                  "--duration", duration])
        assert exc.value.code == EXIT_USAGE


def test_simulate_rejects_a_duration_under_one_timestep(capsys, plan_path):
    import pytest

    plan = str(plan_path("table_valid_1"))
    for duration in ("0.0009", "0.0019"):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", plan, "--test", "support",
                  "--duration", duration])
        assert exc.value.code == EXIT_USAGE
        assert "at least one timestep" in capsys.readouterr().err
    code, out = run_cli(capsys, "simulate", plan, "--test", "support",
                        "--duration", "0.002")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["stage"] == "NONE"
    assert payload["details"]["test"] == "support"
    assert payload["details"]["time_s"] > 0.0


def test_unplaceable_plan_reports_position_stage(capsys, tmp_path):
    # LOOSE_1 has no connection, so it cannot be placed
    plan = tmp_path / "unplaceable.json"
    plan.write_text(json.dumps([
        {"Name": "BASE_1", "Available_obj": "CUBOID_100X100X100",
         "Orientation": [100, 100, 100], "exec_function": False},
        {"Name": "LOOSE_1", "Available_obj": "CUBOID_50X50X20",
         "Orientation": [50, 50, 20], "exec_function": False},
    ]))
    for argv in (["build", str(plan)],
                 ["metrics", "--plan", str(plan),
                  "--ref", str(tmp_path / "ref.obj")]):
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_INVALID
        payload = json.loads(out)
        assert payload["stage"] == "CONNECTIVITY"
        assert payload["reason"] == "Unplaceable"


def test_pipeline_scripted(capsys, tmp_path, response_text):
    """A run prints its verdicts, never the trajectory; with ``--catalog``
    an empty catalog is the one used, not the default, so the golden
    hammer names objects it lacks and stops at FORMAT."""
    responses = tmp_path / "responses"
    responses.mkdir()
    (responses / "01.txt").write_text(response_text("hammer_valid_1"))
    argv = ["pipeline", "--category", "hammer", "--responses", str(responses)]
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert '"trajectory"' not in out
    payload = json.loads(out)
    assert payload["status"] == "success"
    assert payload["llm_calls"] == 1
    assert payload["classification"] == "Success"
    catalog = tmp_path / "catalog.json"
    catalog.write_text('{"objects": []}')
    code, out = run_cli(capsys, *argv, "--policy", "NONE",
                        "--catalog", str(catalog))
    assert code == EXIT_INVALID
    payload = json.loads(out)
    assert payload["failure_stage"] == "FORMAT"
    assert payload["attempts"][-1]["reason"] == "UnknownObject"


def test_pipeline_needs_a_client(capsys):
    import pytest

    for client in ([], ["--endpoint", "http://localhost:1"]):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--category", "hammer", *client])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage:" in err
        for flag in ("--responses", "--endpoint", "--model"):
            assert flag in err


def test_pipeline_rejects_an_unknown_category(capsys, tmp_path,
                                              fixture_raw):
    """A misspelt category exits 2 before any call; a known one in any case
    runs its category's test, which the floating-wheel skateboard fails."""
    import pytest

    responses = tmp_path / "responses"
    responses.mkdir()
    (responses / "01.txt").write_text(fixture_raw("skateboard_floating"))
    argv = ["--responses", str(responses), "--policy", "NONE"]
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--category", "skatebord", *argv])
    assert exc.value.code == EXIT_USAGE
    assert "unknown category 'skatebord'" in capsys.readouterr().err
    code, out = run_cli(capsys, "pipeline", "--category", "Skateboard", *argv)
    assert code == EXIT_INVALID
    payload = json.loads(out)
    assert payload["failure_stage"] == "PHYSICS"
    assert payload["attempts"][-1]["reason"] == "NEW_GROUND_CONTACT"


def test_batch_resolves_responses_against_the_manifest_folder(
        capsys, tmp_path, fixture_raw, monkeypatch):
    folder = tmp_path / "jobs"
    (folder / "catresp").mkdir(parents=True)
    (folder / "catresp" / "01.txt").write_text(fixture_raw("hammer_valid_1"))
    manifest = folder / "manifest.json"
    manifest.write_text(json.dumps(
        [{"category": "hammer", "responses": "catresp"}]))
    out_csv = tmp_path / "out.csv"
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    for cwd, path in ((elsewhere, str(manifest)), (folder, "manifest.json"),
                      (tmp_path, "jobs/manifest.json")):
        monkeypatch.chdir(cwd)
        code, _ = run_cli(capsys, "batch", path, "--out", str(out_csv))
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
        assert rows == [{"category": "hammer", "attempts": "1",
                         "status": "success", "failure_stage": "NONE",
                         "failure_reason": ""}]
        out_csv.unlink()


def test_batch_csv(capsys, tmp_path, response_text):
    def resp_dir(name, *fixtures):
        d = tmp_path / name
        d.mkdir()
        for i, fx in enumerate(fixtures):
            (d / f"{i:02d}.txt").write_text(response_text(fx))
        return str(d)

    jobs = [
        {"category": "hammer",
         "responses": resp_dir("ok", "hammer_valid_1")},
        {"category": "hammer",
         "responses": resp_dir("fmt", "hammer_invalid_1", "hammer_invalid_2")},
        {"category": "bookshelf",
         "responses": resp_dir("col", "bookshelf_collision",
                               "bookshelf_collision")},
    ]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(jobs))
    out_csv = tmp_path / "out.csv"
    code, _ = run_cli(capsys, "batch", str(manifest), "--out", str(out_csv),
                      "--jobs", "2")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    assert len(rows) == 3
    assert rows[0]["status"] == "success"
    assert rows[1] == {"category": "hammer", "attempts": "2",
                       "status": "failed", "failure_stage": "FORMAT",
                       "failure_reason": "MissingField"}
    assert rows[2]["failure_stage"] == "COLLISION"


def test_batch_keeps_every_row_past_a_deeply_nested_answer(capsys, tmp_path,
                                                          fixture_raw):
    """An answer of 600 nested arrays fails its job at FORMAT, and the other
    job's row is written too."""
    jobs = []
    for name, text in (("deep", "[" * 600 + "]" * 600),
                       ("ok", fixture_raw("hammer_valid_1"))):
        d = tmp_path / name
        d.mkdir()
        (d / "01.txt").write_text(text)
        jobs.append({"category": "hammer", "responses": str(d)})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(jobs))
    out_csv = tmp_path / "out.csv"
    code, _ = run_cli(capsys, "batch", str(manifest), "--out", str(out_csv),
                      "--policy", "NONE", "--jobs", "2")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    assert rows == [
        {"category": "hammer", "attempts": "1", "status": "failed",
         "failure_stage": "FORMAT", "failure_reason": "JsonSyntaxError"},
        {"category": "hammer", "attempts": "1", "status": "success",
         "failure_stage": "NONE", "failure_reason": ""}]


def test_validate_deeply_nested_json(caplog, capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 600 + "]" * 600)
    code, out = run_cli(capsys, "validate", str(deep))
    assert code == EXIT_INVALID
    assert json.loads(out)["details"]["errors"][0]["code"] == "JsonSyntaxError"
    assert "Traceback" not in caplog.text


def test_batch_rejects_fewer_than_one_job(tmp_path):
    import pytest

    manifest = tmp_path / "manifest.json"
    manifest.write_text("[]")
    for jobs in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["batch", str(manifest), "--jobs", jobs])
        assert exc.value.code == EXIT_USAGE


def test_batch_survives_an_exhausted_client(capsys, tmp_path, response_text):
    jobs = []
    for name, fixtures in (("ok", ["hammer_valid_1"]),
                           ("short", ["hammer_invalid_1"])):
        d = tmp_path / name
        d.mkdir()
        for i, fx in enumerate(fixtures):
            (d / f"{i:02d}.txt").write_text(response_text(fx))
        jobs.append({"category": "hammer", "responses": str(d)})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(jobs))
    out_csv = tmp_path / "out.csv"
    code, _ = run_cli(capsys, "batch", str(manifest), "--out", str(out_csv),
                      "--policy", "FEEDBACK", "--jobs", "2")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    assert [r["status"] for r in rows] == ["success", "failed"]
    assert rows[1] == {"category": "hammer", "attempts": "1",
                       "status": "failed", "failure_stage": "CLIENT",
                       "failure_reason": "ClientError"}


def test_batch_rejects_a_malformed_manifest(caplog, tmp_path):
    """Each bad manifest exits 2 before any job runs, names the job, and
    writes no CSV."""
    responses = tmp_path / "responses"
    responses.mkdir()
    good = {"category": "hammer", "responses": str(responses)}
    cases = [
        ({"category": "hammer", "responses": []}, "manifest:"),
        ([good, {"category": "hammer"}], "job 1: responses"),
        (["hammer"], "job 0: must be an object"),
        ([{"category": 3, "responses": []}], "job 0: category"),
        ([good, {"category": "skatebord", "responses": []}],
         "job 1: unknown category 'skatebord'"),
        ([good, good, {"category": "hammer", "responses": ["x", 1]}],
         "job 2: responses"),
        ([{"category": "hammer", "responses": str(tmp_path / "absent")}],
         "job 0: responses directory"),
    ]
    manifest = tmp_path / "manifest.json"
    out_csv = tmp_path / "out.csv"
    for jobs, message in cases:
        manifest.write_text(json.dumps(jobs))
        caplog.clear()
        code = main(["batch", str(manifest), "--out", str(out_csv)])
        assert code == EXIT_USAGE
        assert message in caplog.text
        assert not out_csv.exists()


NOT_UTF8 = b"\xff\xfe[]"  # a UTF-16 byte-order mark before a JSON list


def test_validate_rejects_a_plan_that_is_not_utf8(caplog, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_bytes(NOT_UTF8)
    assert main(["validate", str(plan)]) == EXIT_USAGE
    assert str(plan) in caplog.text


def test_batch_rejects_a_manifest_that_is_not_utf8(caplog, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(NOT_UTF8)
    out_csv = tmp_path / "out.csv"
    assert main(["batch", str(manifest), "--out", str(out_csv)]) == EXIT_USAGE
    assert str(manifest) in caplog.text
    assert not out_csv.exists()


def test_batch_rejects_a_response_file_that_is_not_utf8(caplog, tmp_path,
                                                         fixture_raw):
    good, bad = tmp_path / "good", tmp_path / "bad"
    good.mkdir()
    bad.mkdir()
    (good / "01.json").write_text(fixture_raw("hammer_valid_1"))
    (bad / "01.json").write_bytes(NOT_UTF8)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"category": "hammer", "responses": "good"},
        {"category": "hammer", "responses": "bad"}]))
    out_csv = tmp_path / "out.csv"
    code = main(["batch", str(manifest), "--out", str(out_csv), "--jobs", "2"])
    assert code == EXIT_USAGE
    assert str(bad / "01.json") in caplog.text


def test_validate_with_a_missing_catalog_is_an_io_error(caplog, plan_path,
                                                        tmp_path):
    catalog = tmp_path / "absent.json"
    code = main(["validate", str(plan_path("hammer_valid_1")),
                 "--catalog", str(catalog)])
    assert code == EXIT_USAGE
    assert str(catalog) in caplog.text


def test_validate_rejects_a_catalog_that_is_not_utf8(caplog, plan_path,
                                                     tmp_path):
    catalog = tmp_path / "catalog.json"
    catalog.write_bytes(NOT_UTF8)
    code = main(["validate", str(plan_path("hammer_valid_1")),
                 "--catalog", str(catalog)])
    assert code == EXIT_USAGE
    assert str(catalog) in caplog.text


def test_validate_rejects_catalog_dims_that_are_not_numbers(caplog, plan_path,
                                                            tmp_path):
    """So is a catalog whose objects are not a list: each is a named
    error, exit 1, with no traceback."""
    catalog = tmp_path / "catalog.json"
    for objects, named in (
            ([{"id": "CUBOID_BAD", "shape": "CUBOID", "dims": "abc"}],
             "CUBOID_BAD"),
            (5, '{"objects": [...]}')):
        catalog.write_text(json.dumps({"objects": objects}))
        caplog.clear()
        code = main(["validate", str(plan_path("hammer_valid_1")),
                     "--catalog", str(catalog)])
        assert code == EXIT_INVALID
        assert "ParseError" in caplog.text and named in caplog.text
        assert "Traceback" not in caplog.text


@pytest.mark.parametrize("object_id", ["cuboid_100x100x100",
                                       "cuboid-100x100x100"])
def test_validate_finds_catalog_ids_that_are_not_canonical(capsys, tmp_path,
                                                           object_id):
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"objects": [
        {"id": object_id, "shape": "CUBOID", "dims": [100, 100, 100]}]}))
    plan = tmp_path / "plan.json"
    # the plan names the id as the catalog spells it, then canonically
    for token in (object_id, "CUBOID_100X100X100"):
        plan.write_text(json.dumps([{
            "Name": "BLOCK_1", "Available_obj": token,
            "Orientation": [100, 100, 100], "Modifications": [],
            "Connections": [], "exec_function": False}]))
        code, out = run_cli(capsys, "validate", str(plan),
                            "--catalog", str(catalog))
        assert json.loads(out) == PASSED
        assert code == EXIT_OK


def test_metrics_on_a_face_less_obj_is_a_usage_error(caplog, capsys,
                                                     tmp_path):
    obj = tmp_path / "noface.obj"
    obj.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
    code = main(["metrics", "--pred", str(obj), "--ref", str(obj)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert f"{obj}: no faces" in caplog.text


@pytest.mark.parametrize("body,detail", [
    (FLAT, "all triangles degenerate"), (POINT, "point set has zero extent"),
], ids=["collinear", "coincident"])
def test_metrics_on_a_degenerate_prediction_obj_is_a_usage_error(
        caplog, capsys, plan_path, tmp_path, body, detail):
    pred = tmp_path / "pred.obj"
    pred.write_text(body)
    ref = tmp_path / "ref.obj"
    assert main(["build", str(plan_path("hammer_valid_1")),
                 "--obj", str(ref)]) == EXIT_OK
    capsys.readouterr()
    code = main(["metrics", "--pred", str(pred), "--ref", str(ref),
                 "--samples", "200"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert f"{pred}: {detail}" in caplog.text


def test_a_batch_judges_each_distinct_plan_once_per_test(
        capsys, tmp_path, fixture_raw, monkeypatch):
    import threading

    from craftkit import cli, orchestrator

    hammer = fixture_raw("hammer_valid_1")
    shelf = fixture_raw("bookshelf_collision")
    jobs = [
        {"category": "hammer", "responses": [hammer]},
        {"category": "hammer", "responses": [respelled(hammer)]},
        {"category": "bookshelf", "responses": [shelf, shelf]},
        # table runs the same support test as bookshelf
        {"category": "table", "responses": [fenced(shelf)] * 2},
        # a hammer runs the hit test, so the shelf is judged again
        {"category": "hammer", "responses": [respelled(shelf)] * 2},
    ]
    simulated, collided, results = [], [], []
    second_parsed = threading.Event()
    check_format = orchestrator.check_format
    run_functional_test = orchestrator.run_functional_test
    validate_collisions = orchestrator.validate_collisions
    run_pipeline = cli.run_pipeline

    def checking(raw, catalog):
        parsed = check_format(raw, catalog)
        if raw == jobs[1]["responses"][0]:
            second_parsed.set()
        return parsed

    def simulating(functional, *args):
        # the first hammer is judged only once the second job holds the
        # same plan, so that job meets a verdict still being made
        assert second_parsed.wait(60)
        simulated.append(functional)
        return run_functional_test(functional, *args)

    def colliding(assembly):
        report = validate_collisions(assembly)
        collided.append(report.ok)
        return report

    def pipeline(*args, **kwargs):
        result = run_pipeline(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(orchestrator, "check_format", checking)
    monkeypatch.setattr(orchestrator, "run_functional_test", simulating)
    monkeypatch.setattr(orchestrator, "validate_collisions", colliding)
    monkeypatch.setattr(cli, "run_pipeline", pipeline)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(jobs))
    out_csv = tmp_path / "out.csv"
    code, _ = run_cli(capsys, "batch", str(manifest), "--out", str(out_csv),
                      "--jobs", "2")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    assert [(r["status"], r["failure_stage"], r["attempts"]) for r in rows] \
        == [("success", "NONE", "1"), ("success", "NONE", "1"),
            ("failed", "COLLISION", "2"), ("failed", "COLLISION", "2"),
            ("failed", "COLLISION", "2")]
    # one hit for the hammer; the shelf collides once per test
    assert simulated == ["hit"]
    assert sorted(collided) == [False, False, True]
    verdicts = [a.verdict for r in results for a in r.attempts]
    assert len(verdicts) == 8
    assert len({id(v) for v in verdicts}) == len(verdicts)


def _hammer_and_table_batch(capsys, tmp_path, fixture_raw):
    """A function that runs ``hammer_valid_1`` and ``table_valid_1`` as a
    two-worker batch into the CSV ``name`` and returns the exit code and
    the CSV's lines."""
    jobs = [{"category": "hammer", "responses": [fixture_raw(
                "hammer_valid_1")]},
            {"category": "table", "responses": [fixture_raw(
                "table_valid_1")]}]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(jobs))

    def batch(name):
        out = tmp_path / name
        code, _ = run_cli(capsys, "batch", str(manifest), "--out", str(out),
                          "--jobs", "2")
        return code, out.read_bytes().splitlines()

    return batch


def test_a_judgement_that_raises_costs_its_row_not_the_batch(
        capsys, tmp_path, fixture_raw, monkeypatch):
    """With the hit test raising, a two-worker batch still writes every
    row: the hammer's at stage INTERNAL, the table's byte for byte a clean
    run's, and the batch exits 1."""
    from craftkit import orchestrator

    batch = _hammer_and_table_batch(capsys, tmp_path, fixture_raw)
    clean_code, clean = batch("clean.csv")
    run_functional_test = orchestrator.run_functional_test

    def raising(kind, *args):
        if kind == "hit":
            return 1 / 0
        return run_functional_test(kind, *args)

    monkeypatch.setattr(orchestrator, "run_functional_test", raising)
    code, rows = batch("broken.csv")
    assert (clean_code, code) == (EXIT_OK, EXIT_INVALID)
    assert len(rows) == len(clean) == 3
    assert rows[1] == b"hammer,1,failed,INTERNAL,ZeroDivisionError"
    assert [rows[0], rows[2]] == [clean[0], clean[2]]
    assert clean[2] == b"table,1,success,NONE,"


def test_a_format_check_that_raises_costs_its_row_not_the_batch(
        capsys, tmp_path, fixture_raw, monkeypatch):
    """With ``parse_plan`` raising on the hammer's answer, a two-worker
    batch still writes every row: the hammer's at stage INTERNAL with the
    exception's type as its reason, the table's byte for byte a clean
    run's, and the batch exits 1."""
    from craftkit import orchestrator

    batch = _hammer_and_table_batch(capsys, tmp_path, fixture_raw)
    clean_code, clean = batch("clean.csv")
    parse_plan = orchestrator.parse_plan

    def raising(normalized, catalog):
        if "HANDLE_1" in json.dumps(normalized):
            return 1 / 0
        return parse_plan(normalized, catalog)

    monkeypatch.setattr(orchestrator, "parse_plan", raising)
    code, rows = batch("broken.csv")
    assert (clean_code, code) == (EXIT_OK, EXIT_INVALID)
    assert len(rows) == len(clean) == 3
    assert rows[1] == b"hammer,1,failed,INTERNAL,ZeroDivisionError"
    assert [rows[0], rows[2]] == [clean[0], clean[2]]


def test_batch_csv_is_the_same_with_or_without_a_shared_memo(
        capsys, tmp_path, monkeypatch):
    from craftkit import cli

    jobs = pins.batch_jobs()
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(jobs))
    run_pipeline = cli.run_pipeline
    results = []

    def batch(name, workers, share=True):
        def pipeline(category, client, **kwargs):
            if not share:
                kwargs.pop("verdicts", None)
            result = run_pipeline(category, client, **kwargs)
            results.append(result.to_dict())
            return result

        monkeypatch.setattr(cli, "run_pipeline", pipeline)
        out = tmp_path / name
        code, _ = run_cli(capsys, "batch", str(manifest), "--out", str(out),
                          "--jobs", workers)
        assert code == EXIT_OK
        return out.read_bytes()

    alone = batch("alone.csv", "1", share=False)
    alone_results, results[:] = results[:], []
    assert batch("jobs1.csv", "1") == alone
    assert results == alone_results
    assert batch("jobs2.csv", "2") == alone
    assert len(alone.splitlines()) == 1 + len(jobs)
