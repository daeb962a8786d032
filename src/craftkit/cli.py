"""Command line front end.

Every subcommand prints a JSON document on stdout and logs on stderr.
Exit codes: 0 success, 1 validation or simulation failure, 2 usage or
I/O errors, a file that is not UTF-8 or a malformed OBJ file included.
batch writes every row, with its failure_stage and failure_reason, and
exits 0, or 1 when any row is at stage INTERNAL, a judgement that raised.

validate runs the plan file through the pipeline's FORMAT stage,
``check_format``, alone.  The other plan commands (build, simulate,
metrics --plan) run it through ``evaluate_plan_text`` and print its
``Verdict`` dict and any assembly built, or metrics' scores for a pass.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .catalog import default_catalog, load_catalog, read_text
from .errors import CraftError, MalformedObj
from .orchestrator import (
    POLICIES,
    POLICY_FEEDBACK,
    STAGE_INTERNAL,
    STAGE_NONE,
    HttpClient,
    ScriptedClient,
    category_function,
    check_format,
    classify_failure,
    evaluate_plan_text,
    load_heuristics,
    run_pipeline,
)
from .physics.functional import TESTS, SimConfig

log = logging.getLogger("craftkit")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


def _emit(payload):
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _catalog(args):
    if args.catalog:
        return load_catalog(args.catalog)
    return default_catalog()


def _evaluate(args, functional=None, sim_config=None):
    """(verdict dict with any assembly, assembly, outcome) of ``args.plan``."""
    _, verdict, _, assembly, outcome = evaluate_plan_text(
        read_text(args.plan), _catalog(args), functional, sim_config)
    payload = verdict.to_dict()
    if assembly is not None:
        payload["assembly"] = assembly.to_jsonable()
    return payload, assembly, outcome


def cmd_validate(args):
    plan, verdict = check_format(read_text(args.plan), _catalog(args))
    _emit(verdict.to_dict())
    return EXIT_INVALID if plan is None else EXIT_OK


def cmd_build(args):
    payload, assembly, _ = _evaluate(args)
    if assembly is not None and args.obj:
        from .meshing import export_assembly_obj

        export_assembly_obj(assembly, args.obj)
        payload["obj"] = args.obj
        log.info("wrote %s", args.obj)
    _emit(payload)
    return EXIT_OK if payload["stage"] == STAGE_NONE else EXIT_INVALID


def cmd_simulate(args):
    config = SimConfig()
    if args.duration is not None:
        config.duration = args.duration
    payload, _, outcome = _evaluate(args, args.test, config)
    if outcome is not None and args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(outcome.trajectory, fh)
        payload["trace"] = args.trace
    _emit(payload)
    return EXIT_OK if payload["stage"] == STAGE_NONE else EXIT_INVALID


def cmd_metrics(args):
    from .metrics import compare_assembly_to_mesh, compare_meshes

    if args.plan:
        payload, assembly, _ = _evaluate(args)
        if payload["stage"] != STAGE_NONE:
            _emit(payload)
            return EXIT_INVALID
        result = compare_assembly_to_mesh(
            assembly, args.ref, n_samples=args.samples, seed=args.seed,
            threshold=args.threshold)
    else:
        result = compare_meshes(
            args.pred, args.ref, n_samples=args.samples, seed=args.seed,
            threshold=args.threshold)
    _emit(result.to_dict())
    return EXIT_OK


def _make_client(args):
    if args.responses:
        return ScriptedClient(args.responses)
    if args.endpoint and args.model:
        return HttpClient(args.endpoint, args.model, api_key=args.api_key)
    args.parser.error("a client is needed: --responses, or --endpoint "
                      "with --model")


def cmd_pipeline(args):
    catalog = _catalog(args)
    client = _make_client(args)
    result = run_pipeline(args.category, client, policy=args.policy,
                          catalog=catalog)
    payload = result.to_dict()
    payload["classification"] = classify_failure(result.failure_stage)
    _emit(payload)
    return EXIT_OK if result.status == "success" else EXIT_INVALID


def _responses(job, base):
    """A job's ``responses``: its list, or its directory, relative to the
    manifest's folder ``base`` unless absolute."""
    responses = job["responses"]
    return base / responses if isinstance(responses, str) else responses


def _manifest_error(jobs, base):
    """What keeps ``jobs`` from being a batch manifest, naming the job's
    index, or None: a manifest is a list of objects, each with a known
    ``category`` and, as ``responses``, a list of strings or the path of a
    directory of response files, relative to the manifest's folder
    ``base``."""
    if not isinstance(jobs, list):
        return "manifest: must be a JSON list of jobs"
    for index, job in enumerate(jobs):
        where = f"manifest job {index}"
        if not isinstance(job, dict):
            return f"{where}: must be an object with category and responses"
        category = job.get("category")
        if not isinstance(category, str):
            return f"{where}: category must be a string"
        if category_function(category) is None:
            return f"{where}: unknown category {category!r}"
        responses = job.get("responses")
        if isinstance(responses, str):
            if not _responses(job, base).is_dir():
                return f"{where}: responses directory {responses} not found"
        elif not (isinstance(responses, list)
                  and all(isinstance(r, str) for r in responses)):
            return (f"{where}: responses must be a list of strings or a "
                    f"directory")
    return None


def _batch_job(job, policy, catalog, base, verdicts):
    client = ScriptedClient(_responses(job, base))
    result = run_pipeline(job["category"], client, policy=policy,
                          catalog=catalog, verdicts=verdicts)
    return {
        "category": job["category"],
        "attempts": result.llm_calls,
        "status": result.status,
        "failure_stage": result.failure_stage,
        "failure_reason": result.attempts[-1].verdict.reason,
    }


def cmd_batch(args):
    catalog = _catalog(args)
    jobs = json.loads(read_text(args.manifest))
    base = Path(args.manifest).parent
    error = _manifest_error(jobs, base)
    if error is not None:
        log.error("%s", error)
        return EXIT_USAGE
    # one memo for the whole batch: each distinct plan is judged once per
    # functional test, whichever job meets it first
    verdicts = {}
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        rows = list(pool.map(
            lambda j: _batch_job(j, args.policy, catalog, base, verdicts),
            jobs))
    out = open(args.out, "w", newline="", encoding="utf-8") \
        if args.out else sys.stdout
    try:
        writer = csv.DictWriter(
            out, fieldnames=["category", "attempts", "status",
                             "failure_stage", "failure_reason"])
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    failed = sum(1 for r in rows if r["status"] != "success")
    internal = sum(1 for r in rows if r["failure_stage"] == STAGE_INTERNAL)
    log.info("batch: %d jobs, %d failed", len(rows), failed)
    if internal:
        log.error("batch: %d jobs hit an internal error", internal)
        return EXIT_INVALID
    return EXIT_OK


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _positive_float(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value}")
    return value


def _category(text):
    if category_function(text) is None:
        raise argparse.ArgumentTypeError(
            f"unknown category {text!r}; known: "
            f"{', '.join(sorted(load_heuristics()))}")
    return text


def _duration(text):
    value = _positive_float(text)
    step = SimConfig.timestep
    if value < step:
        raise argparse.ArgumentTypeError(
            f"must be at least one timestep ({step} s), got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="craftkit",
        description="Validate, build, simulate, and score assembly plans.")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="format-validate a plan file")
    p.add_argument("plan")
    p.add_argument("--catalog")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build", help="place parts and run position checks")
    p.add_argument("plan")
    p.add_argument("--catalog")
    p.add_argument("--obj", help="export the assembly as an OBJ mesh")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("simulate", help="run a functional simulation test")
    p.add_argument("plan")
    p.add_argument("--test", required=True,
                   choices=list(TESTS))
    p.add_argument("--catalog")
    p.add_argument("--duration", type=_duration,
                   help="simulated seconds, at least one timestep "
                        f"({SimConfig.timestep} s)")
    p.add_argument("--trace", help="write the trajectory to this file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("metrics", help="visual similarity against a mesh")
    pred = p.add_mutually_exclusive_group(required=True)
    pred.add_argument("--plan", help="plan file; built then compared")
    pred.add_argument("--pred", help="prediction OBJ (alternative to --plan)")
    p.add_argument("--ref", required=True, help="reference OBJ")
    p.add_argument("--catalog")
    p.add_argument("--samples", type=_positive_int, default=20000,
                   help="surface samples per shape, at least 1")
    p.add_argument("--seed", type=_non_negative_int, default=0,
                   help="sampling seed, at least 0")
    p.add_argument("--threshold", type=_positive_float, default=0.1,
                   help="F-score distance threshold, more than 0")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("pipeline", help="prompt a client and validate")
    p.add_argument("--category", required=True, type=_category,
                   help="a category of heuristics.json, in any case")
    p.add_argument("--policy", default=POLICY_FEEDBACK, choices=POLICIES)
    p.add_argument("--responses",
                   help="directory of canned responses (scripted client)")
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--api-key")
    p.add_argument("--catalog")
    p.set_defaults(func=cmd_pipeline, parser=p)

    p = sub.add_parser("batch", help="run many scripted pipelines, CSV out")
    p.add_argument("manifest",
                   help="JSON list of {category, responses} jobs")
    p.add_argument("--policy", default=POLICY_FEEDBACK, choices=POLICIES)
    p.add_argument("--jobs", type=_positive_int, default=4,
                   help="worker threads, at least 1")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.add_argument("--catalog")
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError,
            MalformedObj) as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except CraftError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
