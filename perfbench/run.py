#!/usr/bin/env python3
"""craftkit benchmark: time to verdict and verdict throughput.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process, from the root of a craftkit checkout,
and prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload all``
runs every workload, each in its own process.  See README.md.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sim_support", "sim_rolling", "batch_feedback", "screen_score")
END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args):
    """Every workload in its own process, one result line each."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"{name} {lines[-1] if lines else '{}'}", flush=True)
        ok = ok and proc.returncode == 0
    return 0 if ok else 1


def peak_rss_mb():
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def untraced_result(workload, seed):
    path = OUT / f"result-{workload}-seed{seed}-trace0.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "craftkit" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "fixtures" / "plans").is_dir():
        print("perfbench: src/craftkit or tests/fixtures/plans is missing; "
              "run from the root of a craftkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import spans
    import workloads

    import_s = time.perf_counter() - START
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(workloads.ck)

    workload = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_s = []
        for _ in range(workloads.SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workload.setup(args.seed, workdir, tracer)
            setup_s.append(time.perf_counter() - t0)
        timed = workload.run(state, args.seconds, tracer)
        rss_mb = peak_rss_mb()  # before the checks, which are not the program
        attempted, failed = workload.check(state, timed)
        if tracer is not None:
            kept = len(tracer.spans)
            probe_batch = workloads.layer_probe(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = {
        "verdicts_per_s": workload.verdicts(state, timed) / timed.seconds,
        "verdict_s_p50": statistics.median(timed.latencies),
        "peak_rss_mb": rss_mb,
        "setup_s": import_s + statistics.median(setup_s),
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end.items()}
    else:
        tracer.uninstall()
        layers = spans.layer_metrics(tracer.spans[:kept], timed.rounds,
                                     timed.batch, tracer.spans[kept:],
                                     probe_batch)
        metrics = {k: {"value": v, "unit": spans.UNITS[k]}
                   for k, v in layers.items()}
        extra = {"workload": args.workload, "seed": args.seed,
                 "traced_end_to_end": end_to_end,
                 "probe_spans": len(tracer.spans) - kept}
        base = untraced_result(args.workload, args.seed)
        if base is not None:
            before = base["metrics"]["verdicts_per_s"]["value"]
            extra["overhead_pct"] = 100.0 * (
                before / end_to_end["verdicts_per_s"] - 1.0)
            print(f"tracing overhead on verdicts_per_s: "
                  f"{extra['overhead_pct']:.2f}%", file=sys.stderr)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     extra)

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
