#!/usr/bin/env python3
"""Write the inputs a workload generates from a seed to a directory.

    python3 perfbench/make_inputs.py --workload NAME --seed N --out DIR

Each re-spelled plan goes to ``DIR/<fixture>.txt``; the batch manifest
(``manifest.json``) and the reference meshes (``<category>_valid_1.obj``)
are written where the workload makes them.  Run it from the root of a
craftkit checkout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    state = workloads.WORKLOADS[args.workload]().setup(args.seed, out, None)
    for item in state.get("items", ()):
        (out / f"{item['name']}.txt").write_text(item["raw"],
                                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
