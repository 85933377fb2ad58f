"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit-paper --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
table. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every output check passed. The program under test is the
``repro`` package in the checkout's ``src/``; without it the run stops
with exit code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Workload name → module of this package that runs it.
WORKLOADS = {
    "fit-paper": "fit_paper",
    "insitu-md": "insitu_md",
    "serve-fleet": "serve_fleet",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    # The checkout's own sources, ahead of anything installed.
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)

    from perfbench.common import CheckFailed, host_fingerprint

    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    print("# host " + json.dumps(host_fingerprint(), sort_keys=True), flush=True)
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    for line in result.report:
        print(line)
    print(json.dumps(result.payload(bool(args.trace))), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
