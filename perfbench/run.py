"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload iep-scale --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  Human-readable notes go first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness, metrics
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        outcome = harness.run_traced(workload, args.seconds)
        units = metrics.PER_LAYER
    else:
        outcome = harness.run_untraced(workload, args.seconds)
        units = metrics.END_TO_END
    for note in outcome.notes:
        print(note)
    print(json.dumps(outcome.as_json(units)), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
