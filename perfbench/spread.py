"""Run one workload over several seeds and print each metric's spread.

The spread is the distance between the first and third quartile of the
per-seed values, as a share of their median — the steadiness figure a
bound in ``BENCHMARK.json`` must stay well above::

    python3 perfbench/spread.py --workload iep-scale --seeds 10 --seconds 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent))

from perfbench.stats import quartile_spread  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)

    bounds = {
        metric["name"]: metric.get("bound")
        for metric in json.loads(
            (BENCH_DIR.parent / "BENCHMARK.json").read_text()
        )["end_to_end"]
    }
    values: dict[str, list[float]] = {}
    for seed in range(args.seeds):
        completed = subprocess.run(
            [
                sys.executable, str(BENCH_DIR / "run.py"),
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ],
            capture_output=True, text=True, timeout=900,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(completed.stdout, completed.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {completed.returncode}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        line = f"{name:32s} median {statistics.median(series):12.4f}"
        if len(series) >= 2 and statistics.median(series):
            spread = quartile_spread(series)
            bound = bounds.get(name)
            line += f"  spread {spread:.4f}"
            if bound:
                line += f"  (bound {bound}, spread/bound {spread / bound:.2f})"
        print(line)
        print("    " + " ".join(f"{value:.4g}" for value in series))
    return 0


if __name__ == "__main__":
    sys.exit(main())
