#!/usr/bin/env python3
"""CI gate: fail when a bench report regresses against the baseline.

Usage::

    python scripts/check_bench_regression.py bench_report.json \
        results/bench_baseline.json [--max-slowdown 2.5] \
        [--utility-rtol 1e-6] [--min-seconds 0.5]

Checks, per baseline entry (matched by ``solver`` name):

* **wall time** — fails when the measured time exceeds ``max-slowdown``
  times the baseline *and* the absolute floor ``min-seconds`` (tiny
  timings are pure noise on shared CI runners, so they are never gated).
* **utility** — fails when the relative drift exceeds the tolerance.
  A baseline entry may carry its own ``"utility_rtol"`` key to widen the
  tolerance for solvers whose backend is version-sensitive (the LP-based
  GAP solver); the CLI flag is the default for entries without one.
* **coverage** — a baseline solver missing from the report fails; extra
  report entries are reported but allowed (new benchmarks land before
  their baseline does).

Cross-entry gates (compare two entries of the *report*, so they hold on
any machine regardless of absolute baseline times):

* ``"min_speedup": {"vs": <entry>, "factor": F, "min_cores": C}`` —
  this entry's wall time must be at least ``F``x faster than entry
  ``vs`` in the same report.  Skipped when the report's ``cpu_count``
  is below ``min_cores``: a 1-core runner cannot show process-level
  parallelism and would only measure IPC overhead.
* ``"max_utility_gap_vs": {"vs": <entry>, "rtol": R}`` — this entry's
  utility may be at most ``R`` (relative) *below* entry ``vs``;
  exceeding it is allowed (one-sided: quality loss gates, gain doesn't).
* ``"equal_utility_vs": {"vs": <entry>}`` — this entry's utility must
  equal entry ``vs``'s **exactly** (bit-identical floats).  The two
  entries differ only in a pure performance knob (kernel strategy,
  worker count, the WAL, the wire), so any utility difference at all is
  a correctness bug, not drift.
* ``"max_latency_ratio_vs": {"vs": <entry>, "quantile": "p50",
  "factor": F}`` — this entry's ``latency_ms`` quantile may be at most
  ``F`` times entry ``vs``'s same quantile.  This is the WAL-overhead
  gate: durable submits (fsync'd write-ahead append + periodic
  snapshots) must stay within ``F``x of the in-memory submit path (see
  docs/durability.md).  ``min_ms`` (default 0.05) skips the gate when
  the reference quantile is below it — sub-tenth-millisecond baselines
  are timer noise, not signal.

Scale-soak gates (baseline-declared, applied to the fresh report's own
measured values — absolute, machine-calibrated with headroom):

* ``"max_latency_ms": {"p50": X, "p99": Y}`` — the entry's
  ``latency_ms`` percentiles may not exceed these budgets (p50 gates
  the enqueue fast path, p99 the coalesced flush boundary).
* ``"min_ops_per_sec": Z`` — end-to-end soak throughput floor.
* ``"max_peak_rss_mib": W`` — process peak-RSS ceiling; this is the
  memory-wall gate, so it is absolute rather than baseline-relative.
* ``"min_plane_compression": {"factor": F}`` — the entry's
  ``plane.compression`` (dense-equivalent plane MiB over peak resident
  tile MiB) must stay at least ``F``: the tiled backend's reason to
  exist.

Every run ends with one ``skipped gates:`` line naming each gate that
did not run on this report and why, so a gate that never fires is
visible.

Stdlib-only on purpose: CI runs it before (and independently of)
installing the package.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    document = json.loads(Path(path).read_text())
    if document.get("schema") != "repro.bench.report":
        raise SystemExit(f"{path}: not a repro.bench.report document")
    return document


def check(
    report: dict,
    baseline: dict,
    max_slowdown: float,
    utility_rtol: float,
    min_seconds: float,
    skipped: list[str] | None = None,
) -> list[str]:
    """All regression messages (empty means the gate passes).

    Gates that could not run on this report are appended to ``skipped``
    as ``"<entry> <gate> (<why>)"``.
    """
    if skipped is None:
        skipped = []
    problems: list[str] = []
    if report.get("schema_version") != baseline.get("schema_version"):
        problems.append(
            "schema_version mismatch: report "
            f"{report.get('schema_version')} vs baseline "
            f"{baseline.get('schema_version')} (regenerate the baseline)"
        )
        return problems
    for key in ("preset", "city", "scale", "seed"):
        if report.get(key) != baseline.get(key):
            problems.append(
                f"workload mismatch on {key!r}: report {report.get(key)!r} "
                f"vs baseline {baseline.get(key)!r}"
            )

    by_name = {entry["solver"]: entry for entry in report["entries"]}
    measured = dict(by_name)
    for expected in baseline["entries"]:
        name = expected["solver"]
        entry = measured.pop(name, None)
        if entry is None:
            problems.append(f"{name}: missing from report")
            continue
        problems.extend(
            _check_entry(
                name, entry, expected, max_slowdown, utility_rtol, min_seconds
            )
        )
        problems.extend(
            _check_cross_entry(name, entry, expected, by_name, report, skipped)
        )
    for name in measured:
        print(f"note: {name}: in report but not in baseline (allowed)")
    return problems


def _check_cross_entry(
    name: str,
    entry: dict,
    expected: dict,
    by_name: dict,
    report: dict,
    skipped: list[str],
) -> list[str]:
    """Report-internal speedup and utility-gap gates (baseline-declared)."""
    problems: list[str] = []

    speedup_spec = expected.get("min_speedup")
    if speedup_spec:
        other = by_name.get(speedup_spec["vs"])
        cores = int(report.get("cpu_count", 1))
        min_cores = int(speedup_spec.get("min_cores", 1))
        if other is None:
            problems.append(
                f"{name}: min_speedup reference "
                f"{speedup_spec['vs']!r} missing from report"
            )
        elif cores < min_cores:
            skipped.append(
                f"{name} min_speedup (cpu_count {cores} < min_cores {min_cores})"
            )
        else:
            factor = float(speedup_spec["factor"])
            wall = float(entry["wall_time_s"])
            reference = float(other["wall_time_s"])
            speedup = reference / wall if wall > 0 else float("inf")
            if speedup < factor:
                problems.append(
                    f"{name}: speedup vs {speedup_spec['vs']} is "
                    f"{speedup:.2f}x, below the required {factor:.2f}x "
                    f"({reference:.4f}s / {wall:.4f}s, "
                    f"cpu_count {cores})"
                )

    equal_spec = expected.get("equal_utility_vs")
    if equal_spec:
        other = by_name.get(equal_spec["vs"])
        if other is None:
            problems.append(
                f"{name}: equal_utility_vs reference "
                f"{equal_spec['vs']!r} missing from report"
            )
        else:
            utility = float(entry["utility"])
            reference = float(other["utility"])
            if utility != reference:
                problems.append(
                    f"{name}: utility {utility!r} != "
                    f"{equal_spec['vs']}'s {reference!r}; equal_utility_vs "
                    "requires bit-identical utilities"
                )

    ratio_spec = expected.get("max_latency_ratio_vs")
    if ratio_spec:
        other = by_name.get(ratio_spec["vs"])
        if other is None:
            problems.append(
                f"{name}: max_latency_ratio_vs reference "
                f"{ratio_spec['vs']!r} missing from report"
            )
        else:
            quantile = ratio_spec.get("quantile", "p50")
            factor = float(ratio_spec["factor"])
            min_ms = float(ratio_spec.get("min_ms", 0.05))
            value = (entry.get("latency_ms") or {}).get(quantile)
            reference = (other.get("latency_ms") or {}).get(quantile)
            if value is None or reference is None:
                problems.append(
                    f"{name}: latency_ms.{quantile} missing from "
                    f"report entry or its {ratio_spec['vs']!r} reference"
                )
            elif float(reference) < min_ms:
                skipped.append(
                    f"{name} max_latency_ratio_vs ({ratio_spec['vs']} "
                    f"{quantile} {float(reference):.4f}ms < {min_ms}ms floor)"
                )
            else:
                ratio = float(value) / float(reference)
                if ratio > factor:
                    problems.append(
                        f"{name}: latency {quantile} "
                        f"{float(value):.3f}ms is {ratio:.2f}x "
                        f"{ratio_spec['vs']}'s {float(reference):.3f}ms; "
                        f"allowed {factor:.2f}x"
                    )

    latency_spec = expected.get("max_latency_ms")
    if latency_spec:
        measured = entry.get("latency_ms") or {}
        for quantile in ("p50", "p99"):
            budget = latency_spec.get(quantile)
            if budget is None:
                continue
            value = measured.get(quantile)
            if value is None:
                problems.append(
                    f"{name}: latency_ms.{quantile} missing from report"
                )
            elif float(value) > float(budget):
                problems.append(
                    f"{name}: latency {quantile} {float(value):.1f}ms "
                    f"exceeds the {float(budget):.1f}ms budget"
                )

    ops_floor = expected.get("min_ops_per_sec")
    if ops_floor:
        value = float(entry.get("ops_per_sec", 0.0))
        if value < float(ops_floor):
            problems.append(
                f"{name}: throughput {value:.2f} ops/s below the "
                f"{float(ops_floor):.2f} ops/s floor"
            )

    rss_ceiling = expected.get("max_peak_rss_mib")
    if rss_ceiling:
        value = float(entry.get("peak_rss_mib", 0.0))
        if value > float(rss_ceiling):
            problems.append(
                f"{name}: peak RSS {value:.0f} MiB exceeds the "
                f"{float(rss_ceiling):.0f} MiB ceiling"
            )

    compression_spec = expected.get("min_plane_compression")
    if compression_spec:
        plane = entry.get("plane") or {}
        factor = float(compression_spec["factor"])
        value = float(plane.get("compression", 0.0))
        if value < factor:
            problems.append(
                f"{name}: distance-plane compression {value:.2f}x below "
                f"the required {factor:.2f}x "
                f"(dense-equiv {plane.get('dense_equiv_plane_mib')} MiB, "
                f"peak resident {plane.get('peak_resident_mib')} MiB)"
            )

    gap_spec = expected.get("max_utility_gap_vs")
    if gap_spec:
        other = by_name.get(gap_spec["vs"])
        if other is None:
            problems.append(
                f"{name}: max_utility_gap_vs reference "
                f"{gap_spec['vs']!r} missing from report"
            )
        else:
            rtol = float(gap_spec["rtol"])
            utility = float(entry["utility"])
            reference = float(other["utility"])
            gap = (reference - utility) / max(abs(reference), 1e-12)
            if gap > rtol:
                problems.append(
                    f"{name}: utility {utility:.6f} is "
                    f"{gap:.3%} below {gap_spec['vs']} "
                    f"({reference:.6f}); allowed {rtol:.1%}"
                )
    return problems


def _check_entry(
    name: str,
    entry: dict,
    expected: dict,
    max_slowdown: float,
    utility_rtol: float,
    min_seconds: float,
) -> list[str]:
    problems: list[str] = []

    wall = float(entry["wall_time_s"])
    wall_baseline = float(expected["wall_time_s"])
    allowed = max(max_slowdown * wall_baseline, min_seconds)
    if wall > allowed:
        problems.append(
            f"{name}: wall time regressed: {wall:.4f}s > "
            f"{allowed:.4f}s (baseline {wall_baseline:.4f}s "
            f"x {max_slowdown}, floor {min_seconds}s)"
        )

    utility = float(entry["utility"])
    utility_baseline = float(expected["utility"])
    rtol = float(expected.get("utility_rtol", utility_rtol))
    denominator = max(abs(utility_baseline), 1e-12)
    drift = abs(utility - utility_baseline) / denominator
    if drift > rtol:
        problems.append(
            f"{name}: utility drifted: {utility:.6f} vs baseline "
            f"{utility_baseline:.6f} (|rel| {drift:.3e} > rtol {rtol:.1e})"
        )
    return problems


def skipped_summary(skipped: list[str]) -> str:
    """The one-line summary every run ends with."""
    if not skipped:
        return "skipped gates: none"
    return f"skipped gates ({len(skipped)}): " + "; ".join(skipped)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="freshly generated bench_report.json")
    parser.add_argument(
        "baseline",
        nargs="?",
        default="results/bench_baseline.json",
        help="committed baseline (default: results/bench_baseline.json)",
    )
    parser.add_argument("--max-slowdown", type=float, default=2.5)
    parser.add_argument("--utility-rtol", type=float, default=1e-6)
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.5,
        help="never gate wall times whose allowance is under this floor",
    )
    args = parser.parse_args(argv)

    report = load(args.report)
    baseline = load(args.baseline)
    skipped: list[str] = []
    problems = check(
        report,
        baseline,
        max_slowdown=args.max_slowdown,
        utility_rtol=args.utility_rtol,
        min_seconds=args.min_seconds,
        skipped=skipped,
    )
    if problems:
        print("bench regression check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
    else:
        names = ", ".join(entry["solver"] for entry in baseline["entries"])
        print(f"bench regression check passed ({names})")
    print(skipped_summary(skipped))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
