"""Run one workload untraced (end-to-end metrics) or traced (per layer).

Untraced: set up :data:`SETUPS` times (``setup_s`` is their median),
measure steps for ``seconds`` with the host-speed probe run between
them, then check the outputs.  Step times are reported as multiples of
the probe's median time (see :mod:`perfbench.probe`).

Traced: measure an untraced pass for half of ``seconds``, then install
the wrappers, set up again and replay exactly as many steps (the inputs
are the same: they are drawn from the seed and the program is
deterministic).  The wrappers are removed before the metrics are
computed; ``trace.overhead_share`` compares the two passes.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any

from repro.bench.memory import peak_rss_mib

from perfbench import metrics, stats
from perfbench.probe import Probe
from perfbench.tracing import Tracer, installed, leaked_wrappers
from perfbench.workloads import StepResult, Workload

#: A set-up takes about a second and varies by about 10% from one to the
#: next on a shared host; the median of nine keeps ``setup_s`` steady.
SETUPS = 9


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)

    def as_json(self, units: dict[str, str]) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics.as_output(self.metrics, units),
        }


def measure(
    workload: Workload,
    state: Any,
    tracer: Tracer,
    seconds: float | None = None,
    steps: int | None = None,
    after_step: Callable[[], None] | None = None,
    probe: Probe | None = None,
) -> list[StepResult]:
    """Steps until ``seconds`` have passed or ``steps`` were taken.

    With a ``probe``, it runs once before the first step and then
    between steps, outside their timed windows.
    """
    results: list[StepResult] = []
    gc.collect()
    workload.begin(state)
    if probe is not None:
        probe.run()
    start = time.perf_counter()
    while (steps is None or len(results) < steps) and (
        seconds is None or time.perf_counter() - start < seconds
    ):
        result = workload.step(state, len(results), tracer)
        if result is None:
            break
        results.append(result)
        if after_step is not None:
            after_step()
        if probe is not None:
            probe.maybe_run()
    return results


def run_untraced(workload: Workload, seconds: float) -> Outcome:
    # No wrappers are installed, so this tracer only times windows.
    tracer = Tracer()
    probe = Probe()
    with workload.environment():
        workload.prepare(seconds)
        setup_seconds = []
        state = None
        for _ in range(SETUPS):
            if state is not None:
                workload.teardown(state)
                state = None
            gc.collect()
            start = time.perf_counter()
            state = workload.setup()
            setup_seconds.append(time.perf_counter() - start)
        try:
            results = measure(workload, state, tracer, seconds=seconds, probe=probe)
            peak = peak_rss_mib()
            observed = workload.finish(state, tracer)
        finally:
            workload.teardown(state)
    if not results:
        raise RuntimeError(f"{workload.name}: no step completed")
    unit = probe.median()
    throughput = sum(r.work for r in results) / sum(r.seconds for r in results)
    values = {
        "setup_s": statistics.median(setup_seconds),
        "step_p50_probes": (
            stats.nearest_rank(sorted(r.seconds for r in results), 0.5) / unit
        ),
        "throughput_per_probe": throughput * unit,
        "utility_vs_replan": observed["utility_vs_replan"],
        "peak_rss_mib": peak,
    }
    outcome = _outcome(workload, results, values, setup_seconds)
    outcome.notes.append(
        f"probe (ms, n={len(probe.seconds)}): median {unit * 1000:.3f}, "
        f"min {min(probe.seconds) * 1000:.3f}; "
        f"throughput {throughput:.3f} per s"
    )
    return outcome


def run_traced(workload: Workload, seconds: float) -> Outcome:
    tracer = Tracer()
    with workload.environment():
        workload.prepare(seconds)
        state = workload.setup()
        try:
            untraced = measure(workload, state, tracer, seconds=seconds / 2)
            workload.finish(state, tracer)
        finally:
            workload.teardown(state)
        step_self_times: list[dict[str, float]] = []
        totals: dict[str, float] = {}

        def attribute() -> None:
            now = tracer.self_times("run")
            step_self_times.append(
                {name: now[name] - totals.get(name, 0.0) for name in now}
            )
            totals.update(now)

        with installed(tracer):
            with tracer.window("setup"):
                state = workload.setup()
            try:
                traced = measure(
                    workload, state, tracer, steps=len(untraced),
                    after_step=attribute,
                )
                observed = workload.finish(state, tracer)
            finally:
                workload.teardown(state)
    leaks = leaked_wrappers()
    if leaks:
        workload.fail(f"wrappers left installed: {leaks}")
    observed["rejected"] = float(sum(r.rejected for r in traced))
    reads = sorted(s for r in untraced for s in r.read_seconds)
    if reads:
        observed["read_p50_ms"] = stats.nearest_rank(reads, 0.5) * 1000.0
    values = metrics.per_layer(
        tracer,
        steps=len(traced),
        traced_seconds=_window_seconds(traced),
        untraced_seconds=_window_seconds(untraced[: len(traced)]),
        observed=observed,
    )
    outcome = _outcome(workload, untraced + traced, values, [])
    outcome.notes += _tail_notes(traced, step_self_times)
    return outcome


def _tail_notes(
    results: list[StepResult], self_times: list[dict[str, float]]
) -> list[str]:
    """Where the traced steps at or above their p90 spend their time,
    next to the other steps: mean self time per step, top spans."""
    if len(results) < 10:
        return []
    cutoff = stats.nearest_rank(sorted(r.seconds for r in results), 0.9)
    groups: dict[bool, list[dict[str, float]]] = {True: [], False: []}
    for result, spans in zip(results, self_times):
        groups[result.seconds >= cutoff].append(spans)

    def means(group: list[dict[str, float]]) -> dict[str, float]:
        names = {name for spans in group for name in spans}
        return {
            name: 1000.0 * sum(s.get(name, 0.0) for s in group) / len(group)
            for name in names
        }

    tail, rest = means(groups[True]), means(groups[False])
    top = sorted(tail, key=tail.get, reverse=True)[:5]
    return [
        f"traced steps >= p90 ({cutoff * 1000:.1f} ms, n={len(groups[True])}),"
        " mean self ms per step (tail | others): "
        + ", ".join(f"{name} {tail[name]:.1f} | {rest.get(name, 0.0):.1f}" for name in top)
    ]


def _window_seconds(results: list[StepResult]) -> float:
    return sum(r.seconds + sum(r.read_seconds) for r in results)


def _outcome(
    workload: Workload,
    results: list[StepResult],
    values: dict[str, float],
    setup_seconds: list[float],
) -> Outcome:
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    if workload.problems:
        failed = attempted
    notes = [f"workload {workload.name} seed {workload.seed}: {len(results)} steps"]
    notes += _latency_notes("step", [r.seconds for r in results])
    notes += _latency_notes("read", [s for r in results for s in r.read_seconds])
    if setup_seconds:
        notes.append(
            "setups (s): " + ", ".join(f"{s:.3f}" for s in setup_seconds)
        )
    notes.append(
        f"applied {sum(r.work for r in results)}, "
        f"rejected {sum(r.rejected for r in results)}"
    )
    notes += [f"PROBLEM: {problem}" for problem in workload.problems[:20]]
    return Outcome(
        correct=not workload.problems and failed == 0 and attempted > 0,
        attempted=attempted,
        failed=failed,
        metrics=values,
        notes=notes,
    )


def _latency_notes(label: str, samples: list[float]) -> list[str]:
    """Median and every tail with ten samples beyond it, with the count."""
    if not samples:
        return []
    ordered = sorted(samples)
    parts = [f"p50 {stats.nearest_rank(ordered, 0.5) * 1000:.3f}"]
    for q in (0.9, 0.99):
        value = stats.tail(ordered, q)
        if value is not None:
            parts.append(f"p{round(q * 100)} {value * 1000:.3f}")
    return [f"{label} latency (ms, n={len(ordered)}): " + ", ".join(parts)]
