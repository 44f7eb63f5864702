"""Shared machinery for the IEP benchmarks (Tables VII-IX, Figs 4-5).

Section V-C protocol: randomly select one event, apply the atomic operation
(eta decrease / xi increase / time change), repeat 50 times from the same
original plan, and report the average utility, time, and memory.  The same
drawn operations are replayed through Re-Greedy and Re-GAP for the utility
comparison columns.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.baselines import RerunBaseline
from repro.core.constraints import check_plan
from repro.core.gepc import GAPBasedSolver, GreedySolver
from repro.core.iep import IEPEngine
from repro.platform.stream import OperationStream

from conftest import timed_memory_call

#: Repetitions per experiment ("50 times" in the paper; reduced under quick).
PAPER_REPS = 50
QUICK_REPS = 10


def reps_for(scale: str) -> int:
    return PAPER_REPS if scale == "paper" else QUICK_REPS


def draw_operation(kind: str, stream: OperationStream, instance, plan):
    """One random atomic operation of the requested kind (or None)."""
    if kind == "eta_de":
        return stream.eta_decrease(instance, plan)
    if kind == "xi_in":
        return stream.xi_increase(instance, plan)
    if kind == "ts_tt":
        return stream.time_change(instance)
    raise ValueError(f"unknown IEP experiment kind {kind!r}")


@dataclass
class IEPAverages:
    """Averaged measurements over the repetitions."""

    utility: float
    seconds: float
    memory_mb: float
    dif: float
    operations: list


def run_incremental(kind, instance, plan, reps, seed=0) -> IEPAverages:
    """Apply ``reps`` random operations of ``kind`` incrementally, each to a
    fresh copy of the original plan, and average the measurements."""
    stream = OperationStream(seed=seed)
    engine = IEPEngine()
    utilities, times, memories, difs, operations = [], [], [], [], []
    attempts = 0
    while len(operations) < reps and attempts < reps * 10:
        attempts += 1
        operation = draw_operation(kind, stream, instance, plan)
        if operation is None:
            continue
        # Copy outside the measured call: the paper times the repair,
        # not an O(n * m) snapshot of the state it starts from.
        copy = instance.copy()
        start = plan.rebound_to(copy)
        result, seconds, memory = timed_memory_call(
            lambda op=operation: engine.apply_in_place(copy, start, op)
        )
        assert not check_plan(result.instance, result.plan), operation
        operations.append(operation)
        utilities.append(result.utility)
        times.append(seconds)
        memories.append(memory)
        difs.append(result.dif)
    return IEPAverages(
        utility=statistics.mean(utilities),
        seconds=statistics.mean(times),
        memory_mb=statistics.mean(memories),
        dif=statistics.mean(difs),
        operations=operations,
    )


def rerun_utilities(operations, instance, plan, solver) -> tuple[float, float]:
    """Average (utility, dif) of re-solving from scratch per operation."""
    baseline = RerunBaseline(solver)
    outcomes = [
        baseline.apply(instance, plan, operation)
        for operation in operations
    ]
    return (
        statistics.mean(outcome.utility for outcome in outcomes),
        statistics.mean(outcome.dif for outcome in outcomes),
    )


def make_re_greedy():
    return GreedySolver(seed=1)


def make_re_gap():
    return GAPBasedSolver(backend="scipy")
