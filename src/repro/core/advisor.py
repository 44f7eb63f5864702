"""Organiser advisor: rank hypothetical changes by predicted disruption.

IEP answers "the time changed — repair the plan"; organisers usually face
the *prior* question: "I must move my event — **which** new time hurts
least?".  The advisor answers it by dry-running candidate operations
through the IEP engine (the functional ``apply`` works on copies, so a
dry run is just an ``apply`` whose result is discarded) and ranking the
outcomes by negative impact, then utility.

The same mechanism generalises to any atomic operation via
:func:`predict_impact`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.iep.engine import IEPEngine
from repro.core.iep.operations import AtomicOperation, TimeChange
from repro.core.model import Instance
from repro.core.plan import GlobalPlan
from repro.timeline.interval import Interval


@dataclass(frozen=True)
class Prediction:
    """The forecast effect of one hypothetical operation."""

    operation: AtomicOperation
    dif: int
    utility: float

    def better_than(self, other: "Prediction") -> bool:
        """Less disruption first; utility breaks ties."""
        return (self.dif, -self.utility) < (other.dif, -other.utility)


def predict_impact(
    instance: Instance,
    plan: GlobalPlan,
    operation: AtomicOperation,
) -> Prediction:
    """Dry-run ``operation`` and report its dif and resulting utility."""
    result = IEPEngine().apply(instance, plan, operation)
    return Prediction(
        operation=operation, dif=result.dif, utility=result.utility
    )


def suggest_time_slots(
    instance: Instance,
    plan: GlobalPlan,
    event: int,
    n_candidates: int = 12,
) -> list[Prediction]:
    """Ranked candidate new times for ``event`` (least disruptive first).

    Candidates are the event's duration slid across the horizon on an even
    grid (the current slot is excluded).  Each is evaluated with a full
    IEP dry run, so the ranking accounts for conflicts, budgets, bound
    repairs, and refills — not just interval overlaps.
    """
    if n_candidates < 1:
        raise ValueError("need at least one candidate slot")
    spec = instance.events[event]
    duration = spec.interval.duration
    horizon_start = min((e.start for e in instance.events), default=0.0)
    horizon_end = max((e.end for e in instance.events), default=24.0)
    latest_start = max(horizon_end - duration, horizon_start + 1e-6)

    predictions = []
    for k in range(n_candidates):
        start = horizon_start + (latest_start - horizon_start) * k / max(
            n_candidates - 1, 1
        )
        candidate = Interval(start, start + duration)
        if candidate == spec.interval:
            continue
        predictions.append(
            predict_impact(instance, plan, TimeChange(event, candidate))
        )
    predictions.sort(key=lambda p: (p.dif, -p.utility))
    return predictions


def best_time_change(
    instance: Instance,
    plan: GlobalPlan,
    event: int,
    n_candidates: int = 12,
) -> Prediction | None:
    """The least-disruptive new time for ``event`` (or None if no slot
    differs from the current one)."""
    ranked = suggest_time_slots(instance, plan, event, n_candidates)
    return ranked[0] if ranked else None
