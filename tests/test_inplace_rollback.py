"""In-place apply: an exception mid-repair rolls the live state back exactly.

For each of the nine operation kinds an exception is injected right after
the repair's first plan mutation.  The platform must re-raise it, count a
rejection and come back to its exact pre-operation state: plan lists in
order, route-cost floats, attendance, attendee sets, blocked rows, the
instance records and every built cache.  The durable platform marks the
operation rejected in its WAL, and recovery equals a twin that never saw
it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import plan as plan_module
from repro.core.gepc import GreedySolver
from repro.core.iep.engine import IEPEngine
from repro.core.plan import PlanSummary
from repro.datasets import MeetupConfig, generate_ebsn
from repro.platform import EBSNPlatform, OperationStream
from repro.platform.durable import WAL_FILENAME, DurablePlatform
from repro.platform.oplog import recover_wal

KINDS = [
    "eta_decrease", "xi_increase", "time_change", "location_change",
    "eta_increase", "xi_decrease", "new_event", "utility_change",
    "budget_change",
]


class Fault(ValueError):
    """The injected failure (a rejection, so the WAL marks it)."""


@contextmanager
def mutations(fail: bool):
    """Count plan mutations; with ``fail``, raise after the first one."""
    seen: list[str] = []

    def hook(plan, action, user, event):
        seen.append(action)
        if fail and len(seen) == 1:
            raise Fault(f"injected after {action}({user}, {event})")

    plan_module._MUTATION_HOOKS.append(hook)
    try:
        yield seen
    finally:
        plan_module._MUTATION_HOOKS.remove(hook)


def instance(kind: str):
    # Seats only matter once events fill up: EtaIncrease needs a crowd.
    n_users, n_events, seed = (80, 6, 0) if kind == "eta_increase" else (
        40, 10, 3
    )
    return generate_ebsn(
        MeetupConfig(
            n_users=n_users, n_events=n_events, n_groups=4,
            conflict_ratio=0.35, seed=seed,
        )
    )


def draw(kind: str, platform: EBSNPlatform):
    """An operation of ``kind`` whose repair mutates the plan."""
    stream = OperationStream(seed=11)
    engine = IEPEngine()
    for _ in range(300):
        method = getattr(stream, kind)
        if kind in ("eta_decrease", "xi_increase"):
            operation = method(platform.instance, platform.plan)
        else:
            operation = method(platform.instance)
        if operation is None:
            continue
        with mutations(fail=False) as seen:
            engine.apply(platform.instance, platform.plan, operation)
        if seen:
            return operation
    raise AssertionError(f"no {kind} with a mutating repair")


def exact_state(platform) -> dict:
    """Everything the rollback must restore, in comparable form."""
    plan, instance = platform.plan, platform.instance
    n, m = instance.n_users, instance.n_events
    distances = instance.distances
    return {
        "plans": [list(events) for _, events in plan],
        "costs": [plan.route_cost(u) for u in range(n)],
        "attendance": [plan.attendance(j) for j in range(m)],
        "attendees": [plan.attendees(j) for j in range(m)],
        "blocked": [plan.blocked_counts(u).tolist() for u in range(n)],
        "users": list(instance.users),
        "events": list(instance.events),
        "utility": instance.utility.tobytes(),
        "fees": instance.fee_vector.tobytes(),
        "user_event": distances.user_event_rows(np.arange(n)).tobytes(),
        "event_event": distances.event_event_matrix.tobytes(),
        "conflicts": [set(row) for row in instance.conflicts],
        "conflict_matrix": instance.conflict_matrix.tobytes(),
        "starts": instance.event_starts.tobytes(),
        "candidates": None if instance.candidate_index is None else [
            instance.candidate_index.candidate_users(j).tolist()
            for j in range(m)
        ],
    }


@pytest.mark.parametrize("kind", KINDS)
def test_fault_after_first_mutation_rolls_back_exactly(kind, tmp_path):
    twin = EBSNPlatform(instance(kind), solver=GreedySolver(seed=0))
    twin.publish_plans()
    operation = draw(kind, twin)

    directory = tmp_path / "state"
    durable = DurablePlatform(
        instance(kind), directory, solver=GreedySolver(seed=0), fsync=False
    )
    durable.publish_plans()
    before = exact_state(durable)
    with mutations(fail=True) as seen:
        with pytest.raises(Fault):
            durable.submit(operation)
    assert seen, "the fault never fired"
    assert exact_state(durable) == before
    assert durable._platform.rejected_count == 1
    assert durable.log == []
    durable.close()

    assert recover_wal(directory / WAL_FILENAME).rejected_seqs == {1}
    recovered, report = DurablePlatform.recover(directory, fsync=False)
    with recovered:
        assert report.ok and report.rejected_skipped == 1
        assert PlanSummary.of(recovered.plan) == PlanSummary.of(twin.plan)
        assert recovered.audit()["utility"] == twin.audit()["utility"]
        # Applied for real, the operation lands on the twin's state.
        entry = recovered.submit(operation)
        expected = twin.submit(operation)
        assert entry.dif == expected.dif
        assert entry.utility_after == expected.utility_after
        assert PlanSummary.of(recovered.plan) == PlanSummary.of(twin.plan)
