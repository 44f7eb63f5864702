"""Malformed operations are rejections, never crashes or silent drops.

Every atomic operation's ``validate`` must raise ``ValueError`` before
anything is patched for ids that are not ints (``bool`` included) or out
of range, non-finite numbers, utilities outside ``[0, 1]``, and
``NewEvent`` bounds outside ``0 <= lower <= upper``.  At the platform that
is one counted rejection with the state untouched; in a batch the valid
operations around it still apply; over the wire it is a per-operation
rejection, not an ``internal`` error.
"""

from __future__ import annotations

import math

import pytest

from repro.core.gepc import GreedySolver
from repro.core.iep.operations import (
    BudgetChange,
    EtaDecrease,
    EtaIncrease,
    LocationChange,
    NewEvent,
    TimeChange,
    UtilityChange,
    XiDecrease,
    XiIncrease,
)
from repro.core.plan import PlanSummary
from repro.datasets import MeetupConfig, generate_ebsn
from repro.geo.point import Point
from repro.platform import EBSNPlatform
from repro.platform.durable import WAL_FILENAME, DurablePlatform
from repro.platform.oplog import recover_wal
from repro.scale import BatchedPlatform
from repro.service import ServiceClient, ServiceThread
from repro.timeline.interval import Interval

NAN = math.nan
INF = math.inf
N_USERS = 12
N_EVENTS = 6


def malformed(kind: str) -> list:
    """Ill-formed operations of one kind for a 12-user, 6-event instance."""
    n, m = N_USERS, N_EVENTS
    slot = Interval(1.0, 2.0)
    if kind == "EtaDecrease":
        return [EtaDecrease(1.0, 0), EtaDecrease(True, 0), EtaDecrease(-1, 0),
                EtaDecrease(m, 0), EtaDecrease(1, 0.5)]
    if kind == "EtaIncrease":
        return [EtaIncrease(1.0, 50), EtaIncrease(-1, 50),
                EtaIncrease(m, 50), EtaIncrease(1, INF)]
    if kind == "XiIncrease":
        return [XiIncrease(True, 1), XiIncrease(-1, 1), XiIncrease(m, 1),
                XiIncrease(1, NAN)]
    if kind == "XiDecrease":
        return [XiDecrease(1.0, 0), XiDecrease(-1, 0), XiDecrease(m, 0),
                XiDecrease(1, -0.5)]
    if kind == "TimeChange":
        return [TimeChange(1.0, slot), TimeChange(-1, slot),
                TimeChange(m, slot), TimeChange(1, Interval(1.0, INF))]
    if kind == "LocationChange":
        return [LocationChange(1.0, Point(1, 1)), LocationChange(-1, Point(1, 1)),
                LocationChange(m, Point(1, 1)), LocationChange(1, Point(NAN, 1)),
                LocationChange(1, Point(1, INF))]
    if kind == "NewEvent":
        ok = (0.5,) * n
        return [NewEvent(Point(1, 1), 0, 3, slot, (NAN,) + ok[1:]),
                NewEvent(Point(1, 1), 0, 3, slot, (1.5,) + ok[1:]),
                NewEvent(Point(1, 1), 0, 3, slot, (-0.1,) + ok[1:]),
                NewEvent(Point(1, 1), -1, 3, slot, ok),
                NewEvent(Point(1, 1), 4, 3, slot, ok),
                NewEvent(Point(1, 1), 1.5, 3, slot, ok),
                NewEvent(Point(1, 1), 0, 3, slot, ok, fee=NAN),
                NewEvent(Point(INF, 1), 0, 3, slot, ok)]
    if kind == "UtilityChange":
        return [UtilityChange(1.0, 0, 0.5), UtilityChange(0, True, 0.5),
                UtilityChange(-1, 0, 0.5), UtilityChange(n, 0, 0.5),
                UtilityChange(1, m, 0.5), UtilityChange(1, 1, NAN),
                UtilityChange(1, 1, 1.5)]
    assert kind == "BudgetChange"
    return [BudgetChange(1.0, 5.0), BudgetChange(True, 5.0),
            BudgetChange(-1, 5.0), BudgetChange(n, 5.0),
            BudgetChange(1, NAN), BudgetChange(1, -INF)]


KINDS = [
    "EtaDecrease", "EtaIncrease", "XiIncrease", "XiDecrease", "TimeChange",
    "LocationChange", "NewEvent", "UtilityChange", "BudgetChange",
]


def instance():
    return generate_ebsn(
        MeetupConfig(n_users=N_USERS, n_events=N_EVENTS, n_groups=3, seed=5)
    )


@pytest.mark.parametrize("kind", KINDS)
def test_malformed_operations_are_rejected_at_the_platform(kind, tmp_path):
    platform = EBSNPlatform(instance(), solver=GreedySolver(seed=0))
    platform.publish_plans()
    summary = PlanSummary.of(platform.plan)
    events, users = list(platform.instance.events), list(platform.instance.users)
    bad = malformed(kind)
    for operation in bad:
        with pytest.raises(ValueError):
            operation.validate(platform.instance)
        with pytest.raises(ValueError):
            platform.submit(operation)
    assert platform.rejected_count == len(bad)
    assert PlanSummary.of(platform.plan) == summary
    assert platform.instance.events == events
    assert platform.instance.users == users
    assert platform.instance.n_events == N_EVENTS

    # In a batch the valid operations around each bad one still apply.
    batched = BatchedPlatform(instance(), solver=GreedySolver(seed=0))
    batched.publish_plans()
    for operation in bad:
        batched.enqueue(BudgetChange(0, 7.5))
        batched.enqueue(operation)
        batched.enqueue(UtilityChange(0, 0, 0.25))
        result = batched.flush()
        assert [op for op, _ in result.rejected] == [operation]
        assert len(result.applied) == 2
        assert batched.queue_depth() == 0
    assert batched.stats()["rejected"] == len(bad)

    # The durable platform never leaves one replayable.
    with DurablePlatform(instance(), tmp_path / "wal", fsync=False) as durable:
        durable.publish_plans()
        for operation in bad:
            with pytest.raises(ValueError):
                durable.submit(operation)
        seq = durable.seq
    recovery = recover_wal(tmp_path / "wal" / WAL_FILENAME)
    assert recovery.replayable() == []
    assert len(recovery.rejected_seqs) == seq


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("service-validation")
    with ServiceThread(root) as svc:
        with ServiceClient(svc.host, svc.port) as client:
            client.create_tenant(
                {"name": "city", "kind": "meetup", "users": N_USERS,
                 "events": N_EVENTS, "seed": 5}
            )
            client.publish("city")
        yield svc


WIRE = {
    "EtaDecrease": {"op": "eta_decrease", "event": 1.0, "new_upper": 0},
    "EtaIncrease": {"op": "eta_increase", "event": 1, "new_upper": INF},
    "XiIncrease": {"op": "xi_increase", "event": True, "new_lower": 1},
    "XiDecrease": {"op": "xi_decrease", "event": -1, "new_lower": 0},
    "TimeChange": {"op": "time_change", "event": 1, "start": 1.0,
                   "end": INF},
    "LocationChange": {"op": "location_change", "event": 1, "x": NAN,
                       "y": 1.0},
    "NewEvent": {"op": "new_event", "x": 1.0, "y": 1.0, "lower": 0,
                 "upper": 3, "start": 1.0, "end": 2.0,
                 "utilities": [NAN] + [0.5] * (N_USERS - 1)},
    "UtilityChange": {"op": "utility_change", "user": 1, "event": 1,
                      "new_value": NAN},
    "BudgetChange": {"op": "budget_change", "user": 1.0, "new_budget": 5.0},
}


@pytest.mark.parametrize("kind", KINDS)
def test_malformed_operations_are_rejected_over_the_wire(kind, service):
    valid = {"op": "budget_change", "user": 0, "new_budget": 7.5}
    with ServiceClient(service.host, service.port) as client:
        before = client.summary("city")["seq"]
        response = client.rpc(
            "submit", tenant="city", ops=[valid, WIRE[kind], valid]
        )
    assert response["applied"] == 1  # the two valid writes fold into one
    assert len(response["rejected"]) == 1
    assert response["violations"] == 0
    assert response["seq"] == before + 2
