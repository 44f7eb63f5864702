"""Whole-plan checks in array time: ``check_plan``'s screen, the pair API,
and ``total_utility``'s flat sum.

``check_plan`` screens users with vectorized gathers and confirms only
the flagged ones with the per-user scalar check; it must return exactly
the list of the exhaustive walk (:func:`repro.check.exhaustive_check_plan`),
content and order.  The screen reads user-event distances only through
``user_event_pairs``, which must serve the same value as ``user_event``
on every backend, also after in-place patches.  Run this file under
``REPRO_TILE_DTYPE=float32`` too: every tiled case then uses float32
tiles.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.check import exhaustive_check_plan
from repro.core import constraints
from repro.core.constraints import ViolationKind, check_plan
from repro.core.costs import CostModel
from repro.core.iep.operations import (
    BudgetChange,
    EtaDecrease,
    NewEvent,
    TimeChange,
    UtilityChange,
)
from repro.core.metrics import total_utility
from repro.core.model import Event, Instance
from repro.core.plan import GlobalPlan, Journal
from repro.core.tiles import use_distance_backend
from repro.core.tolerances import BUDGET_TOL
from repro.datasets import MeetupConfig, generate_ebsn
from repro.geo.matrix_metric import MatrixMetric
from repro.geo.metrics import EUCLIDEAN, MANHATTAN
from repro.geo.point import Point
from repro.platform import EBSNPlatform, OperationStream
from repro.scale import BatchedPlatform
from repro.timeline.interval import Interval

from tests.conftest import build_instance, random_instance

BACKENDS = ("dense", "tiled")


def with_backend(instance: Instance, backend: str) -> Instance:
    """Build ``instance``'s distance cache under ``backend``."""
    with use_distance_backend(backend):
        instance.distances
    return instance


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_pairs_match(instance: Instance) -> None:
    """``user_event_pairs`` equals ``user_event`` on every pair, bit for bit."""
    d = instance.distances
    users, events = np.meshgrid(
        np.arange(instance.n_users), np.arange(instance.n_events),
        indexing="ij",
    )
    users, events = users.ravel(), events.ravel()
    # Scatter the order so pairs cross tiles in no particular sequence.
    order = np.random.default_rng(0).permutation(users.size)
    users, events = users[order], events[order]
    expected = [d.user_event(int(u), int(e)) for u, e in zip(users, events)]
    assert bits(d.user_event_pairs(users, events)) == bits(expected)


def cost_model(kind: str, n_events: int, seed: int) -> CostModel:
    fees = None
    if kind.endswith("fees"):
        fees = np.round(
            np.random.default_rng(seed).uniform(0.0, 3.0, n_events), 2
        )
    metric = MANHATTAN if kind.startswith("manhattan") else EUCLIDEAN
    return CostModel(metric=metric, fees=fees)


def random_state(
    seed: int, backend: str, model: str = "euclidean"
) -> tuple[Instance, GlobalPlan]:
    """A random instance and a plan that breaks every rule somewhere:
    conflicting pairs, zero utilities, plans over budget, lists out of
    start order, budgets a fraction of ``BUDGET_TOL`` either side of
    their plan's cost."""
    rng = random.Random(seed)
    base = random_instance(
        seed, n_users=rng.randint(1, 14), n_events=rng.randint(1, 9)
    )
    instance = with_backend(
        Instance(
            base.users, base.events, base.utility,
            cost_model(model, base.n_events, seed),
        ),
        backend,
    )
    plan = GlobalPlan(instance)
    for user in range(instance.n_users):
        k = rng.randint(0, min(4, instance.n_events))
        for event in rng.sample(range(instance.n_events), k):
            plan.add(user, event)
    for user in range(instance.n_users):
        events = plan._plans[user]
        if not events:
            continue
        roll = rng.random()
        if roll < 0.25:
            rng.shuffle(events)
        elif roll < 0.75:
            cost = instance.route_cost(user, events)
            target = cost - BUDGET_TOL + rng.choice(
                (-0.5 * BUDGET_TOL, 0.0, 0.5 * BUDGET_TOL)
            )
            for _ in range(rng.randint(0, 2)):
                target = np.nextafter(target, rng.choice((-np.inf, np.inf)))
            if target >= 0.0:
                instance.set_budget(user, float(target))
    return instance, plan


class TestPairApi:
    @pytest.mark.parametrize(
        "variant", ["dense", "tiled-float64", "tiled-float32", "tiled-tiny-cache"]
    )
    @pytest.mark.parametrize("model", ["euclidean", "manhattan"])
    def test_pairs_equal_scalar_serves_across_patches(
        self, variant, model, monkeypatch
    ):
        if variant == "tiled-float32":
            monkeypatch.setenv("REPRO_TILE_DTYPE", "float32")
        elif variant == "tiled-float64":
            monkeypatch.setenv("REPRO_TILE_DTYPE", "float64")
        elif variant == "tiled-tiny-cache":
            # The plane no longer fits: user_event serves scalars from
            # the coordinates instead of building tiles.
            monkeypatch.setenv("REPRO_TILE_SHAPE", "4x4")
            monkeypatch.setenv("REPRO_TILE_CACHE_MIB", "0.0001")
        base = random_instance(11, n_users=13, n_events=9)
        instance = with_backend(
            Instance(base.users, base.events, base.utility,
                     cost_model(model, 9, 11)),
            "dense" if variant == "dense" else "tiled",
        )
        assert_pairs_match(instance)

        instance.set_event(3, location=Point(2.5, 7.25))
        assert_pairs_match(instance)

        plan = GlobalPlan(instance)
        new = Event(9, Point(4.0, 1.0), 0, 3, Interval(2.0, 3.0))
        with pytest.raises(RuntimeError), Journal(plan):
            instance.append_event(new, np.full(instance.n_users, 0.5))
            assert instance.distances.n_events == 10
            assert_pairs_match(instance)
            raise RuntimeError("roll the append back")
        # The rollback dropped the appended column again.
        assert instance.distances.n_events == 9
        assert_pairs_match(instance)

    def test_tiled_pairs_build_no_tiles(self, monkeypatch):
        monkeypatch.setenv("REPRO_TILE_SHAPE", "4x4")
        monkeypatch.setenv("REPRO_TILE_CACHE_MIB", "0.0001")
        instance = with_backend(random_instance(5, 12, 8), "tiled")
        d = instance.distances
        d.user_event_pairs(np.arange(12), np.arange(12) % 8)
        stats = d.tile_stats()
        assert stats["misses"] == 0
        assert stats["scalar_serves"] == 0
        assert stats["tiles_resident"] == 0

    def test_empty_pairs(self):
        for backend in BACKENDS:
            d = with_backend(random_instance(1, 3, 2), backend).distances
            assert d.user_event_pairs([], []).shape == (0,)

    def test_matrix_metric_pairs_are_its_lookups(self):
        rng = np.random.default_rng(3)
        user_event = rng.uniform(0, 5, (4, 3))
        event_event = rng.uniform(0, 5, (3, 3))
        metric = MatrixMetric(user_event, event_event)
        users = np.array([[0, 0.0], [3, 0.0], [2, 0.0]])
        events = np.array([[1, 1.0], [0, 1.0], [2, 1.0]])
        assert bits(metric.pair_coords(users, events)) == bits(
            user_event[[0, 3, 2], [1, 0, 2]]
        )
        assert bits(metric.pair_coords(events, events[::-1])) == bits(
            event_event[[1, 0, 2], [2, 0, 1]]
        )


class TestScreenMatchesOracle:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "model", ["euclidean", "euclidean-fees", "manhattan", "manhattan-fees"]
    )
    @pytest.mark.parametrize("seed", range(12))
    def test_random_plans(self, seed, model, backend):
        instance, plan = random_state(seed, backend, model)
        for enforce_lower in (True, False):
            assert check_plan(instance, plan, enforce_lower) == (
                exhaustive_check_plan(instance, plan, enforce_lower)
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_kind_is_found(self, backend):
        """Across the random states each violation kind occurs, on both
        sides of the budget boundary, so the comparisons above are not
        vacuous."""
        kinds = set()
        over = within = 0
        for seed in range(12):
            instance, plan = random_state(seed, backend, "euclidean-fees")
            violations = exhaustive_check_plan(instance, plan)
            kinds |= {v.kind for v in violations}
            for user in range(instance.n_users):
                events = plan._plans[user]
                if not events:
                    continue
                slack = instance.route_cost(user, events) - (
                    instance.users[user].budget + BUDGET_TOL
                )
                if 0.0 < slack <= BUDGET_TOL:
                    over += 1
                elif -BUDGET_TOL <= slack <= 0.0:
                    within += 1
        assert kinds == set(ViolationKind)
        assert over and within

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_budget_boundary_half_a_tolerance(self, backend):
        base = random_instance(4, n_users=6, n_events=5)
        instance = with_backend(base, backend)
        plan = GlobalPlan(instance)
        plan.add(0, 0)
        plan.add(1, 1)
        plan.add(2, 2)
        for user, offset in ((0, 0.5), (1, -0.5), (2, 0.0)):
            cost = instance.route_cost(user, plan._plans[user])
            instance.set_budget(user, cost - BUDGET_TOL - offset * BUDGET_TOL)
        violations = check_plan(instance, plan, enforce_lower=False)
        assert violations == exhaustive_check_plan(instance, plan, False)
        over = {v.user for v in violations
                if v.kind is ViolationKind.BUDGET_EXCEEDED}
        assert 0 in over and 1 not in over

    def test_out_of_order_lists_are_confirmed(self):
        # Feasible whichever way the list runs: only the order screen
        # can flag the user, and the scalar check then finds nothing.
        instance = build_instance(
            [(0.0, 0.0, 100.0)],
            [(1.0, 0.0, 0, 2, 9.0, 10.0), (0.0, 1.0, 0, 2, 12.0, 13.0)],
            [[0.5, 0.5]],
        )
        plan = GlobalPlan(instance)
        plan.add(0, 0)
        plan.add(0, 1)
        assert constraints._screened_users(instance, plan).size == 0
        plan._plans[0].reverse()
        assert constraints._screened_users(instance, plan).tolist() == [0]
        assert check_plan(instance, plan) == []
        assert exhaustive_check_plan(instance, plan) == []

    def test_clean_plan_flags_nobody(self):
        instance = generate_ebsn(MeetupConfig(n_users=60, n_events=10, seed=2))
        platform = EBSNPlatform(instance)
        platform.publish_plans()
        plan = platform.plan
        assert plan.size() > 0
        assert constraints._screened_users(platform.instance, plan).size == 0
        assert check_plan(platform.instance, plan) == []

    @pytest.mark.parametrize(
        "users, events",
        [(0, 0), (0, 3), (3, 0), (3, 3)],
    )
    def test_empty_plans_and_instances(self, users, events):
        instance = random_instance(0, n_users=max(users, 1), n_events=max(events, 1))
        instance = Instance(
            instance.users[:users], instance.events[:events],
            instance.utility[:users, :events],
        )
        plan = GlobalPlan(instance)
        assert check_plan(instance, plan) == []
        assert exhaustive_check_plan(instance, plan) == []
        assert total_utility(instance, plan) == 0.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_states_after_new_event_and_a_stream(self, backend):
        instance = with_backend(
            generate_ebsn(MeetupConfig(n_users=50, n_events=8, seed=9)),
            backend,
        )
        platform = EBSNPlatform(instance)
        platform.publish_plans()
        live = platform.instance
        rng = np.random.default_rng(9)
        platform.submit(
            NewEvent(
                Point(5.0, 5.0), 1, 6, Interval(10.0, 11.5),
                tuple(float(x) for x in np.round(rng.uniform(0, 1, 50), 3)),
            )
        )
        stream = OperationStream(seed=9)
        for _ in range(10):
            (operation,) = stream.mixed(live, platform.plan, 1)
            try:
                platform.submit(operation)
            except (ValueError, IndexError, KeyError):
                pass
        plan = platform.plan
        assert check_plan(live, plan) == exhaustive_check_plan(live, plan)
        # Break the repaired state on purpose: the screen must still
        # find every violation the walk finds.
        holders = [u for u in range(live.n_users) if plan._plans[u]]
        live.set_budget(holders[0], 0.0)
        live.set_utility(holders[-1], plan._plans[holders[-1]][0], 0.0)
        violations = check_plan(live, plan)
        assert violations == exhaustive_check_plan(live, plan)
        assert {v.user for v in violations} >= {holders[0], holders[-1]}


class TestTotalUtility:
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_equal_to_a_left_to_right_sum(self, seed):
        instance, plan = random_state(seed, "dense")
        expected = 0.0
        for user in range(instance.n_users):
            for event in plan._plans[user]:
                expected = expected + float(instance.utility[user, event])
        assert total_utility(instance, plan).hex() == float(expected).hex()

    def test_published_plan_matches_python_sum(self):
        instance = generate_ebsn(MeetupConfig(n_users=300, n_events=20, seed=4))
        platform = EBSNPlatform(instance)
        platform.publish_plans()
        plan = platform.plan
        utility = platform.instance.utility
        terms = [utility[u, e] for u, events in plan for e in events]
        assert total_utility(platform.instance, plan) == float(sum(terms))


class TestUtilityReads:
    def _counting(self, monkeypatch):
        calls = []
        real = check_plan

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr("repro.scale.batched.check_plan", counted)
        monkeypatch.setattr("repro.platform.service.check_plan", counted)
        return calls

    def test_all_rejected_flush_checks_once(self, monkeypatch):
        instance = generate_ebsn(MeetupConfig(n_users=40, n_events=8, seed=3))
        batched = BatchedPlatform(instance)
        batched.publish_plans()
        batched.enqueue(BudgetChange(0, 25.0))
        batched.flush()
        expected = batched.snapshot()["utility"]
        calls = self._counting(monkeypatch)
        batched.enqueue(EtaDecrease(10**6, 1))
        batched.enqueue(UtilityChange(0, 10**6, 0.5))
        result = batched.flush()
        assert len(result.rejected) == 2 and not result.applied
        assert len(calls) == 1
        assert result.utility == expected

    def test_utility_property_carries_the_last_value(self):
        instance = generate_ebsn(MeetupConfig(n_users=40, n_events=8, seed=3))
        platform = EBSNPlatform(instance)
        published = platform.publish_plans()
        assert platform.utility == published
        entry = platform.submit(TimeChange(1, Interval(3.0, 4.0)))
        assert platform.utility == entry.utility_after
        assert platform.utility == platform.audit()["utility"]
        fresh = EBSNPlatform(instance)
        fresh.install_plan(platform.plan.copy())
        fresh._last_utility = None
        assert fresh.utility == platform.utility
