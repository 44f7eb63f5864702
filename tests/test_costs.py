"""Tests for composite cost models (travel metrics + admission fees)."""

import numpy as np
import pytest

from repro.core.constraints import is_feasible
from repro.core.costs import DEFAULT_COST_MODEL, CostModel
from repro.core.gepc import GreedySolver
from repro.core.model import Event, Instance, User
from repro.core.plan import GlobalPlan
from repro.geo.metrics import EUCLIDEAN, MANHATTAN, metric_by_name
from repro.geo.point import Point
from repro.timeline.interval import Interval

from tests.conftest import random_instance


def instance_with(cost_model, budget=30.0):
    users = [User(0, Point(0, 0), budget), User(1, Point(1, 1), budget)]
    events = [
        Event(0, Point(3, 4), 0, 2, Interval(1, 2)),
        Event(1, Point(6, 8), 0, 2, Interval(3, 4)),
    ]
    utility = np.array([[0.9, 0.8], [0.7, 0.6]])
    return Instance(users, events, utility, cost_model)


class TestMetrics:
    def test_manhattan_distance(self):
        assert MANHATTAN.distance(Point(0, 0), Point(3, 4)) == 7.0

    def test_euclidean_distance(self):
        assert EUCLIDEAN.distance(Point(0, 0), Point(3, 4)) == 5.0

    def test_pairwise_matrices_agree_with_pointwise(self):
        points = [Point(0, 0), Point(2, 1), Point(-1, 3)]
        for metric in (EUCLIDEAN, MANHATTAN):
            matrix = metric.pairwise(points)
            for i, a in enumerate(points):
                for j, b in enumerate(points):
                    assert matrix[i, j] == pytest.approx(metric.distance(a, b))

    def test_cross_shapes(self):
        assert MANHATTAN.cross([Point(0, 0)], []).shape == (1, 0)

    def test_lookup_by_name(self):
        assert metric_by_name("manhattan") is MANHATTAN
        assert metric_by_name("Euclidean") is EUCLIDEAN

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            metric_by_name("chebyshev")


class TestCostModel:
    def test_default_no_fees(self):
        assert DEFAULT_COST_MODEL.fee(0) == 0.0
        assert not DEFAULT_COST_MODEL.has_fees

    def test_negative_fees_rejected(self):
        with pytest.raises(ValueError):
            CostModel(fees=np.array([-1.0]))

    def test_fee_lookup(self):
        model = CostModel(fees=np.array([2.0, 0.0]))
        assert model.fee(0) == 2.0
        assert model.total_fees([0, 1]) == 2.0
        assert model.has_fees

    def test_with_event_appended(self):
        model = CostModel(fees=np.array([1.0]))
        extended = model.with_event_appended(3.0)
        assert extended.fee(1) == 3.0
        assert model.fees.shape == (1,)  # original untouched

    def test_fee_count_checked_by_instance(self):
        with pytest.raises(ValueError, match="one admission fee"):
            instance_with(CostModel(fees=np.array([1.0])))


class TestManhattanRouting:
    def test_route_cost_uses_metric(self):
        instance = instance_with(CostModel(metric=MANHATTAN))
        # home (0,0) -> (3,4) -> home: manhattan 7 each way.
        assert instance.route_cost(0, [0]) == pytest.approx(14.0)

    def test_euclidean_vs_manhattan_differ(self):
        euclid = instance_with(CostModel())
        manhattan = instance_with(CostModel(metric=MANHATTAN))
        assert euclid.route_cost(0, [0]) == pytest.approx(10.0)
        assert manhattan.route_cost(0, [0]) == pytest.approx(14.0)

    def test_solver_feasible_under_manhattan(self):
        base = random_instance(4, n_users=10, n_events=6)
        instance = Instance(
            base.users, base.events, base.utility,
            CostModel(metric=MANHATTAN),
        )
        solution = GreedySolver(seed=0).solve(instance)
        assert is_feasible(instance, solution.plan)


class TestAdmissionFees:
    def test_fees_charged_in_route_cost(self):
        model = CostModel(fees=np.array([5.0, 0.0]))
        instance = instance_with(model)
        assert instance.route_cost(0, [0]) == pytest.approx(10.0 + 5.0)

    def test_route_cost_with_adds_new_fee(self):
        model = CostModel(fees=np.array([5.0, 2.0]))
        instance = instance_with(model, budget=100.0)
        incremental = instance.route_cost_with(0, [0], 1)
        direct = instance.route_cost(0, [0, 1])
        assert incremental == pytest.approx(direct)

    def test_unaffordable_fee_blocks_attendance(self):
        # Travel alone fits the budget (10 <= 12); fee pushes it over.
        model = CostModel(fees=np.array([5.0, 0.0]))
        instance = instance_with(model, budget=12.0)
        plan = GlobalPlan(instance)
        assert not plan.can_attend(0, 0)
        assert plan.can_attend(1, 1) or True  # other event unaffected by fee 0

    def test_solver_respects_fees(self):
        base = random_instance(5, n_users=10, n_events=6)
        rng = np.random.default_rng(5)
        instance = Instance(
            base.users, base.events, base.utility,
            CostModel(fees=rng.uniform(0, 10, base.n_events)),
        )
        solution = GreedySolver(seed=0).solve(instance)
        assert is_feasible(instance, solution.plan)
        for user in range(instance.n_users):
            assert (
                solution.plan.route_cost(user)
                <= instance.users[user].budget + 1e-6
            )

    def test_fees_reduce_affordable_plans(self):
        base = random_instance(6, n_users=10, n_events=6)
        free = Instance(base.users, base.events, base.utility)
        priced = Instance(
            base.users, base.events, base.utility,
            CostModel(fees=np.full(base.n_events, 8.0)),
        )
        free_solution = GreedySolver(seed=0).solve(free)
        priced_solution = GreedySolver(seed=0).solve(priced)
        assert priced_solution.plan.size() <= free_solution.plan.size()

    def test_functional_updates_preserve_model(self):
        model = CostModel(metric=MANHATTAN, fees=np.array([1.0, 2.0]))
        instance = instance_with(model)
        updated = instance.copy()
        updated.set_event(0, upper=5)
        assert updated.cost_model.metric is MANHATTAN
        assert updated.cost_model.fee(1) == 2.0

    def test_new_event_extends_fees(self):
        model = CostModel(fees=np.array([1.0, 2.0]))
        instance = instance_with(model)
        event = Event(2, Point(0, 0), 0, 1, Interval(5, 6))
        instance.append_event(event, np.zeros(2), fee=4.0)
        assert instance.cost_model.fee(2) == 4.0

    def test_new_event_fee_on_feeless_model(self):
        instance = instance_with(CostModel())
        event = Event(2, Point(0, 0), 0, 1, Interval(5, 6))
        instance.append_event(event, np.zeros(2), fee=4.0)
        assert instance.cost_model.fee(0) == 0.0
        assert instance.cost_model.fee(2) == 4.0
