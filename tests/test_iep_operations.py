"""Tests for atomic operation value objects and their instance updates."""

import pytest

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
from repro.geo.point import Point
from repro.timeline.interval import Interval


class TestValidation:
    def test_eta_decrease_must_decrease(self, paper_instance):
        with pytest.raises(ValueError):
            EtaDecrease(0, 3).validate(paper_instance)  # eta_0 is already 3

    def test_eta_decrease_cannot_cross_lower(self, paper_instance):
        with pytest.raises(ValueError):
            EtaDecrease(2, 2).validate(paper_instance)  # xi_2 = 3

    def test_eta_increase_must_increase(self, paper_instance):
        with pytest.raises(ValueError):
            EtaIncrease(0, 3).validate(paper_instance)

    def test_xi_increase_must_increase(self, paper_instance):
        with pytest.raises(ValueError):
            XiIncrease(0, 1).validate(paper_instance)

    def test_xi_increase_cannot_cross_upper(self, paper_instance):
        with pytest.raises(ValueError):
            XiIncrease(0, 9).validate(paper_instance)

    def test_xi_decrease_must_decrease(self, paper_instance):
        with pytest.raises(ValueError):
            XiDecrease(0, 1).validate(paper_instance)

    def test_xi_decrease_non_negative(self, paper_instance):
        with pytest.raises(ValueError):
            XiDecrease(2, -1).validate(paper_instance)

    def test_new_event_utilities_length(self, paper_instance):
        op = NewEvent(Point(0, 0), 0, 1, Interval(21, 22), (0.5,))
        with pytest.raises(ValueError):
            op.validate(paper_instance)

    def test_utility_change_range(self, paper_instance):
        with pytest.raises(ValueError):
            UtilityChange(0, 0, 1.5).validate(paper_instance)

    def test_budget_change_non_negative(self, paper_instance):
        with pytest.raises(ValueError):
            BudgetChange(0, -1.0).validate(paper_instance)


class TestInstanceUpdates:
    def test_eta_decrease_applies(self, paper_instance):
        copy = paper_instance.copy()
        updated = EtaDecrease(3, 1).apply_to_instance(copy)
        assert updated is copy  # patched in place
        assert updated.events[3].upper == 1
        assert paper_instance.events[3].upper == 5

    def test_xi_increase_applies(self, paper_instance):
        updated = XiIncrease(3, 3).apply_to_instance(paper_instance)
        assert updated.events[3].lower == 3

    def test_time_change_applies(self, paper_instance):
        interval = Interval(15.5, 17.5)
        updated = TimeChange(0, interval).apply_to_instance(paper_instance)
        assert updated.events[0].interval == interval

    def test_location_change_applies(self, paper_instance):
        updated = LocationChange(0, Point(9, 9)).apply_to_instance(paper_instance)
        assert updated.events[0].location == Point(9, 9)

    def test_new_event_appends(self, paper_instance):
        op = NewEvent(
            Point(3, 3), 1, 4, Interval(21, 22),
            tuple([0.5] * paper_instance.n_users),
        )
        updated = op.apply_to_instance(paper_instance)
        assert updated.n_events == 5
        assert updated.utility[:, 4].tolist() == [0.5] * 5

    def test_utility_change_applies(self, paper_instance):
        updated = UtilityChange(1, 2, 0.0).apply_to_instance(paper_instance)
        assert updated.utility[1, 2] == 0.0

    def test_budget_change_applies(self, paper_instance):
        updated = BudgetChange(4, 50.0).apply_to_instance(paper_instance)
        assert updated.users[4].budget == 50.0

    def test_operations_hashable(self):
        ops = {
            EtaDecrease(0, 1),
            EtaDecrease(0, 1),
            XiIncrease(1, 2),
            NewEvent(Point(0, 0), 0, 1, Interval(0, 1), (0.1, 0.2)),
        }
        assert len(ops) == 3
