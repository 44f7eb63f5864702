"""Tests for the core data model (users, events, instances, route costs)."""

import math

import numpy as np
import pytest

from repro.core.model import Event, Instance, InstanceStats, User
from repro.geo.point import Point
from repro.timeline.interval import Interval

from tests.conftest import build_instance, random_instance


class TestUser:
    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            User(0, Point(0, 0), -1.0)

    def test_frozen(self):
        user = User(0, Point(0, 0), 5.0)
        with pytest.raises(AttributeError):
            user.budget = 10.0


class TestEvent:
    def test_rejects_negative_lower(self):
        with pytest.raises(ValueError):
            Event(0, Point(0, 0), -1, 5, Interval(0, 1))

    def test_rejects_upper_below_lower(self):
        with pytest.raises(ValueError):
            Event(0, Point(0, 0), 3, 2, Interval(0, 1))

    def test_start_end_properties(self):
        event = Event(0, Point(0, 0), 0, 1, Interval(2.0, 4.0))
        assert event.start == 2.0
        assert event.end == 4.0


class TestInstanceValidation:
    def test_utility_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            build_instance(
                [(0, 0, 10)], [(1, 1, 0, 1, 0, 1)], [[0.5, 0.5]]
            )

    def test_utility_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            build_instance([(0, 0, 10)], [(1, 1, 0, 1, 0, 1)], [[1.5]])

    def test_user_ids_must_be_sequential(self):
        users = [User(1, Point(0, 0), 1.0)]
        events = [Event(0, Point(0, 0), 0, 1, Interval(0, 1))]
        with pytest.raises(ValueError, match="user ids"):
            Instance(users, events, np.zeros((1, 1)))

    def test_event_ids_must_be_sequential(self):
        users = [User(0, Point(0, 0), 1.0)]
        events = [Event(5, Point(0, 0), 0, 1, Interval(0, 1))]
        with pytest.raises(ValueError, match="event ids"):
            Instance(users, events, np.zeros((1, 1)))


class TestInstanceCaches:
    def test_distances_lazy_and_correct(self):
        instance = build_instance(
            [(0, 0, 10)], [(3, 4, 0, 1, 0, 1)], [[0.5]]
        )
        assert instance.distances.user_event(0, 0) == pytest.approx(5.0)

    def test_conflicts_match_intervals(self, paper_instance):
        # Example 1: e1/e3 overlap; e2/e4 touch; everything else is clear.
        assert paper_instance.events_conflict(0, 2)
        assert paper_instance.events_conflict(1, 3)
        assert not paper_instance.events_conflict(0, 1)
        assert not paper_instance.events_conflict(2, 3)

    def test_conflict_ratio(self, paper_instance):
        assert paper_instance.conflict_ratio() == 1.0  # all 4 conflict


class TestRouteCost:
    def test_empty_plan_zero(self, paper_instance):
        assert paper_instance.route_cost(0, []) == 0.0

    def test_single_event_round_trip(self, paper_instance):
        # u1 at (0,0) -> e1 at (1,4) and back: 2 * sqrt(17).
        assert paper_instance.route_cost(0, [0]) == pytest.approx(
            2 * math.sqrt(17)
        )

    def test_paper_worked_example(self, paper_instance):
        """Paper Section II: D_1 = sqrt(17) + sqrt(41) + 6 = 16.53."""
        cost = paper_instance.route_cost(0, [0, 1])
        assert cost == pytest.approx(
            math.sqrt(17) + math.sqrt(41) + 6.0, abs=1e-9
        )
        assert cost == pytest.approx(16.53, abs=0.01)

    def test_order_independent_input(self, paper_instance):
        assert paper_instance.route_cost(0, [1, 0]) == pytest.approx(
            paper_instance.route_cost(0, [0, 1])
        )

    def test_visits_in_start_order(self):
        # Events placed so visiting out of time order would be cheaper;
        # the route must follow start times regardless.
        instance = build_instance(
            [(0, 0, 100)],
            [(10, 0, 0, 1, 5, 6), (1, 0, 0, 1, 7, 8)],
            [[0.5, 0.5]],
        )
        # home -> (10,0) -> (1,0) -> home = 10 + 9 + 1 = 20.
        assert instance.route_cost(0, [0, 1]) == pytest.approx(20.0)

    def test_route_cost_with_matches_recompute(self, paper_instance):
        for user in range(paper_instance.n_users):
            base = [2]  # e3
            for new in (0, 1, 3):
                incremental = paper_instance.route_cost_with(user, base, new)
                direct = paper_instance.route_cost(user, base + [new])
                assert incremental == pytest.approx(direct, abs=1e-9)

    def test_route_cost_with_empty_base(self, paper_instance):
        assert paper_instance.route_cost_with(0, [], 1) == pytest.approx(
            paper_instance.route_cost(0, [1])
        )

    def test_route_cost_with_insert_positions(self):
        instance = random_instance(3, n_users=2, n_events=5)
        sorted_events = sorted(
            range(4), key=lambda j: instance.events[j].start
        )
        incremental = instance.route_cost_with(0, sorted_events, 4)
        direct = instance.route_cost(0, sorted_events + [4])
        assert incremental == pytest.approx(direct, abs=1e-9)


class TestFunctionalUpdates:
    """The in-place patches, applied to a copy: the original stays put."""

    def test_with_event_changes_only_target(self, paper_instance):
        updated = paper_instance.copy()
        updated.set_event(1, upper=9)
        assert updated.events[1].upper == 9
        assert paper_instance.events[1].upper == 4  # original untouched
        assert updated.events[0].upper == paper_instance.events[0].upper

    def test_with_user(self, paper_instance):
        updated = paper_instance.copy()
        updated.set_budget(2, 99.0)
        assert updated.users[2].budget == 99.0
        assert paper_instance.users[2].budget == 20.0

    def test_with_utility(self, paper_instance):
        updated = paper_instance.copy()
        updated.set_utility(0, 0, 0.0)
        assert updated.utility[0, 0] == 0.0
        assert paper_instance.utility[0, 0] == 0.7
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            updated.set_utility(0, 0, 1.5)

    def test_with_new_event(self, paper_instance):
        event = Event(4, Point(0, 0), 1, 2, Interval(21, 22))
        updated = paper_instance.copy()
        updated.append_event(event, np.full(paper_instance.n_users, 0.5))
        assert updated.n_events == 5
        assert updated.utility.shape == (5, 5)
        assert paper_instance.n_events == 4

    def test_with_new_event_id_check(self, paper_instance):
        event = Event(9, Point(0, 0), 0, 1, Interval(21, 22))
        with pytest.raises(ValueError, match="new event id"):
            paper_instance.append_event(
                event, np.zeros(paper_instance.n_users)
            )

    def test_updates_rebuild_caches(self, paper_instance):
        paper_instance.distances  # built caches are patched, not dropped
        paper_instance.conflicts
        moved = paper_instance.copy()
        moved.set_event(0, location=Point(50.0, 50.0))
        assert moved.distances.user_event(0, 0) == pytest.approx(
            math.hypot(50, 50)
        )
        shifted = paper_instance.copy()
        shifted.set_event(0, interval=Interval(16.0, 18.0))
        assert shifted.events_conflict(0, 1)
        assert not shifted.events_conflict(0, 2)
        assert paper_instance.distances.user_event(0, 0) != pytest.approx(
            math.hypot(50, 50)
        )

    def test_every_patch_bumps_the_revision(self, paper_instance):
        revisions = [paper_instance.revision]
        paper_instance.set_event(1, upper=9)
        paper_instance.set_budget(2, 99.0)
        paper_instance.set_utility(0, 0, 0.5)
        paper_instance.append_event(
            Event(4, Point(0, 0), 0, 1, Interval(21, 22)),
            np.zeros(paper_instance.n_users),
        )
        revisions.append(paper_instance.revision)
        assert revisions == [0, 4]
        assert paper_instance.copy().revision == 0


class TestInstanceStats:
    def test_of(self, paper_instance):
        stats = InstanceStats.of(paper_instance)
        assert stats.n_users == 5
        assert stats.n_events == 4
        assert stats.mean_lower == pytest.approx((1 + 2 + 3 + 1) / 4)
        assert stats.mean_upper == pytest.approx(4.0)
        assert stats.conflict_ratio == 1.0
