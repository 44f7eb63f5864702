"""Tests for GlobalPlan: mutation, caches, feasibility helpers, rebinding."""

import pytest

from repro.core.plan import GlobalPlan, Journal, PlanSummary
from repro.timeline.interval import Interval

from tests.conftest import build_instance, random_instance


class TestMutation:
    def test_add_and_contains(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 2)
        assert plan.contains(0, 2)
        assert plan.attendance(2) == 1
        assert plan.attendees(2) == [0]

    def test_add_duplicate_rejected(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 2)
        with pytest.raises(ValueError, match="already attends"):
            plan.add(0, 2)

    def test_remove(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 2)
        plan.remove(0, 2)
        assert not plan.contains(0, 2)
        assert plan.attendance(2) == 0
        assert plan.route_cost(0) == 0.0

    def test_remove_missing_rejected(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        with pytest.raises(ValueError, match="does not attend"):
            plan.remove(0, 2)

    def test_plans_kept_start_sorted(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 1)  # e2 starts 16:00
        plan.add(0, 0)  # e1 starts 13:00
        assert plan.user_plan(0) == [0, 1]

    def test_route_cost_cache_tracks_mutations(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 0)
        plan.add(0, 1)
        assert plan.route_cost(0) == pytest.approx(
            paper_instance.route_cost(0, [0, 1])
        )
        plan.remove(0, 0)
        assert plan.route_cost(0) == pytest.approx(
            paper_instance.route_cost(0, [1])
        )

    def test_clear_event(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 2)
        plan.add(1, 2)
        plan.add(1, 1)
        touched = plan.clear_event(2)
        assert sorted(touched) == [0, 1]
        assert plan.attendance(2) == 0
        assert plan.contains(1, 1)

    def test_size_and_assigned_events(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 2)
        plan.add(1, 2)
        plan.add(0, 1)
        assert plan.size() == 3
        assert plan.assigned_events() == {1, 2}

    def test_iter(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(1, 3)
        pairs = dict(iter(plan))
        # Plans iterate as immutable tuples straight off the internal lists
        # (no copied per-user list objects).
        assert pairs[1] == (3,)
        assert pairs[0] == ()


class TestCanAttend:
    def test_zero_utility_blocks(self, small_instance):
        plan = GlobalPlan(small_instance)
        assert not plan.can_attend(2, 1)  # utility 0.0

    def test_conflict_blocks(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 2)  # e3 13:30-15:00
        assert not plan.can_attend(0, 0)  # e1 13:00-15:00 overlaps

    def test_budget_blocks(self, paper_instance):
        # u5 has budget 10; e2 at (6,0) from (1,5): 2*sqrt(50) > 10.
        plan = GlobalPlan(paper_instance)
        assert not plan.can_attend(4, 1)

    def test_already_attending_blocks(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 2)
        assert not plan.can_attend(0, 2)

    def test_feasible_case(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        assert plan.can_attend(0, 0)

    def test_cost_with(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 0)
        assert plan.cost_with(0, 1) == pytest.approx(
            paper_instance.route_cost(0, [0, 1])
        )


class TestCopyAndRebind:
    def test_copy_is_independent(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 2)
        clone = plan.copy()
        clone.add(1, 2)
        assert plan.attendance(2) == 1
        assert clone.attendance(2) == 2

    def test_copy_equal_until_mutated(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 2)
        clone = plan.copy()
        assert clone == plan
        clone.remove(0, 2)
        assert clone != plan

    def test_eq_non_plan(self, paper_instance):
        assert GlobalPlan(paper_instance) != 42

    def test_rebound_recomputes_costs(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 0)
        with Journal(plan) as journal:
            paper_instance.set_event(
                0, location=paper_instance.events[1].location
            )
            plan.follow(journal)
        assert plan.route_cost(0) == pytest.approx(
            paper_instance.route_cost(0, [0])
        )
        assert plan.attendance(0) == 1
        assert journal.dif() == 0

    def test_rebound_resorts_after_time_change(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 0)  # e1 13:00
        plan.add(0, 1)  # e2 16:00
        with Journal(plan) as journal:
            paper_instance.set_event(0, interval=Interval(21.0, 22.0))
            plan.follow(journal)
        assert plan.user_plan(0) == [1, 0]
        assert set(journal.before) == {0}

    def test_rebound_copy_is_independent(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 0)
        copy = paper_instance.copy()
        rebound = plan.rebound_to(copy)
        assert rebound.instance is copy and rebound == plan
        rebound.add(1, 0)
        assert plan.attendance(0) == 1

    def test_rebound_rejects_user_change(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        smaller = build_instance(
            [(0, 0, 10)], [(1, 1, 0, 1, 0, 1)], [[0.5]]
        )
        with pytest.raises(ValueError):
            plan.rebound_to(smaller)

    def test_summary_hashable(self, paper_instance):
        plan = GlobalPlan(paper_instance)
        plan.add(0, 2)
        summary = PlanSummary.of(plan)
        assert summary.assignments[0] == (2,)
        assert hash(summary) == hash(PlanSummary.of(plan))


class TestAgainstRandomInstances:
    def test_attendance_consistency(self):
        instance = random_instance(11)
        plan = GlobalPlan(instance)
        plan.add(0, 0)
        plan.add(1, 0)
        plan.add(2, 1)
        for event in range(instance.n_events):
            assert plan.attendance(event) == len(plan.attendees(event))
