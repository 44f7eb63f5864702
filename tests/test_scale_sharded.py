"""ShardedSolver: k=1 equivalence, feasibility, worker determinism."""

import pytest

from repro.check.auditor import InvariantAuditor
from repro.core.constraints import check_plan
from repro.core.gepc import GreedySolver
from repro.core.metrics import total_utility
from repro.core.plan import PlanSummary
from repro.datasets import make_city
from repro.scale import ShardedSolver
from tests.conftest import random_instance

SMALL_CITIES = ["beijing", "auckland", "singapore"]


@pytest.mark.parametrize("city", SMALL_CITIES)
def test_k1_bit_identical_to_greedy(city):
    """shards=1 must delegate: identical plan, cancelled set, utility."""
    instance = make_city(city, scale=0.3)
    mono = GreedySolver(seed=0).solve(instance)
    sharded = ShardedSolver(shards=1, workers=1, seed=0).solve(instance)
    assert PlanSummary.of(sharded.plan) == PlanSummary.of(mono.plan)
    assert sharded.cancelled == mono.cancelled
    assert total_utility(instance, sharded.plan) == total_utility(
        instance, mono.plan
    )
    assert sharded.solver == "sharded"
    assert sharded.diagnostics["shards"] == 1.0


@pytest.mark.parametrize("city", SMALL_CITIES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sharded_plans_feasible_and_audit_clean(city, seed):
    instance = make_city(city, scale=0.3)
    solution = ShardedSolver(shards=3, workers=1, seed=seed).solve(instance)
    assert not check_plan(instance, solution.plan)
    report = InvariantAuditor().audit(solution.plan)
    assert report.ok, report.mismatches[:3]


@pytest.mark.parametrize("seed", range(6))
def test_sharded_random_instances_feasible(seed):
    instance = random_instance(
        seed, n_users=20, n_events=8, budget_range=(10.0, 30.0)
    )
    solution = ShardedSolver(shards=3, workers=1, seed=seed).solve(instance)
    assert not check_plan(instance, solution.plan)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_worker_count_never_changes_the_plan(workers):
    """Merged plan is a function of (instance, shards, seed) only."""
    instance = make_city("beijing", scale=0.5)
    reference = ShardedSolver(shards=4, workers=1, seed=0).solve(instance)
    with ShardedSolver(shards=4, workers=workers, seed=0) as solver:
        solution = solver.solve(instance)
    assert PlanSummary.of(solution.plan) == PlanSummary.of(reference.plan)
    assert solution.cancelled == reference.cancelled


def test_double_solve_is_deterministic():
    instance = make_city("auckland", scale=0.3)
    solver = ShardedSolver(shards=3, workers=1, seed=1)
    first = solver.solve(instance)
    second = solver.solve(instance)
    assert PlanSummary.of(first.plan) == PlanSummary.of(second.plan)


def test_diagnostics_report_scaling_facts():
    instance = make_city("beijing", scale=0.3)
    solution = ShardedSolver(shards=3, workers=1, seed=0).solve(instance)
    diag = solution.diagnostics
    assert diag["shards"] >= 1.0
    assert diag["workers"] == 1.0
    assert diag["fringe_users"] >= 0.0
    assert diag["repair_added"] >= 0.0


def test_rescue_recovers_events_shards_cannot_hold():
    """An event whose xi exceeds any single shard's user pool must be
    rescued by the global pass, not silently cancelled."""
    found_rescue = False
    for seed in range(8):
        instance = random_instance(
            seed, n_users=24, n_events=8, budget_range=(20.0, 50.0)
        )
        solution = ShardedSolver(shards=4, workers=1, seed=seed).solve(
            instance
        )
        assert not check_plan(instance, solution.plan)
        if solution.diagnostics.get("rescue_added", 0.0) > 0.0:
            found_rescue = True
    # At least one of the seeds should exercise the rescue path; if the
    # generator changes and none do, the assertion flags the lost coverage.
    assert found_rescue


def test_utility_stays_close_to_monolithic():
    """On a real city the sharded result must stay within 2% of greedy
    (the bench-gate contract, checked here at test scale)."""
    instance = make_city("beijing", scale=0.5)
    mono = GreedySolver(seed=0).solve(instance)
    sharded = ShardedSolver(shards=4, workers=1, seed=0).solve(instance)
    mono_utility = total_utility(instance, mono.plan)
    sharded_utility = total_utility(instance, sharded.plan)
    assert sharded_utility >= 0.98 * mono_utility


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        ShardedSolver(shards=0)
    with pytest.raises(ValueError):
        ShardedSolver(workers=0)


def test_close_is_idempotent():
    solver = ShardedSolver(shards=2, workers=2, seed=0)
    solver.close()
    solver.close()


def _same_partition(first, second) -> bool:
    return (
        (first.event_shard == second.event_shard).all()
        and (first.user_shard == second.user_shard).all()
        and first.fringe_users == second.fringe_users
    )


def test_partition_memo_follows_in_place_patches():
    """The memo must miss once the live instance is patched in place."""
    from repro.core.iep.operations import LocationChange, NewEvent
    from repro.geo.point import Point
    from repro.platform.service import EBSNPlatform
    from repro.timeline.interval import Interval

    solver = ShardedSolver(shards=3, workers=1, seed=0)
    platform = EBSNPlatform(make_city("beijing", scale=0.3), solver=solver)
    platform.publish_plans()
    instance = platform.instance
    before = solver.partition(instance)
    assert solver.partition(instance) is before  # memo hit while unpatched

    far = Point(-1e4, -1e4)
    platform.submit(LocationChange(0, far))
    platform.submit(
        NewEvent(far, 0, 3, Interval(1.0, 2.0), (0.5,) * instance.n_users)
    )
    assert platform.instance is instance  # patched in place
    patched = solver.partition(instance)
    fresh = ShardedSolver(shards=3, workers=1, seed=0).partition(
        instance.copy()
    )
    assert patched is not before
    assert len(patched.event_shard) == instance.n_events
    assert _same_partition(patched, fresh)
    solution = solver.solve(instance)
    assert not check_plan(instance, solution.plan)
