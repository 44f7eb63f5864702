"""repro.core.kernel: strategy registry, selection, and bit-identity.

The contract under test is the one CI's kernel matrix and the bench
``equal_utility_vs`` gate rely on: every registered strategy produces the
*same IEEE doubles* for (insertion_deltas, feasible_mask), so switching
``REPRO_KERNEL`` can never change a plan.
"""

import numpy as np
import pytest

from repro.core import kernel
from repro.core.gepc import GreedySolver
from repro.core.plan import GlobalPlan, PlanSummary
from repro.datasets import make_city
from tests.conftest import random_instance

STRATEGIES = ["scalar", "rowwise", "batched"]


def _planned_instance(seed=0):
    """A solved instance + plan with a mix of empty and busy users."""
    instance = make_city("beijing", scale=0.3)
    solution = GreedySolver(seed=seed).solve(instance)
    return instance, solution.plan


# --------------------------------------------------------------------- #
# Bit-identity: rows and blocks
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", ["rowwise", "batched"])
def test_rows_bit_identical_to_scalar(name):
    _, plan = _planned_instance()
    scalar = kernel.resolve_strategy("scalar")
    strategy = kernel.resolve_strategy(name)
    for user in range(plan.instance.n_users):
        want_deltas, want_mask = scalar.row(plan, user)
        got_deltas, got_mask = strategy.row(plan, user)
        assert np.array_equal(got_deltas, want_deltas), (name, user)
        assert np.array_equal(got_mask, want_mask), (name, user)


@pytest.mark.parametrize("name", STRATEGIES)
def test_block_matches_rows(name):
    _, plan = _planned_instance()
    strategy = kernel.resolve_strategy(name)
    users = np.arange(plan.instance.n_users)
    deltas, mask = strategy.block(plan, users)
    assert deltas.shape == (users.size, plan.instance.n_events)
    assert mask.dtype == bool
    for i, user in enumerate(users):
        row_deltas, row_mask = strategy.row(plan, int(user))
        assert np.array_equal(deltas[i], row_deltas)
        assert np.array_equal(mask[i], row_mask)


@pytest.mark.parametrize("seed", range(4))
def test_random_instances_bit_identical(seed):
    instance = random_instance(seed, n_users=16, n_events=7)
    plan = GreedySolver(seed=seed).solve(instance).plan
    scalar = kernel.resolve_strategy("scalar")
    users = np.arange(instance.n_users)
    want = scalar.block(plan, users)
    for name in ("rowwise", "batched"):
        got = kernel.resolve_strategy(name).block(plan, users)
        assert np.array_equal(got[0], want[0]), name
        assert np.array_equal(got[1], want[1]), name


@pytest.mark.parametrize("name", STRATEGIES)
def test_solve_identical_across_strategies(name):
    """Whole solves — not just kernel rows — must not depend on the flag."""
    instance = make_city("beijing", scale=0.3)
    reference = GreedySolver(seed=0).solve(instance)
    with kernel.use_kernel(name):
        solution = GreedySolver(seed=0).solve(instance)
    assert PlanSummary.of(solution.plan) == PlanSummary.of(reference.plan)
    assert solution.cancelled == reference.cancelled


def test_scalar_splice_matches_plan_splice():
    """The fast-path's python splice mirrors GlobalPlan._splice exactly."""
    instance = random_instance(3, n_users=12, n_events=6)
    plan = GreedySolver(seed=3).solve(instance).plan
    planes = kernel.SplicePlanes(instance)
    for user in range(instance.n_users):
        events = plan._plans[user]
        for event in range(instance.n_events):
            want = plan._splice(user, events, event)
            got = planes.splice(events, user, event)
            assert got == want, (user, event)


# --------------------------------------------------------------------- #
# Registry and selection plumbing
# --------------------------------------------------------------------- #


def test_available_strategies_contains_core_trio():
    names = kernel.available_strategies()
    for name in STRATEGIES:
        assert name in names


def test_unknown_strategy_fails_loudly():
    with pytest.raises(ValueError, match="unknown kernel strategy"):
        kernel.resolve_strategy("turbo")


def test_env_var_selects_strategy(monkeypatch):
    monkeypatch.setenv(kernel.ENV_VAR, "rowwise")
    kernel.set_kernel(None)  # re-resolve from env
    try:
        assert kernel.active_kernel().name == "rowwise"
    finally:
        monkeypatch.delenv(kernel.ENV_VAR)
        kernel.set_kernel(None)
    assert kernel.active_kernel().name == kernel.DEFAULT_STRATEGY


def test_use_kernel_restores_previous(monkeypatch):
    before = kernel.active_kernel().name
    with kernel.use_kernel("scalar") as active:
        assert active.name == "scalar"
        assert kernel.active_kernel().name == "scalar"
        with kernel.use_kernel("rowwise"):
            assert kernel.active_kernel().name == "rowwise"
        assert kernel.active_kernel().name == "scalar"
    assert kernel.active_kernel().name == before


def test_vectorized_block_capability_flag():
    assert kernel.resolve_strategy("batched").vectorized_block
    assert not kernel.resolve_strategy("rowwise").vectorized_block
    assert not kernel.resolve_strategy("scalar").vectorized_block


def test_kernel_rows_are_writable_fresh_arrays():
    """Strategies hand back arrays the plan may own and mutate."""
    _, plan = _planned_instance()
    for name in STRATEGIES:
        deltas, mask = kernel.resolve_strategy(name).row(plan, 0)
        assert deltas.flags.writeable, name
        assert mask.flags.writeable, name
        deltas2, _ = kernel.resolve_strategy(name).row(plan, 0)
        assert deltas2 is not deltas, name
