"""Feasibility checking for global plans (Definition 1's four constraints).

1. no time conflicts inside any user's plan,
2. every user's travel cost within budget,
3. every event's attendance at most its upper bound ``eta_j``,
4. every *held* event's attendance at least its lower bound ``xi_j``
   (an event with zero attendees is simply not held — the paper's
   motivating examples cancel such events rather than forbidding the plan).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.model import Instance
from repro.core.plan import GlobalPlan
from repro.core.tolerances import BUDGET_SCREEN_REL, BUDGET_TOL


class ViolationKind(enum.Enum):
    TIME_CONFLICT = "time_conflict"
    BUDGET_EXCEEDED = "budget_exceeded"
    UPPER_BOUND = "upper_bound"
    LOWER_BOUND = "lower_bound"
    ZERO_UTILITY = "zero_utility"


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated constraint, with enough context to debug a solver."""

    kind: ViolationKind
    user: int | None = None
    event: int | None = None
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [self.kind.value]
        if self.user is not None:
            parts.append(f"user={self.user}")
        if self.event is not None:
            parts.append(f"event={self.event}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


def check_plan(
    instance: Instance,
    plan: GlobalPlan,
    enforce_lower: bool = True,
) -> list[ConstraintViolation]:
    """All constraint violations of ``plan`` against ``instance``.

    ``enforce_lower=False`` checks only the GEP constraints (used on the
    intermediate states of the two-step framework, where lower bounds are
    satisfied by construction only after step 1 completes).

    A vectorized screen over the plan's flat view picks the users that
    can hold a violation; :func:`check_user` then checks just those, in
    ascending order.  The screen may pick extra users but never misses
    one, so the list equals the walk of :func:`check_user` over every
    user followed by :func:`check_events` — content and order
    (``repro.check.exhaustive_check_plan`` is that walk).
    """
    violations: list[ConstraintViolation] = []
    for user in _screened_users(instance, plan).tolist():
        violations.extend(check_user(instance, plan, user))
    violations.extend(check_events(instance, plan, enforce_lower))
    return violations


def is_feasible(
    instance: Instance, plan: GlobalPlan, enforce_lower: bool = True
) -> bool:
    """Whether ``plan`` satisfies Definition 1 on ``instance``."""
    return not check_plan(instance, plan, enforce_lower)


def _screened_users(instance: Instance, plan: GlobalPlan) -> np.ndarray:
    """Ascending ids of every user :func:`check_user` could fault.

    Exact screens flag a consecutive pair of a plan list that conflicts
    or is out of start order, and any assignment of utility <= 0.  The
    budget screen adds each user's route-cost terms in plan-list order
    (which is the visiting order once the pairs are in start order) and
    flags a cost within ``BUDGET_SCREEN_REL`` per term of the budget
    slack — wider than any difference the summation order can make.
    """
    owners, events, lengths = plan.flat()
    flagged = np.zeros(instance.n_users, dtype=bool)
    if not events.size:
        return np.flatnonzero(flagged)
    flagged[owners[instance.utility[owners, events] <= 0.0]] = True

    linked = owners[1:] == owners[:-1]
    first, second = events[:-1][linked], events[1:][linked]
    pair_owners = owners[1:][linked]
    starts = instance.event_starts
    unordered = starts[second] < starts[first]
    conflicting = instance.conflict_matrix[first, second]
    flagged[pair_owners[conflicting | unordered]] = True

    users = np.flatnonzero(lengths)
    last = np.cumsum(lengths)[users] - 1
    head = last - lengths[users] + 1
    d = instance.distances
    n = instance.n_users
    cost = d.user_event_pairs(users, events[head]) + d.user_event_pairs(
        users, events[last]
    )
    cost += np.bincount(
        pair_owners, weights=d.event_event_matrix[first, second], minlength=n
    )[users]
    cost += np.bincount(
        owners, weights=instance.fee_vector[events], minlength=n
    )[users]
    records = instance.users
    budgets = np.fromiter(
        (records[user].budget for user in users.tolist()),
        dtype=float,
        count=users.size,
    )
    terms = 2 * lengths[users] + 1
    over = cost * (1.0 + terms * BUDGET_SCREEN_REL) > budgets + BUDGET_TOL
    flagged[users[over]] = True
    return np.flatnonzero(flagged)


def check_user(
    instance: Instance, plan: GlobalPlan, user: int
) -> list[ConstraintViolation]:
    """Every violation in ``user``'s own plan: time conflicts between
    consecutive events, zero-utility assignments, the budget."""
    violations = []
    events = plan.user_plan(user)
    for first, second in zip(events, events[1:]):
        if instance.events_conflict(first, second):
            violations.append(
                ConstraintViolation(
                    ViolationKind.TIME_CONFLICT,
                    user=user,
                    event=second,
                    detail=f"with event {first}",
                )
            )
    # Defence in depth: consecutive-pair checks miss nothing for
    # intervals, but zero-utility assignments are solver bugs.
    for event in events:
        if instance.utility[user, event] <= 0.0:
            violations.append(
                ConstraintViolation(
                    ViolationKind.ZERO_UTILITY, user=user, event=event
                )
            )
    cost = instance.route_cost(user, events)
    budget = instance.users[user].budget
    if cost > budget + BUDGET_TOL:
        violations.append(
            ConstraintViolation(
                ViolationKind.BUDGET_EXCEEDED,
                user=user,
                detail=f"cost {cost:.4f} > budget {budget:.4f}",
            )
        )
    return violations


def check_events(
    instance: Instance, plan: GlobalPlan, enforce_lower: bool
) -> list[ConstraintViolation]:
    violations = []
    for event in range(instance.n_events):
        count = plan.attendance(event)
        spec = instance.events[event]
        if count > spec.upper:
            violations.append(
                ConstraintViolation(
                    ViolationKind.UPPER_BOUND,
                    event=event,
                    detail=f"{count} > eta={spec.upper}",
                )
            )
        if enforce_lower and 0 < count < spec.lower:
            violations.append(
                ConstraintViolation(
                    ViolationKind.LOWER_BOUND,
                    event=event,
                    detail=f"{count} < xi={spec.lower}",
                )
            )
    return violations
