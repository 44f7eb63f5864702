"""Objective and impact metrics: total utility and ``dif(P, P')``.

``total_utility`` is the EBSN's global score (Definition 1's objective);
``dif`` is the IEP negative-impact measure from Definition 2 — the number of
(user, event) assignments present in the old plan but missing from the new
one, summed over users.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import Instance
from repro.core.plan import GlobalPlan


def user_utility(instance: Instance, plan: GlobalPlan, user: int) -> float:
    """``mu_i``: the sum of ``user``'s utility scores over their plan."""
    return float(
        sum(instance.utility[user, event] for event in plan.user_plan(user))
    )


def total_utility(instance: Instance, plan: GlobalPlan) -> float:
    """``U_P``: the global utility of ``plan`` (Definition 1 objective).

    One gather over the plan's flat view (this runs once per applied
    operation).  ``np.cumsum`` adds strictly left to right, users in
    order and each plan in list order, so the total is bit-identical to
    a Python ``sum`` over the same sequence; ``np.sum`` adds pairwise
    and would not be.
    """
    owners, events, _ = plan.flat()
    if not events.size:
        return 0.0
    return float(np.cumsum(instance.utility[owners, events])[-1])


def dif(old: GlobalPlan, new: GlobalPlan) -> int:
    """Negative impact ``dif(P, P') = sum_i |P_i \\ P'_i|`` (Definition 2)."""
    if old.instance.n_users != new.instance.n_users:
        raise ValueError("plans cover different user populations")
    impact = 0
    for user, events in enumerate(old._plans):
        if not events:
            continue
        lost = set(events) - set(new._plans[user])
        impact += len(lost)
    return impact


def per_user_dif(old: GlobalPlan, new: GlobalPlan) -> list[int]:
    """Per-user breakdown of the negative impact (diagnostics)."""
    return [
        len(set(old.user_plan(user)) - set(new.user_plan(user)))
        for user in range(old.instance.n_users)
    ]
