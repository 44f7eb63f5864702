"""Algorithm 5: repair after an event's start/end times change.

Stages (paper lines 1-19):

1. Remove the event from every attendee whose plan the new times break —
   a time conflict with their other events, or (because the visiting order
   changed) a route that no longer fits their budget.
2. If attendance still meets the lower bound, done.
3. Otherwise offer the event to other users in non-increasing utility order
   up to the upper bound (pure additions, no negative impact).
4. If attendance is still short, fall back to Algorithm 4's transfer loop
   with target ``xi_j`` (and cancellation as the last resort).

A venue :func:`location_change` is the same repair without the conflict
check — only budgets can break when an event moves in space.
"""

from __future__ import annotations

from repro.core.gepc.fill import UtilityFill
from repro.core.iep.xi_increase import _free_additions, raise_attendance
from repro.core.model import Instance
from repro.core.plan import GlobalPlan
from repro.core.tolerances import BUDGET_TOL as _BUDGET_TOL
from repro.obs import get_recorder


def time_change(
    instance: Instance, plan: GlobalPlan, event: int
) -> dict[str, float]:
    """Repair ``plan`` in place after ``event``'s interval changed.

    ``instance`` must already carry the new interval and ``plan`` must
    have followed the patch (:meth:`GlobalPlan.follow`).
    """
    return _perturbation_repair(instance, plan, event, check_conflicts=True)


def location_change(
    instance: Instance, plan: GlobalPlan, event: int
) -> dict[str, float]:
    """Repair ``plan`` in place after ``event``'s venue moved."""
    return _perturbation_repair(instance, plan, event, check_conflicts=False)


def _perturbation_repair(
    instance: Instance,
    plan: GlobalPlan,
    event: int,
    check_conflicts: bool,
) -> dict[str, float]:
    obs = get_recorder()
    with obs.span("remove_broken"):
        removed = _remove_broken_attendees(
            instance, plan, event, check_conflicts
        )
    obs.count("iep.broken_attendees_removed", len(removed))
    diagnostics: dict[str, float] = {"removed": float(len(removed))}

    spec = instance.events[event]
    if plan.attendance(event) < spec.lower:
        # Step 3: top up with willing users, up to the upper bound (the
        # paper fills to eta_j here since every addition is free utility).
        diagnostics["free_added"] = float(
            _free_additions(instance, plan, event, spec.upper)
        )
        if plan.attendance(event) < spec.lower:
            repair = raise_attendance(instance, plan, event, spec.lower)
            for key, value in repair.items():
                diagnostics[key] = diagnostics.get(key, 0.0) + value

    if removed:
        diagnostics["removed_refilled"] = float(
            UtilityFill().fill(
                instance,
                plan,
                excluded_events={event},
                only_users=set(removed),
            )
        )
    return diagnostics


def _remove_broken_attendees(
    instance: Instance,
    plan: GlobalPlan,
    event: int,
    check_conflicts: bool,
) -> list[int]:
    """Drop ``event`` from attendees whose plans it now breaks.

    The conflict test is an O(1) blocked-counter read (``event`` never
    conflicts with itself, so its own membership contributes nothing) and
    the budget test reuses the route cost ``GlobalPlan.follow`` already
    recomputed.
    """
    removed = []
    for user in plan.attendees(event):
        broken = False
        if check_conflicts:
            broken = plan.conflict_count(user, event) > 0
        if not broken:
            broken = (
                plan.route_cost(user)
                > instance.users[user].budget + _BUDGET_TOL
            )
        if broken:
            plan.remove(user, event)
            removed.append(user)
    return removed
