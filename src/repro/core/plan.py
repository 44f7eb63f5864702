"""Global plans: the object the GEPC/IEP solvers produce and repair.

A :class:`GlobalPlan` holds one individual plan per user — a list of event
ids kept sorted by event start time (the visiting order that defines the
paper's travel cost ``D_i``) — plus the per-event attendance counters the
bound constraints are checked against.

The plan is also the home of the **vectorized incremental kernel** the
solvers' inner loops run on (see ``docs/performance.md``):

* ``add``/``remove`` maintain the cached route costs by splice delta
  (predecessor/successor distance arithmetic) instead of recomputing the
  whole route, and keep a per-event attendee index so ``attendees`` and
  ``clear_event`` are O(degree) instead of O(n * k);
* per-user **blocked-event counters** (``blocked[f]`` = how many of the
  user's assigned events conflict with event ``f``) make every conflict
  check an O(1) lookup and whole-row masking trivial;
* ``insertion_deltas``/``feasible_mask`` evaluate *all* candidate events of
  one user at once through ``DistanceMatrix`` row slices, cached until that
  user's plan next changes — ``can_attend`` is an O(1) lookup into the same
  cache.

An IEP operation patches the plan's instance in place; :meth:`GlobalPlan.
follow` then recomputes only what the patch made stale, and a
:class:`Journal` records enough to compute ``dif`` and to roll the whole
apply back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator

import numpy as np

from repro.core import kernel as kernel_mod
from repro.core.model import Instance
from repro.core.tolerances import BUDGET_TOL, ROUTE_DRIFT_REPIN_TOL

# Mutation observers installed by repro.check.shadow (empty in normal
# operation: the guard is one truthiness test per add/remove).  Each hook
# is called as ``hook(plan, action, user, event)`` after the mutation.
_MUTATION_HOOKS: list[Callable[["GlobalPlan", str, int, int], None]] = []


class GlobalPlan:
    """Mutable assignment of users to events.

    The plan does not validate constraints on mutation (solvers need partial
    states); use :func:`repro.core.constraints.check_plan` for validation.
    """

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self._plans: list[list[int]] = [[] for _ in range(instance.n_users)]
        self._attendance: list[int] = [0] * instance.n_events
        self._route_costs: list[float] = [0.0] * instance.n_users
        # Per-event attendee index: attendees()/clear_event() in O(degree).
        self._attendee_sets: list[set[int]] = [
            set() for _ in range(instance.n_events)
        ]
        # Per-user blocked-event counters, created lazily per user (int16
        # rows; a user's plan never exceeds a few dozen events) and then
        # maintained incrementally on add/remove.
        self._blocked: dict[int, np.ndarray] = {}
        # Per-user (insertion deltas, feasibility mask), invalidated when
        # that user's plan changes.
        self._kernel_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._event_ids = np.arange(instance.n_events)
        # The undo journal of the in-place apply in progress, if any.
        self._journal: Journal | None = None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def user_plan(self, user: int) -> list[int]:
        """Event ids in ``user``'s plan, sorted by start time (a copy)."""
        return list(self._plans[user])

    def attendance(self, event: int) -> int:
        """Number of users currently assigned to ``event`` (``n_j``)."""
        return self._attendance[event]

    def attendees(self, event: int) -> list[int]:
        """Users currently assigned to ``event`` (ascending user id)."""
        return sorted(self._attendee_sets[event])

    def contains(self, user: int, event: int) -> bool:
        return user in self._attendee_sets[event]

    def route_cost(self, user: int) -> float:
        """Cached travel cost ``D_i`` of ``user``'s current plan."""
        return self._route_costs[user]

    def size(self) -> int:
        """Total number of (user, event) assignments."""
        return sum(len(plan) for plan in self._plans)

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every assignment as flat arrays ``(owners, events, lengths)``.

        ``events`` concatenates the plan lists in user order, each in its
        own list order; ``owners[k]`` is the user holding ``events[k]``
        and ``lengths[i]`` the length of user ``i``'s list.  Built fresh
        per call (nothing to invalidate): the whole-plan checks gather
        over it instead of walking users in Python.
        """
        plans = self._plans
        lengths = np.fromiter(map(len, plans), dtype=np.intp, count=len(plans))
        events = np.fromiter(
            chain.from_iterable(plans), dtype=np.intp, count=int(lengths.sum())
        )
        owners = np.repeat(np.arange(len(plans), dtype=np.intp), lengths)
        return owners, events, lengths

    def assigned_events(self) -> set[int]:
        """Events with at least one attendee."""
        return {j for j, count in enumerate(self._attendance) if count > 0}

    def __iter__(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Iterate ``(user, (event ids...))`` pairs.

        Plans are exposed as tuples built straight off the internal lists —
        no per-user copied list objects to mutate (or allocate) — so
        iterating a large plan is one cheap pass.
        """
        for user, plan in enumerate(self._plans):
            yield user, tuple(plan)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GlobalPlan):
            return NotImplemented
        return self._plans == other._plans

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(
        self,
        user: int,
        event: int,
        splice_hint: tuple[int, float] | None = None,
    ) -> None:
        """Assign ``user`` to ``event`` (keeps the plan start-sorted).

        The cached route cost is updated by splice delta — O(k) position
        search plus O(1) distance arithmetic — never a full route recompute.
        ``splice_hint`` lets a caller that already computed the exact
        ``(position, delta)`` splice (e.g. the batched fill fast path via
        :func:`repro.core.kernel.scalar_splice`, which is bit-identical to
        :meth:`_splice`) skip the recompute; the shadow checker and the
        differential fuzzer verify the resulting route costs either way.
        """
        if user in self._attendee_sets[event]:
            raise ValueError(f"user {user} already attends event {event}")
        if self._journal is not None:
            self._journal.save(user)
        plan = self._plans[user]
        if splice_hint is None:
            position, delta = self._splice(user, plan, event)
        else:
            position, delta = splice_hint
        plan.insert(position, event)
        self._attendance[event] += 1
        self._attendee_sets[event].add(user)
        self._route_costs[user] += delta
        self._touch(user, event, +1)
        if _MUTATION_HOOKS:
            for hook in _MUTATION_HOOKS:
                hook(self, "add", user, event)

    def remove(self, user: int, event: int) -> None:
        """Drop ``event`` from ``user``'s plan (splice-delta route update)."""
        if user not in self._attendee_sets[event]:
            raise ValueError(
                f"user {user} does not attend event {event}"
            )
        if self._journal is not None:
            self._journal.save(user)
        plan = self._plans[user]
        position = plan.index(event)
        delta = self._unsplice_delta(user, plan, position)
        del plan[position]
        self._attendance[event] -= 1
        self._attendee_sets[event].discard(user)
        if plan:
            self._route_costs[user] += delta
        else:
            self._route_costs[user] = 0.0  # pin to exact zero (no drift)
        self._touch(user, event, -1)
        if _MUTATION_HOOKS:
            for hook in _MUTATION_HOOKS:
                hook(self, "remove", user, event)

    def clear_event(self, event: int) -> list[int]:
        """Remove ``event`` from every plan (event cancelled).

        Returns the users whose plans were touched.  O(degree) via the
        attendee index.
        """
        touched = self.attendees(event)
        for user in touched:
            self.remove(user, event)
        return touched

    def _conflict_matrix(self) -> np.ndarray:
        # The instance's own (in-place patched) matrix: _touch runs on
        # every mutation, and the property wraps a fresh view per call.
        matrix = self.instance._conflict_matrix
        return self.instance.conflict_matrix if matrix is None else matrix

    def _touch(self, user: int, event: int, sign: int) -> None:
        """Post-mutation bookkeeping: blocked counters and kernel cache."""
        blocked = self._blocked.get(user)
        if blocked is not None:
            row = self._conflict_matrix()[event]
            if sign > 0:
                blocked += row
            else:
                blocked -= row
        self._kernel_cache.pop(user, None)

    # ------------------------------------------------------------------ #
    # The vectorized incremental kernel
    # ------------------------------------------------------------------ #

    def _splice(
        self, user: int, plan: list[int], event: int
    ) -> tuple[int, float]:
        """(insertion position, route-cost delta) for adding ``event``."""
        starts = self.instance.event_starts
        start = starts[event]
        position = 0
        while position < len(plan) and starts[plan[position]] <= start:
            position += 1
        d = self.instance.distances
        fee = float(self.instance.fee_vector[event])
        if not plan:
            return 0, 2.0 * d.user_event(user, event) + fee
        if position == 0:
            successor = plan[0]
            delta = (
                -d.user_event(user, successor)
                + d.user_event(user, event)
                + d.event_event(event, successor)
            )
        elif position == len(plan):
            predecessor = plan[-1]
            delta = (
                -d.user_event(user, predecessor)
                + d.event_event(predecessor, event)
                + d.user_event(user, event)
            )
        else:
            predecessor, successor = plan[position - 1], plan[position]
            delta = (
                -d.event_event(predecessor, successor)
                + d.event_event(predecessor, event)
                + d.event_event(event, successor)
            )
        return position, delta + fee

    def _unsplice_delta(
        self, user: int, plan: list[int], position: int
    ) -> float:
        """Route-cost delta of removing ``plan[position]`` (negative)."""
        event = plan[position]
        d = self.instance.distances
        fee = float(self.instance.fee_vector[event])
        if len(plan) == 1:
            return -(2.0 * d.user_event(user, event) + fee)
        if position == 0:
            successor = plan[1]
            delta = (
                d.user_event(user, successor)
                - d.user_event(user, event)
                - d.event_event(event, successor)
            )
        elif position == len(plan) - 1:
            predecessor = plan[-2]
            delta = (
                d.user_event(user, predecessor)
                - d.event_event(predecessor, event)
                - d.user_event(user, event)
            )
        else:
            predecessor, successor = plan[position - 1], plan[position + 1]
            delta = (
                d.event_event(predecessor, successor)
                - d.event_event(predecessor, event)
                - d.event_event(event, successor)
            )
        return delta - fee

    def _blocked_row(self, user: int) -> np.ndarray:
        """``user``'s *writable* blocked-counter row (internal only).

        ``_touch`` maintains the row in place (``blocked += row``), so the
        cached array itself must stay writable; only the public accessor
        hands out a locked view.
        """
        blocked = self._blocked.get(user)
        if blocked is None:
            matrix = self._conflict_matrix()
            plan = self._plans[user]
            if plan:
                blocked = matrix[plan].sum(axis=0, dtype=np.int16)
            else:
                blocked = np.zeros(self.instance.n_events, dtype=np.int16)
            self._blocked[user] = blocked
        return blocked

    def blocked_counts(self, user: int) -> np.ndarray:
        """``user``'s blocked-event counter row (read-only view).

        ``blocked_counts(u)[f]`` is the number of events in ``u``'s plan
        that conflict with event ``f`` — zero means conflict-free.  Built
        lazily from the dense conflict matrix, then maintained on every
        add/remove.
        """
        view = self._blocked_row(user).view()
        view.flags.writeable = False
        return view

    def conflict_count(self, user: int, event: int) -> int:
        """How many of ``user``'s assigned events conflict with ``event``."""
        return int(self._blocked_row(user)[event])

    def insertion_deltas(self, user: int) -> np.ndarray:
        """Splice route-cost deltas for adding *each* event to ``user``'s
        plan (read-only; cached until the plan changes).

        One vectorized pass over ``DistanceMatrix`` row slices replaces the
        per-event Python splice of ``Instance.route_cost_with``.
        """
        return self._kernel(user)[0]

    def feasible_mask(self, user: int) -> np.ndarray:
        """Boolean mask over events: ``mask[j]`` iff ``can_attend(user, j)``.

        Combines positive utility, not-already-attending, zero blocked-event
        counters, and the budget check on the vectorized insertion deltas —
        the whole candidate row in a handful of numpy ops (read-only;
        cached until the plan changes).
        """
        return self._kernel(user)[1]

    def _kernel(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._kernel_cache.get(user)
        if cached is not None:
            return cached
        deltas, mask = kernel_mod.kernel_row(self, user)
        deltas.flags.writeable = False
        mask.flags.writeable = False
        self._kernel_cache[user] = (deltas, mask)
        return deltas, mask

    def kernel_block(
        self, users: np.ndarray | list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``(insertion_deltas, feasible_mask)`` rows for ``users``.

        Rows missing from the per-user cache are computed by the active
        kernel strategy's block path — one vectorized user×event pass under
        ``REPRO_KERNEL=batched`` — and cached per user exactly as if
        :meth:`feasible_mask` had been called row by row (bit-identical
        values; the cached rows are read-only views into the block
        matrices).  Returns read-only arrays of shape
        ``(len(users), n_events)``.
        """
        users = np.asarray(users, dtype=np.intp)
        cache = self._kernel_cache
        if users.size == 0:
            m = self.instance.n_events
            return (
                np.empty((0, m), dtype=float),
                np.empty((0, m), dtype=bool),
            )
        missing = users[[int(u) not in cache for u in users]]
        if missing.size:
            deltas, mask = kernel_mod.kernel_block(self, missing)
            deltas.flags.writeable = False
            mask.flags.writeable = False
            for i, user in enumerate(missing):
                cache[int(user)] = (deltas[i], mask[i])
            if missing.size == users.size:
                return deltas, mask
        stacked_deltas = np.stack([cache[int(u)][0] for u in users])
        stacked_mask = np.stack([cache[int(u)][1] for u in users])
        stacked_deltas.flags.writeable = False
        stacked_mask.flags.writeable = False
        return stacked_deltas, stacked_mask

    # ------------------------------------------------------------------ #
    # Feasibility helpers used by the solvers' inner loops
    # ------------------------------------------------------------------ #

    def can_attend(self, user: int, event: int) -> bool:
        """Whether ``event`` can join ``user``'s plan: positive utility, no
        time conflict, and the new route stays within budget.

        Event capacity is *not* checked here — callers track residual
        capacity themselves (the two solver steps use different capacities).
        An O(1) lookup into the cached :meth:`feasible_mask` row when one
        exists; otherwise a scalar O(k) splice check — building the full
        vector kernel for a single lookup would waste the whole row.
        """
        cached = self._kernel_cache.get(user)
        if cached is not None:
            return bool(cached[1][event])
        instance = self.instance
        if instance.utility[user, event] <= 0.0:
            return False
        if user in self._attendee_sets[event]:
            return False
        blocked = self._blocked.get(user)
        if blocked is not None:
            if blocked[event]:
                return False
        else:
            conflicts = instance.conflicts[event]
            if conflicts and any(e in conflicts for e in self._plans[user]):
                return False
        _, delta = self._splice(user, self._plans[user], event)
        budget = instance.users[user].budget
        return self._route_costs[user] + delta <= budget + BUDGET_TOL

    def cost_with(self, user: int, event: int) -> float:
        """Route cost of ``user``'s plan if ``event`` were added."""
        cached = self._kernel_cache.get(user)
        if cached is not None:
            return self._route_costs[user] + float(cached[0][event])
        _, delta = self._splice(user, self._plans[user], event)
        return self._route_costs[user] + delta

    def swap_cost(self, user: int, out_event: int, in_event: int) -> float:
        """Route cost of ``user``'s plan with ``out_event`` replaced by
        ``in_event`` — O(k) splice arithmetic on the cached base cost, used
        by the IEP transfer loop."""
        plan = self._plans[user]
        position = plan.index(out_event)
        removal = self._unsplice_delta(user, plan, position)
        rest = plan[:position] + plan[position + 1 :]
        _, insertion = self._splice(user, rest, in_event)
        return self._route_costs[user] + removal + insertion

    def repin_route_cost(
        self, user: int, tolerance: float = ROUTE_DRIFT_REPIN_TOL
    ) -> float:
        """Re-pin ``user``'s cached route cost to an exact recompute.

        The splice-delta maintenance accumulates float error over long
        mutation streams; this measures the drift (cached minus exact) and,
        when it exceeds ``tolerance``, replaces the cached value with the
        exact recompute and drops the user's kernel row (its deltas were
        built against the drifted base).  Returns the measured drift so
        callers (the fuzzer, the auditor) can track the worst case.
        """
        exact = self.instance.route_cost(user, self._plans[user])
        drift = self._route_costs[user] - exact
        if abs(drift) > tolerance:
            self._route_costs[user] = exact
            self._kernel_cache.pop(user, None)
        return drift

    # ------------------------------------------------------------------ #
    # Copies, rebinding, and following in-place instance patches
    # ------------------------------------------------------------------ #

    def copy(self) -> "GlobalPlan":
        """A deep copy bound to the same instance."""
        clone = GlobalPlan.__new__(GlobalPlan)
        clone.instance = self.instance
        clone._plans = [list(plan) for plan in self._plans]
        clone._attendance = list(self._attendance)
        clone._route_costs = list(self._route_costs)
        clone._attendee_sets = [set(s) for s in self._attendee_sets]
        # Blocked rows rebuild lazily; only rows backing a live plan are
        # worth carrying (at soak scale most users hold none).
        clone._blocked = {
            user: row.copy()
            for user, row in self._blocked.items()
            if self._plans[user]
        }
        # Cached kernel rows are immutable (write-locked) once built, so
        # the clone can share them until either plan diverges.
        clone._kernel_cache = dict(self._kernel_cache)
        clone._event_ids = self._event_ids
        clone._journal = None
        return clone

    def rebound_to(self, instance: Instance) -> "GlobalPlan":
        """A copy of this plan bound to ``instance``, a copy of its own
        (:meth:`Instance.copy`): every cached value carries over."""
        if instance.utility.shape != self.instance.utility.shape:
            raise ValueError("rebinding needs an instance of the same shape")
        clone = self.copy()
        clone.instance = instance
        return clone

    def follow(self, journal: "Journal") -> None:
        """Bring the caches in line with the instance patches in ``journal``.

        Re-sorts and recosts exactly what the patches made stale: every
        attendee of a moved or retimed event and every user whose record
        was rewritten — every plan when the cost model was replaced —
        saving each to the journal first.  Kernel rows are dropped, and
        blocked rows when the conflict relation changed.
        """
        instance = self.instance
        appended = instance.n_events - len(self._attendance)
        if appended:
            self._attendance.extend([0] * appended)
            self._attendee_sets.extend(set() for _ in range(appended))
            self._event_ids = np.arange(instance.n_events)
        self._kernel_cache = {}
        if journal.retimed:
            self._blocked = {}

        if instance.cost_model is not journal.cost_model:
            stale = set(range(instance.n_users))
        else:
            stale = set(journal.rewritten_users)
            for event in journal.moved_events:
                stale |= self._attendee_sets[event]
        starts = instance.event_starts
        for user in stale:
            plan = self._plans[user]
            if not plan:
                continue
            journal.save(user)
            plan.sort(key=starts.__getitem__)
            self._route_costs[user] = instance.route_cost(user, plan)


class Journal:
    """The undo journal of one in-place apply.

    Attached to a plan and its instance for the length of a ``with``
    block (:meth:`repro.core.iep.engine.IEPEngine.apply_in_place`).  The
    instance's patches push their inverse onto ``undo`` and note what
    they changed (``moved_events``, ``rewritten_users``, ``retimed``);
    the plan saves each user's event list and route cost the first time
    anything touches them (``before``).  Leaving the block on an
    exception rolls both back exactly, then lets the exception go on.
    """

    def __init__(self, plan: GlobalPlan) -> None:
        self.plan = plan
        self.instance = plan.instance
        self.undo: list[Callable[[], None]] = []
        self.before: dict[int, tuple[list[int], float]] = {}
        self.cost_model = self.instance.cost_model
        self.moved_events: set[int] = set()
        self.rewritten_users: set[int] = set()
        self.retimed = False

    def __enter__(self) -> "Journal":
        self.plan._journal = self
        self.instance._journal = self
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.plan._journal = None
        self.instance._journal = None
        if exc_type is not None:
            self.rollback()

    def save(self, user: int) -> None:
        """Record ``user``'s plan and route cost at first touch."""
        if user not in self.before:
            plan = self.plan
            self.before[user] = (
                list(plan._plans[user]), plan._route_costs[user]
            )

    def dif(self) -> int:
        """Definition 2's ``dif`` of the apply so far: only saved users
        can have lost an event."""
        plans = self.plan._plans
        return sum(
            len(set(events) - set(plans[user]))
            for user, (events, _) in self.before.items()
        )

    def rollback(self) -> None:
        """Restore the plan and the instance to their state at entry
        (blocked and kernel rows are dropped: they rebuild to the same
        values)."""
        plan = self.plan
        for user, (events, cost) in self.before.items():
            current = plan._plans[user]
            for event in set(current) - set(events):
                plan._attendance[event] -= 1
                plan._attendee_sets[event].discard(user)
            for event in set(events) - set(current):
                plan._attendance[event] += 1
                plan._attendee_sets[event].add(user)
            current[:] = events
            plan._route_costs[user] = cost
        plan._blocked = {}
        plan._kernel_cache = {}
        for undo in reversed(self.undo):
            undo()
        m = self.instance.n_events
        if len(plan._attendance) != m:
            del plan._attendance[m:]
            del plan._attendee_sets[m:]
            plan._event_ids = np.arange(m)


@dataclass(frozen=True)
class PlanSummary:
    """A compact, hashable snapshot of a plan (used in tests and examples)."""

    assignments: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(plan: GlobalPlan) -> "PlanSummary":
        return PlanSummary(
            tuple(
                tuple(sorted(plan.user_plan(u)))
                for u in range(plan.instance.n_users)
            )
        )
