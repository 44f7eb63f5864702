"""Spatial candidate pruning: per-event candidate user sets from a grid.

In city-shaped EBSN workloads most user-event pairs are *unreachable*: a
lone round trip to the venue plus its admission fee already exceeds the
user's travel budget.  The kernel's feasibility mask rediscovers that per
pair on every pass; at million-user scale even scanning those rows is the
dominant cost.  :class:`SpatialCandidateIndex` removes them up front.

Soundness (why skipping pruned pairs is bit-identical):

Any route of user ``u`` that contains event ``e`` visits ``e`` between two
legs anchored at ``u``'s home, so under a metric travel cost it is at
least ``2 * d(u, e)`` long, and with non-negative admission fees it costs
at least ``2 * d(u, e) + fee_e``.  The solvers' budget test is
``route <= B_u + BUDGET_TOL`` — therefore a pair with
``2 * d(u, e) + fee_e > B_u + BUDGET_TOL`` can *never* pass any budget
check, whatever the rest of the plan looks like.  The index keeps exactly
the complementary set: ``candidate_users(e)`` is bit-for-bit the set of
users whose singleton round trip to ``e`` passes the same
``<= B_u + BUDGET_TOL`` comparison the kernel mask evaluates (the exact
refinement below reuses the metric's own ``cross_coords`` floats), so a
solver that iterates candidates only — and a solver that scans everyone —
make identical decisions.

The grid itself is a uniform bucketing of *user* homes.  Per event, whole
cells are discarded with a rectangle lower bound
(``2 * lb(cell, e) + fee_e > max-budget-in-cell + tol``); surviving cells
are refined member by member with the exact test.  The lower bound is the
metric's distance to the cell's tight bounding rectangle, so no feasible
user can ever be discarded at the cell level.
"""

from __future__ import annotations

import numpy as np

from repro.core.tolerances import BUDGET_TOL
from repro.obs import get_recorder

#: Average users per grid cell the bucketing aims for.
TARGET_CELL_OCCUPANCY = 64


class SpatialCandidateIndex:
    """Per-event candidate user sets over a uniform spatial grid.

    Parameters
    ----------
    user_coords:
        ``(n, 2)`` float64 user home coordinates.
    budgets:
        ``(n,)`` float64 travel budgets ``B_u``.
    event_coords:
        ``(m, 2)`` float64 event venue coordinates.
    fees:
        ``(m,)`` float64 admission fees (zeros when the cost model is
        fee-free).
    metric:
        The travel metric (must provide ``cross_coords`` and
        ``rect_lower_bound``).
    tol:
        The budget tolerance; defaults to the repo-wide
        :data:`~repro.core.tolerances.BUDGET_TOL` so the candidate test
        is exactly the kernel's.
    """

    def __init__(
        self,
        user_coords: np.ndarray,
        budgets: np.ndarray,
        event_coords: np.ndarray,
        fees: np.ndarray,
        metric: object,
        tol: float = BUDGET_TOL,
    ) -> None:
        self._user_coords = np.asarray(user_coords, dtype=float).reshape(-1, 2)
        # Owned copies: the in-place patches write these.
        self._budgets = np.array(budgets, dtype=float).reshape(-1)
        self._event_coords = np.array(event_coords, dtype=float).reshape(
            -1, 2
        )
        self._fees = np.array(fees, dtype=float).reshape(-1)
        self._metric = metric
        self._tol = tol
        self._build_grid()
        self._candidates: list[np.ndarray] = [
            self._compute_candidates(e) for e in range(self.n_events)
        ]
        self._active_mask: np.ndarray | None = None
        obs = get_recorder()
        obs.count("grid.builds")
        obs.count(
            "grid.candidate_pairs",
            int(sum(c.size for c in self._candidates)),
        )
        obs.count(
            "grid.pruned_pairs",
            int(self.n_users) * int(self.n_events)
            - int(sum(c.size for c in self._candidates)),
        )

    # ------------------------------------------------------------------ #
    # Construction internals
    # ------------------------------------------------------------------ #

    def _build_grid(self) -> None:
        n = self.n_users
        coords = self._user_coords
        if n == 0:
            self._cell_slices = np.zeros(1, dtype=np.intp)
            self._sorted_users = np.zeros(0, dtype=np.intp)
            self._user_rank = np.zeros(0, dtype=np.intp)
            self._cell_lo = np.zeros((0, 2))
            self._cell_hi = np.zeros((0, 2))
            self._cell_max_budget = np.zeros(0)
            return
        cells_per_axis = max(1, int(np.sqrt(n / TARGET_CELL_OCCUPANCY)))
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        span = np.maximum(hi - lo, 1e-12)
        # Clip keeps the max coordinate in the last cell.
        ix = np.clip(
            ((coords[:, 0] - lo[0]) / span[0] * cells_per_axis).astype(
                np.intp
            ),
            0,
            cells_per_axis - 1,
        )
        iy = np.clip(
            ((coords[:, 1] - lo[1]) / span[1] * cells_per_axis).astype(
                np.intp
            ),
            0,
            cells_per_axis - 1,
        )
        cell_of_user = ix * cells_per_axis + iy
        order = np.argsort(cell_of_user, kind="stable").astype(np.intp)
        sorted_cells = cell_of_user[order]
        # Only non-empty cells are materialised; ``_cell_slices`` are the
        # boundaries of each occupied cell's run inside ``_sorted_users``.
        unique_cells, starts = np.unique(sorted_cells, return_index=True)
        self._sorted_users = order
        # Inverse permutation: a user's position inside ``_sorted_users``
        # (used to locate their cell without an O(n) scan).
        self._user_rank = np.empty(n, dtype=np.intp)
        self._user_rank[order] = np.arange(n, dtype=np.intp)
        self._cell_slices = np.append(starts, n).astype(np.intp)
        n_cells = unique_cells.size
        cell_lo = np.empty((n_cells, 2))
        cell_hi = np.empty((n_cells, 2))
        cell_max_budget = np.empty(n_cells)
        for c in range(n_cells):
            members = order[self._cell_slices[c] : self._cell_slices[c + 1]]
            member_coords = coords[members]
            # Tight per-cell bounding rectangle of the *actual* members —
            # tighter than the nominal grid rectangle, equally sound.
            cell_lo[c] = member_coords.min(axis=0)
            cell_hi[c] = member_coords.max(axis=0)
            cell_max_budget[c] = self._budgets[members].max()
        self._cell_lo = cell_lo
        self._cell_hi = cell_hi
        self._cell_max_budget = cell_max_budget

    def _compute_candidates(self, event: int) -> np.ndarray:
        """Exact candidate set of one event (sorted global user ids)."""
        if self.n_users == 0:
            return np.zeros(0, dtype=np.intp)
        fee = float(self._fees[event])
        point = self._event_coords[event]
        lower = self._metric.rect_lower_bound(
            point, self._cell_lo, self._cell_hi
        )
        # A cell survives when even its best case (closest corner, richest
        # member) might be feasible; everything else is provably out.
        alive = 2.0 * lower + fee <= self._cell_max_budget + self._tol
        if not alive.any():
            return np.zeros(0, dtype=np.intp)
        member_runs = [
            self._sorted_users[
                self._cell_slices[c] : self._cell_slices[c + 1]
            ]
            for c in np.flatnonzero(alive)
        ]
        members = np.concatenate(member_runs)
        # Exact refinement with the metric's own block floats: identical
        # values (and the identical ``<= B + tol`` comparison) to the
        # kernel's singleton budget test.
        distances = self._metric.cross_coords(
            self._user_coords[members], point[None, :]
        )[:, 0]
        feasible = (
            2.0 * distances + fee <= self._budgets[members] + self._tol
        )
        return np.sort(members[feasible]).astype(np.intp)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def n_users(self) -> int:
        return int(self._user_coords.shape[0])

    @property
    def n_events(self) -> int:
        return int(self._event_coords.shape[0])

    def candidate_users(self, event: int) -> np.ndarray:
        """Users whose singleton round trip to ``event`` fits their budget
        (sorted ascending, read-only)."""
        row = self._candidates[event].view()
        row.flags.writeable = False
        return row

    def candidate_count(self, event: int) -> int:
        return int(self._candidates[event].size)

    def active_user_mask(self) -> np.ndarray:
        """Boolean mask of users with at least one candidate event.

        A ``False`` user can never attend anything: every event fails the
        singleton budget bound, which lower-bounds every richer plan.
        Read-only; cached.
        """
        if self._active_mask is None:
            mask = np.zeros(self.n_users, dtype=bool)
            for candidates in self._candidates:
                mask[candidates] = True
            mask.flags.writeable = False
            self._active_mask = mask
        return self._active_mask

    def active_users(self) -> np.ndarray:
        """Sorted ids of users with at least one candidate event."""
        return np.flatnonzero(self.active_user_mask()).astype(np.intp)

    def candidate_pairs(self) -> int:
        """Total kept (user, event) pairs across all events."""
        return int(sum(c.size for c in self._candidates))

    # ------------------------------------------------------------------ #
    # In-place patches (the IEP operations, via ``Instance``)
    # ------------------------------------------------------------------ #

    def move_event(self, event: int, coord: np.ndarray) -> None:
        """One event moved: only its candidate set is recomputed."""
        self._event_coords[event] = coord
        self._candidates[event] = self._compute_candidates(event)
        self._active_mask = None

    def append_event(self, coord: np.ndarray, fee: float) -> None:
        """One more event column (IEP ``NewEvent``)."""
        self._event_coords = np.vstack([self._event_coords, coord[None, :]])
        self._fees = np.append(self._fees, fee)
        self._candidates.append(self._compute_candidates(self.n_events - 1))
        self._active_mask = None

    def drop_last_event(self) -> None:
        """Undo :meth:`append_event`."""
        self._event_coords = self._event_coords[:-1].copy()
        self._fees = self._fees[:-1].copy()
        self._candidates.pop()
        self._active_mask = None

    def set_user_budget(self, user: int, budget: float) -> None:
        """One user's new budget (IEP ``BudgetChange``), exact in O(m):
        their feasibility against every event is recomputed with the
        rebuild's own floats and comparison.  The cell-level max budget
        only ever rises (a loose upper bound prunes fewer cells, never a
        feasible user), so later moves and appends stay exact."""
        user = int(user)
        budget = float(budget)
        self._budgets[user] = budget
        if self._cell_max_budget.size:
            rank = int(self._user_rank[user])
            cell = int(
                np.searchsorted(self._cell_slices, rank, side="right") - 1
            )
            if budget > self._cell_max_budget[cell]:
                self._cell_max_budget[cell] = budget
        distances = self._metric.cross_coords(
            self._user_coords[user : user + 1], self._event_coords
        )[0]
        feasible = 2.0 * distances + self._fees <= budget + self._tol
        for event in range(self.n_events):
            row = self._candidates[event]
            pos = int(np.searchsorted(row, user))
            present = pos < row.size and row[pos] == user
            if feasible[event] and not present:
                self._candidates[event] = np.insert(row, pos, user)
            elif not feasible[event] and present:
                self._candidates[event] = np.delete(row, pos)
        self._active_mask = None
