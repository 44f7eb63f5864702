"""Distance computations over collections of points.

The planning algorithms repeatedly ask for user-to-event and event-to-event
distances.  ``DistanceMatrix`` precomputes both blocks with numpy so that the
hot loops in the solvers are O(1) lookups instead of repeated ``math.hypot``
calls.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.geo.metrics import EUCLIDEAN
from repro.geo.point import Point

#: The paper's travel metric as plain functions.
euclidean = EUCLIDEAN.distance
pairwise_distances = EUCLIDEAN.pairwise
cross_distances = EUCLIDEAN.cross


class DistanceMatrix:
    """Cached user-to-event and event-to-event distances.

    Parameters
    ----------
    user_locations:
        One location per user, indexed by user id.
    event_locations:
        One location per event, indexed by event id.
    metric:
        The travel metric (defaults to Euclidean, the paper's choice).
    """

    def __init__(
        self,
        user_locations: Sequence[Point],
        event_locations: Sequence[Point],
        metric=None,
    ) -> None:
        self._metric = metric or EUCLIDEAN
        self._user_event = self._metric.cross(user_locations, event_locations)
        self._event_event = self._metric.pairwise(event_locations)

    @property
    def n_users(self) -> int:
        return self._user_event.shape[0]

    @property
    def n_events(self) -> int:
        return self._user_event.shape[1]

    @property
    def user_event_matrix(self) -> np.ndarray:
        """The raw ``n x m`` user-to-event block (treat as read-only)."""
        return self._user_event

    @property
    def event_event_matrix(self) -> np.ndarray:
        """The raw ``m x m`` event-to-event block (treat as read-only)."""
        return self._event_event

    def user_event(self, user: int, event: int) -> float:
        """Distance from ``user``'s home to ``event``'s venue."""
        return float(self._user_event[user, event])

    def event_event(self, first: int, second: int) -> float:
        """Distance between two event venues."""
        return float(self._event_event[first, second])

    def user_event_row(self, user: int) -> np.ndarray:
        """All event distances for one user (read-only).

        A fresh non-writeable view is created per call, so freezing it can
        never leave the shared backing matrix (or a view another caller
        holds) read-only.
        """
        row = self._user_event[user].view()
        row.flags.writeable = False
        return row

    def user_event_rows(
        self, users: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Distance rows for a batch of users (fresh float64 block).

        The backend-portable bulk accessor: dense gathers with one fancy
        index; the tiled backend assembles the same block from cached
        tiles.  Callers iterating very large user sets should chunk so the
        output block stays bounded.
        """
        ids = np.asarray(users, dtype=np.intp).reshape(-1)
        return self._user_event[ids]

    def user_event_pairs(
        self,
        users: Sequence[int] | np.ndarray,
        events: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """Distances of the pairs ``(users[k], events[k])`` (fresh float64
        vector): the value :meth:`user_event` serves for each pair."""
        return self._user_event[
            np.asarray(users, dtype=np.intp), np.asarray(events, dtype=np.intp)
        ]

    @classmethod
    def from_matrices(
        cls,
        user_event: np.ndarray,
        event_event: np.ndarray,
        metric=None,
    ) -> "DistanceMatrix":
        """Wrap already-computed blocks without re-running the metric.

        :meth:`copy` and :meth:`submatrix` build their results this way,
        so the values are bit-identical to the source blocks by
        construction.  The blocks are adopted as-is, not copied.
        """
        if user_event.shape[1] != event_event.shape[0] or (
            event_event.shape[0] != event_event.shape[1]
        ):
            raise ValueError(
                f"inconsistent blocks: user-event {user_event.shape} vs "
                f"event-event {event_event.shape}"
            )
        matrix = object.__new__(cls)
        matrix._metric = metric or EUCLIDEAN
        matrix._user_event = user_event
        matrix._event_event = event_event
        return matrix

    def copy(self) -> "DistanceMatrix":
        """An independent deep copy (``Instance.copy``)."""
        return DistanceMatrix.from_matrices(
            self._user_event.copy(), self._event_event.copy(), self._metric
        )

    def submatrix(
        self,
        user_ids: Sequence[int] | np.ndarray,
        event_ids: Sequence[int] | np.ndarray,
    ) -> "DistanceMatrix":
        """The cached distances restricted to a subset of users and events.

        Used by ``Instance.subinstance`` when a shard is cut out of a
        warmed instance: subsetting copies the already-computed values
        (bit-exact with a from-scratch rebuild over the same locations)
        instead of re-running the metric.
        """
        # np.intp, not the builtin int: the ids index numpy planes, and
        # the builtin maps to a platform-dependent width (C long — 32-bit
        # on LLP64 platforms) while intp is always the pointer-sized
        # indexing type.
        user_ids = np.asarray(user_ids, dtype=np.intp)
        event_ids = np.asarray(event_ids, dtype=np.intp)
        # Fancy indexing copies: the blocks own their memory.
        return DistanceMatrix.from_matrices(
            self._user_event[np.ix_(user_ids, event_ids)],
            self._event_event[np.ix_(event_ids, event_ids)],
            self._metric,
        )

    def replace_event_location(
        self,
        event: int,
        location: Point,
        user_locations: Sequence[Point],
        event_locations: Sequence[Point],
    ) -> None:
        """Update cached rows after an event moves (IEP location change).

        ``user_locations``/``event_locations`` must reflect the *new* state;
        only the rows touching ``event`` are recomputed — as one vectorized
        column assignment per block, matching how the full matrices are
        built (``metric.cross``), not per-pair scalar calls.
        """
        if user_locations:
            self._user_event[:, event] = self._metric.cross(
                user_locations, [location]
            )[:, 0]
        if event_locations:
            column = self._metric.cross(event_locations, [location])[:, 0]
            column[event] = 0.0
            self._event_event[:, event] = column
            self._event_event[event, :] = column

    def append_event(
        self,
        location: Point,
        user_locations: Sequence[Point],
        event_locations: Sequence[Point],
    ) -> None:
        """Grow both blocks by one event column (IEP ``NewEvent``).

        ``event_locations`` are the *existing* venues (the new one is only
        ``location``); every previously cached distance is carried over.
        """
        if user_locations:
            new_user = self._metric.cross(user_locations, [location])
        else:
            new_user = np.zeros((0, 1))
        if event_locations:
            column = self._metric.cross(event_locations, [location])[:, 0]
        else:
            column = np.zeros(0)
        m = self._event_event.shape[0]
        event_event = np.zeros((m + 1, m + 1))
        event_event[:m, :m] = self._event_event
        event_event[:m, m] = column
        event_event[m, :m] = column
        self._user_event = np.hstack([self._user_event, new_user])
        self._event_event = event_event

    def drop_last_event(self) -> None:
        """Undo :meth:`append_event` (views of the grown blocks)."""
        self._user_event = self._user_event[:, :-1]
        self._event_event = self._event_event[:-1, :-1]
