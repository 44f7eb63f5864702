"""Pluggable travel metrics.

Section II notes travel costs "may consist of one, or a combination, of
distance (e.g., Euclidean, Manhattan), cost of attendance (e.g., admission
fee), and other considerations" — the paper then uses Euclidean distance.
This module provides the distance part of that generality: Euclidean
(the paper's default) and Manhattan metrics behind one small protocol, used
by :class:`repro.geo.distance.DistanceMatrix` and the cost model.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Protocol

import numpy as np

from repro.geo.point import Point


class TravelMetric(Protocol):
    """A distance function over the planning plane."""

    name: str

    def distance(self, a: Point, b: Point) -> float:
        """Distance between two points."""
        ...

    def pairwise(self, points: Sequence[Point]) -> np.ndarray:
        """Dense symmetric distance matrix."""
        ...

    def cross(
        self, left: Sequence[Point], right: Sequence[Point]
    ) -> np.ndarray:
        """Dense ``len(left) x len(right)`` distance matrix."""
        ...

    def cross_coords(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense block over raw ``(k, 2)`` coordinate arrays.

        The tiled distance backend computes blocks straight from cached
        coordinate arrays; ``cross`` delegates here, so the elementwise
        operation sequence (and therefore every float result) is shared
        with the dense path bit for bit.
        """
        ...

    def pair_coords(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distances of the row pairs ``(a[k], b[k])`` of two ``(k, 2)``
        coordinate arrays.

        MUST equal the corresponding ``cross_coords`` cells bit for bit:
        the same elementwise operations in the same order, evaluated
        once per pair instead of over the whole block.
        """
        ...

    def rect_lower_bound(
        self, point: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Lower bound on the distance from ``point`` to each ``[lo, hi]``
        axis-aligned rectangle (used by the spatial pruning grid; must
        never exceed the true distance to any point inside the rect)."""
        ...

    def scalar_coords(
        self, ax: float, ay: float, bx: float, by: float
    ) -> float:
        """One distance, python-scalar fast path.

        MUST return the exact float64 ``cross_coords`` would put in the
        corresponding cell — the tiled backend serves scattered scalar
        probes through this hook (a 1x1 numpy block costs ~100x the
        arithmetic in array overhead) and its value-identity contract
        rides on the equality.  Python floats and correctly-rounded IEEE
        ops make that achievable: same operations, same order.
        """
        ...


def _coords(points: Sequence[Point]) -> np.ndarray:
    return np.array([(p.x, p.y) for p in points], dtype=float)


class EuclideanMetric:
    """Straight-line distance (the paper's choice)."""

    name = "euclidean"

    def distance(self, a: Point, b: Point) -> float:
        return a.distance_to(b)

    def pairwise(self, points: Sequence[Point]) -> np.ndarray:
        if not points:
            return np.zeros((0, 0))
        coords = _coords(points)
        diff = coords[:, None, :] - coords[None, :, :]
        return np.sqrt((diff * diff).sum(axis=2))

    def cross(
        self, left: Sequence[Point], right: Sequence[Point]
    ) -> np.ndarray:
        if not left or not right:
            return np.zeros((len(left), len(right)))
        return self.cross_coords(_coords(left), _coords(right))

    def cross_coords(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        diff = a[:, None, :] - b[None, :, :]
        return np.sqrt((diff * diff).sum(axis=2))

    def pair_coords(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        diff = a - b
        return np.sqrt((diff * diff).sum(axis=1))

    def rect_lower_bound(
        self, point: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        # Distance to the nearest point of each rectangle: clamp the
        # query into the rect, then measure.  Exact (not just a bound)
        # for axis-aligned rects under the L2 metric.
        nearest = np.clip(point[None, :], lo, hi)
        diff = nearest - point[None, :]
        return np.sqrt((diff * diff).sum(axis=1))

    def scalar_coords(
        self, ax: float, ay: float, bx: float, by: float
    ) -> float:
        # Bit-identical to one cross_coords cell: subtract, multiply,
        # add (numpy sums a length-2 axis as one add, index order), sqrt
        # — all correctly-rounded IEEE doubles in the same order.
        dx = ax - bx
        dy = ay - by
        return math.sqrt(dx * dx + dy * dy)


class ManhattanMetric:
    """City-block distance (grid-street travel)."""

    name = "manhattan"

    def distance(self, a: Point, b: Point) -> float:
        return abs(a.x - b.x) + abs(a.y - b.y)

    def pairwise(self, points: Sequence[Point]) -> np.ndarray:
        if not points:
            return np.zeros((0, 0))
        coords = _coords(points)
        diff = np.abs(coords[:, None, :] - coords[None, :, :])
        return diff.sum(axis=2)

    def cross(
        self, left: Sequence[Point], right: Sequence[Point]
    ) -> np.ndarray:
        if not left or not right:
            return np.zeros((len(left), len(right)))
        return self.cross_coords(_coords(left), _coords(right))

    def cross_coords(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        diff = np.abs(a[:, None, :] - b[None, :, :])
        return diff.sum(axis=2)

    def pair_coords(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.abs(a - b).sum(axis=1)

    def rect_lower_bound(
        self, point: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        nearest = np.clip(point[None, :], lo, hi)
        return np.abs(nearest - point[None, :]).sum(axis=1)

    def scalar_coords(
        self, ax: float, ay: float, bx: float, by: float
    ) -> float:
        # Same IEEE ops in the same order as one cross_coords cell.
        return abs(ax - bx) + abs(ay - by)


EUCLIDEAN = EuclideanMetric()
MANHATTAN = ManhattanMetric()

_BY_NAME = {metric.name: metric for metric in (EUCLIDEAN, MANHATTAN)}


def metric_by_name(name: str) -> TravelMetric:
    """Look a metric up by its ``name`` (``"euclidean"``/``"manhattan"``)."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown travel metric {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None
