"""Conflict structure over a set of event intervals.

The solvers need four views of the conflict relation:

* a pairwise predicate (``conflicts``) for incremental checks,
* a precomputed adjacency structure (``conflict_graph``) for the hot loops,
* a dense boolean matrix (``conflict_matrix``) for the vectorized plan
  kernel (``GlobalPlan.feasible_mask`` masks whole candidate rows at once),
* summary statistics (``conflict_ratio``, used by the dataset generator to
  hit the paper's Table IV target of 0.25, and ``max_clique_upper_bound``,
  the ``maxCF`` quantity in the paper's complexity analysis).

An IEP ``TimeChange`` recomputes only the one ``conflict_row`` it touches
and patches it into the built structures in place
(``patch_conflict_graph`` for the adjacency sets).
"""

from __future__ import annotations

from collections.abc import Sequence

import networkx as nx
import numpy as np

from repro.timeline.interval import Interval


def conflicts(a: Interval, b: Interval) -> bool:
    """Whether two event intervals conflict under the paper's rule."""
    return a.conflicts_with(b)


def conflict_graph(intervals: Sequence[Interval]) -> list[set[int]]:
    """Adjacency sets of the conflict graph over ``intervals``.

    ``result[j]`` is the set of event indices that conflict with event ``j``
    (never containing ``j`` itself).  Built with a sweep over start-sorted
    intervals, O(m log m + m * k) for k conflicts per event.
    """
    order = sorted(range(len(intervals)), key=lambda j: intervals[j].start)
    adjacency: list[set[int]] = [set() for _ in intervals]
    for pos, j in enumerate(order):
        for k in order[pos + 1 :]:
            # Once a later event starts strictly after j ends, no further
            # event in start order can conflict with j.
            if intervals[k].start > intervals[j].end:
                break
            adjacency[j].add(k)
            adjacency[k].add(j)
    return adjacency


def conflict_matrix(intervals: Sequence[Interval]) -> np.ndarray:
    """Dense symmetric boolean conflict matrix over ``intervals``.

    ``result[j, k]`` is ``True`` when events ``j`` and ``k`` (``j != k``)
    conflict under the paper's rule (the earlier must end *strictly* before
    the later starts).  Built with one vectorized comparison, O(m^2) but
    branch-free; the diagonal is always ``False``.
    """
    m = len(intervals)
    if m == 0:
        return np.zeros((0, 0), dtype=bool)
    starts = np.array([interval.start for interval in intervals])
    ends = np.array([interval.end for interval in intervals])
    # a conflicts b  <=>  not (a ends before b starts or b ends before a
    # starts); this is symmetric, so one broadcast comparison suffices.
    matrix = ~((ends[:, None] < starts[None, :]) | (ends[None, :] < starts[:, None]))
    np.fill_diagonal(matrix, False)
    return matrix


def conflict_row(intervals: Sequence[Interval], event: int) -> np.ndarray:
    """One event's boolean conflict row against all of ``intervals``."""
    starts = np.array([interval.start for interval in intervals])
    ends = np.array([interval.end for interval in intervals])
    row = ~((ends[event] < starts) | (ends < starts[event]))
    row[event] = False
    return row


def patch_conflict_graph(
    adjacency: list[set[int]], row: np.ndarray, event: int
) -> None:
    """Rewrite ``event``'s adjacency in place from its new conflict ``row``.

    Only the event's own set and the sets of events entering or leaving
    its neighbourhood change.
    """
    new_neighbours = set(np.flatnonzero(row).tolist())
    old_neighbours = adjacency[event]
    for k in old_neighbours - new_neighbours:
        adjacency[k].discard(event)
    for k in new_neighbours - old_neighbours:
        adjacency[k].add(event)
    adjacency[event] = new_neighbours


def conflict_ratio(intervals: Sequence[Interval]) -> float:
    """Fraction of events that conflict with at least one other event.

    This matches the paper's Table IV "conflict ratio" column (the proportion
    of events that have time conflicts).
    """
    if not intervals:
        return 0.0
    adjacency = conflict_graph(intervals)
    conflicted = sum(1 for neighbours in adjacency if neighbours)
    return conflicted / len(intervals)


def max_clique_upper_bound(intervals: Sequence[Interval]) -> int:
    """The paper's ``maxCF``: the largest set of mutually conflicting events.

    For intervals under the touching-conflicts rule this equals the maximum
    number of intervals sharing a common instant, computable exactly with a
    sweep line (interval graphs are perfect, so this is the clique number,
    not just a bound).
    """
    if not intervals:
        return 0
    points: list[tuple[float, int]] = []
    for interval in intervals:
        # Closed endpoints: starts sort before ends at equal time so that
        # touching intervals count as overlapping.
        points.append((interval.start, 0))
        points.append((interval.end, 1))
    points.sort()
    depth = best = 0
    for _, kind in points:
        if kind == 0:
            depth += 1
            best = max(best, depth)
        else:
            depth -= 1
    return best


def as_networkx(intervals: Sequence[Interval]) -> nx.Graph:
    """The conflict graph as a networkx graph (used in tests/diagnostics)."""
    graph = nx.Graph()
    graph.add_nodes_from(range(len(intervals)))
    for j, neighbours in enumerate(conflict_graph(intervals)):
        graph.add_edges_from((j, k) for k in neighbours if k > j)
    return graph
