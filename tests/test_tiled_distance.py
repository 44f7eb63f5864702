"""Tiled distance backend: value identity, LRU accounting, pruning.

The contract under test (see ``src/repro/core/tiles.py``): with
``REPRO_DISTANCE=tiled`` every *served* value — scalar, row, batch,
event-event, through every instance transform — is bit-identical to the
dense oracle, while the full user-event plane is never materialised.
The spatial candidate index must prune *soundly*: exactly the pairs the
kernel's own budget test would reject, nothing more.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import Event, Instance
from repro.core.tiles import TiledDistanceMatrix, use_distance_backend
from repro.core.tolerances import BUDGET_TOL
from repro.geo.grid import SpatialCandidateIndex
from repro.geo.metrics import EUCLIDEAN
from repro.geo.point import Point
from repro.timeline.interval import Interval
from tests.conftest import random_instance, served_user_event_plane


def _twin_instances(seed: int, **kwargs) -> tuple[Instance, Instance]:
    """The same workload built under the dense and tiled backends."""
    with use_distance_backend("dense"):
        dense = random_instance(seed, **kwargs)
        dense.distances  # force the backend choice now
    with use_distance_backend("tiled"):
        tiled = random_instance(seed, **kwargs)
        tiled.distances
    return dense, tiled


def _assert_identical_serving(dense: Instance, tiled: Instance) -> None:
    plane = dense.distances.user_event_matrix
    assert np.array_equal(served_user_event_plane(tiled), plane)
    assert np.array_equal(
        tiled.distances.event_event_matrix,
        dense.distances.event_event_matrix,
    )
    for user in range(dense.n_users):
        row = tiled.distances.user_event_row(user)
        assert np.array_equal(row, plane[user])
        for event in range(dense.n_events):
            assert tiled.distances.user_event(user, event) == plane[
                user, event
            ]


# --------------------------------------------------------------------- #
# Bit-identity: direct serving and every instance transform
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_tiled_serves_bit_identical_to_dense(seed):
    dense, tiled = _twin_instances(seed, n_users=23, n_events=6)
    assert isinstance(tiled.distances, TiledDistanceMatrix)
    _assert_identical_serving(dense, tiled)


@pytest.mark.parametrize("seed", [3, 11])
def test_tiled_identity_survives_subinstance(seed):
    dense, tiled = _twin_instances(seed, n_users=23, n_events=6)
    users = [0, 2, 5, 9, 17, 22]
    events = [1, 3, 4]
    _assert_identical_serving(
        dense.subinstance(users, events), tiled.subinstance(users, events)
    )


def test_tiled_identity_survives_with_event_relocation():
    dense, tiled = _twin_instances(5, n_users=17, n_events=5)
    moved = Point(99.0, -3.5)
    dense.set_event(2, location=moved)
    tiled.set_event(2, location=moved)
    _assert_identical_serving(dense, tiled)


def test_tiled_identity_survives_budget_change():
    dense, tiled = _twin_instances(6, n_users=17, n_events=5)
    dense.set_budget(4, 99.0)
    tiled.set_budget(4, 99.0)
    _assert_identical_serving(dense, tiled)


def test_tiled_identity_survives_with_new_event():
    dense, tiled = _twin_instances(8, n_users=17, n_events=5)
    new = Event(5, Point(4.5, 4.5), 0, 3, Interval(50.0, 51.0))
    utilities = np.linspace(0.0, 1.0, dense.n_users)
    dense.append_event(new, utilities)
    tiled.append_event(new, utilities)
    _assert_identical_serving(dense, tiled)


def test_float32_tiles_serve_rounded_dense_values():
    rng = np.random.default_rng(2)
    uc = rng.uniform(0, 30, (40, 2))
    ec = rng.uniform(0, 30, (7, 2))
    dense = EUCLIDEAN.cross_coords(uc, ec)
    expected = dense.astype(np.float32).astype(np.float64)
    tiled = TiledDistanceMatrix(
        uc, ec, EUCLIDEAN, tile_users=8, tile_events=4, dtype=np.float32
    )
    assert np.array_equal(tiled.user_event_rows(np.arange(40)), expected)
    # Scalar and single-row paths round through the same dtype.
    assert tiled.user_event(33, 2) == expected[33, 2]
    assert np.array_equal(tiled.user_event_row(11), expected[11])


def test_submatrix_accepts_plain_python_id_lists():
    # Regression: ids must be coerced to np.intp (pointer-sized), not
    # the platform-dependent builtin-int width, before indexing planes.
    dense, tiled = _twin_instances(4, n_users=12, n_events=4)
    sub_dense = dense.distances.submatrix([1, 3, 8], [0, 2])
    sub_tiled = tiled.distances.submatrix([1, 3, 8], [0, 2])
    assert np.array_equal(
        sub_tiled.user_event_rows(np.arange(3)),
        sub_dense.user_event_matrix,
    )


def test_location_patch_invalidates_covering_tiles():
    rng = np.random.default_rng(9)
    uc = rng.uniform(0, 10, (16, 2))
    ec = rng.uniform(0, 10, (5, 2))
    t = TiledDistanceMatrix(uc, ec, EUCLIDEAN, tile_users=4, tile_events=2)
    t.user_event_rows(np.arange(16))  # materialise everything
    t.replace_event_location(3, Point(-1.0, -2.0), [], [])
    ec2 = ec.copy()
    ec2[3] = (-1.0, -2.0)
    assert np.array_equal(
        t.user_event_rows(np.arange(16)),
        EUCLIDEAN.cross_coords(uc, ec2),
    )
    assert np.array_equal(
        t.event_event_matrix, EUCLIDEAN.cross_coords(ec2, ec2)
    )


# --------------------------------------------------------------------- #
# LRU accounting and serving-path discipline
# --------------------------------------------------------------------- #


def test_lru_evicts_down_to_budget_and_counts():
    rng = np.random.default_rng(1)
    uc = rng.uniform(0, 10, (64, 2))
    ec = rng.uniform(0, 10, (8, 2))
    tile_bytes = 8 * 4 * 8  # 8 users x 4 events x float64
    t = TiledDistanceMatrix(
        uc,
        ec,
        EUCLIDEAN,
        tile_users=8,
        tile_events=4,
        cache_mib=4 * tile_bytes / (1 << 20),  # room for 4 tiles
    )
    t.user_event_rows(np.arange(64))  # dense sweep: 16 tile builds
    stats = t.tile_stats()
    assert stats["misses"] == 16.0
    assert stats["evictions"] >= 12.0
    assert stats["tiles_resident"] <= 4.0
    assert stats["resident_mib"] <= 4 * tile_bytes / (1 << 20) + 1e-12
    assert stats["peak_resident_mib"] >= stats["resident_mib"]
    assert stats["peak_backend_mib"] > stats["peak_resident_mib"]
    # Values survive eviction: recompute equals a fresh dense block.
    assert np.array_equal(
        t.user_event_rows(np.arange(64)), EUCLIDEAN.cross_coords(uc, ec)
    )


def test_single_tile_larger_than_budget_stays_resident():
    rng = np.random.default_rng(3)
    uc = rng.uniform(0, 10, (32, 2))
    ec = rng.uniform(0, 10, (4, 2))
    t = TiledDistanceMatrix(
        uc, ec, EUCLIDEAN, tile_users=32, tile_events=4, cache_mib=1e-6
    )
    t.user_event_rows(np.arange(32))
    assert t.tile_stats()["tiles_resident"] == 1.0


def test_scattered_scalars_and_rows_do_not_materialise_tiles():
    rng = np.random.default_rng(4)
    uc = rng.uniform(0, 10, (64, 2))
    ec = rng.uniform(0, 10, (8, 2))
    # Cache smaller than the plane: the soak-scale regime, where
    # scattered probes must never build tiles.
    t = TiledDistanceMatrix(
        uc,
        ec,
        EUCLIDEAN,
        tile_users=8,
        tile_events=4,
        cache_mib=2 * 8 * 4 * 8 / (1 << 20),  # room for 2 of 16 tiles
    )
    dense = EUCLIDEAN.cross_coords(uc, ec)
    for user in (0, 17, 45, 63):
        assert t.user_event(user, 5) == dense[user, 5]
        assert np.array_equal(t.user_event_row(user), dense[user])
    sparse = np.array([2, 19, 40], dtype=np.intp)
    assert np.array_equal(t.user_event_rows(sparse), dense[sparse])
    stats = t.tile_stats()
    assert stats["tiles_resident"] == 0.0
    assert stats["misses"] == 0.0
    assert stats["scalar_serves"] == 4.0
    assert stats["row_serves"] > 0.0


def test_plane_fits_cache_promotes_serving_to_tile_builds():
    rng = np.random.default_rng(4)
    uc = rng.uniform(0, 10, (64, 2))
    ec = rng.uniform(0, 10, (8, 2))
    # Default cache (64 MiB) dwarfs the 4 KiB plane: every serving path
    # builds tiles, residency is bounded by the plane, and repeated
    # probes become hits instead of recomputes.
    t = TiledDistanceMatrix(uc, ec, EUCLIDEAN, tile_users=8, tile_events=4)
    dense = EUCLIDEAN.cross_coords(uc, ec)
    for user in (0, 17, 45, 63):
        assert t.user_event(user, 5) == dense[user, 5]
        assert np.array_equal(t.user_event_row(user), dense[user])
    sparse = np.array([2, 19, 40], dtype=np.intp)
    assert np.array_equal(t.user_event_rows(sparse), dense[sparse])
    stats = t.tile_stats()
    assert stats["row_serves"] == 0.0
    assert stats["scalar_serves"] == 0.0
    assert stats["evictions"] == 0.0
    assert 0 < stats["tiles_resident"] <= 16.0
    # A repeated row is now pure hits.
    before = t.tile_stats()["misses"]
    assert np.array_equal(t.user_event_row(17), dense[17])
    assert t.tile_stats()["misses"] == before


def test_dense_plane_property_raises_under_tiled():
    _, tiled = _twin_instances(0, n_users=6, n_events=3)
    with pytest.raises(RuntimeError, match="tiled"):
        tiled.distances.user_event_matrix


# --------------------------------------------------------------------- #
# Spatial candidate pruning: soundness against brute force
# --------------------------------------------------------------------- #


def _bruteforce_candidates(instance: Instance) -> list[np.ndarray]:
    plane = served_user_event_plane(instance)
    budgets = np.array([u.budget for u in instance.users], dtype=float)
    feasible = (
        2.0 * plane + instance.fee_vector <= budgets[:, None] + BUDGET_TOL
    )
    return [
        np.flatnonzero(feasible[:, e]) for e in range(instance.n_events)
    ]


@pytest.mark.parametrize("seed", [0, 2, 5, 13])
def test_candidate_index_matches_bruteforce(seed):
    with use_distance_backend("tiled"):
        instance = random_instance(
            seed, n_users=60, n_events=7, budget_range=(2.0, 9.0)
        )
        index = instance.candidate_index
    assert index is not None
    expected = _bruteforce_candidates(instance)
    for event in range(instance.n_events):
        assert np.array_equal(index.candidate_users(event), expected[event])
        assert index.candidate_count(event) == expected[event].size
    mask = index.active_user_mask()
    active = set()
    for cands in expected:
        active.update(int(u) for u in cands)
    assert set(np.flatnonzero(mask)) == active


def test_candidate_index_absent_under_dense():
    with use_distance_backend("dense"):
        instance = random_instance(1, n_users=10, n_events=3)
        assert instance.candidate_index is None


@pytest.mark.parametrize("budget", [0.5, 6.0, 50.0])
def test_with_user_budget_patch_matches_fresh_rebuild(budget):
    with use_distance_backend("tiled"):
        instance = random_instance(
            7, n_users=60, n_events=7, budget_range=(2.0, 9.0)
        )
        index = instance.candidate_index
        assert index is not None
        user = 31
        index.set_user_budget(user, budget)
        patched = index
        fresh_budgets = np.array(
            [u.budget for u in instance.users], dtype=float
        )
        fresh_budgets[user] = budget
        d = instance.distances
        fresh = SpatialCandidateIndex(
            d.user_coords,
            fresh_budgets,
            d.event_coords,
            instance.fee_vector,
            instance.cost_model.metric,
        )
    for event in range(instance.n_events):
        assert np.array_equal(
            patched.candidate_users(event), fresh.candidate_users(event)
        )


def test_with_user_budget_rides_through_instance_update():
    with use_distance_backend("tiled"):
        instance = random_instance(
            9, n_users=40, n_events=5, budget_range=(2.0, 9.0)
        )
        index = instance.candidate_index  # warm it so the patch path runs
        instance.set_budget(11, 100.0)
        updated = instance
        assert updated.candidate_index is index
    expected = _bruteforce_candidates(updated)
    for event in range(updated.n_events):
        assert np.array_equal(index.candidate_users(event), expected[event])


def test_candidate_index_tracks_event_relocation_and_append():
    with use_distance_backend("tiled"):
        instance = random_instance(
            12, n_users=40, n_events=5, budget_range=(2.0, 9.0)
        )
        index = instance.candidate_index
        instance.set_event(2, location=Point(0.0, 0.0))
        expected = _bruteforce_candidates(instance)
        assert instance.candidate_index is index
        for event in range(instance.n_events):
            assert np.array_equal(
                index.candidate_users(event), expected[event]
            )
        new = Event(5, Point(5.0, 5.0), 0, 2, Interval(60.0, 61.0))
        instance.append_event(new, np.linspace(0.0, 1.0, instance.n_users))
        expected = _bruteforce_candidates(instance)
        assert instance.candidate_index is index
        for event in range(instance.n_events):
            assert np.array_equal(
                index.candidate_users(event), expected[event]
            )
