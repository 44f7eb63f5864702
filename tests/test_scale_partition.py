"""Geographic partitioner: coverage, determinism, fringe, cache slicing."""

import pickle

import numpy as np
import pytest

from repro.core.tiles import use_distance_backend
from repro.datasets import MeetupConfig, generate_ebsn, make_city
from repro.scale import partition_instance, reachable_matrix
from tests.conftest import (
    build_instance,
    random_instance,
    served_user_event_plane,
)


@pytest.fixture(scope="module")
def clustered():
    """Two well-separated districts: partitioning should find them."""
    return generate_ebsn(
        MeetupConfig(n_users=40, n_events=10, n_groups=2, seed=5)
    )


class TestPartitionCoverage:
    def test_every_user_and_event_in_exactly_one_shard(self, clustered):
        partition = partition_instance(clustered, k=3, seed=0)
        seen_users: list[int] = []
        seen_events: list[int] = []
        for shard in partition.shards:
            seen_users.extend(int(u) for u in shard.user_ids)
            seen_events.extend(int(e) for e in shard.event_ids)
        assert sorted(seen_users) == list(range(clustered.n_users))
        assert sorted(seen_events) == list(range(clustered.n_events))

    def test_shard_membership_maps_match_shards(self, clustered):
        partition = partition_instance(clustered, k=3, seed=0)
        for shard in partition.shards:
            for user in shard.user_ids:
                assert partition.shard_of_user(int(user)) == shard.index
            for event in shard.event_ids:
                assert partition.shard_of_event(int(event)) == shard.index

    def test_k_clamped_to_event_count(self):
        instance = random_instance(3, n_users=6, n_events=2)
        partition = partition_instance(instance, k=10, seed=0)
        assert partition.n_shards <= 2
        total = sum(shard.n_events for shard in partition.shards)
        assert total == 2

    def test_k1_is_single_shard(self, clustered):
        partition = partition_instance(clustered, k=1, seed=0)
        assert partition.n_shards == 1
        assert partition.shards[0].n_users == clustered.n_users
        assert partition.fringe_users == frozenset()


class TestPartitionDeterminism:
    def test_same_seed_same_partition(self, clustered):
        a = partition_instance(clustered, k=3, seed=7)
        b = partition_instance(clustered, k=3, seed=7)
        assert np.array_equal(a.event_shard, b.event_shard)
        assert np.array_equal(a.user_shard, b.user_shard)
        assert a.fringe_users == b.fringe_users

    def test_different_seeds_may_differ_but_stay_valid(self, clustered):
        for seed in range(4):
            partition = partition_instance(clustered, k=3, seed=seed)
            assert sum(s.n_users for s in partition.shards) == clustered.n_users


class TestReachableMatrix:
    def test_reachability_is_singleton_feasibility(self):
        # One user at the origin with budget 10: the near event (round
        # trip 2*3=6) is reachable, the far one (2*8=16) is not, and the
        # zero-utility one is excluded regardless of distance.
        instance = build_instance(
            users=[(0.0, 0.0, 10.0)],
            events=[
                (3.0, 0.0, 0, 5, 0.0, 1.0),
                (8.0, 0.0, 0, 5, 2.0, 3.0),
                (1.0, 0.0, 0, 5, 4.0, 5.0),
            ],
            utility=[[1.0, 1.0, 0.0]],
        )
        reach = reachable_matrix(instance)
        assert reach.tolist() == [[True, False, False]]

    def test_fringe_users_reach_out_of_shard(self, clustered):
        partition = partition_instance(clustered, k=3, seed=0)
        if partition.n_shards < 2:
            pytest.skip("degenerate partition")
        reach = reachable_matrix(clustered)
        for user in partition.fringe_users:
            home = partition.shard_of_user(user)
            out = [
                event
                for event in range(clustered.n_events)
                if reach[user, event]
                and partition.shard_of_event(event) != home
            ]
            assert out, f"user {user} marked fringe without out-of-shard reach"

    def test_non_fringe_users_have_no_out_of_shard_reach(self, clustered):
        partition = partition_instance(clustered, k=3, seed=0)
        reach = reachable_matrix(clustered)
        for user in range(clustered.n_users):
            if user in partition.fringe_users:
                continue
            home = partition.shard_of_user(user)
            for event in range(clustered.n_events):
                if reach[user, event]:
                    assert partition.shard_of_event(event) == home


class TestSubinstanceSlicing:
    def test_subinstance_matches_rebuild_bit_exact(self, clustered):
        # Warm the parent caches first so the sliced-cache path is taken.
        _ = clustered.distances
        _ = clustered.conflict_matrix
        partition = partition_instance(clustered, k=3, seed=0)
        for shard in partition.shards:
            sliced = shard.instance
            rebuilt = sliced.rebuilt()
            assert np.array_equal(
                served_user_event_plane(sliced),
                served_user_event_plane(rebuilt),
            )
            assert np.array_equal(
                sliced.conflict_matrix, rebuilt.conflict_matrix
            )
            assert np.array_equal(sliced.utility, rebuilt.utility)
            assert np.array_equal(sliced.fee_vector, rebuilt.fee_vector)

    def test_subinstance_reindexes_ids(self, clustered):
        partition = partition_instance(clustered, k=3, seed=0)
        for shard in partition.shards:
            assert [u.id for u in shard.instance.users] == list(
                range(shard.n_users)
            )
            assert [e.id for e in shard.instance.events] == list(
                range(shard.n_events)
            )

    @pytest.mark.parametrize(
        "backend, tile_dtype",
        [("dense", None), ("tiled", "float64"), ("tiled", "float32")],
        ids=["dense", "tiled-float64", "tiled-float32"],
    )
    def test_shard_instance_pickle_round_trip(
        self, backend, tile_dtype, monkeypatch
    ):
        # The round trip a parallel solve makes: a shard cut from a warmed
        # parent is pickled, and the worker rebuilds its caches under the
        # same backend.
        if tile_dtype is not None:
            monkeypatch.setenv("REPRO_TILE_DTYPE", tile_dtype)
        # A fresh parent: the module fixture's caches may already be
        # built under another backend.
        parent = generate_ebsn(
            MeetupConfig(n_users=40, n_events=10, n_groups=2, seed=5)
        )
        with use_distance_backend(backend):
            parent.warm_planes()  # warmed caches must not bloat the pickle
            partition = partition_instance(parent, k=2, seed=0)
            shard = partition.shards[0]
            clone = pickle.loads(pickle.dumps(shard.instance))
            assert clone._distances is None
            assert clone._conflict_matrix is None
            assert clone.distance_backend == backend
            assert shard.instance.distance_backend == backend
            # Caches are dropped in transit and rebuilt lazily, bit-exact.
            plane = served_user_event_plane(clone)
            assert np.array_equal(
                plane, served_user_event_plane(shard.instance)
            )
        if tile_dtype == "float32":
            assert np.array_equal(plane, plane.astype(np.float32))
        assert clone.n_users == shard.n_users
        assert clone.n_events == shard.n_events
        assert np.array_equal(clone.utility, shard.instance.utility)
        assert np.array_equal(
            clone.conflict_matrix, shard.instance.conflict_matrix
        )
        assert np.array_equal(clone.event_starts, shard.instance.event_starts)
        assert np.array_equal(clone.fee_vector, shard.instance.fee_vector)

    def test_city_partition_round_trips(self):
        instance = make_city("beijing", scale=0.3)
        partition = partition_instance(instance, k=4, seed=0)
        assert sum(s.n_users for s in partition.shards) == instance.n_users
        for shard in partition.shards:
            blob = pickle.dumps(shard.instance)
            assert pickle.loads(blob).n_users == shard.n_users
