import math

import numpy as np
import pytest

from conftest import make_graph
from oracles import direct_two_dim_se, enumerate_partitions, greedy_reference, random_graph

from dpevent.entropy import (CommunityState, InvalidPartitionError, Partition, merge_delta,
                             two_dim_se, vanilla_minimize)
from dpevent.graphsynth import GraphError, one_dim_se

LOG2_3 = math.log2(3)


class TestPartitionType:
    def test_requires_dense_ids(self):
        with pytest.raises(InvalidPartitionError):
            Partition(np.array([0, 2, 2]))  # community 1 empty

    def test_from_labels(self):
        p = Partition.from_labels(["b", "a", "b", "c"])
        assert p.assignment.tolist() == [0, 1, 0, 2]

    def test_same_as_is_relabel_invariant(self):
        a = Partition(np.array([0, 0, 1, 2]))
        b = Partition(np.array([2, 2, 0, 1]))
        assert a.same_as(b)
        assert not a.same_as(Partition(np.array([0, 1, 1, 2])))

    def test_groups(self):
        groups = Partition(np.array([1, 0, 1])).groups()
        assert [g.tolist() for g in groups] == [[1], [0, 2]]  # indexed by community id


class TestTwoDimSe:
    def test_single_community_collapses_to_h1(self, two_triangles):
        p = Partition(np.zeros(6, dtype=np.int64))
        assert two_dim_se(two_triangles, p) == pytest.approx(one_dim_se(two_triangles), abs=1e-12)

    def test_singletons_collapse_to_h1(self, two_triangles):
        p = Partition.singletons(6)
        assert two_dim_se(two_triangles, p) == pytest.approx(one_dim_se(two_triangles), abs=1e-12)

    def test_two_triangles_partition_value(self, two_triangles):
        p = Partition(np.array([0, 0, 0, 1, 1, 1]))
        assert two_dim_se(two_triangles, p) == pytest.approx(LOG2_3, abs=1e-12)

    def test_matches_direct_oracle(self, rng):
        for _ in range(15):
            n, u, v, w = random_graph(rng, max_n=12)
            g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
            labels = rng.integers(0, max(1, n // 2), size=n)
            p = Partition.from_labels(labels.tolist())
            expected = direct_two_dim_se(n, u.tolist(), v.tolist(), w.tolist(),
                                         p.assignment.tolist())
            assert two_dim_se(g, p) == pytest.approx(expected, abs=1e-9)

    def test_collapse_identities_random(self, rng):
        for _ in range(100):
            n, u, v, w = random_graph(rng, max_n=50)
            g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
            h1 = one_dim_se(g)
            assert abs(two_dim_se(g, Partition.singletons(n)) - h1) < 1e-9
            assert abs(two_dim_se(g, Partition(np.zeros(n, np.int64))) - h1) < 1e-9

    def test_zero_degree_nodes_skipped(self):
        g = make_graph(4, [(0, 1, 0.5)])  # nodes 2, 3 isolated
        p = Partition(np.array([0, 0, 1, 1]))
        assert two_dim_se(g, p) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_length_rejected(self, two_triangles):
        with pytest.raises(InvalidPartitionError):
            two_dim_se(two_triangles, Partition(np.array([0, 1])))


class TestMergeDelta:
    def test_single_edge_merge_is_zero(self):
        g = make_graph(2, [(0, 1, 0.8)])
        state = CommunityState(g, Partition.singletons(2))
        assert merge_delta(state, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_triangle_merge_matches_recompute(self, two_triangles):
        state = CommunityState(two_triangles, Partition.singletons(6))
        before = direct_two_dim_se(6, two_triangles.u.tolist(), two_triangles.v.tolist(),
                                   two_triangles.w.tolist(), list(range(6)))
        delta = state.merge_delta(0, 1)
        state.apply_merge(0, 1)
        after_assign = state.partition().assignment.tolist()
        after = direct_two_dim_se(6, two_triangles.u.tolist(), two_triangles.v.tolist(),
                                  two_triangles.w.tolist(), after_assign)
        assert delta == pytest.approx(after - before, abs=1e-9)

    def test_random_sequences_match_recompute(self, rng):
        # shared-volume merges of connected and unconnected pairs alike
        for _ in range(40):
            n, u, v, w = random_graph(rng, min_n=4, max_n=14)
            g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
            state = CommunityState(g, Partition.singletons(n))
            prev = direct_two_dim_se(n, u.tolist(), v.tolist(), w.tolist(),
                                     state.partition().assignment.tolist())
            for _ in range(int(rng.integers(1, n))):
                alive = np.flatnonzero(state.alive)
                if alive.size < 2:
                    break
                a, b = rng.choice(alive, size=2, replace=False)
                delta = state.merge_delta(int(a), int(b))
                state.apply_merge(int(a), int(b))
                cur = direct_two_dim_se(n, u.tolist(), v.tolist(), w.tolist(),
                                        state.partition().assignment.tolist())
                assert delta == pytest.approx(cur - prev, abs=1e-9)
                prev = cur

    def test_cached_state_matches_recomputed_aggregates(self, rng):
        from dpevent.entropy import _community_aggregates, dense_labels, resolve_parents
        n, u, v, w = random_graph(rng, min_n=8, max_n=20)
        g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        state = CommunityState(g, Partition.singletons(n))
        for _ in range(n // 2):
            alive = np.flatnonzero(state.alive)
            a, b = rng.choice(alive, size=2, replace=False)
            state.apply_merge(int(a), int(b))
        part = state.partition()
        _, V, gcut, ilog, *_ = _community_aggregates(g, part.assignment)
        root = resolve_parents(state.parent)
        dense = dense_labels(root[np.arange(n)])
        for c in np.flatnonzero(state.alive).tolist():
            dense_id = int(dense[np.argmax(root == c)])
            assert state.V[c] == pytest.approx(V[dense_id], abs=1e-9)
            assert state.g[c] == pytest.approx(gcut[dense_id], abs=1e-9)
            assert state.ilog[c] == pytest.approx(ilog[dense_id], abs=1e-9)
        assert state.two_dim_se() == pytest.approx(two_dim_se(g, part), abs=1e-9)

    def test_unknown_community_rejected(self, two_triangles):
        state = CommunityState(two_triangles, Partition.singletons(6))
        with pytest.raises(InvalidPartitionError):
            state.merge_delta(0, 99)
        state.apply_merge(0, 1)
        with pytest.raises(InvalidPartitionError):
            state.merge_delta(0, 1)


class TestVanillaMinimize:
    def test_two_triangles_reach_optimum(self, two_triangles):
        init = Partition.singletons(6)
        h2_init = two_dim_se(two_triangles, init)
        final = vanilla_minimize(two_triangles, init)
        assert final.same_as(Partition(np.array([0, 0, 0, 1, 1, 1])))
        h2_final = two_dim_se(two_triangles, final)
        assert h2_final == pytest.approx(LOG2_3, abs=1e-12)
        assert h2_final < h2_init
        # brute force confirms this is the global minimum of the objective
        best = min(direct_two_dim_se(6, two_triangles.u.tolist(), two_triangles.v.tolist(),
                                     two_triangles.w.tolist(), assign)
                   for assign in enumerate_partitions(6))
        assert h2_final == pytest.approx(best, abs=1e-9)

    def test_single_edge_stays_singleton(self):
        g = make_graph(2, [(0, 1, 1.0)])
        final = vanilla_minimize(g)
        assert final.num_communities == 2
        assert two_dim_se(g, final) == pytest.approx(1.0, abs=1e-12)

    def test_floor_weight_nodes_stay_assigned(self):
        g = make_graph(4, [(0, 1, 1.0), (2, 3, 1e-6)])
        final = vanilla_minimize(g)
        assert final.n == 4
        assert final.assignment.min() >= 0

    def test_greedy_within_oracle_bounds(self, rng):
        for _ in range(20):
            n, u, v, w = random_graph(rng, min_n=3, max_n=8, density=1.5)
            g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
            final = vanilla_minimize(g)
            h2 = two_dim_se(g, final)
            values = [direct_two_dim_se(n, u.tolist(), v.tolist(), w.tolist(), assign)
                      for assign in enumerate_partitions(n)]
            assert h2 >= min(values) - 1e-9
            assert h2 <= one_dim_se(g) + 1e-9

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            vanilla_minimize(make_graph(3, []))

    def test_deterministic(self, rng):
        n, u, v, w = random_graph(rng, min_n=20, max_n=40)
        g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        a = vanilla_minimize(g)
        b = vanilla_minimize(g)
        assert np.array_equal(a.assignment, b.assignment)


class TestGreedyReference:
    """vanilla_minimize makes the same merges as a recompute-everything greedy."""

    def _check(self, n, edges):
        u, v, w = (list(col) for col in zip(*edges))
        expected = Partition.from_labels(greedy_reference(n, u, v, w))
        assert vanilla_minimize(make_graph(n, edges)).same_as(expected)

    def test_random_graphs(self, rng):
        for _ in range(40):
            n, u, v, w = random_graph(rng, min_n=3, max_n=16)
            self._check(n, list(zip(u.tolist(), v.tolist(), w.tolist())))

    def test_two_triangles(self, two_triangles):
        self._check(6, list(zip(two_triangles.u.tolist(), two_triangles.v.tolist(),
                                 two_triangles.w.tolist())))

    def test_equal_weight_cycles_paths_stars(self):
        # odd cycles, paths and stars end in different partitions if ties are
        # broken by any other pair order
        for n in range(3, 9):
            path = [(i, i + 1, 1.0) for i in range(n - 1)]
            self._check(n, path)
            self._check(n, path + [(0, n - 1, 1.0)])
            self._check(n, [(0, i, 1.0) for i in range(1, n)])
