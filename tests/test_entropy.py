import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from conftest import make_graph
from oracles import (CommunityState, direct_two_dim_se, enumerate_partitions, greedy_reference,
                     random_graph, reference_minimize_edges)

from dpevent.entropy import (InvalidPartitionError, Partition, _community_aggregates,
                             _components, dense_labels, minimize_edges, resolve_parents,
                             two_dim_se, vanilla_minimize)
from dpevent.graphsynth import GraphError, one_dim_se

LOG2_3 = math.log2(3)


class TestPartitionType:
    def test_requires_dense_ids(self):
        with pytest.raises(InvalidPartitionError):
            Partition(np.array([0, 2, 2]))  # community 1 empty

    @pytest.mark.parametrize("ids", [[1, 1, 2], [-1, 0, 1], [0, 1, 10**15]])
    def test_requires_ids_from_zero_to_below_n(self, ids):
        # no community 0, a negative id, an id that no n-node partition holds
        with pytest.raises(InvalidPartitionError):
            Partition(np.array(ids))

    def test_from_labels(self):
        p = Partition.from_labels(["b", "a", "b", "c"])
        assert p.assignment.tolist() == [0, 1, 0, 2]

    def test_same_as_is_relabel_invariant(self):
        a = Partition(np.array([0, 0, 1, 2]))
        b = Partition(np.array([2, 2, 0, 1]))
        assert a.same_as(b)
        assert not a.same_as(Partition(np.array([0, 1, 1, 2])))


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
        assert state.merge_delta(0, 1) == pytest.approx(0.0, abs=1e-12)

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

    def test_shared_neighbour_weights_add_exactly(self, rng):
        # a=1 and b=4 both border x=0 and x=2: each a-x edge keeps its slot
        # and takes w_bx in one addition; the b-x slots die
        w = rng.uniform(0.01, 1.0, size=5)
        g = make_graph(5, [(0, 1, w[0]), (1, 2, w[1]), (0, 4, w[2]), (2, 4, w[3]),
                           (1, 4, w[4]), (3, 4, 0.5)])
        state = CommunityState(g, Partition.singletons(5))
        state.apply_merge(4, 1)
        slots = state.slots
        live = {(int(a), int(b)): float(slots.ew[k]) for k, (a, b)
                in enumerate(zip(slots.ea, slots.eb)) if a >= 0}
        assert live == {(0, 1): w[0] + w[2], (1, 2): w[1] + w[3], (1, 3): 0.5}
        assert (slots.ea == -1).sum() == 3  # the a-b slot and two b-x slots

    def test_non_adjacent_merge_moves_edges(self):
        g = make_graph(4, [(0, 2, 0.25), (1, 3, 0.5)])
        state = CommunityState(g, Partition.singletons(4))
        state.apply_merge(0, 1)
        assert state.slot(0, 3) >= 0 and state.slot(0, 2) >= 0
        assert state.g[0] == 0.75
        state.apply_merge(0, 3)
        assert state.slot(0, 3) == -1 and state.slot(0, 2) >= 0
        assert state.g[0] == 0.25

    def test_unknown_community_rejected(self, two_triangles):
        state = CommunityState(two_triangles, Partition.singletons(6))
        with pytest.raises(InvalidPartitionError):
            state.merge_delta(0, 99)
        state.apply_merge(0, 1)
        with pytest.raises(InvalidPartitionError):
            state.merge_delta(0, 1)


class TestVanillaMinimize:
    def test_two_triangles_reach_optimum(self, two_triangles):
        h2_init = two_dim_se(two_triangles, Partition.singletons(6))
        final = vanilla_minimize(two_triangles)
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


class TestMinimizeEdges:
    def _state(self, graph):
        vol, V, g, ilog, ea, eb, ew = _community_aggregates(graph, np.arange(graph.n))
        return ea, eb, ew, V, g, ilog, np.arange(V.size), vol

    def test_zero_edges(self):
        V, g, ilog = np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([0.0, 2.0])
        parent = np.arange(2)
        empty = np.empty(0, dtype=np.int64)
        out = minimize_edges(empty, empty, np.empty(0), V, g, ilog, parent, 3.0)
        assert out.dtype == np.float64 and out.shape == (0,)
        assert V.tolist() == [1.0, 2.0] and g.tolist() == [1.0, 2.0]
        assert ilog.tolist() == [0.0, 2.0] and parent.tolist() == [0, 1]

    def test_caller_edges_left_unchanged(self, two_triangles):
        ea, eb, ew, V, g, ilog, parent, vol = self._state(two_triangles)
        before = [ea.copy(), eb.copy(), ew.copy()]
        accepted = minimize_edges(ea, eb, ew, V, g, ilog, parent, vol)
        assert accepted.size == 4  # two triangles, two merges each
        assert all(np.array_equal(x, y) for x, y in zip((ea, eb, ew), before))
        assert resolve_parents(parent).tolist() == [0, 0, 0, 3, 3, 3]


class TestMatchesStackedReference:
    """minimize_edges reproduces the loop that evaluated every delta from a
    stacked contribution call (oracles.reference_minimize_edges) bit for bit:
    the accepted deltas, parent, V, g and ilog."""

    @staticmethod
    def _run(loop, graph, assignment, groups):
        # one call per group on its inside edges, sharing V, g, ilog and
        # parent across calls as a clustering round does
        vol, V, g, ilog, ea, eb, ew = _community_aggregates(graph, assignment)
        parent = np.arange(V.size, dtype=np.int64)
        group_of = groups[:V.size]
        accepted = []
        for grp in np.unique(group_of):
            sel = (group_of[ea] == grp) & (group_of[eb] == grp)
            accepted += [float(d).hex() for d in
                         loop(ea[sel], eb[sel], ew[sel], V, g, ilog, parent, vol)]
        return accepted, parent, V, g, ilog

    def _check(self, graph, assignment, groups):
        ours = self._run(minimize_edges, graph, assignment, groups)
        ref = self._run(reference_minimize_edges, graph, assignment, groups)
        assert ours[0] == ref[0]
        for x, y in zip(ours[1:], ref[1:]):
            assert x.tobytes() == y.tobytes()
        return len(ours[0])

    @pytest.mark.parametrize("weights", ["uniform", "tied", "equal"])
    def test_random_graphs(self, rng, weights):
        merges = 0
        for trial in range(30):
            n, u, v, w = random_graph(rng, min_n=4, max_n=60, density=[1.0, 3.0][trial % 2])
            if weights == "tied":
                w = rng.choice([0.25, 0.5, 1.0], size=w.size)
            elif weights == "equal":
                w = np.ones(w.size)
            isolated = int(rng.integers(0, 4))
            g = make_graph(n + isolated, list(zip(u.tolist(), v.tolist(), w.tolist())))
            singletons = np.arange(g.n)
            # scrambled init: random labels, numbered by first occurrence
            scrambled = dense_labels(rng.integers(0, max(2, g.n // 2), size=g.n))
            for assignment in (singletons, scrambled):
                ncomm = int(assignment.max()) + 1
                merges += self._check(g, assignment, np.zeros(ncomm, dtype=np.int64))
                merges += self._check(g, assignment, rng.integers(0, 3, size=ncomm))
        assert merges > 500

    def test_symmetric_ties(self):
        # disjoint equal-weight paths and stars: every first delta ties
        edges = [(s + i, s + i + 1, 1.0) for s in range(0, 20, 5) for i in range(4)]
        edges += [(20 + 5 * k, 20 + 5 * k + i, 1.0) for k in range(3) for i in range(1, 5)]
        g = make_graph(40, edges)  # nodes 35..39 isolated
        assert self._check(g, np.arange(40), np.zeros(40, dtype=np.int64)) > 0


class TestLockstep:
    """One call over many disjoint components merges them in lockstep and
    still equals the sequential reference bit for bit, accepted order
    included."""

    @staticmethod
    def _blocks(rng, weights, scrambled, count=36):
        """count disjoint random graphs with 0-2 isolated nodes each, and an
        init whose communities stay inside one block; also each node's block."""
        edges, init, block = [], [], []
        offset = 0
        for k in range(count):
            n, u, v, w = random_graph(rng, min_n=3, max_n=30, density=[1.0, 3.0][k % 2])
            if weights == "tied":
                w = rng.choice([0.25, 0.5, 1.0], size=w.size)
            elif weights == "equal":
                w = np.ones(w.size)
            n += int(rng.integers(0, 3))
            edges += zip((u + offset).tolist(), (v + offset).tolist(), w.tolist())
            init.append(offset + (rng.integers(0, max(2, n // 2), size=n) if scrambled
                                  else np.arange(n)))
            block += [k] * n
            offset += n
        return make_graph(offset, edges), dense_labels(np.concatenate(init)), np.array(block)

    @staticmethod
    def _run(graph, assignment, perm=None):
        vol, V, g, ilog, ea, eb, ew = _community_aggregates(graph, assignment)
        if perm is not None:
            ea, eb, ew = ea[perm], eb[perm], ew[perm]
        parent = np.arange(V.size, dtype=np.int64)
        ours = minimize_edges(ea, eb, ew, V, g, ilog, parent, vol)
        return [float(d).hex() for d in ours], parent, V, g, ilog

    @staticmethod
    def _assert_equal(ours, ref):
        assert ours[0] == ref[0]
        for x, y in zip(ours[1:], ref[1:]):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("scrambled", [False, True])
    @pytest.mark.parametrize("weights", ["uniform", "tied", "equal"])
    def test_disjoint_components_match_reference(self, rng, weights, scrambled):
        graph, assignment, block = self._blocks(rng, weights, scrambled)
        vol, V, g, ilog, ea, eb, ew = _community_aggregates(graph, assignment)
        block_of = np.zeros(V.size, dtype=np.int64)
        block_of[assignment] = block
        assert np.unique(block_of[ea]).size >= 30  # each such block holds a component
        parent = np.arange(V.size, dtype=np.int64)
        ref = reference_minimize_edges(ea, eb, ew, V, g, ilog, parent, vol)
        ours = self._run(graph, assignment)
        self._assert_equal(ours, ([float(d).hex() for d in ref], parent, V, g, ilog))
        assert len(ours[0]) > 100

    @pytest.mark.parametrize("weights", ["uniform", "equal"])
    def test_edge_order_does_not_matter(self, rng, weights):
        graph, assignment, _ = self._blocks(rng, weights, scrambled=True)
        ours = self._run(graph, assignment)
        m = _community_aggregates(graph, assignment)[4].size
        for _ in range(3):
            self._assert_equal(self._run(graph, assignment, rng.permutation(m)), ours)


class TestComponents:
    def test_reversed_path(self):
        # edges listed from the far end, each hooking onto the next one down
        n = 10_000
        a = np.arange(n - 2, -1, -1)
        assert (_components(a + 1, a, n) == 0).all()
        assert (_components(a, a + 1, n) == 0).all()

    def test_path_in_random_order(self, rng):
        n = 10_000
        ids = rng.permutation(n)
        assert (_components(ids[:-1], ids[1:], n) == 0).all()

    @pytest.mark.parametrize("center", [0, 7, 11])
    def test_star(self, center):
        leaves = np.array([x for x in range(12) if x != center])
        hub = np.full(leaves.size, center)
        assert (_components(leaves, hub, 12) == 0).all()
        assert (_components(hub, leaves, 12) == 0).all()

    def test_isolated_nodes_keep_their_id(self):
        label = _components(np.array([2, 5, 3]), np.array([5, 7, 8]), 10)
        assert label.tolist() == [0, 1, 2, 3, 4, 2, 6, 2, 3, 9]
        assert _components(np.empty(0, np.int64), np.empty(0, np.int64), 3).tolist() == [0, 1, 2]

    def test_random_graphs_match_scipy(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 300))
            m = int(rng.integers(0, n))
            u, v = rng.integers(0, n, size=(2, m))
            count, comp = connected_components(coo_matrix((np.ones(m), (u, v)), (n, n)),
                                               directed=False)
            smallest = np.full(count, n)
            np.minimum.at(smallest, comp, np.arange(n))
            assert np.array_equal(_components(u, v, n), smallest[comp])


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

    def test_complete_graphs(self, rng):
        # merged communities share almost every neighbour, so each merge sums
        # two slots per neighbour and kills the second
        for n in range(6, 13):
            self._check(n, [(a, b, float(rng.uniform(0.01, 1.0)))
                            for a in range(n) for b in range(a + 1, n)])

    def test_joined_cliques(self, rng):
        for n in range(6, 13):
            half = n // 2
            edges = [(a, b, float(rng.uniform(0.5, 1.0)))
                     for lo, hi in ((0, half), (half, n))
                     for a in range(lo, hi) for b in range(a + 1, hi)]
            edges += [(a, b, float(rng.uniform(0.01, 0.2)))
                      for a in range(half) for b in range(half, n) if rng.random() < 0.3]
            self._check(n, edges)

    def test_ties_across_rewritten_slots(self):
        # equal-weight graphs where, after a merge, a tied pair sits in a
        # higher slot than a lexicographically larger one: ties must follow the
        # pair, not the slot
        self._check(5, [(0, 2, 1.0), (0, 4, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        self._check(5, [(0, 3, 1.0), (1, 2, 1.0), (1, 4, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        self._check(8, [(1, 5, 1.0), (1, 6, 1.0), (1, 7, 1.0), (2, 5, 1.0), (3, 4, 1.0),
                        (3, 6, 1.0), (3, 7, 1.0), (5, 6, 1.0)])

    def test_only_bit_equal_deltas_tie(self):
        # In exact arithmetic the fourth merge ties (0, 4) with (1, 4). The
        # incremental delta of (1, 4) comes out 5 ulp more negative, so
        # minimize_edges merges (1, 4). greedy_reference takes each delta as
        # the difference of two full H2 evaluations and counts deltas within
        # 1e-12 of the minimum as tied, so it merges the smaller pair (0, 4).
        # This pins the bit-equal rule.
        edges = [(0, 2), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5), (1, 6), (1, 7), (2, 4),
                 (2, 5), (4, 5), (4, 6), (5, 7)]
        g = make_graph(8, [(a, b, 1.0) for a, b in edges])
        assert vanilla_minimize(g).assignment.tolist() == [0, 1, 0, 2, 1, 3, 1, 3]
        reference = greedy_reference(8, *(x.tolist() for x in (g.u, g.v, g.w)))
        assert Partition.from_labels(reference).assignment.tolist() == [0, 1, 0, 2, 0, 3, 1, 3]
