import math

import numpy as np
import pytest

from conftest import make_graph
from oracles import (direct_two_dim_se, enumerate_partitions, list_extract_subgraphs,
                     list_groups_cluster, list_sequential_subgraphs, random_graph)

from dpevent.corpus import SynthConfig, generate
from dpevent.entropy import Partition, two_dim_se, vanilla_minimize
from dpevent.graphsynth import build_graph
from dpevent.metrics import ari
from dpevent.partition import (ClusterRun, SuperGraph, build_supergraph, cluster,
                               extract_subgraphs, sequential_subgraphs)
from dpevent.privacy import BlockPairs, PrivacyParams, SimilarityOracle


class TestBuildSupergraph:
    def test_singleton_partition_is_identity(self, rng):
        n, u, v, w = random_graph(rng, min_n=5, max_n=15)
        g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        sg = build_supergraph(g, Partition.singletons(n))
        assert sg.num_nodes == n
        assert sg.num_edges == g.num_edges
        assert set(zip(sg.ea.tolist(), sg.eb.tolist())) == set(zip(g.u.tolist(), g.v.tolist()))

    def test_path_contraction(self):
        g = make_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        sg = build_supergraph(g, Partition(np.array([0, 0, 1, 1])))
        assert sg.num_nodes == 2
        assert sg.ea.tolist() == [0] and sg.eb.tolist() == [1]
        assert sg.ew.tolist() == [1.0]
        assert sg.volume_per_node.tolist() == [3.0, 3.0]

    def test_weight_conservation(self, rng):
        for _ in range(15):
            n, u, v, w = random_graph(rng, min_n=6, max_n=30)
            g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
            labels = rng.integers(0, max(1, n // 3), size=n)
            sg = build_supergraph(g, Partition.from_labels(labels.tolist()))
            assert float(sg.volume_per_node.sum()) == pytest.approx(g.volume, abs=1e-9)


def groups_of(labels):
    """Members of each label, in ascending label order."""
    return [np.flatnonzero(labels == lab).tolist() for lab in range(int(labels.max()) + 1)]


class TestExtractSubgraphs:
    def test_small_supergraph_single_group(self):
        g = make_graph(5, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.4)])  # node 4 isolated
        sg = build_supergraph(g, Partition.singletons(5))
        labels = extract_subgraphs(sg, q=10)
        assert labels.dtype == np.int64
        assert labels.tolist() == [0, 0, 0, 0, 1]

    def test_heavy_pairs_stay_together(self):
        g = make_graph(4, [(0, 1, 0.9), (2, 3, 0.9), (1, 2, 0.1), (0, 3, 0.1)])
        sg = build_supergraph(g, Partition.singletons(4))
        labels = extract_subgraphs(sg, q=2)
        # the tied heavy edges go in lexicographic order: 0-1 first
        assert labels.tolist() == [0, 0, 1, 1]

    def test_leftover_nodes_labelled_in_id_order(self):
        # seeds in weight order: 2-3, then 4-5 (which grows by 0), then 1-6
        g = make_graph(7, [(2, 3, 0.9), (4, 5, 0.8), (0, 5, 0.7), (1, 6, 0.1)])
        sg = build_supergraph(g, Partition.singletons(7))
        labels = extract_subgraphs(sg, q=3)
        # k_max = 3: groups {2,3}, {4,5,0}, {1,6}; nothing is left over
        assert groups_of(labels) == [[2, 3], [0, 4, 5], [1, 6]]
        labels = extract_subgraphs(sg, q=4)
        # k_max = 2: groups {2,3}, {0,4,5}; nodes 1 and 6 get labels 2 and 3
        assert labels.tolist() == [1, 2, 0, 0, 1, 1, 3]

    def test_edgeless_supergraph_all_singletons(self):
        g = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        sg = build_supergraph(g, Partition(np.zeros(3, np.int64)))  # one super-node, no edges
        assert sg.num_nodes == 1
        assert extract_subgraphs(sg, q=2).tolist() == [0]

    def test_group_count_and_coverage(self, rng):
        n, u, v, w = random_graph(rng, min_n=20, max_n=40, density=3.0)
        g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        sg = build_supergraph(g, Partition.singletons(n))
        q = 5
        labels = extract_subgraphs(sg, q)
        assert labels.shape == (n,)
        # every node has a label and the labels are dense from 0
        assert np.array_equal(np.unique(labels), np.arange(int(labels.max()) + 1))
        sizes = np.bincount(labels)
        assert sizes.max() <= q
        seeded = np.flatnonzero(sizes >= 2)
        assert seeded.size <= math.ceil(n / q)
        # seeded groups come first; the singletons follow in ascending id order
        assert seeded.tolist() == list(range(seeded.size))
        single_nodes = np.flatnonzero(sizes[labels] == 1)
        assert labels[single_nodes].tolist() == list(range(seeded.size, sizes.size))

    def test_matches_list_of_groups_reference(self, rng):
        for trial in range(40):
            n, u, v, w = random_graph(rng, min_n=2, max_n=60, density=[0.4, 3.0][trial % 2])
            g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
            sg = build_supergraph(g, Partition.singletons(n))
            for q in (2, 3, 7):
                groups = list_extract_subgraphs(sg, q)
                assert groups_of(extract_subgraphs(sg, q)) == [grp.tolist() for grp in groups]

    def test_shuffled_edges_and_tied_weights_match_reference(self, rng):
        # seeds and growth must not depend on the edge order: the heaviest
        # weights tie, and the edges come in a random order
        for trial in range(40):
            n, u, v, w = random_graph(rng, min_n=2, max_n=60, density=[0.6, 3.0][trial % 2])
            w = rng.choice([0.5, 1.0, 2.0], size=w.size)
            perm = rng.permutation(u.size)
            volume = np.bincount(np.concatenate([u, v]), weights=np.concatenate([w, w]),
                                 minlength=n)
            sg = SuperGraph(ea=u[perm], eb=v[perm], ew=w[perm], volume_per_node=volume)
            for q in (2, 3, 7):
                groups = list_extract_subgraphs(sg, q)
                assert groups_of(extract_subgraphs(sg, q)) == [grp.tolist() for grp in groups]

    def test_q_too_small_rejected(self):
        empty = SuperGraph(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0),
                           np.empty(0))
        assert empty.num_nodes == 0
        assert extract_subgraphs(empty, q=2).size == 0
        with pytest.raises(ValueError):
            extract_subgraphs(empty, q=1)

    def test_sequential_grouping(self):
        assert sequential_subgraphs(7, 3).tolist() == [0, 0, 0, 1, 1, 1, 2]
        assert sequential_subgraphs(6, 3).tolist() == [0, 0, 0, 1, 1, 1]
        assert sequential_subgraphs(0, 3).size == 0
        groups = list_sequential_subgraphs(7, 3)
        assert groups_of(sequential_subgraphs(7, 3)) == [grp.tolist() for grp in groups]
        with pytest.raises(ValueError):
            sequential_subgraphs(7, 1)


class TestCluster:
    def test_two_triangles_match_vanilla_and_bruteforce(self, two_triangles):
        run = cluster(two_triangles, q0=6)
        expected = Partition(np.array([0, 0, 0, 1, 1, 1]))
        assert run.final.same_as(expected)
        assert run.final.same_as(vanilla_minimize(two_triangles))
        h2 = two_dim_se(two_triangles, run.final)
        best = min(direct_two_dim_se(6, two_triangles.u.tolist(), two_triangles.v.tolist(),
                                     two_triangles.w.tolist(), assign)
                   for assign in enumerate_partitions(6))
        assert h2 == pytest.approx(best, abs=1e-9)

    def test_h2_never_increases(self, rng):
        for _ in range(10):
            n, u, v, w = random_graph(rng, min_n=10, max_n=40, density=2.5)
            g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
            run = cluster(g, q0=4)
            h2s = [r["h2"] for r in run.rounds]
            assert all(b <= a + 1e-12 for a, b in zip(h2s, h2s[1:]))
            assert two_dim_se(g, run.final) <= two_dim_se(g, Partition.singletons(n)) + 1e-12

    def test_kmax_one_equals_vanilla(self, rng):
        n, u, v, w = random_graph(rng, min_n=10, max_n=25)
        g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        run = cluster(g, q0=max(2, n))  # k_max = 1 from the first round
        assert run.final.same_as(vanilla_minimize(g))

    def test_determinism(self, rng):
        n, u, v, w = random_graph(rng, min_n=30, max_n=60, density=3.0)
        g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        a = cluster(g, q0=8)
        b = cluster(g, q0=8)
        assert np.array_equal(a.final.assignment, b.final.assignment)
        assert a.to_dict() == b.to_dict()

    def test_synthetic_five_events(self):
        cfg = SynthConfig(num_events=5, points_per_event=100, dim=32,
                          intra_concentration=20.0, attribute_sharing_prob=0.7, seed=0)
        corpus = generate(cfg)
        oracle = SimilarityOracle(BlockPairs(corpus, 0, seed=1), PrivacyParams(epsilon=None))
        graph, _ = build_graph(oracle, k_max=40)
        run = cluster(graph, q0=400)
        truth = [r.label for r in corpus.records]
        assert ari(truth, run.final.assignment.tolist()) >= 0.9

    def test_run_log_shape(self, two_triangles):
        run = cluster(two_triangles, q0=2)
        assert isinstance(run, ClusterRun)
        d = run.to_dict()
        assert {"q0", "rounds", "num_communities", "h1"} <= set(d)
        for r in d["rounds"]:
            assert {"q", "k_max", "num_communities", "h2", "stable"} <= set(r)

    def test_converged_at_stable_whole_graph_round(self, two_triangles):
        run = cluster(two_triangles, q0=2)
        assert run.converged
        assert run.rounds[-1]["stable"] and run.rounds[-1]["k_max"] == 1
        assert run.to_dict()["converged"] is True

    def test_not_converged_at_round_cap(self, two_triangles, monkeypatch):
        import dpevent.partition as partition_mod
        monkeypatch.setattr(partition_mod, "MAX_ROUNDS", 1)
        run = cluster(two_triangles, q0=2)
        assert len(run.rounds) == 1
        assert not run.converged
        assert run.to_dict()["converged"] is False

    def test_one_aggregation_per_round(self, rng, monkeypatch):
        # counted in both modules: two_dim_se aggregates through entropy's name
        import dpevent.entropy as entropy_mod
        import dpevent.partition as partition_mod
        calls = []
        original = entropy_mod._community_aggregates

        def counted(graph, assignment):
            calls.append(1)
            return original(graph, assignment)

        for mod in (entropy_mod, partition_mod):
            monkeypatch.setattr(mod, "_community_aggregates", counted)
        n, u, v, w = random_graph(rng, n=60, density=3.0)
        g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        run = cluster(g, q0=4)
        stalled = sum(r["stable"] for r in run.rounds)
        assert len(run.rounds) > 2 and stalled
        # a round without a merge keeps its partition's aggregates
        assert len(calls) == len(run.rounds) + 1 - stalled
        assert run.rounds[-1]["h2"] == two_dim_se(g, run.final)

    def test_matches_list_of_groups_rounds(self, rng):
        # sparse graphs with isolated nodes, dense graphs and tied weights,
        # every q0 with both groupings; then disjoint identical copies of one
        # small graph, whose bit-equal deltas in different groups of one round
        # meet in the single merge loop
        def check(g, q0, grouping):
            got = cluster(g, q0=q0, grouping=grouping)
            ref = list_groups_cluster(g, q0=q0, grouping=grouping)
            assert np.array_equal(got.final.assignment, ref.final.assignment)
            assert got.converged == ref.converged
            assert got.h1.hex() == ref.h1.hex()
            assert ([dict(r, h2=r["h2"].hex()) for r in got.rounds]
                    == [dict(r, h2=r["h2"].hex()) for r in ref.rounds])

        q0s = (2, 3, 5, 400)
        groupings = ("optimal", "sequential")
        for trial in range(240):
            kind = trial % 3
            if kind == 0:
                n, u, v, w = random_graph(rng, min_n=4, max_n=80, density=0.4)
            else:
                n, u, v, w = random_graph(rng, min_n=4, max_n=40, density=6.0)
                if kind == 2:
                    w = rng.choice([0.25, 0.5, 1.0], size=w.size)
            g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
            check(g, q0s[trial % 4], groupings[(trial // 4) % 2])
        for trial in range(12):
            n, u, v, w = random_graph(rng, min_n=4, max_n=9, density=1.5)
            if trial % 2:
                w = rng.choice([0.25, 0.5, 1.0], size=w.size)
            copies = 3 + trial % 4
            g = make_graph(n * copies, [(a + c * n, b + c * n, x) for c in range(copies)
                                        for a, b, x in zip(u.tolist(), v.tolist(), w.tolist())])
            for q0 in (2, 3):
                for grouping in groupings:
                    check(g, q0, grouping)

    def test_sequential_grouping_runs(self, rng):
        n, u, v, w = random_graph(rng, min_n=12, max_n=24)
        g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        run = cluster(g, q0=4, grouping="sequential")
        assert run.final.n == n
