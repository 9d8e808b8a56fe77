import math

import numpy as np
import pytest

from conftest import make_graph
from oracles import enumerate_partitions, direct_two_dim_se, random_graph

from dpevent.corpus import SynthConfig, generate
from dpevent.entropy import Partition, two_dim_se, vanilla_minimize
from dpevent.graphsynth import build_graph
from dpevent.metrics import ari
from dpevent.partition import (ClusterRun, SuperGraph, build_supergraph, cluster,
                               extract_subgraphs, sequential_subgraphs)
from dpevent.privacy import PrivacyParams, SimilarityOracle


class TestBuildSupergraph:
    def test_singleton_partition_is_identity(self, rng):
        n, u, v, w = random_graph(rng, min_n=5, max_n=15)
        g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        sg = build_supergraph(g, Partition.singletons(n))
        assert sg.num_nodes == n
        assert sg.num_edges == g.num_edges
        assert np.all(sg.self_weight == 0.0)
        assert set(zip(sg.ea.tolist(), sg.eb.tolist())) == set(zip(g.u.tolist(), g.v.tolist()))

    def test_path_contraction(self):
        g = make_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        sg = build_supergraph(g, Partition(np.array([0, 0, 1, 1])))
        assert sg.num_nodes == 2
        assert sg.ea.tolist() == [0] and sg.eb.tolist() == [1]
        assert sg.ew.tolist() == [1.0]
        assert sg.self_weight.tolist() == [1.0, 1.0]

    def test_weight_conservation(self, rng):
        for _ in range(15):
            n, u, v, w = random_graph(rng, min_n=6, max_n=30)
            g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
            labels = rng.integers(0, max(1, n // 3), size=n)
            sg = build_supergraph(g, Partition.from_labels(labels.tolist()))
            assert sg.total_weight() == pytest.approx(float(g.w.sum()), abs=1e-9)
            assert float(sg.volume_per_node.sum()) == pytest.approx(g.volume, abs=1e-9)


class TestExtractSubgraphs:
    def test_small_supergraph_single_group(self):
        g = make_graph(5, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.4)])  # node 4 isolated
        sg = build_supergraph(g, Partition.singletons(5))
        groups = extract_subgraphs(sg, q=10)
        assert [grp.tolist() for grp in groups] == [[0, 1, 2, 3], [4]]

    def test_heavy_pairs_stay_together(self):
        g = make_graph(4, [(0, 1, 0.9), (2, 3, 0.9), (1, 2, 0.1), (0, 3, 0.1)])
        sg = build_supergraph(g, Partition.singletons(4))
        groups = extract_subgraphs(sg, q=2)
        assert sorted(map(tuple, (grp.tolist() for grp in groups))) == [(0, 1), (2, 3)]

    def test_edgeless_supergraph_all_singletons(self):
        g = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        sg = build_supergraph(g, Partition(np.zeros(3, np.int64)))  # one super-node, no edges
        groups = extract_subgraphs(sg, q=2)
        assert [grp.tolist() for grp in groups] == [[0]]

    def test_group_count_and_coverage(self, rng):
        n, u, v, w = random_graph(rng, min_n=20, max_n=40, density=3.0)
        g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        sg = build_supergraph(g, Partition.singletons(n))
        q = 5
        groups = extract_subgraphs(sg, q)
        covered = np.concatenate(groups)
        assert sorted(covered.tolist()) == list(range(n))
        assert all(len(grp) <= q for grp in groups)
        seeded = [grp for grp in groups if len(grp) >= 2]
        assert len(seeded) <= math.ceil(n / q)

    def test_q_too_small_rejected(self):
        with pytest.raises(ValueError):
            extract_subgraphs(SuperGraph([], np.empty(0, np.int64), np.empty(0, np.int64),
                                         np.empty(0), np.empty(0), np.empty(0)), q=1)

    def test_sequential_grouping(self):
        groups = sequential_subgraphs(7, 3)
        assert [grp.tolist() for grp in groups] == [[0, 1, 2], [3, 4, 5], [6]]


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

    def test_stable_init_terminates_first_round(self, two_triangles):
        init = Partition(np.array([0, 0, 0, 1, 1, 1]))
        run = cluster(two_triangles, q0=6, init=init)
        assert len(run.rounds) == 1
        assert run.rounds[0]["stable"]
        assert run.final.same_as(init)

    def test_h2_never_increases(self, rng):
        for _ in range(10):
            n, u, v, w = random_graph(rng, min_n=10, max_n=40, density=2.5)
            g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
            init = Partition.singletons(n)
            run = cluster(g, q0=4, init=init)
            h2s = [r["h2"] for r in run.rounds]
            assert all(b <= a + 1e-12 for a, b in zip(h2s, h2s[1:]))
            assert two_dim_se(g, run.final) <= two_dim_se(g, init) + 1e-12

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
        oracle = SimilarityOracle(corpus, PrivacyParams(epsilon=None, seed=1))
        graph, _ = build_graph(corpus, oracle, k_max=40)
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
        assert len(run.rounds) > 2
        assert len(calls) == len(run.rounds) + 1
        assert run.rounds[-1]["h2"] == two_dim_se(g, run.final)

    def test_sequential_grouping_runs(self, rng):
        n, u, v, w = random_graph(rng, min_n=12, max_n=24)
        g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        run = cluster(g, q0=4, grouping="sequential")
        assert run.final.n == n
