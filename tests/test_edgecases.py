"""Boundary configurations the main fixtures don't reach."""

import warnings

import numpy as np

from dpevent.corpus import Corpus, MessageRecord, SynthConfig, generate
from dpevent.graphsynth import build_graph
from dpevent.metrics import ari
from dpevent.partition import cluster
from dpevent.privacy import BlockPairs, PrivacyParams, SimilarityOracle


def test_heavy_noise_pipeline_survives():
    # epsilon = 0.1 with global sensitivity floods the weights; the pipeline
    # must still produce a valid clustered graph (attribute edge existence is
    # noise-free by design, so structure survives)
    corpus = generate(SynthConfig(num_events=4, points_per_event=50, dim=16, seed=0))
    oracle = SimilarityOracle(BlockPairs(corpus, 0, seed=1),
                              PrivacyParams(epsilon=0.1, sensitivity_mode="global"))
    graph, trace = build_graph(oracle, k_max=40)
    run = cluster(graph, q0=400)
    assert graph.w.min() > 0 and graph.w.max() <= 1.0
    assert run.final.n == len(corpus)
    assert ari([r.label for r in corpus.records], run.final.assignment.tolist()) > 0.3


def test_minimal_subgraph_size_terminates():
    corpus = generate(SynthConfig(num_events=4, points_per_event=50, dim=16, seed=0))
    oracle = SimilarityOracle(BlockPairs(corpus, 0, seed=1), PrivacyParams(epsilon=None))
    graph, _ = build_graph(oracle, k_max=40)
    run = cluster(graph, q0=2)
    assert len(run.rounds) <= 64
    h2s = [r["h2"] for r in run.rounds]
    assert all(b <= a + 1e-12 for a, b in zip(h2s, h2s[1:]))


def test_two_record_block_end_to_end():
    tiny = Corpus([MessageRecord(id="a", block=0, embedding=np.array([1.0, 0.0])),
                   MessageRecord(id="b", block=0, embedding=np.array([0.6, 0.8]))])
    oracle = SimilarityOracle(BlockPairs(tiny, 0), PrivacyParams(epsilon=5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k_max clamp is expected
        graph, trace = build_graph(oracle, k_max=40)
    assert graph.num_edges == 1
    assert trace.chosen_k == 1
    run = cluster(graph, q0=2)
    assert run.final.num_communities in (1, 2)


def test_smooth_mode_resolves_scale():
    corpus = generate(SynthConfig(num_events=4, points_per_event=50, dim=16, seed=0))
    oracle = SimilarityOracle(BlockPairs(corpus, 0, seed=2),
                              PrivacyParams(epsilon=5.0, sensitivity_mode="smooth"))
    assert 0 < oracle.noise_scale == oracle.report.s_smooth / 5.0


def test_single_event_corpus_beats_trivial_partition():
    # the two-level entropy of one dense community can be lowered by a
    # balanced split (shorter within-community codes outweigh the cut cost),
    # so the contract is H2(final) <= H2(one community) = H1, not "one cluster"
    from dpevent.entropy import Partition, two_dim_se

    corpus = generate(SynthConfig(num_events=1, points_per_event=60, dim=16,
                                  attribute_sharing_prob=0.9, seed=3))
    oracle = SimilarityOracle(BlockPairs(corpus, 0), PrivacyParams(epsilon=None))
    graph, _ = build_graph(oracle, k_max=40)
    run = cluster(graph, q0=400)
    h2_single = two_dim_se(graph, Partition(np.zeros(len(corpus), np.int64)))
    assert two_dim_se(graph, run.final) <= h2_single + 1e-12
    assert run.final.num_communities <= 4
