"""The epsilon-independent block state (privacy.BlockPairs) and its epsilon views.

An epsilon sweep builds one BlockPairs per block and shares it across the
grid. These tests pin that the shared state changes no released value and
that its epsilon-free work runs once per block inside the timed graph stage.
"""

import numpy as np
import pytest

from conftest import block_513, block_oracle

from dpevent import cli, graphsynth, privacy
from dpevent.corpus import (Corpus, MessageRecord, SynthConfig, export, generate, ingest,
                            split_blocks)
from dpevent.graphsynth import build_attribute_edges, build_graph, clip_weights
from dpevent.privacy import signed_log_uniforms, substream_uniforms

SHARES = (0.6, 0.0, 0.9)  # block 1 shares no tokens: it has no attribute pairs


def sweep_corpus(points=15):
    """Three blocks of 3 events, one with no shared attribute tokens."""
    records = []
    for b, share in enumerate(SHARES):
        block = generate(SynthConfig(num_events=3, points_per_event=points, dim=16,
                                     attribute_sharing_prob=share, seed=40 + b))
        for r in block.records:
            records.append(MessageRecord(
                id=f"b{b}_{r.id}", block=b, embedding=r.embedding,
                attributes={c: frozenset(f"b{b}_{t}" for t in toks)
                            for c, toks in r.attributes.items()},
                label=f"b{b}_{r.label}"))
    return Corpus(records)


@pytest.fixture(scope="module")
def corpus():
    return sweep_corpus()


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("state") / "corpus.jsonl"
    export(corpus, path)
    return path


def test_corpus_has_a_block_without_attribute_pairs(corpus):
    sizes = [view.attribute_pairs()[0].size for view in split_blocks(corpus)]
    assert sizes[1] == 0 and sizes[0] > 0 and sizes[2] > 0


def test_scaled_unit_draws_equal_the_inverse_cdf():
    # the unit draw m, scaled afterwards, is the direct inverse-CDF draw
    u = substream_uniforms(3, np.arange(20_000, dtype=np.uint64))
    u = np.concatenate([u, [0.0, -0.0, privacy._U_MAX, -privacy._U_MAX, 1e-300, -1e-300]])
    m = signed_log_uniforms(u)
    for scale in (1e-59, 1e-30, 0.2, 2.0 / 3.0, 7.5, 1e6, 1e300):
        direct = np.copysign(-scale * np.log1p(-2.0 * np.abs(u)), u)
        assert (scale * m).tobytes() == direct.tobytes()


@pytest.mark.parametrize("epsilon", [None, 0.5, 10.0])
def test_attribute_path_equals_noisy_pairs(corpus, epsilon):
    view = split_blocks(corpus)[0]
    oracle = block_oracle(view, epsilon=epsilon, mode="global", seed=2)
    u, v, sims = oracle.noisy_attribute_pairs()
    assert u.size > 0
    assert sims.tobytes() == oracle.noisy_pairs(u, v).tobytes()
    assert sims.tobytes() == oracle.noisy_rows(0, oracle.n)[u, v].tobytes()


@pytest.mark.parametrize("mode, epsilon", [("mixed", 1.0), ("global", 1.0), ("mixed", None)])
def test_attribute_weights_equal_the_smaller_endpoints_row_cells(mode, epsilon):
    # 513 records make two row chunks, (0, 511) and (511, 513); generic
    # cosines can round differently in a row-wise dot product
    block = block_513()
    oracle = block_oracle(block, epsilon=epsilon, mode=mode, seed=3)
    u, v, w = build_attribute_edges(oracle)
    assert np.all(u < v) and np.any(u >= 511) and np.any(u < 511)
    rows = oracle.noisy_rows(0, oracle.n)
    assert w.tobytes() == clip_weights(rows[u, v]).tobytes()


@pytest.mark.parametrize("mode", ["global", "mixed", "smooth"])
def test_sweep_graphs_equal_fresh_per_epsilon_graphs(tmp_path, monkeypatch, corpus_file, mode):
    built = []

    def spy(oracle, k_max=40):
        graph, trace = build_graph(oracle, k_max=k_max)
        built.append((oracle.params.epsilon, oracle.pairs.block_id, graph))
        return graph, trace

    monkeypatch.setattr(cli, "build_graph", spy)
    assert cli.main(["sweep", "--input", str(corpus_file), "--out", str(tmp_path / "s"),
                     "--epsilons", "0.5,1,10", "--mode", mode, "--seed", "9"]) == 0
    views = split_blocks(ingest(corpus_file))  # the JSONL holds 9 significant digits
    assert [(e, b) for e, b, _ in built] == [(e, b) for e in (0.5, 1.0, 10.0, None)
                                             for b in range(len(views))]
    for epsilon, block_id, graph in built:
        fresh, _ = build_graph(block_oracle(views[block_id], epsilon=epsilon, mode=mode,
                                            seed=9, block_id=block_id), k_max=40)
        assert np.array_equal(graph.u, fresh.u) and np.array_equal(graph.v, fresh.v)
        assert graph.w.tobytes() == fresh.w.tobytes()
        assert np.array_equal(graph.provenance, fresh.provenance)


def test_sweep_fills_the_state_once_per_block_inside_the_graph_stage(tmp_path, monkeypatch,
                                                                     corpus):
    two_blocks = Corpus([r for r in corpus.records if r.block < 2])
    path = tmp_path / "corpus.jsonl"
    export(two_blocks, path)
    depth = [0]
    stages = []  # block id of each _build_block_graph call, in order
    calls = {"local_sensitivity": [], "attribute_pairs": []}
    passes = []  # (block id, _build_block_graph call, scales) of each table pass

    def stage(pairs, *args, **kwargs):
        stages.append(pairs.block_id)
        depth[0] += 1
        try:
            return build_block_graph(pairs, *args, **kwargs)
        finally:
            depth[0] -= 1

    def table_pass(pairs, scales, k_max):
        passes.append((pairs.block_id, len(stages) if depth[0] else None, len(scales)))
        return neighbor_tables(pairs, scales, k_max)

    def counted(name, fn, block_of):
        def wrapper(arg, *args):
            calls[name].append((block_of(arg), depth[0] > 0))
            return fn(arg, *args)
        return wrapper

    build_block_graph = cli._build_block_graph
    neighbor_tables = graphsynth._neighbor_tables
    monkeypatch.setattr(cli, "_build_block_graph", stage)
    monkeypatch.setattr(graphsynth, "_neighbor_tables", table_pass)
    monkeypatch.setattr(privacy, "local_sensitivity",
                        counted("local_sensitivity", privacy.local_sensitivity,
                                lambda pairs: pairs.block_id))
    monkeypatch.setattr(Corpus, "attribute_pairs",
                        counted("attribute_pairs", Corpus.attribute_pairs,
                                lambda block: block.records[0].block))
    assert cli.main(["sweep", "--input", str(path), "--out", str(tmp_path / "s"),
                     "--epsilons", "1,2,5", "--mode", "global"]) == 0  # 3 + off
    assert calls == {"local_sensitivity": [(0, True), (1, True)],
                     "attribute_pairs": [(0, True), (1, True)]}
    # one pass per block builds the tables of all 4 grid points, inside the
    # block's first graph build (calls 1 and 2: epsilon 1, blocks 0 and 1)
    assert stages == [0, 1] * 4
    assert passes == [(0, 1, 4), (1, 2, 4)]


def small_sweep_corpus():
    """11 records in 3-D whose kNN scan passes k = 2 at epsilon 10 and off."""
    rng = np.random.default_rng(7)
    n, dim = int(rng.integers(4, 12)), int(rng.integers(2, 4))
    rows = rng.normal(size=(n, dim))
    return Corpus([MessageRecord(id=f"m{i}", block=0, embedding=r, label=f"e{i % 2}")
                   for i, r in enumerate(rows)])


@pytest.mark.parametrize("mode", ["global", "mixed"])
def test_sweep_whose_scan_passes_k_2_equals_fresh_graphs(tmp_path, monkeypatch, mode):
    # a scan that reaches k = 3 asks for a k_max-wide table, which one-oracle
    # passes build; the grid's 2-wide tables come from the block's one pass
    path = tmp_path / "corpus.jsonl"
    export(small_sweep_corpus(), path)
    block = ingest(path)
    built, widths = [], []

    def spy(oracle, k_max):
        graph, trace = build_graph(oracle, k_max=k_max)
        built.append((oracle.params.epsilon, graph, trace))
        return graph, trace

    def table_pass(pairs, scales, k_max):
        widths.append((len(scales), k_max))
        return neighbor_tables(pairs, scales, k_max)

    neighbor_tables = graphsynth._neighbor_tables
    monkeypatch.setattr(cli, "build_graph", spy)
    monkeypatch.setattr(graphsynth, "_neighbor_tables", table_pass)
    assert cli.main(["sweep", "--input", str(path), "--out", str(tmp_path / "s"),
                     "--epsilons", "0.5,1,10", "--mode", mode, "--seed", "9",
                     "--kmax", "10"]) == 0
    wide = [e for e, _, trace in built if len(trace.ks) > 2]
    assert len(wide) >= 2 and None in wide
    assert widths == [(4, 2)] + [(1, 10)] * len(wide)
    for epsilon, graph, trace in built:
        fresh, fresh_trace = build_graph(block_oracle(block, epsilon=epsilon, mode=mode, seed=9),
                                         k_max=10)
        assert trace.to_dict() == fresh_trace.to_dict()
        assert np.array_equal(graph.u, fresh.u) and np.array_equal(graph.v, fresh.v)
        assert graph.w.tobytes() == fresh.w.tobytes()
        assert np.array_equal(graph.provenance, fresh.provenance)

