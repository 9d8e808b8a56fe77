"""Per-block pipeline behavior on corpora spanning several day blocks."""

import json

import numpy as np
import pytest

from dpevent.cli import main
from dpevent.corpus import Corpus, MessageRecord, export, generate, SynthConfig, split_blocks
from dpevent.persist import read_json
from dpevent.privacy import BlockPairs, PrivacyParams, SimilarityOracle


def multi_block_corpus(num_blocks=3, events_per_block=3, points=20, dim=16, seed=0):
    """Blocks with their own event structure, mimicking per-day detection."""
    rng = np.random.default_rng(seed)
    records = []
    idx = 0
    for block in range(num_blocks):
        for event in range(events_per_block):
            center = rng.normal(size=dim)
            center /= np.linalg.norm(center)
            vecs = center + rng.normal(size=(points, dim)) / 20.0
            for k in range(points):
                attrs = {"entity": frozenset({f"b{block}e{event}"})}
                records.append(MessageRecord(id=f"r{idx:05d}", block=block, embedding=vecs[k],
                                             attributes=attrs, label=f"b{block}e{event}"))
                idx += 1
    return Corpus(records)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("mb") / "corpus.jsonl"
    export(multi_block_corpus(), path)
    return path


def test_per_block_noise_streams_differ():
    # identical embeddings in two blocks must not share noise draws
    base = generate(SynthConfig(num_events=2, points_per_event=10, dim=8, seed=3))
    records = []
    for block in (0, 1):
        for i, r in enumerate(base.records):
            records.append(MessageRecord(id=f"b{block}_{r.id}", block=block,
                                         embedding=r.embedding, attributes=r.attributes,
                                         label=r.label))
    corpus = Corpus(records)
    params = PrivacyParams(epsilon=1.0, sensitivity_mode="global")
    views = split_blocks(corpus)
    oracles = [SimilarityOracle(BlockPairs(v, b, seed=5), params) for b, v in enumerate(views)]
    u, v = np.triu_indices(5, k=1)
    assert not np.array_equal(oracles[0].noisy_pairs(u, v), oracles[1].noisy_pairs(u, v))
    assert np.array_equal(oracles[0].pairs.exact_pairs(u, v), oracles[1].pairs.exact_pairs(u, v))


def test_full_pipeline_three_blocks(tmp_path, corpus_path):
    gdir, cdir, edir = (tmp_path / d for d in ("g", "c", "e"))
    assert main(["build-graph", "--input", str(corpus_path), "--out", str(gdir),
                 "--epsilon", "15", "--mode", "mixed", "--seed", "1"]) == 0
    for block in range(3):
        assert (gdir / f"graph_block{block}.tsv").exists()
        sidecar = read_json(gdir / f"graph_block{block}.json")
        assert sidecar["block"] == block and sidecar["n"] == 60
        assert sidecar["sensitivity_report"]["block"] == block

    assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 0
    assert main(["evaluate", "--input", str(corpus_path), "--partitions", str(cdir),
                 "--out", str(edir)]) == 0
    per_block = [read_json(edir / f"metrics_block{b}.json") for b in range(3)]
    summary = read_json(edir / "metrics_summary.json")
    assert summary["blocks"] == [0, 1, 2]
    assert summary["mean_ari"] == pytest.approx(np.mean([m["ari"] for m in per_block]))
    assert summary["mean_ami"] == pytest.approx(np.mean([m["ami"] for m in per_block]))
    assert all(m["ari"] > 0.7 for m in per_block)


def test_sweep_row_cardinality_multiblock(tmp_path, corpus_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--input", str(corpus_path), "--out", str(out),
                 "--epsilons", "5,10", "--mode", "global", "--seed", "2"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    # header + (2 epsilons + off) x 3 blocks
    assert len(lines) == 1 + 3 * 3
    blocks_per_eps = {}
    for line in lines[1:]:
        eps, block = line.split(",")[:2]
        blocks_per_eps.setdefault(eps, []).append(int(block))
    assert all(sorted(v) == [0, 1, 2] for v in blocks_per_eps.values())


def test_pooled_vs_per_block(tmp_path, corpus_path):
    pooled = tmp_path / "pooled"
    assert main(["build-graph", "--input", str(corpus_path), "--out", str(pooled),
                 "--pooled", "--epsilon", "off"]) == 0
    sidecar = read_json(pooled / "graph_block0.json")
    assert sidecar["n"] == 180
    assert not (pooled / "graph_block1.json").exists()


def test_sensitivity_reports_vary_by_block(tmp_path):
    # one tight block, one spread-out block: local sensitivity must differ
    rng = np.random.default_rng(4)
    records = []
    center = rng.normal(size=8)
    center /= np.linalg.norm(center)
    for i in range(12):
        records.append(MessageRecord(id=f"t{i}", block=0,
                                     embedding=center + rng.normal(size=8) / 50.0))
    for i in range(12):
        records.append(MessageRecord(id=f"s{i}", block=1, embedding=rng.normal(size=8)))
    path = tmp_path / "c.jsonl"
    export(Corpus(records), path)
    out = tmp_path / "sens"
    assert main(["sensitivity-report", "--input", str(path), "--out", str(out),
                 "--epsilons", "1"]) == 0
    tight = read_json(out / "sensitivity_block0.json")["reports"][0]
    spread = read_json(out / "sensitivity_block1.json")["reports"][0]
    assert tight["s_local"] < spread["s_local"]
