import functools
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import ref_attribute_pairs, ref_export, ref_ingest

from dpevent.corpus import (Corpus, CorpusError, MessageRecord, SynthConfig, export, generate,
                            ingest, split_blocks)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def write_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def record_values(records):
    """(id, block, embedding bytes, attributes, label) of each record."""
    return [(r.id, r.block, r.embedding.tobytes(), r.attributes, r.label) for r in records]


def rec(rid="m1", block=0, emb=(1.0, 0.0, 0.0, 0.0), attrs=None, label=None):
    return {"id": rid, "block": block, "embedding": list(emb),
            "attributes": attrs or {}, "label": label}


class TestIngest:
    def test_three_line_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [rec("a", emb=(2, 0, 0, 0)), rec("b", emb=(0, 3, 0, 0)),
                           rec("c", emb=(0, 0, 1, 1))])
        corpus = ingest(path)
        assert len(corpus) == 3
        assert corpus.block_ids.tolist() == [0]
        assert corpus.embeddings.shape[1] == 4
        norms = np.linalg.norm(corpus.embeddings, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-9)

    def test_zero_vector_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [rec("a"), rec("b", emb=(0, 0, 0, 0))])
        with pytest.raises(CorpusError, match="line 2.*zero"):
            ingest(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [rec("m1"), rec("m1", emb=(0, 1, 0, 0))])
        with pytest.raises(CorpusError, match="duplicate"):
            ingest(path)

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(rec("a")) + "\n{not json\n")
        with pytest.raises(CorpusError, match="line 2"):
            ingest(path)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [rec("a"), rec("b", emb=(1, 0, 0))])
        with pytest.raises(CorpusError, match="dimension"):
            ingest(path)

    def test_noncontiguous_blocks_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [rec("a", block=0), rec("b", block=2)])
        with pytest.raises(CorpusError, match="contiguous"):
            ingest(path)


class TestRoundTrip:
    def test_export_ingest_round_trip(self, tmp_path):
        corpus = generate(SynthConfig(num_events=3, points_per_event=10, dim=8, seed=5))
        p1 = tmp_path / "one.jsonl"
        export(corpus, p1)
        loaded = ingest(p1)
        assert loaded.ids == corpus.ids
        assert loaded.labels == corpus.labels
        assert [r.attributes for r in loaded.records] == [r.attributes for r in corpus.records]
        assert np.allclose(loaded.embeddings, corpus.embeddings, atol=1e-8)

    def test_nine_significant_digits(self, tmp_path):
        corpus = generate(SynthConfig(num_events=1, points_per_event=2, dim=4, seed=0))
        path = tmp_path / "c.jsonl"
        export(corpus, path)
        first = json.loads(path.read_text().splitlines()[0])
        for x in first["embedding"]:
            assert float(f"{x:.9g}") == x


class TestBlocks:
    def _corpus(self, blocks):
        return Corpus([MessageRecord(id=f"m{i}", block=b, embedding=np.eye(4)[i % 4])
                       for i, b in enumerate(blocks)])

    def test_two_blocks(self):
        views = split_blocks(self._corpus([0, 0, 1]))
        assert [len(v) for v in views] == [2, 1]

    def test_single_block_identity(self):
        corpus = self._corpus([0, 0, 0])
        views = split_blocks(corpus)
        assert len(views) == 1
        assert views[0].ids == corpus.ids

    def test_order_by_block(self):
        views = split_blocks(self._corpus([2, 0, 1]))
        assert [v.records[0].block for v in views] == [0, 1, 2]

    def test_views_cover_corpus_once(self):
        corpus = self._corpus([1, 0, 1, 2, 0])
        seen = [rid for view in split_blocks(corpus) for rid in view.ids]
        assert sorted(seen) == sorted(corpus.ids)
        assert len(seen) == len(set(seen))


class TestGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(num_events=4, points_per_event=25, dim=16, seed=99)
        a, b = generate(cfg), generate(cfg)
        assert a.ids == b.ids
        assert np.array_equal(a.embeddings, b.embeddings)
        assert [r.attributes for r in a.records] == [r.attributes for r in b.records]

    def test_counts_and_labels(self):
        corpus = generate(SynthConfig(num_events=5, points_per_event=100, dim=8, seed=1))
        assert len(corpus) == 500
        labels = [r.label for r in corpus.records]
        assert sorted(set(labels)) == [f"event_{e}" for e in range(5)]
        assert all(labels.count(f"event_{e}") == 100 for e in range(5))

    def test_per_event_counts(self):
        corpus = generate(SynthConfig(num_events=3, points_per_event=(2, 5, 7), dim=4, seed=2))
        assert len(corpus) == 14

    def test_cosine_gap(self):
        # within-event vs cross-event mean cosine separation, 5 seeds
        gaps = []
        for seed in range(5):
            corpus = generate(SynthConfig(num_events=5, points_per_event=40, dim=32,
                                          intra_concentration=20.0, seed=seed))
            emb = corpus.embeddings
            labels = np.array([r.label for r in corpus.records])
            sims = emb @ emb.T
            same = labels[:, None] == labels[None, :]
            iu = np.triu_indices(len(corpus), 1)
            gaps.append(sims[iu][same[iu]].mean() - sims[iu][~same[iu]].mean())
        assert min(gaps) >= 0.3

    def test_attribute_sharing_rate(self):
        # empirical same-event sharing frequency tracks the configured probability
        p = 0.5
        corpus = generate(SynthConfig(num_events=4, points_per_event=120, dim=4,
                                      attribute_sharing_prob=p, seed=3))
        by_event = {}
        for r in corpus.records:
            by_event.setdefault(r.label, []).append(r.attributes.get("entity", frozenset()))
        shared = total = 0
        for toks in by_event.values():
            for i in range(len(toks)):
                for j in range(i + 1, len(toks)):
                    total += 1
                    shared += bool(toks[i] & toks[j])
        assert abs(shared / total - p) < 0.05

    def test_dim_too_small(self):
        with pytest.raises(CorpusError, match="dim"):
            SynthConfig(num_events=1, points_per_event=2, dim=1)

    def test_bad_probability(self):
        with pytest.raises(CorpusError):
            SynthConfig(num_events=1, points_per_event=2, dim=4, attribute_sharing_prob=1.5)

    def test_negative_seed(self):
        # numpy's generator rejects it with a plain ValueError
        with pytest.raises(CorpusError, match="seed must be non-negative"):
            SynthConfig(num_events=1, points_per_event=2, dim=4, seed=-1)

    @pytest.mark.parametrize("concentration", [float("nan"), float("inf"), 0.0, -1.0])
    def test_concentration_finite_and_positive(self, concentration):
        with pytest.raises(CorpusError, match="intra_concentration must be finite and positive"):
            SynthConfig(num_events=1, points_per_event=2, dim=4,
                        intra_concentration=concentration)


@functools.cache
def load_workloads():
    """perfbench/workloads.py, read as a module (its dataclasses need it in sys.modules)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# sha256 of export(make_corpus(tiny shape, seed 7)), pinned from the
# record-at-a-time writer: a change in corpus bytes fails here, not only in
# the benchmark's output digest
TINY_CORPUS_SHA256 = {
    "sim-knn": "c6ef0f43694b455337de51ab6d2984ca0b87681465afc5a52d6744a2e7f4ddd0",
    "attr-blocks": "fcf5b8a34f7e6e081bac2ec67c4558632b9b817cea5fce02a1bf2a87a53abbea",
    "eps-sweep": "6111e4dea0bae5db027bf9ddbad600ef3fc15d8e7d66f0637b7c26bf3fbbca62",
}


@pytest.mark.parametrize("name", sorted(TINY_CORPUS_SHA256))
def test_tiny_workload_corpus_bytes(name, tmp_path):
    workloads = load_workloads()
    path = tmp_path / "corpus.jsonl"
    export(workloads.make_corpus(workloads.WORKLOADS[name].tiny, 7), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TINY_CORPUS_SHA256[name]


# hand-made rows: signed zeros, +-1, values at the edge of the 9-digit and
# the exponent notation, subnormals, non-ASCII text, unlabeled records,
# blank categories, a token string in two categories, and inputs the schema
# accepts although they are odd (numeral strings, booleans, numeric tokens,
# a string or an object as a token list, null or [] attributes)
HAND_ROWS = [
    rec("plain", emb=(0.6, 0.8, 0.0, -0.0), attrs={"entity": ["x", "y"]}, label="e1"),
    rec("one", emb=(1.0, 0.0, -0.0, 5e-324), attrs={"entity": ["x"]}, label="e1"),
    rec("minus", emb=(-0.0, -1.0, 1e-310, 0.0), label="e2"),
    rec("small", emb=(1e-5, 9.99999999999e-5, 0.3, -0.2), label="e2"),
    rec("tiny", emb=(5e-324, 1e-310, -5e-324, 2.0), block=1, label="e1"),
    rec("near-one", emb=(0.99999999996, 1e-5, 0.0, 0.0), block=1),
    rec("ünïcødé-ïd", emb=(0.1, 0.2, 0.3, 0.4), attrs={"entity": ["café", "東京"],
                                                       "user": ["ユーザー"]}, label="évènement"),
    rec("unlabeled", emb=(3.0, -4.0, 0.0, 12.0), attrs={"user": ["u1"]}),
    rec("blank", emb=(1.0, 1.0, 1.0, 1.0), attrs={"x": [], "y": ["a"], "user": ["u1"]},
        block=1),
    rec("same-string", emb=(2.0, 1.0, 0.5, 0.25), attrs={"entity": ["u1"], "user": ["x"]}),
    rec("numerals", emb=("1.5", "2", True, False), attrs={"n": [1, "1", 2.5, True]}),
    {"id": "odd-attrs", "block": 0, "embedding": [0.5, 0.5, 0.5, -0.5],
     "attributes": {"s": "ab", "d": {"k": 1}, "e": []}, "label": None},
    {"id": "null-attrs", "block": 1, "embedding": [1, 2, 3, 4], "attributes": None},
    {"id": "list-attrs", "block": 0, "embedding": [4, 3, 2, 1], "attributes": []},
]


@pytest.fixture(scope="module")
def hand_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("hand") / "hand.jsonl"
    path.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in HAND_ROWS),
                    encoding="utf-8")
    return path


def generated_corpora():
    corpora = [generate(SynthConfig(num_events=e, points_per_event=p, dim=d,
                                    attribute_sharing_prob=share, seed=seed))
               for e, p, d, share, seed in ((3, 10, 8, 0.5, 5), (4, 7, 2, 0.0, 1),
                                            (2, (1, 9), 33, 1.0, 3))]
    workloads = load_workloads()
    corpora += [workloads.make_corpus(w.tiny, seed)
                for w in workloads.WORKLOADS.values() for seed in (1, 2)]
    return corpora


class TestParentIdentity:
    """The columnar paths against the record-at-a-time ones in tests/oracles.py."""

    @staticmethod
    def assert_same_records(corpus, records):
        assert corpus.embeddings.tobytes() == np.stack([r.embedding for r in records]).tobytes()
        assert corpus.ids == [r.id for r in records]
        assert corpus.labels == [r.label for r in records]
        assert [r.block for r in corpus.records] == [r.block for r in records]
        assert [r.attributes for r in corpus.records] == [r.attributes for r in records]

    def test_export_writes_the_reference_bytes(self, tmp_path, hand_file):
        corpora = generated_corpora() + [ingest(hand_file), Corpus(ref_ingest(hand_file))]
        for k, corpus in enumerate(corpora):
            ours, theirs = tmp_path / f"ours{k}.jsonl", tmp_path / f"theirs{k}.jsonl"
            export(corpus, ours)
            ref_export(corpus.records, theirs)
            assert ours.read_bytes() == theirs.read_bytes(), k

    def test_export_of_edge_values(self, tmp_path):
        # every magnitude from the subnormals to 1, and values that 9 digits
        # round to 0.0001 or to 1; rows [x, 1] keep x exactly when x^2 < 2^-53
        rng = np.random.default_rng(11)
        xs = np.concatenate([np.copysign(10.0 ** rng.uniform(-323.5, 0, 400),
                                         rng.uniform(-1, 1, 400)),
                             [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                              9.99999999999e-5, 9.9999999995e-5, 1e-4, 1e-5, 0.9999999995,
                              0.99999999949, -0.999999999, 1e-300, 9.99e-301]])
        records = [MessageRecord(id=f"r{i}", block=0, embedding=np.array([x, 1.0, x / 3]))
                   for i, x in enumerate(xs)]
        records += [MessageRecord(id=f"u{i}", block=0, embedding=row)
                    for i, row in enumerate(rng.normal(size=(200, 3)))]
        corpus = Corpus(records)
        ours, theirs = tmp_path / "ours.jsonl", tmp_path / "theirs.jsonl"
        export(corpus, ours)
        ref_export(records, theirs)
        assert ours.read_bytes() == theirs.read_bytes()

    def test_ingest_matches_the_reference(self, tmp_path, hand_file):
        paths = [hand_file]
        for k, corpus in enumerate(generated_corpora()):
            paths.append(tmp_path / f"c{k}.jsonl")
            export(corpus, paths[-1])
        for path in paths:
            reference = ref_ingest(path)
            self.assert_same_records(ingest(path), reference)
            ours, theirs = tmp_path / "ours.jsonl", tmp_path / "theirs.jsonl"
            export(ingest(path), ours)
            ref_export(reference, theirs)
            assert ours.read_bytes() == theirs.read_bytes()

    def test_records_hold_the_stored_rows(self, hand_file):
        for corpus in (ingest(hand_file), generate(SynthConfig(3, 5, dim=6, seed=2))):
            records = corpus.records
            assert [r.embedding.tobytes() for r in records] == [row.tobytes()
                                                              for row in corpus.embeddings]
            rebuilt = Corpus(list(records))
            assert rebuilt.embeddings.tobytes() == corpus.embeddings.tobytes()
            assert record_values(rebuilt.records) == record_values(records)


GOOD = {"id": "a", "block": 0, "embedding": [1.0, 0.0], "attributes": {"x": ["t"]},
        "label": "e"}
DROP = object()


def line(**changes):
    row = dict(GOOD, **changes)
    return json.dumps({k: v for k, v in row.items() if v is not DROP})


# each case is the file after a good first line and a blank line, so the
# first line in error is line 3 or later
REJECTED = {
    "invalid_json": ["{not json"],
    "not_an_object": ["[1, 2]"],
    "missing_id": [line(id=DROP)],
    "missing_block": [line(id="b", block=DROP)],
    "missing_embedding": [line(id="b", embedding=DROP)],
    "id_not_a_string": [line(id=5)],
    "bool_block": [line(id="b", block=True)],
    "float_block": [line(id="b", block=1.5)],
    "negative_block": [line(id="b", block=-1)],
    "attributes_not_an_object": [line(id="b", attributes=[1])],
    "attribute_not_iterable": [line(id="b", attributes={"x": 5})],
    "attribute_unhashable": [line(id="b", attributes={"x": [[1]]})],
    "label_not_a_string": [line(id="b", label=5)],
    "string_embedding": [line(id="b", embedding="abc")],
    "non_numeric_embedding": [line(id="b", embedding=["a", "b"])],
    "null_embedding": [line(id="b", embedding=None)],
    "scalar_embedding": [line(id="b", embedding=3)],
    "object_embedding": [line(id="b", embedding={"k": 1})],
    "2d_embedding": [line(id="b", embedding=[[1, 0], [0, 1]])],
    "ragged_embedding": [line(id="b", embedding=[[1], 2])],
    "zero_embedding": [line(id="b", embedding=[0, 0])],
    "empty_embedding": [line(id="b", embedding=[])],
    "nan_embedding": ['{"id": "b", "block": 0, "embedding": [NaN, 1]}'],
    "infinite_embedding": ['{"id": "b", "block": 0, "embedding": [1e400, 1]}'],
    "norm_overflows": [line(id="b", embedding=[1e200, 1e200])],
    "norm_underflows": [line(id="b", embedding=[1e-200, 0.0])],
    "dimension_mismatch": [line(id="b", embedding=[1, 0, 0])],
    "duplicate_id": [line()],
    "non_contiguous_blocks": [line(id="b", block=2)],
    # which error wins
    "zero_norm_before_bad_json": [line(id="b", embedding=[0, 0]), "{oops"],
    "negative_block_before_bad_json": [line(id="b", block=-1), "{oops"],
    "zero_norm_before_negative_block": [line(id="b", block=-1, embedding=[0, 0])],
    "negative_block_before_zero_norm": [line(id="b", block=-1), line(id="c", embedding=[0, 0])],
    "bad_attribute_before_2d_embedding": [line(id="b", attributes={"x": 5},
                                               embedding=[[1, 0]])],
    "bad_embedding_before_bad_attribute": [line(id="b", attributes={"x": 5},
                                                embedding="abc")],
    "zero_norm_before_mismatch": [line(id="b", embedding=[0, 0, 0])],
    "mismatch_before_duplicate": [line(id="b", embedding=[1, 0, 0]), line()],
    "duplicate_before_gap": [line(block=2)],
    # a record's last checks run on its own line, before any later line is read
    "negative_block_before_later_mismatch": [line(id="b", block=-1),
                                             line(id="c", embedding=[1, 0, 0])],
    "norm_overflows_before_missing_field": [line(id="b", embedding=[1e200, 1e200]),
                                            line(id="c", embedding=DROP)],
}


@pytest.mark.parametrize("lines", list(REJECTED.values()), ids=list(REJECTED))
def test_rejected_with_the_reference_message(lines, tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join([line(), ""] + lines) + "\n")
    with np.errstate(over="ignore"):  # a norm that overflows warns on the way
        with pytest.raises(CorpusError) as want:
            ref_ingest(path)
        with pytest.raises(CorpusError) as got:
            ingest(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("embedding, block, message", [
    ([[0, 0]], -1, "embedding must be a vector"),
    ([0, 0], -1, "zero or non-finite embedding cannot be normalized"),
    ([1e200, 1e200], -1, "zero or non-finite embedding cannot be normalized"),
    ([1, 0], -1, "block must be non-negative"),
], ids=["not_a_vector", "zero_norm", "norm_overflows", "negative_block"])
def test_last_checks_of_a_record_in_order(embedding, block, message, tmp_path):
    # ref_ingest builds MessageRecords, which run the same checks as ingest,
    # so their order is pinned here as text
    path = tmp_path / "c.jsonl"
    path.write_text(line(embedding=embedding, block=block) + "\n")
    with np.errstate(over="ignore"):
        with pytest.raises(CorpusError) as got:
            ingest(path)
        assert str(got.value) == f"line 1: record 'a': {message}"
        with pytest.raises(CorpusError) as got:
            MessageRecord(id="a", block=block, embedding=np.asarray(embedding, dtype=float))
        assert str(got.value) == f"record 'a': {message}"


def test_empty_file_rejected_with_the_reference_message(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("\n\n")
    with pytest.raises(CorpusError) as want:
        ref_ingest(path)
    with pytest.raises(CorpusError) as got:
        ingest(path)
    assert str(got.value) == str(want.value) == f"{path}: no records"


def attribute_records(rng, n, num_blocks, singletons=False):
    """Records with random attributes over blocks interleaved in file order.

    Token strings repeat across categories, so one string can link a pair
    through two categories; some records have no attributes or only blank
    categories. With singletons, every token belongs to one record.
    """
    blocks = rng.permutation(np.arange(n) % num_blocks)
    records = []
    for i in range(n):
        attrs = {}
        for cat in ("entity", "user", "tag"):
            r = rng.random()
            if r < 0.25:
                continue
            if r < 0.35:
                attrs[cat] = []
            elif singletons:
                attrs[cat] = [f"{cat}{i}"]
            else:
                attrs[cat] = list(rng.choice(["a", "b", "c", "shared", "é"],
                                             size=rng.integers(1, 4)))
        records.append(MessageRecord(id=f"r{i}", block=int(blocks[i]),
                                     embedding=rng.normal(size=3), attributes=attrs))
    return records


@pytest.mark.parametrize("singletons", [False, True])
def test_attribute_pairs_match_the_reference(singletons, tmp_path):
    rng = np.random.default_rng(5 + singletons)
    for trial in range(12):
        records = attribute_records(rng, int(rng.integers(1, 40)), int(rng.integers(1, 4)),
                                    singletons)
        path = tmp_path / f"c{trial}.jsonl"
        export(Corpus(records), path)
        for corpus in (Corpus(records), ingest(path)):
            for view in [corpus] + split_blocks(corpus):
                members = [records[int(i[1:])] for i in view.ids]
                got, want = view.attribute_pairs(), ref_attribute_pairs(members)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and np.array_equal(g, w)
                if singletons:
                    assert got[0].size == 0


def test_interleaved_block_views():
    rng = np.random.default_rng(3)
    records = attribute_records(rng, 30, 3)
    corpus = Corpus(records)
    assert corpus.block_ids.tolist() == [0, 1, 2]
    assert corpus.block_offsets.tolist() == [0, 10, 20, 30]
    for b, view in enumerate(split_blocks(corpus)):
        members = [r for r in records if r.block == b]
        assert view.ids == [r.id for r in members]
        assert record_values(view.records) == record_values(members)
        assert view.embeddings.tobytes() == np.stack([r.embedding for r in members]).tobytes()
        assert not view.embeddings.flags.writeable
