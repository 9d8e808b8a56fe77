"""Message corpus: a columnar data model, JSONL ingest and export, block views,
synthetic generation.

A Corpus holds its n records as columns: one read-only (n, dim) matrix of
unit embeddings, the id, label and block of each record, the block offsets,
and a CSR of (category, token) codes per record. A block view is a Corpus
over one block's rows of those columns. MessageRecord objects exist only
where a caller builds them (Corpus(records)) or asks for them
(Corpus.records). ingest checks each record on its own line, with the
same checks and messages as MessageRecord, so errors come in file order.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import asdict, dataclass, field

import numpy as np


class CorpusError(ValueError):
    """Raised for malformed corpus files or invalid corpus construction."""


@dataclass(frozen=True)
class MessageRecord:
    """One social message: id, day-index block, unit embedding, attribute sets.

    The embedding is normalized to unit Euclidean length on construction so
    that cosine similarity reduces to a dot product downstream.
    """

    id: str
    block: int
    embedding: np.ndarray
    attributes: dict[str, frozenset[str]] = field(default_factory=dict)
    label: str | None = None

    def __post_init__(self):
        emb = np.asarray(self.embedding, dtype=np.float64)
        emb = emb / _checked_norm(self.id, self.block, emb)
        emb.setflags(write=False)
        object.__setattr__(self, "embedding", emb)
        object.__setattr__(
            self, "attributes",
            {str(k): frozenset(str(t) for t in v) for k, v in self.attributes.items()},
        )


def _checked_norm(rid: str, block: int, emb: np.ndarray) -> float:
    """The norm of a record's embedding, after the record's own last checks.

    The checks run in MessageRecord's order: the embedding must be a vector,
    its norm nonzero and finite, and the block non-negative. The norm is
    np.linalg.norm's, sqrt(row.dot(row)) of the raveled row; a strided row's
    dot product sums in another order.
    """
    if emb.ndim != 1:
        raise CorpusError(f"record {rid!r}: embedding must be a vector")
    row = emb.ravel(order="K")
    norm = math.sqrt(row.dot(row))
    if norm == 0.0 or not math.isfinite(norm):
        raise CorpusError(f"record {rid!r}: zero or non-finite embedding cannot be normalized")
    if block < 0:
        raise CorpusError(f"record {rid!r}: block must be non-negative")
    return norm


def _stored_record(rid, block, embedding, attributes, label) -> MessageRecord:
    """A MessageRecord around a stored unit row: normalizing it again can change bits."""
    record = object.__new__(MessageRecord)
    record.__dict__.update(id=rid, block=block, embedding=embedding, attributes=attributes,
                           label=label)
    return record


def _row_norms(rows) -> np.ndarray:
    """The norm of each 1-D row as np.linalg.norm computes it, sqrt(row.dot(row)).

    A norm along an axis of the matrix sums in another order and differs in
    the last bit for some rows.
    """
    return np.sqrt(np.fromiter((row.dot(row) for row in rows), dtype=np.float64, count=len(rows)))


class _Tokens:
    """The (category, token) vocabulary of a corpus, shared by its block views.

    keys[c] is the (category, token) of code c; codes follow sorted
    (category, token) order, the order export writes. A category that a
    record lists without tokens is the blank (category, None): export and
    Corpus.records keep it, and blank[c] marks that it links no records.
    """

    def __init__(self, keys: list[tuple[str, str | None]]):
        self.keys = keys
        self.blank = np.array([tok is None for _, tok in keys], dtype=bool)


class _TokenBuilder:
    """Collects the tokens of one record after another; finish() gives the CSR."""

    def __init__(self):
        self._codes: dict[tuple[str, str | None], int] = {}
        self._entries = array("q")
        self._indptr = array("q", [0])

    def add(self, attributes) -> None:
        """The next record's attributes: category -> collection of distinct tokens."""
        codes, entries = self._codes, self._entries
        for cat, toks in attributes.items():
            if not toks:
                entries.append(codes.setdefault((cat, None), len(codes)))
            for tok in toks:
                entries.append(codes.setdefault((cat, tok), len(codes)))
        self._indptr.append(len(entries))

    def finish(self) -> tuple[np.ndarray, np.ndarray, _Tokens]:
        """(indptr, codes, vocabulary); each record's codes ascending."""
        keys = list(self._codes)
        order = sorted(range(len(keys)), key=[(cat, tok or "") for cat, tok in keys].__getitem__)
        remap = np.empty(len(keys), dtype=np.int64)
        remap[order] = np.arange(len(keys))
        indptr = np.array(self._indptr, dtype=np.int64)
        codes = remap[np.array(self._entries, dtype=np.int64)]
        rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        return indptr, codes[np.lexsort((codes, rows))], _Tokens([keys[c] for c in order])


def _check_columns(dims: set[int], ids: list[str], blocks: list[int]) -> None:
    """The corpus-wide checks, in the order the errors are reported."""
    if len(dims) != 1:
        raise CorpusError(f"embedding dimension mismatch across records: {sorted(dims)}")
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for rid in ids:
            if rid in seen:
                raise CorpusError(f"duplicate record id {rid!r}")
            seen.add(rid)
    present = sorted(set(blocks))
    if present != list(range(len(present))):
        raise CorpusError(f"block indices must be contiguous from 0, got {present}")


class Corpus:
    """Ordered, immutable message corpus held as columns.

    - embeddings: read-only (n, dim) float64 unit rows, row i = record i;
    - ids and labels, in record order;
    - block_ids (ascending) and block_offsets: the j-th block holds rows
      [block_offsets[j], block_offsets[j + 1]) of the block order, which is
      the record order whenever each block is one run of records;
    - a CSR of (category, token) codes per record.

    Corpus(records) validates the MessageRecords and stores their columns;
    ingest, generate and block views build the columns directly. Records
    are made on access.
    """

    def __init__(self, records: list[MessageRecord]):
        records = tuple(records)
        if not records:
            raise CorpusError("corpus must contain at least one record")
        ids = [r.id for r in records]
        blocks = [r.block for r in records]
        _check_columns({r.embedding.shape[0] for r in records}, ids, blocks)
        tokens = _TokenBuilder()
        for r in records:
            tokens.add(r.attributes)
        self._fill(np.stack([r.embedding for r in records]), ids, [r.label for r in records],
                   np.asarray(blocks, dtype=np.int64), *tokens.finish())

    @classmethod
    def _of_columns(cls, embeddings, ids, labels, block, indptr, codes, tokens) -> Corpus:
        corpus = cls.__new__(cls)
        corpus._fill(embeddings, ids, labels, block, indptr, codes, tokens)
        return corpus

    def _fill(self, embeddings, ids, labels, block, indptr, codes, tokens) -> None:
        embeddings.setflags(write=False)
        self.embeddings: np.ndarray = embeddings
        # object arrays, so that a view slices or gathers them like the rest
        self._ids = np.asarray(ids, dtype=object)
        self._labels = np.asarray(labels, dtype=object)
        self._block = block
        self._indptr, self._codes, self._tokens = indptr, codes, tokens
        self.block_ids, counts = np.unique(block, return_counts=True)
        self.block_offsets = np.concatenate(([0], np.cumsum(counts)))
        # None when the block order is the record order
        self._block_rows = (None if np.all(block[:-1] <= block[1:])
                            else np.argsort(block, kind="stable"))

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> list[str]:
        return self._ids.tolist()

    @property
    def labels(self) -> list[str | None]:
        return self._labels.tolist()

    def has_labels(self) -> bool:
        return None not in self._labels

    @property
    def records(self) -> tuple[MessageRecord, ...]:
        """New records around the stored rows, which are their unit embeddings."""
        keys = self._tokens.keys
        codes = self._codes.tolist()
        ptr = self._indptr.tolist()
        attributes = []
        for lo, hi in zip(ptr, ptr[1:]):
            attrs: dict[str, set[str]] = {}
            for c in codes[lo:hi]:
                cat, tok = keys[c]
                toks = attrs.setdefault(cat, set())
                if tok is not None:
                    toks.add(tok)
            attributes.append({cat: frozenset(toks) for cat, toks in attrs.items()})
        return tuple(map(_stored_record, self._ids, self._block.tolist(), self.embeddings,
                         attributes, self._labels))

    def _view(self, lo: int, hi: int) -> Corpus:
        """The records at positions [lo, hi) of the block order, sharing these columns."""
        take = slice(lo, hi) if self._block_rows is None else self._block_rows[lo:hi]
        counts = np.diff(self._indptr)[take]
        indptr = np.concatenate(([0], np.cumsum(counts)))
        codes = self._codes[np.repeat(self._indptr[:-1][take] - indptr[:-1], counts)
                            + np.arange(indptr[-1])]
        return Corpus._of_columns(self.embeddings[take], self._ids[take], self._labels[take],
                                  self._block[take], indptr, codes, self._tokens)

    def attribute_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Record pairs (u[k], v[k]), u < v, that share at least one attribute token.

        Each pair once, sorted by (u, v). A pure function of the columns that
        is recomputed on every call; privacy.BlockPairs keeps the result for
        as long as a block's graphs are being built. The members of each token
        come from one sort of the CSR; a member pairs with the members after
        it, so a token with one member adds nothing.
        """
        n = len(self)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        codes = self._codes
        keep = ~self._tokens.blank[codes]
        order = np.argsort(codes[keep], kind="stable")  # members stay in row order
        codes, rows = codes[keep][order], rows[keep][order]
        first = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])  # of each token
        size = np.diff(np.r_[first, codes.size])
        pos = np.arange(codes.size)
        later = np.repeat(first + size, size) - pos - 1  # members after each one
        total = int(later.sum())
        if not total:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        # partner of the t-th pair of member p: the member at p + 1 + t
        partner = np.repeat(pos + 1 - (np.cumsum(later) - later), later)
        partner += np.arange(total)
        pair_codes = np.repeat(rows * n, later)
        pair_codes += rows[partner]
        del partner
        # sort and drop repeats: np.unique hashes int64 input, which is slower here
        pair_codes.sort()
        pair_codes = pair_codes[np.concatenate(([True], pair_codes[1:] != pair_codes[:-1]))]
        return pair_codes // n, pair_codes % n


def split_blocks(corpus: Corpus) -> list[Corpus]:
    """One view per distinct block value, ordered by block id; views share the columns."""
    bounds = corpus.block_offsets.tolist()
    return [corpus._view(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def ingest(path) -> Corpus:
    """Load a JSONL corpus into columns; normalizes embeddings and validates the schema.

    Each line is parsed and appended to flat buffers: the embedding values
    and norm, the ids, labels and blocks, and the token CSR. No object of a
    record outlives its line. A line is checked as soon as it is read, its
    norm and block last, as MessageRecord checks them, so CorpusError names
    the first malformed line, with its number. Then come the corpus-wide
    checks: dimension mismatches, duplicate ids and non-contiguous blocks.
    """
    values = array("d")
    norms = array("d")
    dims: set[int] = set()
    ids: list[str] = []
    labels: list[str | None] = []
    blocks: list[int] = []
    tokens = _TokenBuilder()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise CorpusError(f"line {lineno}: a record must be a JSON object")
            try:
                rid = obj["id"]
                block = obj["block"]
                emb = obj["embedding"]
            except KeyError as exc:
                raise CorpusError(f"line {lineno}: missing field {exc}") from None
            if not isinstance(rid, str):
                raise CorpusError(f"line {lineno}: id must be a string")
            if not isinstance(block, int) or isinstance(block, bool):
                raise CorpusError(f"line {lineno}: block must be an integer")
            attrs = obj.get("attributes") or {}
            if not isinstance(attrs, dict):
                raise CorpusError(f"line {lineno}: attributes must be an object")
            label = obj.get("label")
            if label is not None and not isinstance(label, str):
                raise CorpusError(f"line {lineno}: label must be a string or null")
            start = len(values)
            try:
                try:
                    values.extend(emb)
                    vector = None
                except (TypeError, ValueError, OverflowError):
                    # not a flat list of numbers: numpy converts or rejects it
                    del values[start:]
                    vector = np.asarray(emb, dtype=np.float64)
                sets = {k: frozenset(v) for k, v in attrs.items()}
                if vector is None:  # a view of the row, gone before values grow again
                    norms.append(_checked_norm(
                        rid, block, np.frombuffer(values, np.float64, -1, 8 * start)))
                else:
                    norms.append(_checked_norm(rid, block, vector))
                    values.frombytes(vector.tobytes())
            except (TypeError, ValueError, OverflowError) as exc:
                # OverflowError: a JSON integer beyond float64's range; CorpusError
                # is a ValueError
                raise CorpusError(f"line {lineno}: {exc}") from None
            tokens.add({str(k): frozenset(map(str, v)) for k, v in sets.items()})
            dims.add(len(values) - start)
            ids.append(rid)
            labels.append(label)
            blocks.append(block)
    if not ids:
        raise CorpusError(f"{path}: no records")
    _check_columns(dims, ids, blocks)
    rows = np.frombuffer(values, dtype=np.float64).reshape(len(ids), dims.pop())
    return Corpus._of_columns(rows / np.frombuffer(norms)[:, None], ids, labels,
                              np.asarray(blocks, dtype=np.int64), *tokens.finish())


def _json_float(x: float) -> str:
    """How json writes float(f"{x:.9g}")."""
    return repr(float(f"{x:.9g}"))


def export(corpus: Corpus, path) -> None:
    """Write a corpus as JSONL in the ingest schema, one record per line.

    Keys come in the order id, block, embedding, attributes, label; the
    categories and the tokens of each are sorted. Each float is written as
    json writes float(f"{x:.9g}"). One "{:.9g}" format of the whole row
    gives that text unless the row holds a value of magnitude below 1e-300
    (0, or a subnormal, whose shortest repr has fewer digits) or of at least
    0.999999999 (which rounds to an integer, where json adds ".0"); such rows
    take the exact path. Rows go out in chunks of about 2^15 values. The
    attributes object of a record is the JSON text of its codes, each
    opening the object, opening a category or continuing one; the texts are
    made once per call, per code of the vocabulary.
    """
    n, dim = corpus.embeddings.shape
    keys = corpus._tokens.keys
    codes, indptr = corpus._codes, corpus._indptr
    # the JSON text of each CSR entry, at [kind * V + code]: kind 0 opens the
    # record's object, 1 opens a later category and 2 continues the current one
    cats = [cat for cat, _ in keys]
    cat = np.cumsum([a != b for a, b in zip([None] + cats, cats)], dtype=np.int64)[codes]
    kind = np.full(codes.size, 2, dtype=np.int64)
    kind[1:][cat[1:] != cat[:-1]] = 1
    kind[indptr[:-1][indptr[:-1] < indptr[1:]]] = 0
    toks = ["" if tok is None else json.dumps(tok) for _, tok in keys]
    opens = [json.dumps(c) + ":[" + tok for c, tok in zip(cats, toks)]
    fragments = opens + ["]," + s for s in opens] + ["," + tok for tok in toks]
    pieces = [fragments[i] for i in (kind * len(keys) + codes).tolist()]
    ptr, blocks, ids, labels = (indptr.tolist(), corpus._block.tolist(), corpus.ids,
                                corpus.labels)
    label_json = {label: json.dumps(label) for label in set(labels)}
    row_text = ",".join(["{:.9g}"] * dim).format
    line = '{"id":%s,"block":%d,"embedding":[%s],"attributes":%s,"label":%s}\n'
    step = max(1, 2 ** 15 // dim)
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, n, step):
            chunk = corpus.embeddings[lo:lo + step]
            mags = np.abs(chunk)
            exact = ((mags < 1e-300) | (mags >= 0.999999999)).any(axis=1).tolist()
            out = []
            for i, row, slow in zip(range(lo, lo + len(chunk)), chunk.tolist(), exact):
                a, b = ptr[i], ptr[i + 1]
                attrs = "{" + "".join(pieces[a:b]) + "]}" if b > a else "{}"
                emb = ",".join(map(_json_float, row)) if slow else row_text(*row)
                out.append(line % (json.dumps(ids[i]), blocks[i], emb, attrs,
                                   label_json[labels[i]]))
            fh.write("".join(out))


@dataclass(frozen=True)
class SynthConfig:
    """Configuration for the synthetic event-corpus generator."""

    num_events: int
    points_per_event: int | tuple[int, ...]
    dim: int = 32
    intra_concentration: float = 20.0
    attribute_sharing_prob: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.num_events < 1:
            raise CorpusError("num_events must be positive")
        counts = self.event_sizes()
        if len(counts) != self.num_events or any(c < 1 for c in counts):
            raise CorpusError("points_per_event must be positive (one count or one per event)")
        if self.dim < 2:
            raise CorpusError("dim must be at least 2")
        if not 0.0 < self.intra_concentration < math.inf:  # nan fails both comparisons
            raise CorpusError("intra_concentration must be finite and positive")
        if not 0.0 <= self.attribute_sharing_prob <= 1.0:
            raise CorpusError("attribute_sharing_prob must lie in [0, 1]")
        if self.seed < 0:
            raise CorpusError("seed must be non-negative")

    def event_sizes(self) -> tuple[int, ...]:
        if isinstance(self.points_per_event, int):
            return (self.points_per_event,) * self.num_events
        return tuple(int(c) for c in self.points_per_event)

    def to_dict(self) -> dict:
        """The fields, with points_per_event expanded to one count per event."""
        return dict(asdict(self), points_per_event=list(self.event_sizes()))


_TOKENS_PER_EVENT = 3


def generate(config: SynthConfig) -> Corpus:
    """Generate a labeled single-block corpus of event-shaped embedding clusters.

    Each event is a spherical mixture component: a random unit center, members
    drawn as normalize(center + gauss/intra_concentration). Every event owns a
    small pool of "entity" tokens; each member carries each token independently
    with a probability s chosen so that a same-event pair shares at least one
    token with probability exactly attribute_sharing_prob. Deterministic for a
    given seed. Raises CorpusError when intra_concentration is so small that
    a member's norm overflows float64.
    """
    rng = np.random.default_rng(config.seed)
    # P(share) = 1 - (1 - s^2)^T  =>  s per token
    token_prob = math.sqrt(1.0 - (1.0 - config.attribute_sharing_prob) ** (1.0 / _TOKENS_PER_EVENT))
    parts, ids, labels = [], [], []
    tokens = _TokenBuilder()
    for event, count in enumerate(config.event_sizes()):
        center = rng.normal(size=config.dim)
        center /= np.linalg.norm(center)
        noise = rng.normal(size=(count, config.dim))
        with np.errstate(over="ignore"):  # an overflow leaves a non-finite norm
            vecs = center[None, :] + noise / config.intra_concentration
            norms = _row_norms(vecs)
        if not np.isfinite(norms).all():
            raise CorpusError("intra_concentration is too small: an embedding's norm overflows")
        parts.append(vecs / norms[:, None])
        carries = (rng.random((count, _TOKENS_PER_EVENT)) < token_prob).tolist()
        for carried in carries:
            idx = len(ids)
            attrs = {"user": (f"user_{idx}",)}
            entity = [f"event_{event}_t{t}" for t, c in enumerate(carried) if c]
            if entity:
                attrs["entity"] = entity
            tokens.add(attrs)
            ids.append(f"m{idx:06d}")
            labels.append(f"event_{event}")
    return Corpus._of_columns(np.concatenate(parts), ids, labels,
                              np.zeros(len(ids), dtype=np.int64), *tokens.finish())
