"""Message corpus: data model, JSONL ingestion, block views, synthetic generation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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
        if emb.ndim != 1:
            raise CorpusError(f"record {self.id!r}: embedding must be a vector")
        norm = float(np.linalg.norm(emb))
        if norm == 0.0 or not math.isfinite(norm):
            raise CorpusError(f"record {self.id!r}: zero or non-finite embedding cannot be normalized")
        emb = emb / norm
        emb.setflags(write=False)
        object.__setattr__(self, "embedding", emb)
        if self.block < 0:
            raise CorpusError(f"record {self.id!r}: block must be non-negative")
        object.__setattr__(
            self, "attributes",
            {str(k): frozenset(str(t) for t in v) for k, v in self.attributes.items()},
        )


class Corpus:
    """Ordered, immutable collection of MessageRecords with derived block index."""

    def __init__(self, records: list[MessageRecord], require_contiguous_blocks: bool = True):
        if not records:
            raise CorpusError("corpus must contain at least one record")
        dims = {r.embedding.shape[0] for r in records}
        if len(dims) != 1:
            raise CorpusError(f"embedding dimension mismatch across records: {sorted(dims)}")
        seen: set[str] = set()
        for r in records:
            if r.id in seen:
                raise CorpusError(f"duplicate record id {r.id!r}")
            seen.add(r.id)
        self.records: tuple[MessageRecord, ...] = tuple(records)
        blocks: dict[int, list[int]] = {}
        for i, r in enumerate(records):
            blocks.setdefault(r.block, []).append(i)
        self.blocks: dict[int, list[int]] = dict(sorted(blocks.items()))
        if require_contiguous_blocks:
            ids = list(self.blocks)
            if ids != list(range(len(ids))):
                raise CorpusError(f"block indices must be contiguous from 0, got {ids}")
        self._embeddings: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.records)

    @property
    def dim(self) -> int:
        return self.records[0].embedding.shape[0]

    @property
    def embeddings(self) -> np.ndarray:
        """(n, dim) float64 matrix of unit embeddings, row i = record i."""
        if self._embeddings is None:
            m = np.stack([r.embedding for r in self.records])
            m.setflags(write=False)
            self._embeddings = m
        return self._embeddings

    def attribute_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Record pairs (u[k], v[k]), u < v, that share at least one attribute token.

        Each pair once, sorted by (u, v). A pure function of the records that
        is recomputed on every call; privacy.BlockPairs keeps the result for
        as long as a block's graphs are being built.
        """
        n = len(self)
        token_members: dict[tuple[str, str], list[int]] = {}
        for i, rec in enumerate(self.records):
            for cat, tokens in rec.attributes.items():
                for tok in tokens:
                    token_members.setdefault((cat, tok), []).append(i)
        code_chunks = []
        for members in token_members.values():
            if len(members) < 2:
                continue
            m = np.asarray(members, dtype=np.int64)  # ascending by construction
            a, b = np.triu_indices(m.size, k=1)
            code_chunks.append(m[a] * n + m[b])
        if not code_chunks:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        # sort and drop repeats: np.unique hashes int64 input, which is slower here
        codes = np.concatenate(code_chunks)
        codes.sort()
        codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
        return codes // n, codes % n

    @property
    def ids(self) -> list[str]:
        return [r.id for r in self.records]

    @property
    def labels(self) -> list[str | None]:
        return [r.label for r in self.records]

    def has_labels(self) -> bool:
        return all(r.label is not None for r in self.records)


def split_blocks(corpus: Corpus) -> list[Corpus]:
    """One view per distinct block value, ordered by block id; views share records."""
    views = []
    for _, idxs in corpus.blocks.items():
        views.append(Corpus([corpus.records[i] for i in idxs], require_contiguous_blocks=False))
    return views


def _parse_record(obj: dict, lineno: int) -> MessageRecord:
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
    try:
        return MessageRecord(
            id=rid, block=block, embedding=np.asarray(emb, dtype=np.float64),
            attributes={k: frozenset(v) for k, v in attrs.items()}, label=label,
        )
    except (TypeError, ValueError) as exc:  # CorpusError, or a non-numeric embedding
        raise CorpusError(f"line {lineno}: {exc}") from None


def ingest(path) -> Corpus:
    """Load a JSONL corpus; normalizes embeddings and validates the schema.

    Raises CorpusError with a line number for malformed lines, duplicate ids,
    zero vectors, and dimension mismatches.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            records.append(_parse_record(obj, lineno))
    if not records:
        raise CorpusError(f"{path}: no records")
    return Corpus(records)


def record_to_json(record: MessageRecord) -> str:
    """Serialize one record; floats carry 9 significant digits, keys sorted."""
    obj = {
        "id": record.id,
        "block": record.block,
        "embedding": [float(f"{x:.9g}") for x in record.embedding],
        "attributes": {k: sorted(v) for k, v in sorted(record.attributes.items())},
        "label": record.label,
    }
    return json.dumps(obj, separators=(",", ":"))


def export(corpus: Corpus, path) -> None:
    """Write a corpus as JSONL in the ingest schema."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in corpus.records:
            fh.write(record_to_json(r) + "\n")


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
        if self.intra_concentration <= 0:
            raise CorpusError("intra_concentration must be positive")
        if not 0.0 <= self.attribute_sharing_prob <= 1.0:
            raise CorpusError("attribute_sharing_prob must lie in [0, 1]")

    def event_sizes(self) -> tuple[int, ...]:
        if isinstance(self.points_per_event, int):
            return (self.points_per_event,) * self.num_events
        return tuple(int(c) for c in self.points_per_event)

    def to_dict(self) -> dict:
        return {
            "num_events": self.num_events,
            "points_per_event": list(self.event_sizes()),
            "dim": self.dim,
            "intra_concentration": self.intra_concentration,
            "attribute_sharing_prob": self.attribute_sharing_prob,
            "seed": self.seed,
        }


_TOKENS_PER_EVENT = 3


def generate(config: SynthConfig) -> Corpus:
    """Generate a labeled single-block corpus of event-shaped embedding clusters.

    Each event is a spherical mixture component: a random unit center, members
    drawn as normalize(center + gauss/intra_concentration). Every event owns a
    small pool of "entity" tokens; each member carries each token independently
    with a probability s chosen so that a same-event pair shares at least one
    token with probability exactly attribute_sharing_prob. Deterministic for a
    given seed.
    """
    rng = np.random.default_rng(config.seed)
    # P(share) = 1 - (1 - s^2)^T  =>  s per token
    token_prob = math.sqrt(1.0 - (1.0 - config.attribute_sharing_prob) ** (1.0 / _TOKENS_PER_EVENT))
    records: list[MessageRecord] = []
    idx = 0
    for event, count in enumerate(config.event_sizes()):
        center = rng.normal(size=config.dim)
        center /= np.linalg.norm(center)
        noise = rng.normal(size=(count, config.dim)) / config.intra_concentration
        vecs = center[None, :] + noise
        carries = rng.random((count, _TOKENS_PER_EVENT)) < token_prob
        for k in range(count):
            attrs = {"user": frozenset({f"user_{idx}"})}
            tokens = {f"event_{event}_t{t}" for t in range(_TOKENS_PER_EVENT) if carries[k, t]}
            if tokens:
                attrs["entity"] = frozenset(tokens)
            records.append(MessageRecord(
                id=f"m{idx:06d}", block=0, embedding=vecs[k],
                attributes=attrs, label=f"event_{event}",
            ))
            idx += 1
    return Corpus(records)
