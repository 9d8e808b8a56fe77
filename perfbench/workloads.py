"""Benchmark workloads: seeded corpus generation and the CLI commands each runs.

Every workload uses 32-dimensional embeddings, ``--kmax 40`` and the default
``--q0``. Inputs are a pure function of (workload, seed, size): the program
only ever sees the exported JSONL.

- ``sim-knn``: one block of 25 events x 200 records with no shared tokens,
  ``--mode mixed --epsilon 1``. Graph synthesis is dominated by the noisy
  similarity rows and the top-k neighbour table; clustering runs many cheap
  rounds with stalls and q-doubling; TSV I/O is almost nothing.
- ``attr-blocks``: 24 independent blocks of 4 events x 125 records, token
  share 0.8, ``--epsilon 15``. The paper's open-set shape (one block per
  day): time goes to attribute edges, graph TSV write/read and the merge
  loop; the top-k table is small.
- ``eps-sweep``: ``dpevent sweep`` over epsilon 1..10 plus the off row in
  ``--mode global`` on one block of 8 events x 150 records, share 0.5. Every
  epsilon redoes the epsilon-independent work, all in memory; ARI rises from
  about 0.73 to 0.94 across the grid. At 2,000 records one sweep takes
  14-16 s on a 2-core VM, too long for several repetitions per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DIM = 32
KMAX = "40"
EPSILON_GRID = ",".join(str(e) for e in range(1, 11))


@dataclass(frozen=True)
class Shape:
    blocks: int
    events: int
    points: int
    share: float


@dataclass(frozen=True)
class Workload:
    name: str
    full: Shape
    tiny: Shape
    mode: str
    epsilon: str | None  # None: the sweep grid

    @property
    def is_sweep(self) -> bool:
        return self.epsilon is None

    def shape(self, size: str) -> Shape:
        return self.full if size == "full" else self.tiny

    def commands(self, corpus: Path, out: Path, seed: int) -> list[tuple[str, list[str]]]:
        """(stage, argv) pairs passed to ``dpevent.cli.main`` in order."""
        privacy = ["--mode", self.mode, "--seed", str(seed), "--kmax", KMAX]
        if self.is_sweep:
            return [("sweep", ["sweep", "--input", str(corpus), "--out", str(out / "sweep"),
                               "--epsilons", EPSILON_GRID, *privacy])]
        return [
            ("build_graph", ["build-graph", "--input", str(corpus), "--out", str(out / "graphs"),
                             "--epsilon", self.epsilon, *privacy]),
            ("cluster", ["cluster", "--graphs", str(out / "graphs"), "--out",
                         str(out / "clusters")]),
            ("evaluate", ["evaluate", "--input", str(corpus), "--partitions",
                          str(out / "clusters"), "--out", str(out / "eval")]),
        ]

    def attempts(self, size: str) -> int:
        """Block-pipelines one run of the commands attempts."""
        blocks = self.shape(size).blocks
        return blocks * (len(EPSILON_GRID.split(",")) + 1) if self.is_sweep else blocks


WORKLOADS = {w.name: w for w in (
    Workload("sim-knn", full=Shape(1, 25, 200, 0.0), tiny=Shape(1, 5, 20, 0.0),
             mode="mixed", epsilon="1"),
    Workload("attr-blocks", full=Shape(24, 4, 125, 0.8), tiny=Shape(3, 3, 15, 0.8),
             mode="mixed", epsilon="15"),
    Workload("eps-sweep", full=Shape(1, 8, 150, 0.5), tiny=Shape(1, 4, 20, 0.5),
             mode="global", epsilon=None),
)}


def make_corpus(shape: Shape, seed: int):
    """One ``generate`` call per block, each with its own seed.

    With several blocks, ids, tokens and labels are prefixed by the block so
    that blocks share no tokens.
    """
    from dpevent.corpus import Corpus, MessageRecord, SynthConfig, generate

    records = []
    for b in range(shape.blocks):
        block = generate(SynthConfig(num_events=shape.events, points_per_event=shape.points,
                                     dim=DIM, attribute_sharing_prob=shape.share,
                                     seed=seed * 1000 + b))
        if shape.blocks == 1:
            records.extend(block.records)
            continue
        tag = f"b{b:02d}_"
        for r in block.records:
            records.append(MessageRecord(
                id=tag + r.id, block=b, embedding=r.embedding,
                attributes={cat: frozenset(tag + t for t in toks)
                            for cat, toks in r.attributes.items()},
                label=tag + r.label))
    return Corpus(records)
