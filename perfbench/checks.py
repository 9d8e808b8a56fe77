"""Output checks and the digest of the deterministic outputs.

The checks read the files the CLI wrote with the standard library only, so
they do not share code with the program they check:

- every partition CSV lists each corpus id of its block exactly once;
- graph TSV weights lie in (0, 1], endpoints are ids of the block and differ;
- the sidecar ``n``, ``nodes`` and ``num_edges`` match the corpus and the TSV;
- each block's ARI equals an independent pair-counting ARI of the partition;
- H2 never increases from one clustering round to the next;
- ``sweep.csv`` has one finite row per (epsilon, block).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

H2_TOL = 1e-9
ARI_TOL = 1e-9
DIGESTED = ("graphs/graph_block*.tsv", "clusters/partition_block*.csv", "sweep/sweep.csv")


def read_blocks(corpus: Path) -> dict[int, tuple[list[str], list[str]]]:
    """block -> (ids, labels) in file order."""
    blocks: dict[int, tuple[list[str], list[str]]] = {}
    with open(corpus, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            ids, labels = blocks.setdefault(rec["block"], ([], []))
            ids.append(rec["id"])
            labels.append(rec["label"])
    return blocks


def digest(out: Path) -> str:
    """sha256 over (relative path, bytes) of the graph TSVs, partition CSVs and sweep.csv."""
    h = hashlib.sha256()
    files = sorted(p for pattern in DIGESTED for p in out.glob(pattern))
    for path in files:
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def pair_ari(truth: list, pred: list) -> float:
    def pairs(counts):
        return sum(c * (c - 1) // 2 for c in counts.values())

    cells = pairs(Counter(zip(truth, pred)))
    rows = pairs(Counter(truth))
    cols = pairs(Counter(pred))
    total = len(truth) * (len(truth) - 1) // 2
    denominator = total * (rows + cols) - 2 * rows * cols
    if denominator == 0:
        return 1.0
    return 2 * (total * cells - rows * cols) / denominator


def _check_graph(out: Path, block: int, ids: list[str]) -> None:
    sidecar = json.loads((out / "graphs" / f"graph_block{block}.json").read_text())
    if sidecar["n"] != len(ids) or sidecar["nodes"] != ids:
        raise AssertionError(f"block {block}: sidecar nodes differ from the corpus block")
    members = set(ids)
    edges = 0
    with open(out / "graphs" / f"graph_block{block}.tsv", encoding="utf-8") as fh:
        for line in fh:
            u, v, w, prov = line.rstrip("\n").split("\t")
            if u == v or u not in members or v not in members:
                raise AssertionError(f"block {block}: bad edge {u} {v}")
            if not 0.0 < float(w) <= 1.0:
                raise AssertionError(f"block {block}: weight {w} outside (0, 1]")
            if prov not in ("SE", "ATTR", "BOTH"):
                raise AssertionError(f"block {block}: unknown provenance {prov}")
            edges += 1
    if edges != sidecar["num_edges"]:
        raise AssertionError(f"block {block}: {edges} TSV rows, sidecar says "
                             f"{sidecar['num_edges']}")


def _check_partition(out: Path, block: int, ids: list[str], labels: list[str]) -> None:
    lines = (out / "clusters" / f"partition_block{block}.csv").read_text().splitlines()
    if lines[0] != "id,cluster":
        raise AssertionError(f"block {block}: bad partition header")
    rows = [line.split(",") for line in lines[1:]]
    if sorted(r[0] for r in rows) != sorted(ids) or len(set(ids)) != len(ids):
        raise AssertionError(f"block {block}: partition does not cover each id exactly once")
    label_of = dict(zip(ids, labels))
    expected = pair_ari([label_of[r[0]] for r in rows], [int(r[1]) for r in rows])
    reported = json.loads((out / "eval" / f"metrics_block{block}.json").read_text())["ari"]
    if abs(expected - reported) > ARI_TOL:
        raise AssertionError(f"block {block}: reported ARI {reported} != {expected}")
    run = json.loads((out / "clusters" / f"run_block{block}.json").read_text())
    h2 = [r["h2"] for r in run["rounds"]]
    if any(b > a + H2_TOL for a, b in zip(h2, h2[1:])):
        raise AssertionError(f"block {block}: H2 increased across rounds {h2}")


def check_blocks(out: Path, blocks: dict) -> dict[int, str]:
    """block -> reason, for every block of a build-graph/cluster/evaluate run that fails."""
    failed = {}
    for block, (ids, labels) in blocks.items():
        try:
            _check_graph(out, block, ids)
            _check_partition(out, block, ids, labels)
        except (AssertionError, OSError, ValueError, KeyError, IndexError) as exc:
            failed[block] = f"{type(exc).__name__}: {exc}"
    return failed


def check_sweep(out: Path, blocks: dict, epsilons: list[str]) -> dict[tuple, str]:
    """(epsilon, block) -> reason, for every sweep row that is missing or not finite."""
    rows = {}
    try:
        lines = (out / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    except OSError:
        lines = []
    for line in lines:
        eps, block, ami, ari, _ = line.split(",")
        rows[(eps, int(block))] = (float(ami), float(ari))
    failed = {}
    for eps in epsilons:
        for block in blocks:
            scores = rows.get((eps, block))
            if scores is None:
                failed[(eps, block)] = "missing row"
            elif not all(math.isfinite(s) and -1.0 <= s <= 1.0 for s in scores):
                failed[(eps, block)] = f"bad scores {scores}"
    return failed


def quality(out: Path, is_sweep: bool) -> tuple[float, float]:
    """(mean ARI, mean AMI) over blocks, or over the sweep's rows."""
    if is_sweep:
        rows = [line.split(",") for line in
                (out / "sweep" / "sweep.csv").read_text().splitlines()[1:]]
        ari = [float(r[3]) for r in rows]
        ami = [float(r[2]) for r in rows]
        return sum(ari) / len(ari), sum(ami) / len(ami)
    summary = json.loads((out / "eval" / "metrics_summary.json").read_text())
    return summary["mean_ari"], summary["mean_ami"]
