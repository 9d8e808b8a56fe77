"""File formats: graph TSV, partition CSV, JSON reports. All outputs are
deterministic functions of their inputs (sorted keys, fixed float formatting,
no timestamps), so reruns produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np

from .entropy import Partition
from .graphsynth import PROV_CODES, PROV_NAMES, W_CEIL, MessageGraph


def fmt9(x: float) -> str:
    """9-significant-digit float formatting used by all text outputs."""
    return f"{x:.9g}"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def config_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def write_graph_tsv(path, graph: MessageGraph, ids: list[str]) -> None:
    """Edges as `u v weight provenance` rows, endpoints as corpus ids."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for u, v, w, p in zip(graph.u.tolist(), graph.v.tolist(),
                              graph.w.tolist(), graph.provenance.tolist()):
            fh.write(f"{ids[u]}\t{ids[v]}\t{fmt9(w)}\t{PROV_NAMES[p]}\n")


def read_graph_tsv(path, ids: list[str]) -> MessageGraph:
    index = {rid: i for i, rid in enumerate(ids)}
    us, vs, ws, ps = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
            try:
                us.append(index[parts[0]])
                vs.append(index[parts[1]])
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: unknown node id {exc.args[0]!r}") from None
            try:
                ws.append(float(parts[2]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: weight {parts[2]!r} is not a number") from None
            try:
                ps.append(PROV_CODES[parts[3]])
            except KeyError:
                raise ValueError(f"{path}:{lineno}: unknown provenance {parts[3]!r}") from None
    w = np.asarray(ws, np.float64)
    # checked once per file, not per line; NaN fails both comparisons
    bad = np.flatnonzero(~((w > 0.0) & (w <= W_CEIL)))
    if bad.size:
        with open(path, "r", encoding="utf-8") as fh:
            lineno = [i for i, line in enumerate(fh, start=1) if line.rstrip("\n")][bad[0]]
        raise ValueError(f"{path}:{lineno}: weight {w[bad[0]]} is not in (0, 1]")
    return MessageGraph(n=len(ids), u=np.asarray(us, np.int64), v=np.asarray(vs, np.int64),
                        w=w, provenance=np.asarray(ps, np.uint8))


def write_partition_csv(path, ids: list[str], partition: Partition) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "cluster"])
        for rid, c in zip(ids, partition.assignment.tolist()):
            writer.writerow([rid, c])


def read_partition_csv(path) -> tuple[list[str], list[int]]:
    ids, clusters = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["id", "cluster"]:
            raise ValueError(f"{path}: expected header id,cluster")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{reader.line_num}: expected 2 fields id,cluster")
            try:
                clusters.append(int(row[1]))
            except ValueError:
                raise ValueError(f"{path}:{reader.line_num}: cluster {row[1]!r} "
                                 "is not an integer") from None
            ids.append(row[0])
    return ids, clusters
