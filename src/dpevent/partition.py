"""Optimal-subgraph 2D SE minimization: contract, extract, minimize, repeat.

Each round contracts the current communities into a super-graph, greedily
carves the super-graph into high-weight subgraphs of at most q super-nodes,
and runs the vanilla minimizer inside each subgraph. Merges are confined to a
subgraph within a round, but every delta is evaluated against the full graph's
volume and cut state, so H2 of the full graph never increases. When a round
leaves the partition unchanged, q doubles; once that happens with a single
subgraph covering everything, no further merge can help and the loop stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import (Partition, _check_partition, _community_aggregates, dense_labels,
                      minimize_edges, resolve_parents, two_dim_se)
from .graphsynth import GraphError, MessageGraph, one_dim_se

MAX_ROUNDS = 64


@dataclass(frozen=True, eq=False)
class SuperGraph:
    """Contraction of a graph under a partition, one super-node per community.

    Cross-community weights are summed per super-edge; internal weights are
    kept as per-super-node self-weights so total weight is conserved.
    """

    members: list[np.ndarray]
    ea: np.ndarray
    eb: np.ndarray
    ew: np.ndarray
    self_weight: np.ndarray
    volume_per_node: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.members)

    @property
    def num_edges(self) -> int:
        return int(self.ea.size)

    def total_weight(self) -> float:
        return float(self.ew.sum() + self.self_weight.sum())


@dataclass
class ClusterRun:
    """Per-round log and the final partition of one clustering run."""

    q0: int
    rounds: list[dict] = field(default_factory=list)
    final: Partition | None = None
    h1: float = math.nan
    # False when the loop stopped at MAX_ROUNDS instead of a stable whole-graph round
    converged: bool = False

    def to_dict(self) -> dict:
        return {
            "q0": self.q0,
            "rounds": self.rounds,
            "num_communities": None if self.final is None else self.final.num_communities,
            "h1": self.h1,
            "converged": self.converged,
        }


def build_supergraph(graph: MessageGraph, partition: Partition,
                     aggregates: tuple | None = None) -> SuperGraph:
    """Contract each community into a super-node, summing cross weights.

    The contraction comes from _community_aggregates; pass its result for
    this partition as aggregates to avoid computing it again.
    """
    assignment = _check_partition(graph, partition)
    if aggregates is None:
        aggregates = _community_aggregates(graph, assignment)
    _, volume, _, _, ea, eb, ew = aggregates
    cu = assignment[graph.u]
    internal = cu == assignment[graph.v]
    self_weight = np.bincount(cu[internal], weights=graph.w[internal], minlength=volume.size)
    return SuperGraph(members=partition.groups(), ea=ea, eb=eb, ew=ew,
                      self_weight=self_weight, volume_per_node=volume)


def extract_subgraphs(sg: SuperGraph, q: int) -> list[np.ndarray]:
    """Greedily carve the super-graph into groups of up to q super-nodes.

    Up to ceil(|sg|/q) groups are seeded with the endpoints of the heaviest
    remaining edge and grown by repeatedly adding the unassigned neighbor with
    the highest total weight into the group (ties: smallest id). Extracted
    nodes are removed before the next group; whatever remains afterwards is
    appended as singleton groups and passes through the round unchanged.
    """
    if q < 2:
        raise ValueError("subgraph size q must be at least 2")
    m = sg.num_nodes
    if m == 0:
        return []
    k_max = math.ceil(m / q)

    # CSR adjacency over super-nodes
    src = np.concatenate([sg.ea, sg.eb])
    dst = np.concatenate([sg.eb, sg.ea])
    wts = np.concatenate([sg.ew, sg.ew])
    order = np.argsort(src, kind="stable")
    nbr = dst[order]
    nbw = wts[order]
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=m), out=indptr[1:])

    # heaviest-first edge order; ties by lexicographically smallest pair
    edge_order = np.lexsort((sg.eb, sg.ea, -sg.ew))
    assigned = np.zeros(m, dtype=bool)
    groups: list[np.ndarray] = []
    cursor = 0
    cut = np.zeros(m, dtype=np.float64)
    for _ in range(k_max):
        while cursor < edge_order.size:
            e = edge_order[cursor]
            if not assigned[sg.ea[e]] and not assigned[sg.eb[e]]:
                break
            cursor += 1
        else:
            break
        seed_a = int(sg.ea[edge_order[cursor]])
        seed_b = int(sg.eb[edge_order[cursor]])
        group = [seed_a, seed_b]
        cut[:] = 0.0
        for node in (seed_a, seed_b):
            assigned[node] = True
            sl = slice(indptr[node], indptr[node + 1])
            np.add.at(cut, nbr[sl], nbw[sl])
        while len(group) < q:
            candidate_cut = np.where(assigned, -1.0, cut)
            nxt = int(np.argmax(candidate_cut))
            if candidate_cut[nxt] <= 0.0:
                break  # no connected unassigned candidate remains
            group.append(nxt)
            assigned[nxt] = True
            sl = slice(indptr[nxt], indptr[nxt + 1])
            np.add.at(cut, nbr[sl], nbw[sl])
        groups.append(np.asarray(sorted(group), dtype=np.int64))
    for node in np.flatnonzero(~assigned):
        groups.append(np.asarray([node], dtype=np.int64))
    return groups


def sequential_subgraphs(num_nodes: int, q: int) -> list[np.ndarray]:
    """Baseline grouping: consecutive id-order chunks of size q."""
    if q < 2:
        raise ValueError("subgraph size q must be at least 2")
    return [np.arange(lo, min(lo + q, num_nodes), dtype=np.int64)
            for lo in range(0, num_nodes, q)]


def cluster(graph: MessageGraph, q0: int = 400, init: Partition | None = None,
            grouping: str = "optimal") -> ClusterRun:
    """Full optimal-subgraph minimization with the q-doubling outer loop.

    grouping="sequential" replaces the greedy extraction with id-order chunks
    (the prior-work baseline) while keeping the rest of the loop identical.
    """
    if q0 < 2:
        raise ValueError("q0 must be at least 2")
    if grouping not in ("optimal", "sequential"):
        raise ValueError(f"unknown grouping {grouping!r}")
    if graph.volume <= 0.0:
        raise GraphError("cannot cluster an empty graph")
    if init is None:
        init = Partition.singletons(graph.n)
    run = ClusterRun(q0=q0)
    run.h1 = one_dim_se(graph)

    current = init
    q = q0
    for _ in range(MAX_ROUNDS):
        assignment = current.assignment
        aggregates = _community_aggregates(graph, assignment)
        vol, V, g, ilog, ea, eb, ew = aggregates
        ncomm = int(V.size)
        k_max = math.ceil(ncomm / q)
        if k_max == 1:
            # a single subgraph must cover everything: the round is exactly a
            # whole-supergraph vanilla minimization, component boundaries included
            groups = [np.arange(ncomm, dtype=np.int64)]
        elif grouping == "optimal":
            groups = extract_subgraphs(build_supergraph(graph, current, aggregates), q)
        else:
            groups = sequential_subgraphs(ncomm, q)

        # group id per community; -1 marks edges crossing group boundaries
        group_of = np.full(ncomm, -1, dtype=np.int64)
        for gi, members in enumerate(groups):
            group_of[members] = gi
        parent = np.arange(ncomm, dtype=np.int64)
        if ea.size:
            edge_group = np.where(group_of[ea] == group_of[eb], group_of[ea], -1)
            for gi, members in enumerate(groups):
                if members.size < 2:
                    continue
                sel = edge_group == gi
                if not np.any(sel):
                    continue
                minimize_edges(ea[sel], eb[sel], ew[sel], V, g, ilog, parent, vol)
        root = resolve_parents(parent)
        new_partition = Partition(dense_labels(root[assignment]))
        stable = new_partition.same_as(current)
        run.rounds.append({
            "q": q,
            "k_max": k_max,
            "num_communities": new_partition.num_communities,
            "h2": two_dim_se(graph, new_partition),
            "stable": stable,
        })
        current = new_partition
        if stable:
            if k_max == 1:
                run.converged = True
                break
            q *= 2
    run.final = current
    return run
