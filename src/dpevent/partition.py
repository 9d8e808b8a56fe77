"""Optimal-subgraph 2D SE minimization: contract, extract, minimize, repeat.

Each round contracts the current communities into a super-graph, greedily
carves the super-graph into high-weight subgraphs of at most q super-nodes,
and runs the greedy merge loop once over the edges inside all subgraphs.
The loop steps through the connected components of those edges in
lockstep, each scanning only its own edges, so a round's merge steps
follow its largest component, not its total merge count. Merges are
confined to a subgraph within a round, but every delta is evaluated
against the full graph's volume and cut state, so H2 of the full graph
never increases. A round's grouping is one label per super-node, and the
round stays in numpy: its cost does not grow with the number of singleton
groups. When a round accepts no merge, q doubles; once that
happens with a single subgraph covering everything, no further merge can
help and the loop stops. Such a round leaves the partition and its
aggregates as they were, so the next round reuses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import (Partition, _check_partition, _community_aggregates, _incidence,
                      _two_dim_se_from_aggregates, merged_partition, minimize_edges)
from .graphsynth import GraphError, MessageGraph, one_dim_se

MAX_ROUNDS = 64


@dataclass(frozen=True, eq=False)
class SuperGraph:
    """Contraction of a graph under a partition, one super-node per community.

    Super-node c is community c. Cross-community weights are summed per
    super-edge (ea < eb); volume_per_node is each community's volume, so it
    counts the internal edges too.
    """

    ea: np.ndarray
    eb: np.ndarray
    ew: np.ndarray
    volume_per_node: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.volume_per_node.size)

    @property
    def num_edges(self) -> int:
        return int(self.ea.size)


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
    return SuperGraph(ea=ea, eb=eb, ew=ew, volume_per_node=volume)


def extract_subgraphs(sg: SuperGraph, q: int) -> np.ndarray:
    """Greedily carve the super-graph into groups of up to q super-nodes.

    Returns one int64 group label per super-node. Up to ceil(|sg|/q) groups
    are seeded with the endpoints of the heaviest remaining edge (ties:
    lexicographically smallest pair, in any edge order) and grown by
    repeatedly adding the unassigned neighbor with the highest total weight
    into the group (ties: smallest id); they get labels 0..k-1 in extraction
    order. Extracted nodes are removed before the next group. Each node left
    over afterwards gets a label of its own, k, k+1, ... in ascending id
    order, and passes through the round unchanged.
    """
    if q < 2:
        raise ValueError("subgraph size q must be at least 2")
    m = sg.num_nodes
    if not sg.num_edges:
        return np.arange(m, dtype=np.int64)  # every node is left over
    k_max = math.ceil(m / q)
    labels = np.full(m, -1, dtype=np.int64)

    # CSR adjacency over super-nodes: the edge id, neighbour and weight of
    # each incidence. A super-node's neighbours are distinct (one super-edge
    # per community pair), so a fancy += adds each weight once.
    edge, indptr = _incidence(sg.ea, sg.eb, m)
    nbr = (sg.ea + sg.eb)[edge] - np.repeat(np.arange(m), np.diff(indptr))
    nbw = sg.ew[edge]

    # free: each edge's weight, -inf once an endpoint is assigned; cut: each
    # node's weight into the current group, -inf once it is assigned
    free = np.array(sg.ew, dtype=np.float64)
    cut = np.empty(m, dtype=np.float64)
    num_groups = 0

    def add(node: int, label: int) -> None:
        labels[node] = label
        sl = slice(indptr[node], indptr[node + 1])
        free[edge[sl]] = -np.inf
        cut[node] = -np.inf
        cut[nbr[sl]] += nbw[sl]

    for label in range(k_max):
        # seed: the heaviest free edge; ties by lexicographically smallest pair
        e = int(free.argmax())
        if free[e] == -np.inf:
            break
        tied = np.flatnonzero(free == free[e])
        if tied.size > 1:  # clipped weights tie by the thousand: no sort
            tied = tied[sg.ea[tied] == sg.ea[tied].min()]
            e = int(tied[sg.eb[tied].argmin()])
        cut[:] = np.where(labels < 0, 0.0, -np.inf)
        add(int(sg.ea[e]), label)
        add(int(sg.eb[e]), label)
        size = 2
        while size < q:
            nxt = int(cut.argmax())
            if cut[nxt] <= 0.0:
                break  # no connected unassigned candidate remains
            add(nxt, label)
            size += 1
        num_groups = label + 1
    left = labels < 0
    labels[left] = np.arange(num_groups, num_groups + int(left.sum()), dtype=np.int64)
    return labels


def sequential_subgraphs(num_nodes: int, q: int) -> np.ndarray:
    """Baseline grouping: consecutive id-order chunks of size q, as one label per node."""
    if q < 2:
        raise ValueError("subgraph size q must be at least 2")
    return np.arange(num_nodes, dtype=np.int64) // q


def cluster(graph: MessageGraph, q0: int = 400, grouping: str = "optimal") -> ClusterRun:
    """Full optimal-subgraph minimization with the q-doubling outer loop.

    The run starts from singleton communities. A round labels each
    community with its group (extract_subgraphs; all zero when one group
    must cover everything) and runs minimize_edges once on the edges inside
    the groups, in index order. Groups share no community, and a merge
    changes only the state of its own pair, so the one loop makes the same
    merges, in the same order within each group, as one loop per group; it
    merges in lockstep over the connected components of those edges, each
    of which lies inside one group. A
    round that accepts no merge is stable: q doubles, or the loop stops
    when the round covered the whole graph. grouping="sequential" replaces
    the greedy extraction with id-order chunks (the prior-work baseline)
    while keeping the rest of the loop identical.
    """
    if q0 < 2:
        raise ValueError("q0 must be at least 2")
    if grouping not in ("optimal", "sequential"):
        raise ValueError(f"unknown grouping {grouping!r}")
    if graph.volume <= 0.0:
        raise GraphError("cannot cluster an empty graph")
    run = ClusterRun(q0=q0)
    run.h1 = one_dim_se(graph)

    current = Partition.singletons(graph.n)
    q = q0
    # one aggregation per partition: a round's result gives its H2 and
    # starts the next round
    aggregates = _community_aggregates(graph, current.assignment)
    for _ in range(MAX_ROUNDS):
        vol, V, g, ilog, ea, eb, ew = aggregates
        ncomm = int(V.size)
        k_max = math.ceil(ncomm / q)
        if k_max == 1:
            # a single subgraph must cover everything: the round is exactly a
            # whole-supergraph vanilla minimization, component boundaries included
            labels = np.zeros(ncomm, dtype=np.int64)
        elif grouping == "optimal":
            labels = extract_subgraphs(build_supergraph(graph, current, aggregates), q)
        else:
            labels = sequential_subgraphs(ncomm, q)

        inside = np.flatnonzero(labels[ea] == labels[eb])
        parent = np.arange(ncomm, dtype=np.int64)
        merges = minimize_edges(ea[inside], eb[inside], ew[inside], V, g, ilog, parent, vol).size
        # every merge removes a community, so no merge means an unchanged partition
        stable = merges == 0
        if not stable:
            current = merged_partition(parent, current.assignment)
            # minimize_edges changed V, g and ilog in place: aggregate afresh
            aggregates = _community_aggregates(graph, current.assignment)
        run.rounds.append({
            "q": q,
            "k_max": k_max,
            "num_communities": current.num_communities,
            "h2": _two_dim_se_from_aggregates(aggregates),
            "stable": stable,
        })
        if stable:
            if k_max == 1:
                run.converged = True
                break
            q *= 2
    run.final = current
    return run
