"""Two-level structural entropy and its greedy minimizer.

The two-dimensional structural entropy of a partitioned weighted graph is

    H2 = -sum_j (V_j/vol) sum_{i in j} (d_i/V_j) log2(d_i/V_j)
         -sum_j (g_j/vol) log2(V_j/vol)

with vol = sum_i d_i, V_j the volume of community j, g_j its cut weight and
0*log 0 = 0. Folding the sums gives a per-community contribution

    c_j = (V_j - g_j)*log2(V_j) + g_j*log2(vol) - sum_{i in j} d_i*log2(d_i)

so H2 = sum_j c_j / vol, and merging two communities changes only their own
contributions. That makes the merge delta O(1) from cached state, which is
what the greedy minimizer exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphsynth import GraphError, MessageGraph

MERGE_TOL = 1e-12


class InvalidPartitionError(ValueError):
    """Raised for partitions that are not total, dense and non-empty."""


def dense_labels(values: np.ndarray) -> np.ndarray:
    """Relabel arbitrary integer labels to 0..L-1 in order of first occurrence."""
    uniq, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(uniq.size)
    return rank[inverse]


@dataclass(frozen=True, eq=False)
class Partition:
    """Total assignment of nodes to communities, ids dense from 0."""

    assignment: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.ndim != 1 or a.size == 0:
            raise InvalidPartitionError("assignment must be a non-empty vector")
        uniq = np.unique(a)
        if uniq[0] != 0 or uniq[-1] != uniq.size - 1:
            raise InvalidPartitionError("community ids must be dense from 0 with no empty community")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Build from any hashable labels, numbering communities by first occurrence."""
        seen: dict = {}
        out = np.empty(len(labels), dtype=np.int64)
        for i, lab in enumerate(labels):
            out[i] = seen.setdefault(lab, len(seen))
        return cls(out)

    @property
    def n(self) -> int:
        return int(self.assignment.size)

    @property
    def num_communities(self) -> int:
        return int(self.assignment.max()) + 1

    def canonical(self) -> np.ndarray:
        """First-occurrence relabeling; equal arrays iff partitions are equal."""
        return dense_labels(self.assignment)

    def same_as(self, other: "Partition") -> bool:
        return self.n == other.n and bool(np.array_equal(self.canonical(), other.canonical()))

    def groups(self) -> list[np.ndarray]:
        order = np.argsort(self.assignment, kind="stable")
        bounds = np.searchsorted(self.assignment[order], np.arange(self.num_communities + 1))
        return [order[bounds[c]:bounds[c + 1]] for c in range(self.num_communities)]


def _contributions(V, g, ilog, log2vol: float) -> np.ndarray:
    """Per-community terms c_j = (V-g)*log2(V) + g*log2(vol) - ilog, elementwise.

    Zero-volume communities (all members isolated) contribute nothing.
    """
    pos = V > 0.0
    if pos.all():
        return (V - g) * np.log2(V) + g * log2vol - ilog
    out = np.zeros(pos.shape)
    out[pos] = _contributions(V[pos], g[pos], ilog[pos], log2vol)
    return out


def _community_aggregates(graph: MessageGraph, assignment: np.ndarray):
    """Per-community volume, cut weight and sum d*log2(d), plus cross-community edges."""
    d = graph.degrees()
    vol = float(d.sum())
    node_ilog = np.zeros_like(d)
    pos = d > 0
    node_ilog[pos] = d[pos] * np.log2(d[pos])
    ncomm = int(assignment.max()) + 1
    V = np.bincount(assignment, weights=d, minlength=ncomm)
    ilog = np.bincount(assignment, weights=node_ilog, minlength=ncomm)
    cu = assignment[graph.u]
    cv = assignment[graph.v]
    cross = cu != cv
    lo = np.minimum(cu[cross], cv[cross])
    hi = np.maximum(cu[cross], cv[cross])
    code = lo * np.int64(ncomm) + hi
    uniq, inv = np.unique(code, return_inverse=True)
    ew = np.bincount(inv, weights=graph.w[cross]) if uniq.size else np.empty(0)
    ea = (uniq // ncomm).astype(np.int64)
    eb = (uniq % ncomm).astype(np.int64)
    g = np.bincount(ea, weights=ew, minlength=ncomm) + np.bincount(eb, weights=ew, minlength=ncomm)
    return vol, V, g, ilog, ea, eb, ew


def _check_partition(graph: MessageGraph, partition: Partition) -> np.ndarray:
    if partition.n != graph.n:
        raise InvalidPartitionError(f"partition covers {partition.n} nodes, graph has {graph.n}")
    return partition.assignment


def two_dim_se(graph: MessageGraph, partition: Partition) -> float:
    """Two-level structural entropy of the graph under the partition."""
    assignment = _check_partition(graph, partition)
    vol, V, g, ilog, *_ = _community_aggregates(graph, assignment)
    if vol <= 0.0:
        raise GraphError("2D structural entropy is undefined on an empty graph")
    pos = V > 0  # zero terms would regroup numpy's pairwise summation
    return float(_contributions(V[pos], g[pos], ilog[pos], math.log2(vol)).sum()) / vol


def _merge_deltas(ea, eb, ew, V, g, ilog, vol, log2vol):
    """H2 change of merging each pair (ea, eb) joined by cut weight ew."""
    va = V[ea]
    vb = V[eb]
    ga = g[ea]
    gb = g[eb]
    ia = ilog[ea]
    ib = ilog[eb]
    gm = np.maximum(ga + gb - 2.0 * ew, 0.0)
    # one call for the merged pair and both sides: the arrays are small, so the
    # per-call cost dominates
    cm, ca, cb = _contributions(np.array([va + vb, va, vb]), np.array([gm, ga, gb]),
                                np.array([ia + ib, ia, ib]), log2vol)
    return (cm - ca - cb) / vol


def _merge(a, b, w, V, g, ilog, parent, ea, eb, ew):
    """Fold community b into a (a < b), whose cut weight is w.

    Updates the state of a in place and records parent[b] = a. Returns the
    mask of the cross-community edges (ea, eb, ew) that touch neither a nor b,
    and the contracted edge list: those edges in order, followed by the edges
    of the merged community with parallel weights summed. The a-b edge
    vanishes.
    """
    V[a] += V[b]
    g[a] = max(g[a] + g[b] - 2.0 * w, 0.0)
    ilog[a] += ilog[b]
    parent[b] = a
    x = np.where(ea == b, a, ea)
    y = np.where(eb == b, a, eb)
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    at_a = (lo == a) | (hi == a)
    touch = at_a & (lo != hi)
    other = np.where(lo[touch] == a, hi[touch], lo[touch])
    uniq, inv = np.unique(other, return_inverse=True)
    rest = ~at_a
    return (rest, np.concatenate([ea[rest], np.minimum(uniq, a)]),
            np.concatenate([eb[rest], np.maximum(uniq, a)]),
            np.concatenate([ew[rest], np.bincount(inv, weights=ew[touch])]))


class CommunityState:
    """Per-community state and cross-community edges of a partitioned graph.

    Holds the arrays the greedy merge loop works on: merge_delta evaluates the
    loop's delta for one pair and apply_merge runs its merge-and-contract step.
    """

    def __init__(self, graph: MessageGraph, partition: Partition):
        assignment = _check_partition(graph, partition)
        vol, V, g, ilog, ea, eb, ew = _community_aggregates(graph, assignment)
        if vol <= 0.0:
            raise GraphError("community state is undefined on an empty graph")
        self.vol = vol
        self.log2vol = math.log2(vol)
        self.V = V
        self.g = g
        self.ilog = ilog
        self.ea = ea
        self.eb = eb
        self.ew = ew
        self.alive = np.ones(V.size, dtype=bool)
        self.parent = np.arange(V.size, dtype=np.int64)
        self._base_assignment = assignment

    def _pair(self, a: int, b: int):
        """The pair as (lo, hi, cut weight), validated."""
        if a == b:
            raise InvalidPartitionError("cannot merge a community with itself")
        for c in (a, b):
            if not (0 <= c < self.alive.size) or not self.alive[c]:
                raise InvalidPartitionError(f"unknown or merged community id {c}")
        lo, hi = min(a, b), max(a, b)
        edge = np.flatnonzero((self.ea == lo) & (self.eb == hi))
        return lo, hi, float(self.ew[edge[0]]) if edge.size else 0.0

    def merge_delta(self, a: int, b: int) -> float:
        """H2(after merging a and b) - H2(before), from cached state."""
        lo, hi, w = self._pair(a, b)
        return float(_merge_deltas(np.array([lo]), np.array([hi]), np.array([w]), self.V,
                                   self.g, self.ilog, self.vol, self.log2vol)[0])

    def apply_merge(self, a: int, b: int) -> None:
        """Merge the two communities; the smaller id survives."""
        lo, hi, w = self._pair(a, b)
        _, self.ea, self.eb, self.ew = _merge(lo, hi, w, self.V, self.g, self.ilog, self.parent,
                                              self.ea, self.eb, self.ew)
        self.alive[hi] = False

    def two_dim_se(self) -> float:
        alive = self.alive
        return float(_contributions(self.V[alive], self.g[alive], self.ilog[alive],
                                   self.log2vol).sum()) / self.vol

    def partition(self) -> Partition:
        root = resolve_parents(self.parent)
        return Partition(dense_labels(root[self._base_assignment]))


def merge_delta(state: CommunityState, a: int, b: int) -> float:
    """Change in 2D structural entropy if communities a and b were merged."""
    return state.merge_delta(a, b)


def resolve_parents(parent: np.ndarray) -> np.ndarray:
    """Map each id to its merge root (parent[x] <= x holds for every merge)."""
    root = parent.copy()
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            return root
        root = nxt


def minimize_edges(ea, eb, ew, V, g, ilog, parent, vol):
    """Run the greedy merge loop on pre-aggregated cross-community edges.

    Edges satisfy ea < eb. Repeatedly merges the pair with the most negative
    delta (ties: lexicographically smallest pair) until no pair improves H2 by
    more than MERGE_TOL. Mutates V, g, ilog, parent in place. Returns the
    array of accepted merge deltas, each strictly below -MERGE_TOL.

    A merge only changes the state of the merged pair, so deltas of edges not
    incident to it are kept and only the survivor's re-aggregated edges are
    recomputed.
    """
    vol = float(vol)
    log2vol = math.log2(vol)
    accepted = []
    delta = _merge_deltas(ea, eb, ew, V, g, ilog, vol, log2vol)
    while ea.size:
        dmin = float(delta.min())
        if not dmin < -MERGE_TOL:
            break
        tied = np.flatnonzero(delta == dmin)
        best = int(tied[np.lexsort((eb[tied], ea[tied]))[0]])
        a = int(ea[best])
        b = int(eb[best])
        rest, ea, eb, ew = _merge(a, b, ew[best], V, g, ilog, parent, ea, eb, ew)
        accepted.append(dmin)
        delta = delta[rest]
        if delta.size < ea.size:
            new = slice(delta.size, None)
            delta = np.concatenate([delta, _merge_deltas(ea[new], eb[new], ew[new], V, g, ilog,
                                                         vol, log2vol)])
    return np.asarray(accepted, dtype=np.float64)


def vanilla_minimize(graph: MessageGraph, init: Partition | None = None) -> Partition:
    """Greedy 2D SE minimization: repeatedly apply the best connected merge.

    Considers every pair of communities joined by at least one edge, applies
    the most-negative delta (ties broken by the lexicographically smallest id
    pair) and stops when no merge improves H2 by more than MERGE_TOL.
    """
    if init is None:
        init = Partition.singletons(graph.n)
    assignment = _check_partition(graph, init)
    vol, V, g, ilog, ea, eb, ew = _community_aggregates(graph, assignment)
    if vol <= 0.0:
        raise GraphError("cannot minimize structural entropy of an empty graph")
    parent = np.arange(V.size, dtype=np.int64)
    minimize_edges(ea, eb, ew, V, g, ilog, parent, vol)
    root = resolve_parents(parent)
    return Partition(dense_labels(root[assignment]))
