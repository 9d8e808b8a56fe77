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

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .graphsynth import GraphError, MessageGraph

MERGE_TOL = 1e-12


class InvalidPartitionError(ValueError):
    """Raised for partitions that are not total, dense and non-empty."""


def first_occurrence_ids(labels) -> tuple[np.ndarray, int]:
    """Number any hashable labels 0..L-1 in order of first occurrence: (ids, L)."""
    seen: dict = {}
    ids = np.fromiter((seen.setdefault(lab, len(seen)) for lab in labels), dtype=np.int64,
                      count=len(labels))
    return ids, len(seen)


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
        # a count per id, not np.unique: its first plain call imports numpy.ma
        if a.min() != 0 or a.max() >= a.size or not np.bincount(a).all():
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
        return cls(first_occurrence_ids(labels)[0])

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


def _two_dim_se_from_aggregates(aggregates) -> float:
    """H2 from the result of _community_aggregates."""
    vol, V, g, ilog, *_ = aggregates
    if vol <= 0.0:
        raise GraphError("2D structural entropy is undefined on an empty graph")
    pos = V > 0  # zero terms would regroup numpy's pairwise summation
    return float(_contributions(V[pos], g[pos], ilog[pos], math.log2(vol)).sum()) / vol


def two_dim_se(graph: MessageGraph, partition: Partition) -> float:
    """Two-level structural entropy of the graph under the partition."""
    assignment = _check_partition(graph, partition)
    return _two_dim_se_from_aggregates(_community_aggregates(graph, assignment))


def _merge_deltas(ea, eb, ew, V, g, ilog, C, vol, log2vol):
    """H2 change of merging each pair (ea, eb) joined by cut weight ew.

    C holds each community's contribution (_contributions of its V, g, ilog),
    so only the merged pairs take a log. Also returns the merged pairs'
    contributions: once a pair merges, its entry is the survivor's new C.
    """
    gm = np.maximum(g[ea] + g[eb] - 2.0 * ew, 0.0)
    cm = _contributions(V[ea] + V[eb], gm, ilog[ea] + ilog[eb], log2vol)
    return (cm - C[ea] - C[eb]) / vol, cm


def _incidence(ea, eb, n: int):
    """Incidence lists of the edges (ea[e], eb[e]) over nodes 0..n-1, as a CSR.

    Returns the edge id of each incidence and indptr: node x's edges are
    edge[indptr[x]:indptr[x + 1]], in ascending edge id (one stable argsort
    over both endpoints).
    """
    ends = np.concatenate([ea, eb])
    edge = np.argsort(ends, kind="stable") % max(len(ea), 1)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
    return edge, indptr


def _components(ea, eb, n: int) -> np.ndarray:
    """Label each node 0..n-1 by the smallest node of its connected component.

    Label propagation with pointer jumping: each pass hooks every root to the
    smallest root it shares an edge with, then points every node straight at
    its root (resolve_parents), until no edge joins two labels. A label never
    exceeds its node, so the hooks form trees.
    """
    label = np.arange(n, dtype=np.int64)
    while True:
        la, lb = label[ea], label[eb]
        cross = la != lb
        if not cross.any():
            return label
        np.minimum.at(label, np.maximum(la, lb)[cross], np.minimum(la, lb)[cross])
        label = resolve_parents(label)


class _EdgeSlots:
    """Cross-community edges (ea < eb, cut weight ew) in fixed slots.

    The slots are the given arrays themselves when they are int64, int64 and
    float64, so the caller copies them. A merge rewrites the few slots at the
    merged pair instead of rebuilding the arrays, and a slot that dies holds
    ea = eb = -1. Each community's slots come from its incidence list
    (_incidence); a community that absorbed another keeps its list in a dict
    instead. Lists may still name slots that died since, so `of` filters
    them. The order within a list is arbitrary: nothing computed from it
    depends on it.
    """

    def __init__(self, ea, eb, ew, ncomm: int):
        self.ea = np.asarray(ea, dtype=np.int64)
        self.eb = np.asarray(eb, dtype=np.int64)
        self.ew = np.asarray(ew, dtype=np.float64)
        self._slot, self._ptr = _incidence(self.ea, self.eb, ncomm)
        self._merged: dict[int, np.ndarray] = {}
        self._at = np.full(ncomm, -1, dtype=np.int64)  # scratch: neighbour -> slot

    def of(self, c: int) -> np.ndarray:
        """The live slots of community c."""
        s = self._merged.get(c)
        if s is None:
            s = self._slot[self._ptr[c]:self._ptr[c + 1]]
        return s[self.ea[s] >= 0]

    def merge(self, a: int, b: int, s: int):
        """Fold b's edges into a's (a < b); s is the slot of a-b, or -1.

        The edge to each neighbour x keeps the slot of a-x, or of b-x if a
        and x are not adjacent. Where both exist, b-x's weight is added to
        a-x: at most two slots meet at one neighbour, so the sum is one
        commutative addition. The a-b slot and each such b-x slot die.
        Returns the slots of a and the b-x slots that died.
        """
        ea, eb, ew = self.ea, self.eb, self.ew
        if s >= 0:
            ea[s] = eb[s] = -1
        sa = self.of(a)
        sb = self.of(b)
        self._merged.pop(b, None)
        if not sb.size:  # b bordered only a
            self._merged[a] = sa
            return sa, sb
        xa = ea[sa] + eb[sa] - a
        xb = ea[sb] + eb[sb] - b
        at = self._at
        at[xa] = sa
        hit = at[xb]
        at[xa] = -1
        shared = hit >= 0
        dead = sb[shared]
        ew[hit[shared]] += ew[dead]
        ea[dead] = eb[dead] = -1
        moved = ~shared
        sm = sb[moved]
        xm = xb[moved]
        ea[sm] = np.minimum(xm, a)
        eb[sm] = np.maximum(xm, a)
        kept = np.concatenate([sa, sm])
        self._merged[a] = kept
        return kept, dead


def _merge(a, b, s, V, g, ilog, parent, slots: _EdgeSlots):
    """Fold community b into a (a < b); s is the slot of the a-b edge, or -1.

    Updates the state of a in place, records parent[b] = a and merges the
    edges (see _EdgeSlots.merge). Returns the slots of a, which need new
    deltas, and the b-x slots that died; the a-b slot dies as well.
    """
    w = slots.ew[s] if s >= 0 else 0.0
    V[a] += V[b]
    g[a] = max(g[a] + g[b] - 2.0 * w, 0.0)
    ilog[a] += ilog[b]
    parent[b] = a
    return slots.merge(a, b, s)


def resolve_parents(parent: np.ndarray) -> np.ndarray:
    """Map each id to its merge root (parent[x] <= x holds for every merge)."""
    root = parent.copy()
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            return root
        root = nxt


def merged_partition(parent: np.ndarray, assignment: np.ndarray) -> Partition:
    """The partition that replaces each node's community by its merge root."""
    return Partition(dense_labels(resolve_parents(parent)[assignment]))


def minimize_edges(ea, eb, ew, V, g, ilog, parent, vol):
    """Run the greedy merge loop on pre-aggregated cross-community edges.

    Edges satisfy ea < eb. Repeatedly merges the pair with the most negative
    delta (ties: lexicographically smallest pair) until no pair improves H2 by
    more than MERGE_TOL. Only bit-equal deltas tie: two deltas that are equal
    in exact arithmetic but round apart go to the smaller one, not to the
    smaller pair. Mutates V, g, ilog, parent in place; ea, eb and ew
    are copied and left unchanged. Returns the array of accepted merge
    deltas, each strictly below -MERGE_TOL, in the order of that loop.

    A merge changes only its own pair's state, so merges in different
    connected components of the edges never interact. The edges are copied
    once, each component's slots contiguous and in input order (see
    _EdgeSlots), and the loop runs in lockstep: each step merges the best
    pair of every component, scanning only that component's slots, until
    each component's best delta is >= -MERGE_TOL. The sequential loop takes
    the smallest (delta, a, b) among the components' next merges, so
    heapq.merge of their sequences gives its order.

    Each community's contribution is computed once; a merge takes the
    survivor's contribution from the merged slot. A step then recomputes
    the deltas of every survivor's slots in one call, sets dead slots to
    +inf and keeps every other delta.
    """
    vol = float(vol)
    log2vol = math.log2(vol)
    if not len(ea):
        return np.empty(0, dtype=np.float64)
    ea = np.asarray(ea, dtype=np.int64)
    comp = _components(ea, eb, V.size)[ea]
    order = np.argsort(comp, kind="stable")
    sizes = np.bincount(comp)
    ends = np.cumsum(sizes[sizes > 0]).tolist()
    ea, eb, ew = ea[order], np.asarray(eb)[order], np.asarray(ew)[order]
    del comp, order, sizes  # gone before the slots' incidence lists are built
    slots = _EdgeSlots(ea, eb, ew, V.size)
    ea, eb, ew = slots.ea, slots.eb, slots.ew
    runs = [[] for _ in ends]
    active = list(zip([0, *ends[:-1]], ends, runs))
    C = _contributions(V, g, ilog, log2vol)
    delta, merged = _merge_deltas(ea, eb, ew, V, g, ilog, C, vol, log2vol)
    while active:
        stepped, kept = [], []
        for lo, hi, run in active:
            # the component's first minimum. No delta is nan: a MessageGraph's
            # weights lie in (0, 1], and only communities of positive volume
            # have slots, so every log2 argument is positive
            part = delta[lo:hi]
            best = int(part.argmin())
            dmin = float(part[best])
            if not dmin < -MERGE_TOL:
                continue
            if part[best + 1:].min(initial=np.inf) == dmin:  # a later slot ties
                tied = np.flatnonzero(part == dmin) + lo
                best = int(tied[np.lexsort((eb[tied], ea[tied]))[0]])
            else:
                best += lo
            a, b = int(ea[best]), int(eb[best])
            C[a] = merged[best]
            kept_a, dead = _merge(a, b, best, V, g, ilog, parent, slots)
            run.append((dmin, a, b))
            delta[best] = np.inf
            delta[dead] = np.inf
            kept.append(kept_a)
            stepped.append((lo, hi, run))
        if kept:
            k = np.concatenate(kept)
            delta[k], merged[k] = _merge_deltas(ea[k], eb[k], ew[k], V, g, ilog, C, vol, log2vol)
        active = stepped
    return np.array([d for d, _, _ in heapq.merge(*runs)], dtype=np.float64)


def vanilla_minimize(graph: MessageGraph) -> Partition:
    """Greedy 2D SE minimization from singletons: repeatedly apply the best connected merge.

    Considers every pair of communities joined by at least one edge, applies
    the most-negative delta (ties broken by the lexicographically smallest id
    pair) and stops when no merge improves H2 by more than MERGE_TOL. Ties
    are bit-equal deltas only, as in minimize_edges.
    """
    assignment = Partition.singletons(graph.n).assignment
    vol, V, g, ilog, ea, eb, ew = _community_aggregates(graph, assignment)
    if vol <= 0.0:
        raise GraphError("cannot minimize structural entropy of an empty graph")
    parent = np.arange(V.size, dtype=np.int64)
    minimize_edges(ea, eb, ew, V, g, ilog, parent, vol)
    return merged_partition(parent, assignment)
