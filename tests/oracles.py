"""Independent reference implementations used only to check the package.

Everything here is written straight off the defining formulas (plain loops,
no shared code with the package) so agreement is meaningful.
"""

import math

import mpmath as mp
import numpy as np
from scipy.special import gammaln


def direct_two_dim_se(n, u, v, w, assignment):
    """Literal evaluation of the two-level entropy: outer sum over communities,
    inner sum over member nodes, plus the cut term. 0*log0 = 0."""
    d = [0.0] * n
    for a, b, wt in zip(u, v, w):
        d[a] += wt
        d[b] += wt
    vol = sum(d)
    communities = sorted(set(assignment))
    total = 0.0
    for c in communities:
        members = [i for i in range(n) if assignment[i] == c]
        vj = sum(d[i] for i in members)
        gj = 0.0
        for a, b, wt in zip(u, v, w):
            if (assignment[a] == c) != (assignment[b] == c):
                gj += wt
        inner = 0.0
        if vj > 0:
            for i in members:
                if d[i] > 0:
                    inner += (d[i] / vj) * math.log2(d[i] / vj)
            total += -(vj / vol) * inner
            total += -(gj / vol) * math.log2(vj / vol)
    return total


def greedy_reference(n, u, v, w, tol=1e-12, tie=1e-12):
    """Greedy 2D SE minimization by recomputing H2 for every candidate merge.

    Starts from singletons; a community is named by its smallest node id.
    Each step evaluates every pair of communities joined by an edge with
    direct_two_dim_se, takes the most negative delta (deltas within tie of it
    count as tied; ties go to the lexicographically smallest pair) and stops
    when no delta is below -tol. Returns the community name per node.
    """
    assignment = list(range(n))
    while True:
        base = direct_two_dim_se(n, u, v, w, assignment)
        pairs = sorted({(min(assignment[a], assignment[b]), max(assignment[a], assignment[b]))
                        for a, b in zip(u, v) if assignment[a] != assignment[b]})
        deltas = {}
        for a, b in pairs:
            merged = [a if c == b else c for c in assignment]
            deltas[(a, b)] = direct_two_dim_se(n, u, v, w, merged) - base
        if not deltas or not min(deltas.values()) < -tol:
            return assignment
        dmin = min(deltas.values())
        a, b = min(pair for pair, d in deltas.items() if d <= dmin + tie)
        assignment = [a if c == b else c for c in assignment]


def direct_one_dim_se(n, u, v, w):
    d = [0.0] * n
    for a, b, wt in zip(u, v, w):
        d[a] += wt
        d[b] += wt
    vol = sum(d)
    return -sum((x / vol) * math.log2(x / vol) for x in d if x > 0)


def enumerate_partitions(n):
    """All set partitions of range(n) as restricted-growth label lists."""
    labels = [0] * n

    def rec(i, top):
        if i == n:
            yield list(labels)
            return
        for c in range(top + 2):
            labels[i] = c
            yield from rec(i + 1, max(top, c))

    if n == 0:
        return
    yield from rec(1, 0)


def pair_count_ari(truth, pred):
    """ARI by brute-force pair counting over all unordered item pairs."""
    n = len(truth)
    ss = sd = ds = dd = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_t = truth[i] == truth[j]
            same_p = pred[i] == pred[j]
            if same_t and same_p:
                ss += 1
            elif same_t:
                sd += 1
            elif same_p:
                ds += 1
            else:
                dd += 1
    num = 2.0 * (ss * dd - sd * ds)
    den = (ss + sd) * (sd + dd) + (ss + ds) * (ds + dd)
    if den == 0:
        return 1.0
    return num / den


def loop_expected_mi(counts):
    """Float64 E[MI] by the plain double loop over every (row, column) marginal
    pair, summing the terms in row-major order."""
    counts = np.asarray(counts)
    a = counts.sum(axis=1).astype(np.int64)
    b = counts.sum(axis=0).astype(np.int64)
    n = int(counts.sum())
    lg = gammaln(np.arange(n + 2, dtype=np.float64) + 1.0)
    total = 0.0
    for ai in a.tolist():
        for bj in b.tolist():
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            if hi < lo:
                continue
            k = np.arange(lo, hi + 1)
            log_term = np.log(n * k.astype(np.float64) / (float(ai) * bj))
            log_prob = (lg[ai] + lg[bj] + lg[n - ai] + lg[n - bj]
                        - lg[n] - lg[k] - lg[ai - k] - lg[bj - k] - lg[n - ai - bj + k])
            total += float((k / n * log_term * np.exp(log_prob)).sum())
    return total


def mp_expected_mi(counts, dps=60):
    """Exact hypergeometric E[MI] at arbitrary precision."""
    mp.mp.dps = dps
    counts = np.asarray(counts)
    a = counts.sum(axis=1)
    b = counts.sum(axis=0)
    n = int(counts.sum())
    total = mp.mpf(0)
    for ai in a.tolist():
        for bj in b.tolist():
            for k in range(max(1, ai + bj - n), min(ai, bj) + 1):
                term = (mp.mpf(k) / n) * mp.log(mp.mpf(n) * k / (mp.mpf(ai) * bj))
                prob = (mp.factorial(ai) * mp.factorial(bj)
                        * mp.factorial(n - ai) * mp.factorial(n - bj)) / (
                    mp.factorial(n) * mp.factorial(k) * mp.factorial(ai - k)
                    * mp.factorial(bj - k) * mp.factorial(n - ai - bj + k))
                total += term * prob
    return total


def mp_ami(truth, pred, dps=60):
    """AMI at arbitrary precision: natural-log MI/entropies, arithmetic mean."""
    mp.mp.dps = dps
    t_ids = {}
    p_ids = {}
    for lab in truth:
        t_ids.setdefault(lab, len(t_ids))
    for lab in pred:
        p_ids.setdefault(lab, len(p_ids))
    counts = np.zeros((len(t_ids), len(p_ids)), dtype=np.int64)
    for lt, lp in zip(truth, pred):
        counts[t_ids[lt], p_ids[lp]] += 1
    n = len(truth)
    a = counts.sum(axis=1)
    b = counts.sum(axis=0)
    mi = mp.mpf(0)
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            if counts[i, j]:
                nij = mp.mpf(int(counts[i, j]))
                mi += (nij / n) * mp.log(n * nij / (mp.mpf(int(a[i])) * int(b[j])))
    h_t = -sum((mp.mpf(int(x)) / n) * mp.log(mp.mpf(int(x)) / n) for x in a if x)
    h_p = -sum((mp.mpf(int(x)) / n) * mp.log(mp.mpf(int(x)) / n) for x in b if x)
    emi = mp_expected_mi(counts, dps)
    denom = (h_t + h_p) / 2 - emi
    if denom == 0:
        return mp.mpf(1) if mi == emi else mp.mpf(0)
    return (mi - emi) / denom


def random_graph(rng, n=None, min_n=3, max_n=50, density=2.0, w_low=0.01, w_high=1.0):
    """Connected-ish random weighted graph as (n, u, v, w) arrays."""
    if n is None:
        n = int(rng.integers(min_n, max_n + 1))
    max_edges = n * (n - 1) // 2
    m = int(min(max_edges, max(1, rng.poisson(density * n))))
    codes = rng.choice(max_edges, size=m, replace=False)
    # decode condensed upper-triangle index
    u = np.empty(m, dtype=np.int64)
    v = np.empty(m, dtype=np.int64)
    for t, p in enumerate(codes.tolist()):
        i = 0
        offset = 0
        while p >= offset + (n - i - 1):
            offset += n - i - 1
            i += 1
        u[t] = i
        v[t] = i + 1 + (p - offset)
    w = rng.uniform(w_low, w_high, size=m)
    return n, u, v, w


def lexsort_top_neighbors(rows, k_max):
    """Top-k neighbors by a full sort of every row: descending similarity, ties
    by ascending id, the row's own node excluded. rows is the (n, n) similarity
    matrix; its diagonal is ignored."""
    n = len(rows)
    nbrs = np.empty((n, k_max), dtype=np.int64)
    sims = np.empty((n, k_max), dtype=np.float64)
    for i in range(n):
        ids = np.array([j for j in range(n) if j != i])
        row = rows[i, ids]
        order = np.lexsort((ids, -row))[:k_max]
        nbrs[i] = ids[order]
        sims[i] = row[order]
    return nbrs, sims


def full_width_knn_edges(oracle, k_max):
    """The kNN scan over one full-width neighbour table, as build_knn_edges ran
    before it asked for narrow tables: top_neighbor_table at k_max, then k =
    1, 2, ... while the 1D SE strictly falls. It reuses the package's table,
    dedupe and entropy helpers, so it checks only the scan around them. A
    k_max >= n is clamped to n - 1 without the warning."""
    from dpevent.graphsynth import (SE_IMPROVEMENT_TOL, KnnTrace, _dedupe_undirected,
                                    clip_weights, one_dim_se_from_degrees,
                                    top_neighbor_table)

    n = oracle.n
    k_max = min(k_max, n - 1)
    nbrs, sims = top_neighbor_table(oracle, k_max)
    trace = KnnTrace()
    best_se = math.inf
    best_edges = None
    src_full = np.repeat(np.arange(n, dtype=np.int64), k_max).reshape(n, k_max)
    for k in range(1, k_max + 1):
        us = src_full[:, :k].ravel()
        vs = nbrs[:, :k].ravel()
        ws = clip_weights(sims[:, :k].ravel())
        u, v, w = _dedupe_undirected(n, us, vs, ws)
        d = np.bincount(u, weights=w, minlength=n) + np.bincount(v, weights=w, minlength=n)
        se = one_dim_se_from_degrees(d)
        trace.ks.append(k)
        trace.se_values.append(se)
        if se < best_se - SE_IMPROVEMENT_TOL:
            best_se = se
            best_edges = (u, v, w)
            trace.chosen_k = k
        else:
            break
    return best_edges, trace


def list_extract_subgraphs(sg, q):
    """Greedy extraction returning a list of groups: the extracted groups in
    extraction order (each sorted), then every leftover node as a singleton
    group in ascending id order."""
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
    groups = []
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


def list_sequential_subgraphs(num_nodes, q):
    """Consecutive id-order chunks of size q, as a list of groups."""
    if q < 2:
        raise ValueError("subgraph size q must be at least 2")
    return [np.arange(lo, min(lo + q, num_nodes), dtype=np.int64)
            for lo in range(0, num_nodes, q)]


def list_groups_cluster(graph, q0=400, init=None, grouping="optimal"):
    """The optimal-subgraph round loop with one array per group.

    Each round builds the groups as a list of member arrays, selects each
    group's edges with its own mask over all cross-community edges and calls
    the round stable when the new partition equals the old one. Unlike
    the rest of this module it shares the package's aggregation and merge
    step, so agreement checks the round's grouping and bookkeeping only.
    Returns a ClusterRun.
    """
    from dpevent.entropy import (Partition, _community_aggregates,
                                 _two_dim_se_from_aggregates, dense_labels, minimize_edges,
                                 resolve_parents)
    from dpevent.graphsynth import one_dim_se
    from dpevent.partition import MAX_ROUNDS, ClusterRun, build_supergraph

    if init is None:
        init = Partition.singletons(graph.n)
    run = ClusterRun(q0=q0)
    run.h1 = one_dim_se(graph)

    current = init
    q = q0
    aggregates = _community_aggregates(graph, current.assignment)
    for _ in range(MAX_ROUNDS):
        assignment = current.assignment
        vol, V, g, ilog, ea, eb, ew = aggregates
        ncomm = int(V.size)
        k_max = math.ceil(ncomm / q)
        if k_max == 1:
            groups = [np.arange(ncomm, dtype=np.int64)]
        elif grouping == "optimal":
            groups = list_extract_subgraphs(build_supergraph(graph, current, aggregates), q)
        else:
            groups = list_sequential_subgraphs(ncomm, q)

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
        aggregates = _community_aggregates(graph, new_partition.assignment)
        run.rounds.append({
            "q": q,
            "k_max": k_max,
            "num_communities": new_partition.num_communities,
            "h2": _two_dim_se_from_aggregates(aggregates),
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


# The merge loop as it stood before each community's contribution was cached:
# every delta evaluates the merged pair and both sides in one stacked call.
# Copied from dpevent.entropy with the names prefixed; the package's loop
# must reproduce its accepted deltas and its V, g, ilog and parent bit for bit.

REF_MERGE_TOL = 1e-12


def _ref_contributions(V, g, ilog, log2vol: float) -> np.ndarray:
    """Per-community terms c_j = (V-g)*log2(V) + g*log2(vol) - ilog, elementwise.

    Zero-volume communities (all members isolated) contribute nothing.
    """
    pos = V > 0.0
    if pos.all():
        return (V - g) * np.log2(V) + g * log2vol - ilog
    out = np.zeros(pos.shape)
    out[pos] = _ref_contributions(V[pos], g[pos], ilog[pos], log2vol)
    return out


def _ref_merge_deltas(ea, eb, ew, V, g, ilog, vol, log2vol):
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
    cm, ca, cb = _ref_contributions(np.array([va + vb, va, vb]), np.array([gm, ga, gb]),
                                    np.array([ia + ib, ia, ib]), log2vol)
    return (cm - ca - cb) / vol


class _RefEdgeSlots:
    """Cross-community edges (ea < eb, cut weight ew) in fixed slots.

    A merge rewrites the few slots at the merged pair instead of rebuilding
    the arrays, and a slot that dies holds ea = eb = -1. Each community's
    slots come from a CSR over both endpoints, built once from one argsort;
    a community that absorbed another keeps its list in a dict instead. Lists
    may still name slots that died since, so `of` filters them. The order
    within a list is arbitrary: nothing computed from it depends on it.
    """

    def __init__(self, ea, eb, ew, ncomm: int):
        self.ea = np.array(ea, dtype=np.int64)
        self.eb = np.array(eb, dtype=np.int64)
        self.ew = np.array(ew, dtype=np.float64)
        ends = np.concatenate([self.ea, self.eb])
        self._slot = np.argsort(ends) % max(self.ea.size, 1)
        self._ptr = np.zeros(ncomm + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=ncomm), out=self._ptr[1:])
        self._merged: dict[int, np.ndarray] = {}
        self._at = np.full(ncomm, -1, dtype=np.int64)  # scratch: neighbour -> slot

    def of(self, c: int) -> np.ndarray:
        """The live slots of community c."""
        s = self._merged.get(c)
        if s is None:
            s = self._slot[self._ptr[c]:self._ptr[c + 1]]
        return s[self.ea[s] >= 0]

    def find(self, a: int, b: int) -> int:
        """The slot of the edge a-b (a < b), or -1 if they are not adjacent."""
        s = self.of(a)
        s = s[self.eb[s] == b]
        return int(s[0]) if s.size else -1

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
        self._merged.pop(b, None)
        return kept, dead


def _ref_merge(a, b, s, V, g, ilog, parent, slots: _RefEdgeSlots):
    """Fold community b into a (a < b); s is the slot of the a-b edge, or -1.

    Updates the state of a in place, records parent[b] = a and merges the
    edges (see _RefEdgeSlots.merge). Returns the slots of a, which need new
    deltas, and the b-x slots that died; the a-b slot dies as well.
    """
    w = slots.ew[s] if s >= 0 else 0.0
    V[a] += V[b]
    g[a] = max(g[a] + g[b] - 2.0 * w, 0.0)
    ilog[a] += ilog[b]
    parent[b] = a
    return slots.merge(a, b, s)


def reference_minimize_edges(ea, eb, ew, V, g, ilog, parent, vol):
    """Run the greedy merge loop on pre-aggregated cross-community edges.

    Edges satisfy ea < eb. Repeatedly merges the pair with the most negative
    delta (ties: lexicographically smallest pair) until no pair improves H2 by
    more than REF_MERGE_TOL. Only bit-equal deltas tie: two deltas that are equal
    in exact arithmetic but round apart go to the smaller one, not to the
    smaller pair. Mutates V, g, ilog, parent in place; ea, eb and ew
    are copied and left unchanged. Returns the array of accepted merge
    deltas, each strictly below -REF_MERGE_TOL.

    The edges stay in fixed slots (see _RefEdgeSlots). A merge only changes the
    state of the merged pair, so it recomputes the deltas of the survivor's
    slots, sets dead slots to +inf and keeps every other delta.
    """
    vol = float(vol)
    log2vol = math.log2(vol)
    accepted = []
    if not len(ea):
        return np.asarray(accepted, dtype=np.float64)
    slots = _RefEdgeSlots(ea, eb, ew, V.size)
    ea, eb, ew = slots.ea, slots.eb, slots.ew
    delta = _ref_merge_deltas(ea, eb, ew, V, g, ilog, vol, log2vol)
    while True:
        dmin = float(delta.min())
        if not dmin < -REF_MERGE_TOL:
            break
        tied = np.flatnonzero(delta == dmin)
        best = int(tied[0] if tied.size == 1 else tied[np.lexsort((eb[tied], ea[tied]))[0]])
        kept, dead = _ref_merge(int(ea[best]), int(eb[best]), best, V, g, ilog, parent, slots)
        accepted.append(dmin)
        delta[best] = np.inf
        delta[dead] = np.inf
        if kept.size:
            delta[kept] = _ref_merge_deltas(ea[kept], eb[kept], ew[kept], V, g, ilog, vol, log2vol)
    return np.asarray(accepted, dtype=np.float64)


# ---------------------------------------------------------------------------
# The record-at-a-time corpus paths that the columnar Corpus replaced, kept as
# references for its JSONL bytes, its ingest checks and its attribute pairs.
# They build dpevent.corpus.MessageRecord, whose normalization the columnar
# code must reproduce bit for bit, and share nothing else with the package.


def ref_parse_record(obj, lineno):
    """One JSON object to a MessageRecord, or CorpusError with the line number."""
    from dpevent.corpus import CorpusError, MessageRecord

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


def ref_check_records(records):
    """The corpus-wide checks of a list of records, in their order: dimensions,
    repeated ids, block indices contiguous from 0."""
    from dpevent.corpus import CorpusError

    if not records:
        raise CorpusError("corpus must contain at least one record")
    dims = {r.embedding.shape[0] for r in records}
    if len(dims) != 1:
        raise CorpusError(f"embedding dimension mismatch across records: {sorted(dims)}")
    seen = set()
    for r in records:
        if r.id in seen:
            raise CorpusError(f"duplicate record id {r.id!r}")
        seen.add(r.id)
    ids = sorted({r.block for r in records})
    if ids != list(range(len(ids))):
        raise CorpusError(f"block indices must be contiguous from 0, got {ids}")
    return records


def ref_ingest(path):
    """A JSONL corpus as a list of MessageRecords, line by line."""
    import json

    from dpevent.corpus import CorpusError

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
            records.append(ref_parse_record(obj, lineno))
    if not records:
        raise CorpusError(f"{path}: no records")
    return ref_check_records(records)


def ref_record_to_json(record):
    """One record as a JSON line body; floats carry 9 significant digits, keys sorted."""
    import json

    obj = {
        "id": record.id,
        "block": record.block,
        "embedding": [float(f"{x:.9g}") for x in record.embedding],
        "attributes": {k: sorted(v) for k, v in sorted(record.attributes.items())},
        "label": record.label,
    }
    return json.dumps(obj, separators=(",", ":"))


def ref_export(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(ref_record_to_json(r) + "\n")


def ref_attribute_pairs(records):
    """(u, v), u < v, sorted: the record pairs that share an attribute token,
    from a dict of the members of each (category, token)."""
    n = len(records)
    token_members = {}
    for i, rec in enumerate(records):
        for cat, tokens in rec.attributes.items():
            for tok in tokens:
                token_members.setdefault((cat, tok), []).append(i)
    code_chunks = []
    for members in token_members.values():
        if len(members) < 2:
            continue
        m = np.asarray(members, dtype=np.int64)
        a, b = np.triu_indices(m.size, k=1)
        code_chunks.append(m[a] * n + m[b])
    if not code_chunks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    codes = np.concatenate(code_chunks)
    codes.sort()
    codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
    return codes // n, codes % n
