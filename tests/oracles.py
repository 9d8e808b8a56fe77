"""Independent reference implementations used only to check the package.

Everything here is written straight off the defining formulas (plain loops,
no shared code with the package) so agreement is meaningful.
"""

import math

import mpmath as mp
import numpy as np


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
