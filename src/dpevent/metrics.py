"""Chance-adjusted clustering agreement: Adjusted Rand Index and Adjusted
Mutual Information, computed from the contingency table.

AMI uses natural-log entropies, the exact hypergeometric expected mutual
information, and arithmetic-mean normalization. Binomial terms go through a
table of ln(x!) so the sums stay stable for n in the tens of thousands; the
table reproduces scipy.special.gammaln(x + 1) bit for bit, without importing
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class MetricsError(ValueError):
    """Raised for invalid label inputs."""


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Counts n_ij over (true class i, predicted cluster j) with marginals."""

    counts: np.ndarray
    row_sums: np.ndarray
    col_sums: np.ndarray
    n: int


def contingency(truth, pred) -> ContingencyTable:
    if len(truth) != len(pred):
        raise MetricsError(f"label sequences differ in length: {len(truth)} vs {len(pred)}")
    if len(truth) < 2:
        raise MetricsError("need at least 2 labeled items")
    t_ids = {}
    p_ids = {}
    ti = np.empty(len(truth), dtype=np.int64)
    pi = np.empty(len(pred), dtype=np.int64)
    for k, lab in enumerate(truth):
        ti[k] = t_ids.setdefault(lab, len(t_ids))
    for k, lab in enumerate(pred):
        pi[k] = p_ids.setdefault(lab, len(p_ids))
    counts = np.zeros((len(t_ids), len(p_ids)), dtype=np.int64)
    np.add.at(counts, (ti, pi), 1)
    return ContingencyTable(counts=counts, row_sums=counts.sum(axis=1),
                            col_sums=counts.sum(axis=0), n=len(truth))


def _comb2_sum(values: np.ndarray) -> int:
    """Sum of x(x-1)/2 over the counts; zeros add 0, so only nonzero ones are summed.

    Each term and the sum are at most n(n-1)/2, so int64 stays exact.
    """
    x = values[values > 0]
    return int((x * (x - 1) // 2).sum())


def _ari(table: ContingencyTable) -> float:
    sum_cells = _comb2_sum(table.counts)
    sum_rows = _comb2_sum(table.row_sums)
    sum_cols = _comb2_sum(table.col_sums)
    total = table.n * (table.n - 1) // 2
    numerator = 2 * (total * sum_cells - sum_rows * sum_cols)
    denominator = total * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    if denominator == 0:
        # both labelings all-singletons or all-one-cluster: identical partitions
        return 1.0
    return numerator / denominator


def ari(truth, pred) -> float:
    """Adjusted Rand Index via the pair-counting formula on the contingency table.

    The numerator and denominator are assembled in exact integer arithmetic
    (single final division), so e.g. the fully-crossed 2x2 case is -0.5 exactly.
    """
    return _ari(contingency(truth, pred))


def _entropy(marginal: np.ndarray, n: int) -> float:
    p = marginal[marginal > 0] / n
    return float(-(p * np.log(p)).sum())


def _mutual_information(table: ContingencyTable) -> float:
    nz = table.counts > 0
    nij = table.counts[nz].astype(np.float64)
    outer = np.outer(table.row_sums, table.col_sums)[nz].astype(np.float64)
    return float((nij / table.n * np.log(table.n * nij / outer)).sum())


_LS2PI = 0.91893853320467274178  # ln(sqrt(2*pi))


def log_factorial(x: int) -> float:
    """ln(x!) for an integer x >= 0, with the arithmetic of cephes lgam(x + 1).

    That is what scipy.special.gammaln runs, and the result is the same
    double: exact factorials below 12, then Stirling's series in z = x + 1
    with cephes' correction polynomial (5 terms below z = 1000, 3 terms up to
    1e8, none above). math.log is libm's log, as in the compiled code; np.log
    may round differently on its SIMD path.
    """
    if x < 12:
        return math.log(math.factorial(x))
    z = float(x + 1)
    q = (z - 0.5) * math.log(z) - z + _LS2PI
    if z > 1.0e8:
        return q
    p = 1.0 / (z * z)
    if z >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / z
    # cephes' polevl(p, A, 4), Horner's rule from the highest power
    return q + ((((8.11614167470508450300e-4 * p - 5.95061904284301438324e-4) * p
                  + 7.93650340457716943945e-4) * p - 2.77777777730099687205e-3) * p
                + 8.33333333333331927722e-2) / z


def _emi_cell(n: int, ai: int, bj: int, lg: np.ndarray) -> float | None:
    """E[MI] term of one (a_i, b_j) marginal pair; None when no k is possible."""
    lo = max(1, ai + bj - n)
    hi = min(ai, bj)
    if hi < lo:
        return None
    k = np.arange(lo, hi + 1)
    log_term = np.log(n * k.astype(np.float64) / (float(ai) * bj))
    log_prob = (lg[ai] + lg[bj] + lg[n - ai] + lg[n - bj]
                - lg[n] - lg[k] - lg[ai - k] - lg[bj - k] - lg[n - ai - bj + k])
    return float((k / n * log_term * np.exp(log_prob)).sum())


def expected_mutual_information(table: ContingencyTable) -> float:
    """Exact E[MI] under the hypergeometric model of random labelings.

    For every marginal pair (a_i, b_j), sums (k/n)*ln(n*k/(a_i*b_j)) times the
    hypergeometric probability of the cell holding k, with k ranging over
    max(1, a_i+b_j-n) .. min(a_i, b_j). A pair's term depends only on the two
    sizes, so each distinct (a_i, b_j) is computed once; the terms are still
    added one per (i, j), in row-major order.
    """
    n = table.n
    lg = np.array([log_factorial(x) for x in range(n + 2)])  # lg[x] = ln(x!)
    b = table.col_sums.tolist()
    terms: dict[tuple[int, int], float | None] = {}
    total = 0.0
    for ai in table.row_sums.tolist():
        for bj in b:
            key = (ai, bj)
            if key not in terms:
                terms[key] = _emi_cell(n, ai, bj, lg)
            term = terms[key]
            if term is not None:
                total += term
    return total


def _ami(table: ContingencyTable) -> float:
    # identical partitions give MI = H exactly; short-circuit avoids the
    # last-ulp wobble of computing the same quantity along two code paths
    if (table.counts.shape[0] == table.counts.shape[1]
            and int((table.counts > 0).sum()) == table.counts.shape[0]):
        return 1.0
    mi = _mutual_information(table)
    emi = expected_mutual_information(table)
    h_true = _entropy(table.row_sums, table.n)
    h_pred = _entropy(table.col_sums, table.n)
    normalizer = 0.5 * (h_true + h_pred)
    denominator = normalizer - emi
    if abs(denominator) < 1e-15:
        return 1.0 if abs(mi - emi) < 1e-15 else 0.0
    return (mi - emi) / denominator


def ami(truth, pred) -> float:
    """Adjusted Mutual Information, arithmetic-mean normalization."""
    return _ami(contingency(truth, pred))


def evaluate(truth, pred) -> dict:
    """AMI/ARI plus the counts the CLI reports, all from one contingency table.

    The scores equal ami(truth, pred) and ari(truth, pred) bit for bit.
    """
    table = contingency(truth, pred)
    return {
        "ami": _ami(table),
        "ari": _ari(table),
        "n": table.n,
        "num_true": int(table.row_sums.size),
        "num_pred": int(table.col_sums.size),
    }


def _average_ranks(values) -> np.ndarray:
    """1-based ranks, each group of ties getting the mean of its positions."""
    x = np.asarray(values, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.r_[True, xs[1:] != xs[:-1]]
    bounds = np.r_[np.flatnonzero(first), x.size]
    group = np.cumsum(first) - 1
    ranks = np.empty(x.size)
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    return ranks


def spearman(x, y) -> float:
    """Spearman's rank correlation, with the arithmetic of scipy.stats.spearmanr.

    Pearson's r of the average ranks, taken from np.corrcoef over the two
    rank columns as scipy does (the two-row form can differ in the last ulp).
    nan when either input is constant or holds a nan.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.isnan(x).any() or np.isnan(y).any() or np.ptp(x) == 0 or np.ptp(y) == 0:
        return float("nan")
    ranked = np.column_stack([_average_ranks(x), _average_ranks(y)])
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])
