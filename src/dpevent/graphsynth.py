"""Private message-graph synthesis: 1D-SE-selected kNN edges plus attribute edges.

The similarity-driven edge set grows each node's neighborhood k = 1, 2, ...
and keeps the last k that strictly lowered the graph's degree entropy,
stopping at the first non-improvement. Attribute edges connect every pair
sharing at least one token. Both edge families take their weights from the
same noisy-similarity oracle, so an overlapping pair carries a single value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .privacy import NOISE_TILE_ELEMS, SimilarityOracle, _row_chunks

W_FLOOR = 1e-6
W_CEIL = 1.0
# A floor-weight edge shifts the degree entropy by ~(W_FLOOR/vol)^2 per node;
# improvements below this tolerance are treated as ties, not decreases.
SE_IMPROVEMENT_TOL = 1e-9
# Largest share of reachable cells at which top_neighbor_table still prunes.
# A reachable cell goes through gathers and a padded buffer; on the sim-knn
# shape (n = 5,000, k_max = 40) the pruned path costs as much as the dense
# one at about 35% reachable cells.
PRUNE_MAX_SHARE = 0.25

PROV_SE = 1
PROV_ATTR = 2
PROV_BOTH = 3
PROV_NAMES = {PROV_SE: "SE", PROV_ATTR: "ATTR", PROV_BOTH: "BOTH"}
PROV_CODES = {v: k for k, v in PROV_NAMES.items()}


class GraphError(ValueError):
    """Raised for invalid graphs or graph construction inputs."""


@dataclass(frozen=True, eq=False)
class MessageGraph:
    """Undirected weighted graph over message nodes with per-edge provenance.

    Edges are stored as parallel arrays (u < v, lexicographically sorted, no
    duplicates); weights lie in (0, 1]. Nodes are block-local indices.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    provenance: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.int64)
        v = np.asarray(self.v, dtype=np.int64)
        w = np.asarray(self.w, dtype=np.float64)
        prov = np.asarray(self.provenance, dtype=np.uint8)
        if not (u.shape == v.shape == w.shape == prov.shape):
            raise GraphError("edge arrays must have identical shape")
        if u.size:
            if int(u.min()) < 0 or int(v.max()) >= self.n:
                raise GraphError("edge endpoint out of range")
            if np.any(u >= v):
                raise GraphError("edges must satisfy u < v (no self-loops)")
            code = u * self.n + v
            order = np.argsort(code, kind="stable")
            u, v, w, prov, code = u[order], v[order], w[order], prov[order], code[order]
            if np.any(code[1:] == code[:-1]):
                raise GraphError("duplicate edges")
            # NaN fails both comparisons, so it is rejected with the rest
            if not np.all((w > 0.0) & (w <= W_CEIL + 1e-12)):
                raise GraphError("edge weights must be finite and lie in (0, 1]")
        for arr in (u, v, w, prov):
            arr.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "provenance", prov)

    @property
    def num_edges(self) -> int:
        return int(self.u.size)

    def degrees(self) -> np.ndarray:
        """Weighted degree per node; zero for isolated nodes."""
        d = np.bincount(self.u, weights=self.w, minlength=self.n)
        d += np.bincount(self.v, weights=self.w, minlength=self.n)
        return d

    @property
    def volume(self) -> float:
        return 2.0 * float(self.w.sum())


@dataclass
class KnnTrace:
    """1D SE per candidate k and the accepted neighborhood size."""

    ks: list[int] = field(default_factory=list)
    se_values: list[float] = field(default_factory=list)
    chosen_k: int = 0

    def to_dict(self) -> dict:
        return {"ks": self.ks, "se_values": self.se_values, "chosen_k": self.chosen_k}


def one_dim_se_from_degrees(degrees: np.ndarray) -> float:
    vol = float(degrees.sum())
    if vol <= 0.0:
        raise GraphError("1D structural entropy is undefined on an empty graph")
    p = degrees[degrees > 0] / vol
    return float(-(p * np.log2(p)).sum())


def one_dim_se(graph: MessageGraph) -> float:
    """Degree-distribution entropy -sum (d_i/vol) log2(d_i/vol), vol = sum d_i."""
    return one_dim_se_from_degrees(graph.degrees())


def clip_weights(values: np.ndarray) -> np.ndarray:
    """Clip noisy similarities into [W_FLOOR, 1]; post-processing of the DP output."""
    return np.clip(values, W_FLOOR, W_CEIL)


def _dedupe_undirected(n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray):
    """Canonicalize to u < v and keep the first occurrence of each pair.

    For directed kNN selections in row-major order, a pair that both of its
    rows select keeps the smaller endpoint's value. The two values can differ
    in the last ulp: each row's exact cosines come from its own chunk's
    matrix product, and the two products can round a cosine differently.
    """
    u = np.minimum(us, vs)
    v = np.maximum(us, vs)
    code = u * np.int64(n) + v
    _, keep = np.unique(code, return_index=True)
    return u[keep], v[keep], ws[keep]


def _top_k(vals: np.ndarray, k_max: int, cols: np.ndarray | None = None):
    """The k_max largest values of each row of vals, ties by ascending id.

    vals is (rows, m) with at least k_max finite values per row; cols maps
    each slot to its neighbor id (None: the slot is the id). np.partition
    finds each row's k_max-th largest value; every slot at or above it is
    kept, so all ties at that boundary survive. One lexsort orders the
    survivors by (row, descending value, ascending id) and the first k_max
    of each row are taken: the same result as a full sort of every row.
    """
    m = vals.shape[1]
    kth = np.partition(vals, m - k_max, axis=1)[:, m - k_max]
    keep = np.flatnonzero(vals >= kth[:, None])  # row-major: rows ascending
    r, s = np.divmod(keep, m)
    v = vals.ravel()[keep]
    c = s if cols is None else cols.ravel()[keep]
    order = np.lexsort((c, -v, r))
    counts = np.bincount(r, minlength=len(vals))
    take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k_max)]
    return c[take], v[take]


def _reachable_cells(oracle: SimilarityOracle, lo: int, hi: int, k_max: int):
    """Exact cosines of rows [lo, hi) and the mask of cells that can reach their row's top k_max.

    With b = oracle.noise_bound and T a row's k_max-th largest exact cosine
    (self excluded), the row's k_max-th largest noisy value is at least
    fl(T - b) and a cell's noisy value at most fl(e + b), as float addition
    is monotone. A cell with fl(e + b) < fl(T - b) is strictly below the
    k-th value, so it cannot be selected, not even by a tie. The returned
    cosines have the row's own cell set to -inf.
    """
    exact = oracle.exact_rows(lo, hi)
    h, n = exact.shape
    exact[np.arange(h), np.arange(lo, hi)] = -np.inf  # self never selected
    part = np.partition(exact, n - k_max, axis=1)
    b = oracle.noise_bound
    low = part[:, n - k_max, None] - b
    return exact, np.add(exact, b, out=part) >= low  # part's buffer holds e + b


def _noisy_candidates(oracle: SimilarityOracle, exact: np.ndarray, reachable: np.ndarray,
                      lo: int):
    """Noisy values and ids of the reachable cells, one row per row of exact.

    Only these cells get a draw, in tiles of NOISE_TILE_ELEMS. Each row's
    candidates are left-aligned in ascending id order and padded with -inf.
    """
    h, n = exact.shape
    counts = np.count_nonzero(reachable, axis=1)
    cells = np.flatnonzero(reachable)
    rows = np.repeat(np.arange(lo, lo + h), counts)
    cols = cells - (rows - lo) * n
    vals = exact.ravel()[cells]
    for a in range(0, cells.size, NOISE_TILE_ELEMS):
        t = slice(a, a + NOISE_TILE_ELEMS)
        vals[t] += oracle.pair_noise(rows[t], cols[t])
    fill = np.arange(counts.max()) < counts[:, None]
    padded = np.full(fill.shape, -np.inf)
    padded[fill] = vals
    ids = np.zeros(fill.shape, dtype=np.int64)
    ids[fill] = cols
    return padded, ids


def top_neighbor_table(block: Corpus, oracle: SimilarityOracle, k_max: int,
                       chunk_rows: int | None = None):
    """Per-node neighbor ranking by descending noisy similarity, ties by ascending id.

    The rows are visited in the oracle's row chunks (oracle.row_chunks, about
    ROW_CHUNK_ELEMS cells each), so each chunk's temporaries stay a few MB
    whatever n is. chunk_rows sets another chunk height; that changes the
    work per step, not the result.

    The table comes from one of two paths, which give the same result:
    - dense: oracle.noisy_rows draws for every cell;
    - pruned: only the cells that the largest possible draw could lift into
      their row's top k_max get a draw (_reachable_cells), so which cells
      are drawn depends on the exact cosines.
    The block takes the dense path when 2 * oracle.noise_bound >= s_local
    (the largest spread of a row's exact cosines: no cell can be excluded)
    or the noise is off (nothing to save). Otherwise the first chunk
    decides: past PRUNE_MAX_SHARE of reachable cells, skipping draws no
    longer pays for handling the reachable ones, and the block goes dense.
    Both paths select with _top_k. A node is never its own neighbor.

    Returns (nbrs, sims): (n, k_max) arrays of the k_max best neighbors per node
    and their unclipped noisy similarities.
    """
    n = len(block)
    nbrs = np.empty((n, k_max), dtype=np.int64)
    sims = np.empty((n, k_max), dtype=np.float64)
    chunks = oracle.row_chunks if chunk_rows is None else _row_chunks(n, chunk_rows * n)
    prune = 0.0 < 2.0 * oracle.noise_bound < oracle.report.s_local
    for lo, hi in chunks:
        if prune:
            exact, reachable = _reachable_cells(oracle, lo, hi, k_max)
            # the first chunk's share of reachable cells decides for the block
            prune = lo > 0 or np.count_nonzero(reachable) <= PRUNE_MAX_SHARE * reachable.size
        if prune:
            vals, ids = _noisy_candidates(oracle, exact, reachable, lo)
            nbrs[lo:hi], sims[lo:hi] = _top_k(vals, k_max, ids)
        else:
            rows = oracle.noisy_rows(lo, hi)
            rows[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf  # self never selected
            nbrs[lo:hi], sims[lo:hi] = _top_k(rows, k_max)
    return nbrs, sims


def build_knn_edges(block: Corpus, oracle: SimilarityOracle, k_max: int = 40):
    """Grow per-node neighborhoods until the 1D SE stops strictly decreasing.

    For each k the directed top-k selections are symmetrized into an undirected
    edge set weighted by the clipped noisy similarities. Returns the edge set of
    the accepted k (arrays u, v, w) and the KnnTrace.
    """
    n = len(block)
    if n < 2:
        raise GraphError("kNN construction needs at least 2 records")
    if k_max < 1:
        raise GraphError("k_max must be at least 1")
    if k_max >= n:
        warnings.warn(f"k_max={k_max} >= block size {n}; clamping to {n - 1}", stacklevel=2)
        k_max = n - 1

    nbrs, sims = top_neighbor_table(block, oracle, k_max)
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


def build_attribute_edges(block: Corpus, oracle: SimilarityOracle):
    """One edge per unordered pair sharing at least one attribute token.

    Weights come from the same oracle (and therefore the same per-pair draws)
    as the kNN edges.
    """
    n = len(block)
    token_members: dict[tuple[str, str], list[int]] = {}
    for i, rec in enumerate(block.records):
        for cat, tokens in rec.attributes.items():
            for tok in tokens:
                token_members.setdefault((cat, tok), []).append(i)
    code_chunks = []
    for members in token_members.values():
        if len(members) < 2:
            continue
        m = np.asarray(members, dtype=np.int64)  # ascending by construction
        a, b = np.triu_indices(m.size, k=1)
        code_chunks.append(m[a] * n + m[b])
    if not code_chunks:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=np.float64)
    codes = np.unique(np.concatenate(code_chunks))
    u = codes // n
    v = codes % n
    return u, v, clip_weights(oracle.noisy_pairs(u, v))


def synthesize_graph(n: int, se_edges, attr_edges) -> MessageGraph:
    """Union of the SE and attribute edge sets over the same node universe.

    A pair present in both keeps a single weight and is marked BOTH.
    """
    su, sv, sw = se_edges if se_edges is not None else (np.empty(0, np.int64),) * 2 + (np.empty(0),)
    au, av, aw = attr_edges
    uniq, inverse = np.unique(np.concatenate([au, su]) * np.int64(n) + np.concatenate([av, sv]),
                              return_inverse=True)
    # each input set holds distinct pairs, so neither assignment repeats an index
    attr, se = inverse[:au.size], inverse[au.size:]
    w = np.empty(uniq.size, np.float64)
    w[attr] = aw
    w[se] = sw  # a pair in both keeps its SE-path value
    p = np.zeros(uniq.size, np.uint8)
    p[attr] = PROV_ATTR
    p[se] |= PROV_SE
    return MessageGraph(n=n, u=uniq // n, v=uniq % n, w=w, provenance=p)


def build_graph(block: Corpus, oracle: SimilarityOracle, k_max: int = 40):
    """Full synthesis for one block: kNN edges, attribute edges, union."""
    se_edges, trace = build_knn_edges(block, oracle, k_max)
    attr_edges = build_attribute_edges(block, oracle)
    graph = synthesize_graph(len(block), se_edges, attr_edges)
    return graph, trace
