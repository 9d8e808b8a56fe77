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

from .privacy import NOISE_TILE_ELEMS, SimilarityOracle, _row_chunks

W_FLOOR = 1e-6
W_CEIL = 1.0
# A floor-weight edge shifts the degree entropy by ~(W_FLOOR/vol)^2 per node;
# improvements below this tolerance are treated as ties, not decreases.
SE_IMPROVEMENT_TOL = 1e-9
# Largest share of reachable cells at which top_neighbor_table still prunes.
# A reachable cell goes through gathers and a padded buffer. On the sim-knn
# block (n = 5,000, k_max = 40, one BLAS thread, mixed mode, epsilon swept
# across 0.66-0.695) the pruned path costs as much as the dense one when
# 48-59% of the first chunk's cells are reachable (21-28% with the per-chunk
# temporaries that ChunkWorkspace replaced). 0.25 stays on the pruned side.
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
    rows select keeps the smaller endpoint's value, the pair's released value
    (SimilarityOracle). A pair that only its larger endpoint selects keeps
    that row's value: the same draw, but the cosine comes from the larger
    endpoint's chunk product, which can round it differently in the last ulp
    (a 2-row tail chunk does on a 513-record block).
    """
    u = np.minimum(us, vs)
    v = np.maximum(us, vs)
    code = u * np.int64(n) + v
    _, keep = np.unique(code, return_index=True)
    return u[keep], v[keep], ws[keep]


class ChunkWorkspace:
    """Named flat buffers that the passes over one row chunk reuse.

    array() hands out a view of the named buffer in the asked shape and
    dtype; the buffer grows to the largest request and is then kept, so a
    chunk loop allocates nothing chunk-sized after its first chunk. The
    requests of top_neighbor_table are at most one row chunk (about
    ROW_CHUNK_ELEMS cells with the default chunks), whatever n is. A view
    holds what the last user left in it: callers overwrite before they read.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, int], dtype=np.float64) -> np.ndarray:
        size = shape[0] * shape[1]
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _kth_mask(vals: np.ndarray, k: int, b: float = 0.0,
              work: ChunkWorkspace | None = None) -> np.ndarray:
    """Cells of vals with fl(v + b) >= fl(T - b), T the k-th largest value of v's row.

    The rows go in tiles of about NOISE_TILE_ELEMS cells: each tile is
    copied into work's "part" buffer and partitioned there to find T, and
    with b != 0 the same buffer then holds v + b. With b = 0 the tile is
    compared with T as it is. The mask is work's "mask" buffer; None makes
    a new workspace. A chunk-sized "part" buffer instead of tiles faulted as
    often as a new partition copy per chunk and raised peak RSS by 1-2 MB
    on 500-record blocks.
    """
    work = ChunkWorkspace() if work is None else work
    h, m = vals.shape
    mask = work.array("mask", (h, m), bool)
    step = max(1, NOISE_TILE_ELEMS // m)
    for a in range(0, h, step):
        tile = vals[a:a + step]
        part = work.array("part", tile.shape)
        np.copyto(part, tile)
        part.partition(m - k, axis=1)
        low = part[:, m - k, None]
        if b:
            low = low - b
            tile = np.add(tile, b, out=part)
        np.greater_equal(tile, low, out=mask[a:a + step])
    return mask


def _top_k(vals: np.ndarray, k_max: int, cols: np.ndarray | None = None,
           work: ChunkWorkspace | None = None):
    """The k_max largest values of each row of vals, ties by ascending id.

    vals is (rows, m) with at least k_max finite values per row; cols maps
    each slot to its neighbor id (None: the slot is the id). _kth_mask
    keeps every slot at or above its row's k_max-th largest value, so all
    ties at that boundary survive. One lexsort orders the survivors by
    (row, descending value, ascending id) and the first k_max of each row
    are taken: the same result as a full sort of every row. The scratch
    comes from work; None makes it new, which the dense path does, as a
    reused buffer there raised the peak RSS of dense runs (eps-sweep) and
    did not make the table faster.
    """
    m = vals.shape[1]
    keep = np.flatnonzero(_kth_mask(vals, k_max, work=work))  # row-major: rows ascending
    r, s = np.divmod(keep, m)
    v = vals.ravel()[keep]
    c = s if cols is None else cols.ravel()[keep]
    order = np.lexsort((c, -v, r))
    counts = np.bincount(r, minlength=len(vals))
    take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k_max)]
    return c[take], v[take]


def _reachable_cells(oracle: SimilarityOracle, lo: int, hi: int, k_max: int,
                     work: ChunkWorkspace):
    """Exact cosines of rows [lo, hi) and the mask of cells that can reach their row's top k_max.

    With b = oracle.noise_bound and T a row's k_max-th largest exact cosine
    (self excluded), the row's k_max-th largest noisy value is at least
    fl(T - b) and a cell's noisy value at most fl(e + b), as float addition
    is monotone. A cell with fl(e + b) < fl(T - b) is strictly below the
    k-th value, so it cannot be selected, not even by a tie. The returned
    cosines have the row's own cell set to -inf. Both returned arrays are
    views of work's buffers ("exact" and "mask").
    """
    h = hi - lo
    exact = oracle.pairs.exact_rows(lo, hi, out=work.array("exact", (h, oracle.n)))
    exact[np.arange(h), np.arange(lo, hi)] = -np.inf  # self never selected
    return exact, _kth_mask(exact, k_max, oracle.noise_bound, work)


def _noisy_candidates(oracle: SimilarityOracle, exact: np.ndarray, reachable: np.ndarray,
                      lo: int, work: ChunkWorkspace):
    """Noisy values and ids of the reachable cells, one row per row of exact.

    Only these cells get a draw (oracle.pairs.signed_logs). Each row's
    candidates are left-aligned in ascending id order and padded with -inf;
    the ids of padding slots are left as they were, as no -inf is selected.
    The two tables are work's "padded" and "ids" buffers.
    """
    h, n = exact.shape
    counts = np.count_nonzero(reachable, axis=1)
    cells = np.flatnonzero(reachable)
    rows = np.repeat(np.arange(lo, lo + h), counts)
    cols = cells - (rows - lo) * n
    vals = oracle.pairs.signed_logs(rows, cols)
    vals *= oracle.noise_scale
    vals += exact.ravel()[cells]
    fill = np.arange(counts.max()) < counts[:, None]
    padded = work.array("padded", fill.shape)
    padded.fill(-np.inf)
    padded[fill] = vals
    ids = work.array("ids", fill.shape, np.int64)
    ids[fill] = cols
    return padded, ids


def top_neighbor_table(oracle: SimilarityOracle, k_max: int, chunk_rows: int | None = None):
    """Per-node neighbor ranking by descending noisy similarity, ties by ascending id.

    The rows are visited in the oracle's row chunks (oracle.pairs.row_chunks, about
    ROW_CHUNK_ELEMS cells each), so each chunk's temporaries stay a few MB
    whatever n is. chunk_rows sets another chunk height; that changes the
    work per step, not the result. The pruned path's chunk-sized
    temporaries are views of one ChunkWorkspace made per call and reused
    from chunk to chunk. A workspace kept across calls only held memory
    longer: the buffers a call frees are reused for the next block's table.

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

    The table at width w equals the first w columns of the table at any
    larger width, bit for bit, on either path: a cell's value is its pair's
    one released value, _kth_mask keeps every tie at the w-th value, and
    _top_k orders by descending value, then ascending id. A narrower width
    can change which cells get a draw, and which path the block takes, but
    not the values. build_knn_edges relies on this to ask for only the
    columns its scan reads.

    Returns (nbrs, sims): (n, k_max) arrays of the k_max best neighbors per node
    and their unclipped noisy similarities.
    """
    n = oracle.n
    nbrs = np.empty((n, k_max), dtype=np.int64)
    sims = np.empty((n, k_max), dtype=np.float64)
    chunks = oracle.pairs.row_chunks if chunk_rows is None else _row_chunks(n, chunk_rows * n)
    prune = 0.0 < 2.0 * oracle.noise_bound < oracle.report.s_local
    work = ChunkWorkspace()
    for lo, hi in chunks:
        if prune:
            exact, reachable = _reachable_cells(oracle, lo, hi, k_max, work)
            # the first chunk's share of reachable cells decides for the block
            prune = lo > 0 or np.count_nonzero(reachable) <= PRUNE_MAX_SHARE * reachable.size
        if prune:
            vals, ids = _noisy_candidates(oracle, exact, reachable, lo, work)
            nbrs[lo:hi], sims[lo:hi] = _top_k(vals, k_max, ids, work)
        else:
            rows = oracle.noisy_rows(lo, hi)
            rows[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf  # self never selected
            nbrs[lo:hi], sims[lo:hi] = _top_k(rows, k_max)
    return nbrs, sims


def build_knn_edges(oracle: SimilarityOracle, k_max: int = 40):
    """Grow per-node neighborhoods until the 1D SE stops strictly decreasing.

    For each k the directed top-k selections are symmetrized into an undirected
    edge set weighted by the clipped noisy similarities. Returns the edge set of
    the accepted k (arrays u, v, w) and the KnnTrace. The oracle's block has
    at least 2 records: a smaller one has no sensitivity report, so no oracle.

    The scan reads columns 1..k of the neighbor table, and on every
    benchmark block it ends at k = 2 (1D SE rises from k = 1). So the table
    is built min(2, k_max) wide, and built once more, k_max wide, only when
    the scan reaches k = 3. A narrow table is the first columns of a wide
    one, bit for bit (see top_neighbor_table), so the result does not
    depend on the width. Most of a table's cost is the chunk products and
    the dense draws, which do not depend on the width, so a scan past k = 2
    pays one narrow table more, where doubling widths would pay several: on
    the 5,000-record sim-knn block a 2-wide table takes 0.15 s and a 40-wide
    one 0.20-0.22 s.
    """
    n = oracle.n
    if k_max < 1:
        raise GraphError("k_max must be at least 1")
    if k_max >= n:
        warnings.warn(f"k_max={k_max} >= block size {n}; clamping to {n - 1}", stacklevel=2)
        k_max = n - 1

    nbrs, sims = top_neighbor_table(oracle, min(2, k_max))
    trace = KnnTrace()
    best_se = math.inf
    best_edges = None
    for k in range(1, k_max + 1):
        if k > nbrs.shape[1]:
            nbrs, sims = top_neighbor_table(oracle, k_max)
        us = np.repeat(np.arange(n, dtype=np.int64), k)
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


def build_attribute_edges(oracle: SimilarityOracle):
    """One edge per unordered pair of block records sharing at least one attribute token.

    The pairs are the block's Corpus.attribute_pairs(), kept in the oracle's
    block state (oracle.pairs), so an epsilon sweep enumerates them once per
    block. Weights come from the same oracle (and therefore the same per-pair
    draws) as the kNN edges.
    """
    u, v, sims = oracle.noisy_attribute_pairs()
    return u, v, clip_weights(sims)


def synthesize_graph(n: int, se_edges, attr_edges) -> MessageGraph:
    """Union of the SE and attribute edge sets over the same node universe.

    A pair present in both keeps a single weight and is marked BOTH. Both
    sets take their weights from the same oracle, so the two weights agree
    bit for bit whenever the SE weight came from the pair's smaller endpoint
    (see _dedupe_undirected).
    """
    su, sv, sw = se_edges if se_edges is not None else (np.empty(0, np.int64),) * 2 + (np.empty(0),)
    au, av, aw = attr_edges
    uniq, inverse = np.unique(np.concatenate([au, su]) * np.int64(n) + np.concatenate([av, sv]),
                              return_inverse=True)
    # each input set holds distinct pairs, so neither assignment repeats an index
    attr, se = inverse[:au.size], inverse[au.size:]
    w = np.empty(uniq.size, np.float64)
    w[attr] = aw
    w[se] = sw  # a pair in both keeps its SE weight
    p = np.zeros(uniq.size, np.uint8)
    p[attr] = PROV_ATTR
    p[se] |= PROV_SE
    return MessageGraph(n=n, u=uniq // n, v=uniq % n, w=w, provenance=p)


def build_graph(oracle: SimilarityOracle, k_max: int = 40):
    """Full synthesis for the oracle's block: kNN edges, attribute edges, union."""
    se_edges, trace = build_knn_edges(oracle, k_max)
    attr_edges = build_attribute_edges(oracle)
    graph = synthesize_graph(oracle.n, se_edges, attr_edges)
    return graph, trace
