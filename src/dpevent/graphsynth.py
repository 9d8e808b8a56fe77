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
from dataclasses import asdict, dataclass, field

import numpy as np

from .privacy import NOISE_TILE_ELEMS, UNIT_DRAW_BOUND, BlockPairs, SimilarityOracle

W_FLOOR = 1e-6
W_CEIL = 1.0
# A floor-weight edge shifts the degree entropy by ~(W_FLOOR/vol)^2 per node;
# improvements below this tolerance are treated as ties, not decreases.
SE_IMPROVEMENT_TOL = 1e-9

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
        return asdict(self)


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


def _row_maxima(vals: np.ndarray, k: int):
    """The k largest values of each row of vals and their slots, ties by ascending slot.

    k rounds of argmax, which takes the first of equal maxima (-0.0 and 0.0
    are equal). Each round sets its cells to -inf; after the last, the
    saved values go back, so vals ends as it began, bit for bit. Each row has
    at least k finite values and no NaN. Returns (slots, values), both
    (rows, k): the values in descending order.
    """
    rows = np.arange(len(vals))
    slots = np.empty((len(vals), k), np.int64)
    maxima = np.empty((len(vals), k))
    for j in range(k):
        s = slots[:, j] = vals.argmax(axis=1)
        maxima[:, j] = vals[rows, s]
        vals[rows, s] = -np.inf
    vals[rows[:, None], slots] = maxima
    return slots, maxima


def _kth_mask(vals: np.ndarray, k: int, b: float) -> np.ndarray:
    """Cells of vals with fl(v + b) >= fl(T - b), T the k-th largest value of v's row.

    T comes from _row_maxima over the whole of vals. The rows then go in
    tiles of about NOISE_TILE_ELEMS cells, each tile's v + b in one buffer
    made per call. A chunk-sized buffer instead of tiles raised peak RSS by
    0.7-1.3 MB.
    """
    h, m = vals.shape
    mask = np.empty((h, m), bool)
    low = _row_maxima(vals, k)[1][:, k - 1:] - b
    step = max(1, NOISE_TILE_ELEMS // m)
    part = np.empty((min(step, h), m))
    for a in range(0, h, step):
        tile = vals[a:a + step]
        np.greater_equal(np.add(tile, b, out=part[:len(tile)]), low[a:a + step],
                         out=mask[a:a + step])
    return mask


def _top_k(vals: np.ndarray, k_max: int, cols: np.ndarray | None):
    """The k_max largest values of each row of vals, ties by ascending id.

    vals is (rows, m) with at least k_max finite values per row and no NaN;
    cols maps each slot to its neighbor id (None: the slot is the id), and
    its slots ascend by id within a row. The table is _row_maxima's, whose
    slots map to ids through cols, so the first of equal values is the
    smallest id: the result of a full sort of every row, bit for bit, with
    no scratch beyond the (rows, k_max) result.
    """
    slots, v = _row_maxima(vals, k_max)
    return (slots if cols is None else np.take_along_axis(cols, slots, axis=1)), v


def _noisy_candidates(pairs: BlockPairs, exact: np.ndarray, reachable: np.ndarray, lo: int):
    """Exact cosines, unit draws and ids of the reachable cells, one row per row of exact.

    Only these cells get a draw (pairs.signed_logs). Each row's candidates
    are left-aligned in ascending id order; the padding slots hold -inf
    cosines, zero draws and id 0, so they stay -inf at every noise scale and
    none is selected. The three tables are new arrays, each row as wide as
    the most reachable cells of any row.
    """
    h, n = exact.shape
    counts = np.count_nonzero(reachable, axis=1)
    cells = np.flatnonzero(reachable)
    rows = np.repeat(np.arange(lo, lo + h), counts)
    cols = cells - (rows - lo) * n
    fill = np.arange(counts.max()) < counts[:, None]
    padded = np.full(fill.shape, -np.inf)
    padded[fill] = exact.ravel()[cells]
    logs = np.zeros(fill.shape)
    logs[fill] = pairs.signed_logs(rows, cols)
    ids = np.zeros(fill.shape, np.int64)
    ids[fill] = cols
    return padded, logs, ids


def _neighbor_tables(pairs: BlockPairs, scales: list[float], k_max: int):
    """The (nbrs, sims) table of each noise scale, from one pass over pairs.row_chunks.

    scales are distinct and ascending. Each chunk's exact cosines and unit
    draws m are computed once; each scale then selects with _top_k from
    exact + scale * m (exact alone at scale 0), the value every path
    releases. The exact cosines go into one buffer made per pass, as tall
    as the tallest row chunk, and a dense pass with noise writes m into a
    second one. The largest scale comes last and scales m in place; each
    other scale's values are a new array. A chunk's arrays are dropped
    before the next chunk makes its own: holding a pruned chunk's
    candidates that long raised the peak RSS of sim-knn by 0.3 MB. The
    pass prunes exactly when 0 < 2 * b < s_local, with b = UNIT_DRAW_BOUND
    * scale the draws bound of the largest scale, at least that of any
    other (see top_neighbor_table); otherwise every cell gets a draw. _kth_mask
    and _top_k set cells of the chunk buffers they read to -inf and put them
    back, bit for bit, before they return (_row_maxima), so every scale
    reads the exact cosines and draws as they were computed.

    Pruning: with T a row's k_max-th largest exact cosine (self excluded),
    the row's k_max-th largest noisy value is at least fl(T - b) and a
    cell's noisy value at most fl(e + b), as float addition is monotone. A
    cell with fl(e + b) < fl(T - b) is strictly below the k-th value, so it
    cannot be selected, not even by a tie, and _kth_mask leaves it out. The
    cells a smaller scale's bound would keep are a subset of these, and the
    extra candidates are strictly below that scale's k-th value too, so
    they change no table.
    """
    n = pairs.n
    tables = [(np.empty((n, k_max), dtype=np.int64), np.empty((n, k_max))) for _ in scales]
    bound = scales[-1] * UNIT_DRAW_BOUND
    prune = 0.0 < 2.0 * bound < pairs.s_local
    shape = (max(hi - lo for lo, hi in pairs.row_chunks), n)
    buf = np.empty(shape)
    draws = np.empty(shape) if bound > 0.0 and not prune else None
    for lo, hi in pairs.row_chunks:
        h = hi - lo
        diagonal = np.arange(h), np.arange(lo, hi)
        exact = pairs.exact_rows(lo, hi, out=buf[:h])
        exact[diagonal] = -np.inf  # self never selected
        if prune:
            base, logs, ids = _noisy_candidates(pairs, exact, _kth_mask(exact, k_max, bound), lo)
        else:
            base, logs, ids = exact, None, None
            if draws is not None:
                logs = pairs.row_logs(lo, hi, out=draws[:h])
                logs[diagonal] = 0.0  # keeps the diagonal at -inf at every scale
        for scale, (nbrs, sims) in zip(scales, tables):
            vals = base
            if scale > 0.0:
                vals = np.multiply(logs, scale, out=logs if scale == scales[-1] else None)
                vals += base
            nbrs[lo:hi], sims[lo:hi] = _top_k(vals, k_max, ids)
        del base, logs, ids, vals  # before the next chunk makes its candidates
    return tables


def top_neighbor_table(oracle: SimilarityOracle, k_max: int):
    """Per-node neighbor ranking by descending noisy similarity, ties by ascending id.

    The rows are visited in the block's row chunks (oracle.pairs.row_chunks, about
    ROW_CHUNK_ELEMS cells each), so each chunk's temporaries stay a few MB
    whatever n is, and each chunk's exact cosines are one product
    (BlockPairs.exact_rows) into a buffer that the pass reuses from chunk
    to chunk (see _neighbor_tables). A new product per chunk raised the
    peak RSS of sim-knn by about 1.1 MB.

    One pass (_neighbor_tables) serves several noise scales of the block.
    The first request for a block whose BlockPairs holds a grid
    (planned_scales) builds the table of every grid point at this width,
    together with the oracle's own, and parks them in oracle.pairs,
    keyed by (noise scale, width); a later request at a parked key takes
    its table from there. Without a grid the pass serves the one scale.
    A cell's value is fl(exact + fl(scale * m)), with the exact cosine from
    its row chunk's product and m its pair's unit draw, neither of which
    depends on the scale, so a table from a shared pass is the table of a
    pass of its own, bit for bit.

    The table comes from one of two paths, which give the same result:
    - dense: every cell gets a draw (BlockPairs.row_logs);
    - pruned: only the cells that the largest possible draw of the largest
      scale could lift into their row's top k_max get a draw (see
      _neighbor_tables), so which cells are drawn depends on the exact
      cosines.
    The noise bound of the largest scale alone picks the path: the block
    goes dense when 2 * noise_bound >= s_local (the largest spread of a
    row's exact cosines: no cell can be excluded) or the noise is off
    (nothing to save), and prunes otherwise. Both paths select with _top_k,
    by row maxima. A node is never its own neighbor.

    The table at width w equals the first w columns of the table at any
    larger width, bit for bit, on either path: a cell's value is its pair's
    one released value, and _top_k takes cells by descending value, then
    ascending id (row maxima take the first of equal maxima). A narrower width
    can change which cells get a draw, but not the path or the values.
    build_knn_edges relies on this to ask for only the columns its scan
    reads.

    Returns (nbrs, sims): (n, k_max) arrays of the k_max best neighbors per node
    and their unclipped noisy similarities.
    """
    pairs = oracle.pairs
    key = (oracle.noise_scale, k_max)
    if key not in pairs.neighbor_tables:
        scales = sorted({oracle.noise_scale, *pairs.planned_scales()})
        tables = _neighbor_tables(pairs, scales, k_max)
        pairs.neighbor_tables.update(zip([(scale, k_max) for scale in scales], tables))
    return pairs.neighbor_tables.pop(key)


def build_knn_edges(oracle: SimilarityOracle, k_max: int = 40):
    """Grow per-node neighborhoods until the 1D SE stops strictly decreasing.

    For each k the directed top-k selections are symmetrized into an undirected
    edge set weighted by the clipped noisy similarities. Returns the edge set of
    the accepted k (arrays u, v, w) and the KnnTrace. The oracle's block has
    at least 2 records: a smaller one has no sensitivity report, so no oracle.
    So edges are always returned: k = 1 gives every node an edge of weight at
    least W_FLOOR, whose finite 1D SE is always accepted.

    The scan reads columns 1..k of the neighbor table, and on every
    benchmark block it ends at k = 2 (1D SE rises from k = 1). So the table
    is built min(2, k_max) wide, and built once more, k_max wide, only when
    the scan reaches k = 3. A narrow table is the first columns of a wide
    one, bit for bit (see top_neighbor_table), so the result does not
    depend on the width. A scan past k = 2 pays for the narrow table and
    the wide one: on the 5,000-record sim-knn block (one BLAS thread) a
    2-wide table takes 0.12-0.17 s and a 40-wide one 0.42-0.52 s, as
    _top_k's k argmax rounds read the rows k times.
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
    su, sv, sw = se_edges
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
