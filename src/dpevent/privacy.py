"""Sensitivity calibration and the noisy-similarity oracle.

The global sensitivity of cosine similarity is exactly 2 (range [-1, 1]). The
local sensitivity of a block is smoothed with factor 2*exp(-(eps/2)*ln(2/delta)),
delta = 1/n^2. The sensitivity mode picks the one the mechanism uses: global,
smooth, or (mixed) the smaller of the two; sensitivity_report is the only place
that makes this choice, and the oracle adds noise at the reported scale.

Each unordered message pair (i, j), i < j, has exactly one released value,
cosine + noise_scale * m, whichever path asks for it (noisy_pairs, the
attribute pairs, noisy_rows' row i). The cosine is cell (i, j) of the matrix
product of row i's chunk (BlockPairs.exact_rows), and m is the pair's unit
Laplace draw (signed_log_uniforms) from a counter-based substream of the
block seed, so reruns and concurrent queries reproduce it. exact_rows makes
the only matrix products: every pass that reads cosines (the neighbour
table, the attribute pairs, s_local in local_sensitivity) takes them from
it. A dense pass over the similarity rows (BlockPairs.row_logs) meets every
pair twice, once from each of its rows, and computes the same draw both
times, so it generates two uniforms per pair. The top-k neighbour table
takes that dense pass only when the noise can reach every cell (2 *
noise_bound >= s_local) or is off; otherwise it draws only for the cells
that can still reach a row's top k, which noise_bound, the largest possible
|draw|, decides (see graphsynth.top_neighbor_table). So the draws per pair
depend on the block's exact cosines, not only on n.

The state of a block splits by epsilon. BlockPairs(block, block_id, seed,
grid) is the one handle of a block: the records, their block id, the noise
substream key of (seed, block id), the pair indexing, the exact cosines,
s_local, the attribute pairs with their exact cosines and unit draws, and
the epsilon grid it will be asked for. A SimilarityOracle(pairs, params) is
the view of that state at one epsilon: the sensitivity report, the noise
scale, and the perturbed values. An epsilon sweep builds one BlockPairs per
block, with the sweep's grid, and one oracle per (epsilon, block), so the
epsilon-free work runs once per block. That includes the pass over the
similarity rows: its chunk products and unit draws do not depend on
epsilon, so the block's first neighbour-table request builds the table of
every grid point in one pass and parks them in the block state (see
graphsynth.top_neighbor_table).

Every O(n^2) pass works in row chunks of about ROW_CHUNK_ELEMS cells (a 2 MB
float64 temporary), and the noise in tiles of about NOISE_TILE_ELEMS cells, so
peak memory stays flat as the block grows and each pass runs in cache.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import Corpus

GLOBAL_SENSITIVITY = 2.0

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U53 = float(2.0 ** -53)
# Largest |u| a uniform takes: the bottom value's magnitude. The top bit
# pattern would round to 0.5 (an infinite draw) and is clamped to it.
_U_MAX = 0.5 - 2.0 ** -54

# Cells per temporary: one matrix product, top-k selection or sensitivity
# scan works on ROW_CHUNK_ELEMS cells; the counter -> Laplace pipeline on
# NOISE_TILE_ELEMS. Both are sized for a few-MB L2 cache.
ROW_CHUNK_ELEMS = 1 << 18
NOISE_TILE_ELEMS = 1 << 16


class PrivacyError(ValueError):
    """Raised for invalid privacy parameters or similarity queries."""


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget and sensitivity strategy for one run.

    epsilon=None switches the mechanism off (exact similarities are released).
    """

    epsilon: float | None = None
    sensitivity_mode: str = "mixed"

    def __post_init__(self):
        # an infinite budget would release the exact graph labelled with a budget
        if self.epsilon is not None and not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise PrivacyError("epsilon must be positive and finite (or None for off)")
        if self.sensitivity_mode not in ("global", "smooth", "mixed"):
            raise PrivacyError(f"unknown sensitivity_mode {self.sensitivity_mode!r}")

    @property
    def off(self) -> bool:
        return self.epsilon is None


@dataclass(frozen=True)
class SensitivityReport:
    """Per-block sensitivities, the one the mechanism uses, and its noise scale.

    chosen is "global", "smooth" or "off"; noise_scale is the chosen
    sensitivity divided by epsilon (0 when off). s_mixed = min(s_global,
    s_smooth) is reported in every mode.
    """

    block: int
    s_global: float
    s_local: float
    s_smooth: float
    s_mixed: float
    chosen: str
    noise_scale: float

    def to_dict(self) -> dict:
        return asdict(self)


def _row_chunks(n: int, budget: int) -> list[tuple[int, int]]:
    """[lo, hi) ranges covering rows 0..n in order, about budget // n rows each.

    No range has a single row when n >= 2: a 1-row tail joins the range
    before it, because a 1-row matrix product takes another BLAS kernel
    whose sums can differ from a many-row product in the last ulp.
    """
    step = max(2, budget // max(n, 1))
    bounds = list(range(0, n, step)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def local_sensitivity(pairs: BlockPairs) -> float:
    """Largest per-anchor spread of observed cosines in the block of pairs.

    For each anchor i this is max_j cos(i,j) - min_j cos(i,j) over the other
    records j, i.e. the largest change a single-record replacement within the
    block's empirical range can induce; the result is the max over anchors.
    The cosines come from pairs.exact_rows, one row chunk (pairs.row_chunks)
    at a time, into one buffer. The diagonal is -inf while each row's
    maximum is taken and +inf while its minimum is: both are exact, so the
    spread is the one of the off-diagonal cosines, bit for bit.
    """
    if pairs.n < 2:
        raise PrivacyError("local sensitivity needs a block with at least 2 records")
    buf = np.empty((max(hi - lo for lo, hi in pairs.row_chunks), pairs.n))
    spread = 0.0
    for lo, hi in pairs.row_chunks:
        sims = pairs.exact_rows(lo, hi, out=buf[:hi - lo])
        diagonal = np.arange(hi - lo), np.arange(lo, hi)
        sims[diagonal] = -np.inf
        top = sims.max(axis=1)
        sims[diagonal] = np.inf
        spread = max(spread, float((top - sims.min(axis=1)).max()))
    return spread


def smooth_sensitivity(s_local: float, epsilon: float, n: int) -> float:
    """Smoothed local sensitivity 2*exp(-(eps/2)*ln(2/delta))*s_local, delta = 1/n^2."""
    if s_local < 0:
        raise PrivacyError("s_local must be non-negative")
    if not epsilon > 0:
        raise PrivacyError("epsilon must be positive")
    if n < 2:
        raise PrivacyError("block size must be at least 2")
    delta = 1.0 / (n * n)
    return 2.0 * math.exp(-(epsilon / 2.0) * math.log(2.0 / delta)) * s_local


def sensitivity_report(pairs: BlockPairs, params: PrivacyParams) -> SensitivityReport:
    """Calibrate the noise for one block (pairs, its state) under the given parameters.

    The mode decides the sensitivity used: global (2), smooth, or for mixed
    the smaller of the two. With epsilon off there is no noise: smooth/mixed
    are reported as 0, chosen is "off" and the noise scale is 0. s_local
    comes from pairs, which computes it once for every epsilon. Raises
    PrivacyError when the noise scale overflows float64 (an epsilon so small
    that the chosen sensitivity / epsilon is not finite).
    """
    block_id, s_local = pairs.block_id, pairs.s_local
    if params.off:
        return SensitivityReport(block=block_id, s_global=GLOBAL_SENSITIVITY, s_local=s_local,
                                 s_smooth=0.0, s_mixed=0.0, chosen="off", noise_scale=0.0)
    s_smooth = smooth_sensitivity(s_local, params.epsilon, pairs.n)
    chosen = params.sensitivity_mode
    if chosen == "mixed":
        chosen = "smooth" if s_smooth < GLOBAL_SENSITIVITY else "global"
    used = s_smooth if chosen == "smooth" else GLOBAL_SENSITIVITY
    noise_scale = used / params.epsilon
    if not math.isfinite(noise_scale):
        raise PrivacyError(f"noise scale {used!r}/{params.epsilon!r} overflows float64 "
                           f"in block {block_id}; use a larger epsilon")
    return SensitivityReport(block=block_id, s_global=GLOBAL_SENSITIVITY, s_local=s_local,
                             s_smooth=s_smooth, s_mixed=min(GLOBAL_SENSITIVITY, s_smooth),
                             chosen=chosen, noise_scale=noise_scale)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied in place to an owned uint64 array; wrapping arithmetic."""
    t = np.empty_like(z)
    with np.errstate(over="ignore"):
        np.right_shift(z, np.uint64(30), out=t)
        z ^= t
        z *= _MIX_A
        np.right_shift(z, np.uint64(27), out=t)
        z ^= t
        z *= _MIX_B
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
    return z


def substream_uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniforms in the open interval (-1/2, 1/2), one per counter value.

    Pure function of (seed, counter): value k of the stream is the SplitMix64
    output at state seed + (k+1)*gamma, mapped into (0,1) and centered.
    |u| <= _U_MAX = 1/2 - 2^-54, so every Laplace draw is finite and bounded.
    The caller's counters are copied, never modified.
    """
    z = np.array(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z += np.uint64(1)
        z *= _SPLITMIX_GAMMA
        z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    _mix64(z)
    # (bits >> 11) in [0, 2^53); +0.5 keeps the endpoints strictly inside (0,1)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u += 0.5
    u *= _U53
    u -= 0.5
    # bits 2^53 - 1 give k + 0.5 = 2^53 after rounding, i.e. u = 0.5 exactly
    np.minimum(u, _U_MAX, out=u)
    return u


def signed_log_uniforms(u: np.ndarray) -> np.ndarray:
    """Unit Laplace draws m = sign(u) * -log1p(-2|u|) for uniforms u in (-1/2, 1/2).

    The inverse Laplace CDF at scale 1, into a new array. scale * m is the
    draw at any noise scale: a product by a positive scale rounds |m| * scale
    and keeps m's sign, so it equals the direct transform
    copysign(-scale * log1p(-2|u|), u) bit for bit.
    """
    out = np.abs(u, out=np.empty_like(u))
    out *= -2.0
    np.log1p(out, out=out)
    np.copysign(out, u, out=out)
    return out


# Largest |m| of a unit draw: noise_bound is this times the noise scale.
UNIT_DRAW_BOUND = float(signed_log_uniforms(np.array(_U_MAX)))


def derive_block_seed(seed: int, block: int) -> int:
    """Stable per-block substream key for the pairwise noise."""
    with np.errstate(over="ignore"):
        z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ (np.uint64(block) * _SPLITMIX_GAMMA)
    return int(_mix64(np.array(z ^ _SPLITMIX_GAMMA)))


class BlockPairs:
    """One block and the epsilon-independent state of its pairs.

    The only per-block handle: it carries the block's records (block), its
    id (block_id) and n, and is shared by the block's SimilarityOracles, one
    per epsilon. It is the only source of a pair's exact cosine (exact_rows,
    exact_pairs) and of its unit draw (signed_logs). Construction only
    indexes the pairs: the substream key of (seed, block_id), the condensed
    pair index and the row chunks. The rest fills on first use and is then
    kept:
    - s_local, from local_sensitivity, which reads exact_rows;
    - the attribute pairs (Corpus.attribute_pairs) and their exact cosines;
    - the unit draws of those pairs, which the noise scale turns into the
      draw at any epsilon;
    - the neighbour tables that graphsynth.top_neighbor_table parks here,
      keyed by (noise scale, width), until their epsilon asks for them.
    grid lists the PrivacyParams the block will be asked for (an epsilon
    sweep's grid). The block's first neighbour-table request takes their
    noise scales (planned_scales) and builds every grid point's table in
    its one pass over the similarity rows. The state is O(n + attribute
    pairs), plus O(n) per parked table. It keeps no n x n array.
    """

    def __init__(self, block: Corpus, block_id: int, seed: int = 0,
                 grid: tuple[PrivacyParams, ...] = ()):
        self.block = block
        self.n = len(block)
        self.block_id = block_id
        self.key = derive_block_seed(seed, block_id)
        # condensed index of pair (i, j), i < j, is pair_base[i] + j
        i = np.arange(self.n, dtype=np.int64)
        self.pair_base = i * (2 * self.n - i - 1) // 2 - i - 1
        # the exact cosines of a row always come from its chunk's product
        self.row_chunks = _row_chunks(self.n, ROW_CHUNK_ELEMS)
        self.row_bounds = np.array([lo for lo, _ in self.row_chunks] + [self.n], dtype=np.int64)
        self._s_local: float | None = None
        self._attribute_pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._attribute_logs: np.ndarray | None = None
        self._grid = list(grid)
        self.neighbor_tables: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def s_local(self) -> float:
        if self._s_local is None:
            self._s_local = local_sensitivity(self)
        return self._s_local

    def planned_scales(self) -> list[float]:
        """Noise scales of the grid points not yet planned, from sensitivity_report.

        Each grid point is handed out once: the grid is empty afterwards. A
        point whose report raises (its noise scale overflows) is left out,
        so its own oracle raises as it would without a grid.
        """
        scales = []
        for params in self._grid:
            try:
                scales.append(sensitivity_report(self, params).noise_scale)
            except PrivacyError:
                pass
        self._grid = []
        return scales

    def exact_rows(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Exact cosines of rows [lo, hi), cut from the products of their row chunks.

        out, a C-contiguous (hi - lo, n) float64 array, receives them in place
        of a new array; a range that is one whole row chunk (every range the
        table pass and exact_pairs ask for) is multiplied straight into it.
        Another range (noisy_rows) multiplies each chunk it overlaps.
        """
        emb = self.block.embeddings
        bounds = self.row_bounds
        first = int(np.searchsorted(bounds, lo, side="right")) - 1
        last = int(np.searchsorted(bounds, hi, side="left"))
        if last == first + 1 and bounds[first] == lo and bounds[last] == hi:
            return np.matmul(emb[lo:hi], emb.T, out=out)
        sims = np.empty((hi - lo, self.n)) if out is None else out
        for a, b in zip(bounds[first:last].tolist(), bounds[first + 1:last + 1].tolist()):
            s, e = max(a, lo), min(b, hi)
            sims[s - lo:e - lo] = (emb[a:b] @ emb.T)[s - a:e - a]
        return sims

    def exact_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Exact cosines of pairs (u[k], v[k]), u[k] != v[k], unchecked.

        Each is the cell (min, max) of the row-chunk product of its smaller
        endpoint, so it equals that row's cell in exact_rows bit for bit.
        The products run one chunk at a time, only for chunks that hold a
        smaller endpoint.
        """
        i, j = np.minimum(u, v), np.maximum(u, v)
        order = np.argsort(i, kind="stable")
        cuts = np.searchsorted(i[order], self.row_bounds).tolist()
        out = np.empty(i.shape)
        for (lo, hi), a, b in zip(self.row_chunks, cuts, cuts[1:]):
            if a < b:
                sel = order[a:b]
                out[sel] = self.exact_rows(lo, hi)[i[sel] - lo, j[sel]]
        return out

    def attribute_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, cosines) of the pairs sharing an attribute token; read-only arrays."""
        if self._attribute_pairs is None:
            u, v = self.block.attribute_pairs()
            sims = self.exact_pairs(u, v)
            for arr in (u, v, sims):
                arr.setflags(write=False)
            self._attribute_pairs = (u, v, sims)
        return self._attribute_pairs

    def attribute_logs(self) -> np.ndarray:
        """Unit draws of the attribute pairs; read-only."""
        if self._attribute_logs is None:
            u, v, _ = self.attribute_pairs()
            self._attribute_logs = self.signed_logs(u, v)
            self._attribute_logs.setflags(write=False)
        return self._attribute_logs

    def row_logs(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Unit draws of the cells of rows [lo, hi): cell (i, j) holds pair (i, j)'s draw.

        The draws are the ones signed_logs gives, generated in tiles of about
        NOISE_TILE_ELEMS cells, each with its own counters. The diagonal
        cells hold draws too, of no pair: callers overwrite them. out, a
        (hi - lo, n) float64 array, receives them in place of a new array.
        """
        out = np.empty((hi - lo, self.n)) if out is None else out
        step = max(1, NOISE_TILE_ELEMS // self.n)
        cols = np.arange(self.n)
        for a in range(lo, hi, step):
            b = min(hi, a + step)
            rows = np.arange(a, b)[:, None]
            p = self.pair_base + rows  # column j < row i: pair (j, i)
            np.add(self.pair_base[a:b, None], cols, out=p, where=cols >= rows)  # pair (i, j)
            out[a - lo:b - lo] = signed_log_uniforms(substream_uniforms(self.key, p))
        return out

    def signed_logs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Unit draws (signed_log_uniforms) of pairs (u[k], v[k]), u[k] != v[k], unchecked.

        A pair's draw is a pure function of the block seed and its condensed
        index, the same in either order and on every path. The counters go
        through the substream in tiles of NOISE_TILE_ELEMS.
        """
        out = np.empty(u.size)
        for a in range(0, u.size, NOISE_TILE_ELEMS):
            ut, vt = u[a:a + NOISE_TILE_ELEMS], v[a:a + NOISE_TILE_ELEMS]
            p = self.pair_base[np.minimum(ut, vt)] + np.maximum(ut, vt)
            out[a:a + NOISE_TILE_ELEMS] = signed_log_uniforms(substream_uniforms(self.key, p))
        return out


class SimilarityOracle:
    """Noisy cosine similarities of one block at one epsilon.

    The oracle is a view of the block's epsilon-independent state (pairs, a
    BlockPairs) at the noise scale that sensitivity_report calibrates; with
    epsilon off that scale is 0 and the oracle returns exact cosines. Every
    unordered pair has one released value, whichever path asks for it: the
    cosine from pairs.exact_rows (the row chunk of the smaller endpoint)
    plus noise_scale times the pair's unit draw, a pure function of the
    block seed and the pair's position in the condensed upper-triangle
    ordering. So repeated queries (in either order, from any worker) return
    the same value without any shared state. noise_bound is the largest
    |draw| the sampler can return at that scale (about 36.74 * noise_scale;
    0 when off).
    """

    def __init__(self, pairs: BlockPairs, params: PrivacyParams):
        self.pairs = pairs
        self.params = params
        self.n = pairs.n
        self.report = sensitivity_report(pairs, params)
        self.noise_scale = self.report.noise_scale
        self.noise_bound = self.noise_scale * UNIT_DRAW_BOUND

    def noisy_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Perturbed similarities for arrays of pairs (u[k], v[k]).

        Raises PrivacyError for a self-pair or an index outside [0, n).
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if np.any(u == v):
            raise PrivacyError("self-pairs are not valid similarity queries")
        if np.any((np.minimum(u, v) < 0) | (np.maximum(u, v) >= self.n)):
            raise PrivacyError(f"pair index out of range for a block of size {self.n}")
        sims = self.pairs.exact_pairs(u, v)
        if self.noise_scale > 0.0:
            sims += self.noise_scale * self.pairs.signed_logs(u, v)
        return sims

    def noisy_attribute_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, perturbed similarities) of the pairs sharing an attribute token.

        The values equal noisy_pairs(u, v) bit for bit. The pairs, their
        cosines and their unit draws come from the block state, so only the
        scaling to this oracle's noise runs per epsilon.
        """
        u, v, cosines = self.pairs.attribute_pairs()
        if self.noise_scale == 0.0:
            return u, v, cosines.copy()
        sims = self.noise_scale * self.pairs.attribute_logs()
        sims += cosines
        return u, v, sims

    def noisy_rows(self, lo: int, hi: int) -> np.ndarray:
        """Perturbed similarities of rows [lo, hi) against all records.

        The exact cosines come from pairs.exact_rows and the unit draws from
        pairs.row_logs, so a row's values do not depend on the range asked
        for, and each pair gets the same draw as in noisy_pairs. The
        diagonal is set to NaN.
        """
        sims = self.pairs.exact_rows(lo, hi)
        if self.noise_scale > 0.0:
            draws = self.pairs.row_logs(lo, hi)
            draws *= self.noise_scale
            sims += draws
        sims[np.arange(hi - lo), np.arange(lo, hi)] = np.nan
        return sims
