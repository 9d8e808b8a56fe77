"""Sensitivity calibration and the noisy-similarity oracle.

The global sensitivity of cosine similarity is exactly 2 (range [-1, 1]). The
local sensitivity of a block is smoothed with factor 2*exp(-(eps/2)*ln(2/delta)),
delta = 1/n^2. The sensitivity mode picks the one the mechanism uses: global,
smooth, or (mixed) the smaller of the two; sensitivity_report is the only place
that makes this choice, and the oracle adds noise at the reported scale. Each
unordered message pair has exactly one released value: its Laplace draw comes
from a counter-based substream of the block seed, so reruns and concurrent
queries reproduce it. A dense pass over the similarity rows (noisy_rows) meets
every pair twice, once from each of its rows, and computes the same draw both
times, so it generates two uniforms per pair. The top-k neighbour table takes
that dense pass only when the noise can reach every cell; otherwise it draws
only for the cells that can still reach a row's top k, which noise_bound, the
largest possible |draw|, decides (see graphsynth.top_neighbor_table). So the
draws per pair depend on the block's exact cosines, not only on n.

Every O(n^2) pass works in row chunks of about ROW_CHUNK_ELEMS cells (a 2 MB
float64 temporary), and the noise in tiles of about NOISE_TILE_ELEMS cells, so
peak memory stays flat as the block grows and each pass runs in cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# scan works on ROW_CHUNK_ELEMS cells; the counter -> Laplace pipeline and the
# pair gathers of noisy_pairs on NOISE_TILE_ELEMS. Both are sized for a
# few-MB L2 cache.
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
    seed: int = 0

    def __post_init__(self):
        if self.epsilon is not None and not self.epsilon > 0:
            raise PrivacyError("epsilon must be positive (or None for off)")
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
        return {
            "block": self.block,
            "s_global": self.s_global,
            "s_local": self.s_local,
            "s_smooth": self.s_smooth,
            "s_mixed": self.s_mixed,
            "chosen": self.chosen,
            "noise_scale": self.noise_scale,
        }


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


def local_sensitivity(block: Corpus) -> float:
    """Largest per-anchor spread of observed cosines in the block.

    For each anchor i this is max_j cos(i,j) - min_j cos(i,j) over the other
    records j, i.e. the largest change a single-record replacement within the
    block's empirical range can induce; the result is the max over anchors.
    The cosines come one row chunk at a time (_row_chunks at ROW_CHUNK_ELEMS),
    from the same products as SimilarityOracle's exact cosines.
    """
    n = len(block)
    if n < 2:
        raise PrivacyError("local sensitivity needs a block with at least 2 records")
    emb = block.embeddings
    spread = 0.0
    for lo, hi in _row_chunks(n, ROW_CHUNK_ELEMS):
        sims = emb[lo:hi] @ emb.T
        rows = np.arange(lo, hi)
        sims[rows - lo, rows] = np.nan
        spread = max(spread, float(np.nanmax(np.nanmax(sims, axis=1) - np.nanmin(sims, axis=1))))
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


def sensitivity_report(block: Corpus, params: PrivacyParams, block_id: int | None = None) -> SensitivityReport:
    """Calibrate the noise for one block under the given parameters.

    The mode decides the sensitivity used: global (2), smooth, or for mixed
    the smaller of the two. With epsilon off there is no noise: smooth/mixed
    are reported as 0, chosen is "off" and the noise scale is 0.
    """
    if block_id is None:
        block_id = block.records[0].block
    s_local = local_sensitivity(block)
    if params.off:
        return SensitivityReport(block=block_id, s_global=GLOBAL_SENSITIVITY, s_local=s_local,
                                 s_smooth=0.0, s_mixed=0.0, chosen="off", noise_scale=0.0)
    s_smooth = smooth_sensitivity(s_local, params.epsilon, len(block))
    chosen = params.sensitivity_mode
    if chosen == "mixed":
        chosen = "smooth" if s_smooth < GLOBAL_SENSITIVITY else "global"
    used = s_smooth if chosen == "smooth" else GLOBAL_SENSITIVITY
    return SensitivityReport(block=block_id, s_global=GLOBAL_SENSITIVITY, s_local=s_local,
                             s_smooth=s_smooth, s_mixed=min(GLOBAL_SENSITIVITY, s_smooth),
                             chosen=chosen, noise_scale=used / params.epsilon)


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


def laplace_from_uniform(u, scale: float):
    """Inverse-CDF transform: u in (-1/2, 1/2) -> Laplace(0, scale).

    Computes -scale * sign(u) * log1p(-2|u|) into a new array; u is not modified.
    """
    if scale == 0.0:
        return np.zeros_like(u) if isinstance(u, np.ndarray) else 0.0
    u = np.asarray(u, dtype=np.float64)
    out = np.abs(u, out=np.empty_like(u))
    out *= -2.0
    np.log1p(out, out=out)
    # -scale * log1p(-2|u|) >= 0 is the magnitude; the sign is u's
    out *= -scale
    np.copysign(out, u, out=out)
    return out if out.ndim else float(out)


def derive_block_seed(seed: int, block: int) -> int:
    """Stable per-block substream key for the pairwise noise."""
    with np.errstate(over="ignore"):
        z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ (np.uint64(block) * _SPLITMIX_GAMMA)
    return int(_mix64(np.array(z ^ _SPLITMIX_GAMMA)))


class SimilarityOracle:
    """Noisy cosine similarities with one deterministic draw per unordered pair.

    The Laplace sample for pair (i, j) is a pure function of the block seed
    and the pair's position in the condensed upper-triangle ordering, so
    repeated queries (in either order, from any worker) return the same value
    without any shared state. The noise scale is the one sensitivity_report
    calibrates; with epsilon off it is 0 and the oracle returns exact cosines.
    noise_bound is the largest |draw| the sampler can return at that scale
    (about 36.74 * noise_scale; 0 when off).
    """

    def __init__(self, block: Corpus, params: PrivacyParams, block_id: int | None = None):
        self.block = block
        self.params = params
        self.n = len(block)
        if block_id is None:
            block_id = block.records[0].block
        self.block_id = block_id
        self.report = sensitivity_report(block, params, block_id)
        self.noise_scale = self.report.noise_scale
        self.noise_bound = float(laplace_from_uniform(_U_MAX, self.noise_scale))
        self._seed = derive_block_seed(params.seed, block_id)
        # condensed index of pair (i, j), i < j, is _pair_base[i] + j
        i = np.arange(self.n, dtype=np.int64)
        self._pair_base = i * (2 * self.n - i - 1) // 2 - i - 1
        # the exact cosines of a row always come from its chunk's product
        self.row_chunks = _row_chunks(self.n, ROW_CHUNK_ELEMS)
        self._row_bounds = np.array([lo for lo, _ in self.row_chunks] + [self.n], dtype=np.int64)

    def pair_index(self, i: int, j: int) -> int:
        """Condensed index of unordered pair (i, j) in the upper triangle."""
        if i == j:
            raise PrivacyError(f"similarity of a record with itself is not a valid pair query ({i})")
        if i > j:
            i, j = j, i
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise PrivacyError(f"pair ({i}, {j}) out of range for block of size {self.n}")
        return int(self._pair_base[i]) + j

    def exact_similarity(self, i: int, j: int) -> float:
        emb = self.block.embeddings
        return float(emb[i] @ emb[j])

    def noisy_similarity(self, i: int, j: int) -> float:
        """Perturbed cosine for one pair; the draw is a pure function of (seed, pair)."""
        self.pair_index(i, j)  # validates the pair
        value = self.exact_similarity(min(i, j), max(i, j))
        if self.noise_scale > 0.0:
            value += float(self.pair_noise(np.array([i]), np.array([j]))[0])
        return value

    def pair_noise(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Laplace draws of pairs (u[k], v[k]), u[k] != v[k], unchecked.

        A pair's draw is a pure function of the block seed and its condensed
        index, the same in either order and on every path.
        """
        p = self._pair_base[np.minimum(u, v)] + np.maximum(u, v)
        return laplace_from_uniform(substream_uniforms(self._seed, p), self.noise_scale)

    def noisy_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Perturbed similarities for arrays of pairs (u[k] != v[k]).

        Same substream values as the scalar and row paths. The pairs go in
        tiles whose gathered embeddings hold about NOISE_TILE_ELEMS values; a
        pair's row-wise dot product does not depend on the tile.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if np.any(u == v):
            raise PrivacyError("self-pairs are not valid similarity queries")
        emb = self.block.embeddings
        sims = np.empty(u.size)
        step = max(1, NOISE_TILE_ELEMS // emb.shape[1])
        for a in range(0, u.size, step):
            ut, vt, out = u[a:a + step], v[a:a + step], sims[a:a + step]
            np.einsum("ij,ij->i", emb[ut], emb[vt], out=out)
            if self.noise_scale > 0.0:
                out += self.pair_noise(ut, vt)
        return sims

    def exact_rows(self, lo: int, hi: int) -> np.ndarray:
        """Exact cosines of rows [lo, hi), cut from the products of their row chunks."""
        emb = self.block.embeddings
        bounds = self._row_bounds
        first = int(np.searchsorted(bounds, lo, side="right")) - 1
        last = int(np.searchsorted(bounds, hi, side="left"))
        if last == first + 1 and bounds[first] == lo and bounds[last] == hi:
            return emb[lo:hi] @ emb.T
        sims = np.empty((hi - lo, self.n))
        for a, b in zip(bounds[first:last].tolist(), bounds[first + 1:last + 1].tolist()):
            s, e = max(a, lo), min(b, hi)
            sims[s - lo:e - lo] = (emb[a:b] @ emb.T)[s - a:e - a]
        return sims

    def noisy_rows(self, lo: int, hi: int) -> np.ndarray:
        """Perturbed similarities of rows [lo, hi) against all records.

        The exact cosines come from one matrix product per row chunk of the
        block (self.row_chunks); a range that is not one whole chunk is cut
        out of the products of the chunks it overlaps. So a row's values do
        not depend on the range asked for, but can differ from noisy_pairs'
        row-wise dot product in the last ulp. The noise is added in tiles of
        about NOISE_TILE_ELEMS cells, each with its own counters, and each
        pair gets the same draw as in per-pair queries. The diagonal is set
        to NaN.
        """
        sims = self.exact_rows(lo, hi)
        if self.noise_scale > 0.0:
            step = max(1, NOISE_TILE_ELEMS // self.n)
            cols = np.arange(self.n)
            for a in range(lo, hi, step):
                b = min(hi, a + step)
                rows = np.arange(a, b)[:, None]
                p = self._pair_base + rows  # column j < row i: pair (j, i)
                np.add(self._pair_base[a:b, None], cols, out=p, where=cols >= rows)  # pair (i, j)
                sims[a - lo:b - lo] += laplace_from_uniform(substream_uniforms(self._seed, p),
                                                            self.noise_scale)
        sims[np.arange(hi - lo), np.arange(lo, hi)] = np.nan
        return sims
