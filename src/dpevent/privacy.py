"""Sensitivity calibration and the noisy-similarity oracle.

Noise calibration follows the mixed strategy: the global sensitivity of
cosine similarity is exactly 2 (range [-1, 1]); the local sensitivity of a
block is smoothed with factor 2*exp(-(eps/2)*ln(2/delta)) and the mechanism
uses the smaller of the two. Each unordered message pair receives exactly one
Laplace draw, generated from a counter-based substream of the block seed so
that reruns and concurrent queries reproduce the same value.
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


class PrivacyError(ValueError):
    """Raised for invalid privacy parameters or similarity queries."""


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget and sensitivity strategy for one run.

    epsilon=None switches the mechanism off (exact similarities are released).
    delta=None defaults to 1/n^2 for the block the oracle is built on.
    """

    epsilon: float | None = None
    sensitivity_mode: str = "mixed"
    delta: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.epsilon is not None and not self.epsilon > 0:
            raise PrivacyError("epsilon must be positive (or None for off)")
        if self.sensitivity_mode not in ("global", "smooth", "mixed"):
            raise PrivacyError(f"unknown sensitivity_mode {self.sensitivity_mode!r}")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise PrivacyError("delta must lie in (0, 1)")

    @property
    def off(self) -> bool:
        return self.epsilon is None


@dataclass(frozen=True)
class SensitivityReport:
    """Per-block sensitivities, the chosen branch, and the mixed noise scale."""

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


def global_sensitivity() -> float:
    """Worst-case swing of a cosine similarity query: the full range [-1, 1]."""
    return GLOBAL_SENSITIVITY


def local_sensitivity(block: Corpus) -> float:
    """Largest per-anchor spread of observed cosines in the block.

    For each anchor i this is max_j cos(i,j) - min_j cos(i,j) over the other
    records j, i.e. the largest change a single-record replacement within the
    block's empirical range can induce; the result is the max over anchors.
    """
    n = len(block)
    if n < 2:
        raise PrivacyError("local sensitivity needs a block with at least 2 records")
    emb = block.embeddings
    spread = 0.0
    chunk = max(1, min(n, 8_388_608 // n))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        sims = emb[lo:hi] @ emb.T
        rows = np.arange(lo, hi)
        sims[rows - lo, rows] = np.nan
        spread = max(spread, float(np.nanmax(np.nanmax(sims, axis=1) - np.nanmin(sims, axis=1))))
    return spread


def smooth_sensitivity(s_local: float, epsilon: float, n: int, delta: float | None = None) -> float:
    """Smoothed local sensitivity 2*exp(-(eps/2)*ln(2/delta))*s_local, delta = 1/n^2."""
    if s_local < 0:
        raise PrivacyError("s_local must be non-negative")
    if not epsilon > 0:
        raise PrivacyError("epsilon must be positive")
    if n < 2:
        raise PrivacyError("block size must be at least 2")
    if delta is None:
        delta = 1.0 / (n * n)
    return 2.0 * math.exp(-(epsilon / 2.0) * math.log(2.0 / delta)) * s_local


def mixed_sensitivity(s_global: float, s_smooth: float) -> float:
    """min(s_global, s_smooth): the adaptive calibration used by the mechanism."""
    if s_global < 0 or s_smooth < 0:
        raise PrivacyError("sensitivities must be non-negative")
    return min(s_global, s_smooth)


def sensitivity_report(block: Corpus, params: PrivacyParams, block_id: int | None = None) -> SensitivityReport:
    """Compute all sensitivities for one block under the given parameters.

    With epsilon off there is no noise: smooth/mixed are reported as 0 and the
    noise scale is 0.
    """
    if block_id is None:
        block_id = block.records[0].block
    s_local = local_sensitivity(block)
    if params.off:
        return SensitivityReport(block=block_id, s_global=GLOBAL_SENSITIVITY, s_local=s_local,
                                 s_smooth=0.0, s_mixed=0.0, chosen="smooth", noise_scale=0.0)
    s_smooth = smooth_sensitivity(s_local, params.epsilon, len(block), params.delta)
    s_mixed = mixed_sensitivity(GLOBAL_SENSITIVITY, s_smooth)
    chosen = "smooth" if s_smooth < GLOBAL_SENSITIVITY else "global"
    return SensitivityReport(block=block_id, s_global=GLOBAL_SENSITIVITY, s_local=s_local,
                             s_smooth=s_smooth, s_mixed=s_mixed, chosen=chosen,
                             noise_scale=s_mixed / params.epsilon)


def resolve_noise_scale(report: SensitivityReport, params: PrivacyParams) -> float:
    """Noise scale S/eps for the configured sensitivity mode (0 when off)."""
    if params.off:
        return 0.0
    s = {"global": report.s_global, "smooth": report.s_smooth, "mixed": report.s_mixed}
    return s[params.sensitivity_mode] / params.epsilon


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


def laplace_sample(scale: float, rng: np.random.Generator) -> float:
    """Draw one Laplace(0, scale) variate by inverse-CDF sampling."""
    if scale < 0:
        raise PrivacyError("scale must be non-negative")
    if scale == 0.0:
        return 0.0
    r = rng.random()
    if r == 0.0:  # u = -1/2 exactly would hit log(0)
        r = np.nextafter(0.0, 1.0)
    return float(laplace_from_uniform(r - 0.5, scale))


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
    without any shared state. With epsilon off the oracle returns exact
    cosines.
    """

    def __init__(self, block: Corpus, params: PrivacyParams,
                 report: SensitivityReport | None = None, block_id: int | None = None):
        self.block = block
        self.params = params
        self.n = len(block)
        if block_id is None:
            block_id = block.records[0].block
        self.block_id = block_id
        if report is None and not params.off:
            report = sensitivity_report(block, params, block_id)
        self.report = report
        self.noise_scale = 0.0 if params.off else resolve_noise_scale(report, params)
        self._seed = derive_block_seed(params.seed, block_id)
        # condensed index of pair (i, j), i < j, is _pair_base[i] + j
        i = np.arange(self.n, dtype=np.int64)
        self._pair_base = i * (2 * self.n - i - 1) // 2 - i - 1

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
        p = self.pair_index(i, j)
        value = self.exact_similarity(min(i, j), max(i, j))
        if self.noise_scale > 0.0:
            u = substream_uniforms(self._seed, np.asarray([p], dtype=np.uint64))[0]
            value += float(laplace_from_uniform(u, self.noise_scale))
        return value

    def noisy_pairs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Perturbed similarities for arrays of pairs (u[k] != v[k]).

        Same substream values as the scalar and row paths.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if np.any(u == v):
            raise PrivacyError("self-pairs are not valid similarity queries")
        emb = self.block.embeddings
        sims = np.einsum("ij,ij->i", emb[u], emb[v])
        if self.noise_scale > 0.0:
            p = self._pair_base[np.minimum(u, v)] + np.maximum(u, v)
            sims += laplace_from_uniform(substream_uniforms(self._seed, p), self.noise_scale)
        return sims

    def noisy_rows(self, lo: int, hi: int) -> np.ndarray:
        """Perturbed similarities of rows [lo, hi) against all records.

        Each pair gets the same noise draw as in per-pair queries; the exact
        cosine comes from a matrix product, so it can differ from noisy_pairs'
        row-wise dot product in the last ulp. The diagonal is set to NaN.
        """
        emb = self.block.embeddings
        sims = emb[lo:hi] @ emb.T
        if self.noise_scale > 0.0:
            rows = np.arange(lo, hi)[:, None]
            cols = np.arange(self.n)
            p = self._pair_base + rows  # column j < row i: pair (j, i)
            np.add(self._pair_base[lo:hi, None], cols, out=p, where=cols >= rows)  # pair (i, j)
            sims += laplace_from_uniform(substream_uniforms(self._seed, p), self.noise_scale)
        sims[np.arange(hi - lo), np.arange(lo, hi)] = np.nan
        return sims
