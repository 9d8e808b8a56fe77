import math

import numpy as np
import pytest

from conftest import block_513, block_oracle, dyadic_embeddings

from dpevent import privacy
from dpevent.corpus import Corpus, MessageRecord, SynthConfig, generate
from dpevent.privacy import (GLOBAL_SENSITIVITY, ROW_CHUNK_ELEMS, BlockPairs, PrivacyError,
                             PrivacyParams, SensitivityReport, SimilarityOracle, _row_chunks,
                             derive_block_seed, local_sensitivity, sensitivity_report,
                             signed_log_uniforms, smooth_sensitivity, substream_uniforms)


def corpus_from_rows(rows):
    return Corpus([MessageRecord(id=f"m{i}", block=0, embedding=np.asarray(r, float))
                   for i, r in enumerate(rows)])


def scalar_reference(oracle, i, j):
    """Pair (i, j)'s released value in scalar arithmetic: the row-wise dot product
    plus the inverse Laplace CDF of the pair's substream uniform."""
    i, j = min(i, j), max(i, j)
    u = float(substream_uniforms(oracle.pairs.key, np.array([oracle.pairs.pair_base[i] + j]))[0])
    emb = oracle.pairs.block.embeddings
    return float(emb[i] @ emb[j]) + math.copysign(-oracle.noise_scale * math.log1p(-2 * abs(u)), u)


class TestSensitivities:
    def test_global_is_two(self):
        assert GLOBAL_SENSITIVITY == 2.0

    def test_local_identical_plus_orthogonal(self):
        block = corpus_from_rows([[1, 0, 0], [1, 0, 0], [0, 1, 0]])
        # anchor 0 sees cosines {1, 0} -> spread 1
        assert local_sensitivity(BlockPairs(block, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_local_all_identical(self):
        block = corpus_from_rows([[1, 0], [1, 0], [1, 0]])
        assert local_sensitivity(BlockPairs(block, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_local_leaves_out_the_diagonal(self):
        # every observed cosine is 0; a self-cosine of 1 in the maximum, or
        # the -inf that stands for it in the minimum, would show
        block = corpus_from_rows(np.eye(4))
        assert local_sensitivity(BlockPairs(block, 0)) == 0.0

    def test_local_bounded_by_global(self, rng):
        for _ in range(20):
            emb = rng.normal(size=(int(rng.integers(2, 40)), 8))
            block = corpus_from_rows(emb)
            assert local_sensitivity(BlockPairs(block, 0)) <= GLOBAL_SENSITIVITY + 1e-12

    def test_local_needs_two_records(self):
        with pytest.raises(PrivacyError):
            local_sensitivity(BlockPairs(corpus_from_rows([[1, 0]]), 0))

    def test_smooth_epsilon_limit(self):
        # factor -> 1 as epsilon -> 0+
        assert smooth_sensitivity(1.0, 1e-12, 10) == pytest.approx(2.0, rel=1e-9)

    def test_smooth_zero_local(self):
        assert smooth_sensitivity(0.0, 5.0, 100) == 0.0

    def test_smooth_frozen_value(self):
        # 2*exp(-ln 200)*0.5 with delta = 1/100
        assert smooth_sensitivity(0.5, 2.0, 10) == pytest.approx(0.005, rel=1e-12)

    # (mode, epsilon, chosen sensitivity): s_local = 2 on this block, so
    # s_smooth = 2*exp(-(eps/2)*ln(2n^2)) * 2 with n = 3
    @pytest.mark.parametrize("mode, epsilon, chosen", [
        ("mixed", None, "off"), ("global", None, "off"),
        ("global", 2.0, "global"), ("global", 0.01, "global"),
        ("smooth", 2.0, "smooth"), ("smooth", 0.01, "smooth"),
        ("mixed", 2.0, "smooth"), ("mixed", 0.01, "global"),
    ])
    def test_calibration(self, mode, epsilon, chosen):
        block = corpus_from_rows([[1, 0], [-1, 0], [1, 0]])
        params = PrivacyParams(epsilon=epsilon, sensitivity_mode=mode)
        rep = sensitivity_report(BlockPairs(block, 0), params)
        oracle = SimilarityOracle(BlockPairs(block, 0), params)
        s_smooth = 0.0 if epsilon is None else 4.0 * math.exp(-(epsilon / 2.0) * math.log(18.0))
        sensitivity = {"off": 0.0, "global": 2.0, "smooth": s_smooth}[chosen]
        assert rep.chosen == oracle.report.chosen == chosen
        assert rep.s_smooth == pytest.approx(s_smooth, rel=1e-12)
        assert rep.s_mixed == min(2.0, rep.s_smooth)
        expected = 0.0 if epsilon is None else sensitivity / epsilon
        assert rep.noise_scale == pytest.approx(expected, rel=1e-12)
        assert oracle.noise_scale == rep.noise_scale

    def test_report_consistency(self):
        block = generate(SynthConfig(num_events=3, points_per_event=30, dim=16, seed=4))
        rep = sensitivity_report(BlockPairs(block, 0), PrivacyParams(epsilon=2.0))
        assert rep.s_mixed == min(rep.s_global, rep.s_smooth)
        assert rep.s_mixed <= 2.0
        assert rep.chosen == ("smooth" if rep.s_smooth < 2.0 else "global")
        assert rep.noise_scale == pytest.approx(rep.s_mixed / 2.0)

    def test_report_clustered_eps15_chooses_smooth(self):
        block = generate(SynthConfig(num_events=3, points_per_event=50, dim=32, seed=7))
        rep = sensitivity_report(BlockPairs(block, 0), PrivacyParams(epsilon=15.0))
        assert rep.chosen == "smooth"
        assert rep.s_smooth < 1e-30

    def test_report_small_epsilon_formula(self):
        # at eps = 0.1 the exponential factor is near 1; global wins whenever
        # the smoothed value reaches the cosine range
        n = 10
        factor = 2.0 * math.exp(-(0.1 / 2.0) * math.log(2.0 * n * n))
        s_local = 1.9
        expected = factor * s_local
        assert smooth_sensitivity(s_local, 0.1, n) == pytest.approx(expected, rel=1e-12)
        if expected >= 2.0:
            block = corpus_from_rows([[1, 0], [-1, 0]] * (n // 2))  # s_local = 2
            rep = sensitivity_report(BlockPairs(block, 0), PrivacyParams(epsilon=0.1))
            assert rep.chosen == "global" and rep.noise_scale == 2.0 / 0.1

    @pytest.mark.parametrize("mode", ["global", "smooth", "mixed"])
    def test_report_rejects_overflowing_scale(self, mode):
        pairs = BlockPairs(corpus_from_rows([[1, 0], [0, 1], [1, 1]]), 0)
        with pytest.raises(PrivacyError, match="overflows"):
            sensitivity_report(pairs, PrivacyParams(epsilon=1e-310, sensitivity_mode=mode))
        # at 1e-300 the scale (about 2e300) is still finite
        rep = sensitivity_report(pairs, PrivacyParams(epsilon=1e-300, sensitivity_mode=mode))
        assert math.isfinite(rep.noise_scale) and rep.noise_scale > 0.0

    def test_report_off_mode(self):
        block = corpus_from_rows([[1, 0], [0, 1], [1, 1]])
        rep = sensitivity_report(BlockPairs(block, 0), PrivacyParams(epsilon=None))
        assert rep.noise_scale == 0.0
        assert rep.s_mixed == 0.0
        assert rep.chosen == "off"


class TestLaplace:
    def test_median_maps_to_zero(self):
        assert 3.7 * signed_log_uniforms(np.array([0.0]))[0] == 0.0

    def test_sample_statistics(self):
        b = 0.7
        u = substream_uniforms(123, np.arange(1_000_000))
        vec = b * signed_log_uniforms(u)
        assert abs(vec.mean()) < 0.01 * b
        assert abs(vec.var() - 2 * b * b) < 0.05 * 2 * b * b


class TestSubstream:
    def test_pure_function_of_seed_and_counter(self):
        a = substream_uniforms(42, np.array([0, 1, 2, 7]))
        b = substream_uniforms(42, np.array([7, 2, 1, 0]))
        assert np.array_equal(a, b[::-1])
        c = substream_uniforms(43, np.array([0, 1, 2, 7]))
        assert not np.array_equal(a, c)

    def test_open_interval(self):
        u = substream_uniforms(0, np.arange(100_000))
        assert u.min() > -0.5 and u.max() < 0.5

    @pytest.mark.parametrize("bits, sign", [(0xFFFFFFFFFFFFFFFF, 1.0), (0, -1.0)])
    def test_extreme_bits_give_the_bound(self, monkeypatch, bits, sign):
        # all-ones bits map to k + 0.5 = 2^53 after rounding, i.e. u = 0.5 and
        # an infinite draw, unless clamped to the bottom value's magnitude
        def fill(z):
            z[...] = np.uint64(bits)
            return z

        monkeypatch.setattr(privacy, "_mix64", fill)
        u = substream_uniforms(0, np.arange(4))
        assert np.all(np.abs(u) < 0.5)
        oracle = block_oracle(corpus_from_rows([[1, 0], [0, 1], [1, 1]]), epsilon=1.0,
                              mode="global")
        draws = oracle.noise_scale * signed_log_uniforms(u)
        assert np.all(np.isfinite(draws))
        assert np.all(draws == sign * oracle.noise_bound)

    def test_no_draw_exceeds_noise_bound(self):
        oracle = block_oracle(corpus_from_rows(dyadic_embeddings(1500, seed=2)), epsilon=0.3,
                              mode="global", seed=4)
        assert oracle.noise_bound == pytest.approx(36.74 * oracle.noise_scale, rel=1e-4)
        u, v = np.triu_indices(oracle.n, k=1)
        draws = oracle.noise_scale * oracle.pairs.signed_logs(u, v)
        assert np.abs(draws).max() <= oracle.noise_bound
        # the largest |u| values, where the inverse CDF is steepest
        top = 0.5 - 2.0 ** -54 * np.arange(1, 1 << 16)
        tail = oracle.noise_scale * signed_log_uniforms(np.concatenate([top, -top]))
        assert np.abs(tail).max() <= oracle.noise_bound

    def test_block_seed_separation(self):
        assert derive_block_seed(1, 0) != derive_block_seed(1, 1)
        assert derive_block_seed(1, 0) == derive_block_seed(1, 0)


class TestRowChunks:
    @pytest.mark.parametrize("n, budget", [
        (2, 1), (3, 3), (513, 512 * 513), (513, ROW_CHUNK_ELEMS), (5000, ROW_CHUNK_ELEMS),
        (1025, 2 * 1025), (7, 10 ** 9),
    ])
    def test_cover_rows_in_order_without_single_rows(self, n, budget):
        chunks = _row_chunks(n, budget)
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        step = max(2, budget // n)
        assert all(2 <= hi - lo <= step + 1 for lo, hi in chunks)

    def test_single_record(self):
        assert _row_chunks(1, ROW_CHUNK_ELEMS) == [(0, 1)]


class TestRowsIndependentOfRange:
    """A row's noisy similarities are the same whatever range asks for them.

    Generic cosines can round differently in products of different shapes (a
    1-row product takes another BLAS kernel), so only computing every row from
    its fixed row chunk makes this hold bit for bit."""

    @pytest.mark.parametrize("epsilon", [None, 1.0])
    def test_single_rows_match_full_range(self, epsilon):
        oracle = block_oracle(block_513(), epsilon=epsilon, mode="global", seed=5)
        full = oracle.noisy_rows(0, oracle.n)
        for i in (0, 1, 255, 510, 511, 512):
            assert np.array_equal(oracle.noisy_rows(i, i + 1)[0], full[i], equal_nan=True)
        for lo, hi in ((0, 2), (100, 400), (509, 513), (0, 512)):
            assert np.array_equal(oracle.noisy_rows(lo, hi), full[lo:hi], equal_nan=True)

    @pytest.mark.parametrize("epsilon", [None, 1.0])
    def test_pairs_equal_the_smaller_endpoints_row_cells(self, epsilon, rng):
        # pairs whose smaller endpoint lies in either of the two row chunks
        oracle = block_oracle(block_513(), epsilon=epsilon, mode="global", seed=5)
        full = oracle.noisy_rows(0, oracle.n)
        u = np.concatenate([rng.integers(0, 513, 2000), [511, 512, 512]])
        v = np.concatenate([rng.integers(0, 513, 2000), [512, 0, 511]])
        u, v = u[u != v], v[u != v]
        cells = full[np.minimum(u, v), np.maximum(u, v)]
        assert oracle.noisy_pairs(u, v).tobytes() == cells.tobytes()

    def test_exact_rows_into_out_match_new_arrays(self):
        # a whole row chunk is multiplied straight into out; other ranges are
        # cut from their chunks' products into it
        pairs = BlockPairs(block_513(), 0)
        buf = np.full(pairs.n * pairs.n, np.nan)
        for lo, hi in pairs.row_chunks + [(0, 2), (100, 400), (509, 513)]:
            out = buf[:(hi - lo) * pairs.n].reshape(hi - lo, pairs.n)
            rows = pairs.exact_rows(lo, hi, out=out)
            assert rows is out
            assert rows.tobytes() == pairs.exact_rows(lo, hi).tobytes()

    def test_local_sensitivity_matches_oracle_rows(self):
        block = block_513()
        oracle = block_oracle(block, epsilon=None)
        rows = oracle.noisy_rows(0, len(block))
        spread = np.nanmax(rows, axis=1) - np.nanmin(rows, axis=1)
        assert local_sensitivity(oracle.pairs) == float(spread.max())

    @pytest.mark.parametrize("chunk_rows", [100, 7])
    def test_local_sensitivity_reads_every_chunk_from_exact_rows(self, monkeypatch, chunk_rows):
        # the largest spread lies past the first chunk
        block = block_513()
        pairs = block_oracle(block, epsilon=None, chunk_rows=chunk_rows).pairs
        rows = SimilarityOracle(pairs, PrivacyParams()).noisy_rows(0, len(block))
        spread = np.nanmax(rows, axis=1) - np.nanmin(rows, axis=1)
        assert spread[:pairs.row_chunks[0][1]].max() < spread.max()
        asked = []
        exact_rows = BlockPairs.exact_rows

        def spy(self, lo, hi, out=None):
            asked.append((lo, hi))
            return exact_rows(self, lo, hi, out)

        monkeypatch.setattr(BlockPairs, "exact_rows", spy)
        assert local_sensitivity(pairs) == float(spread.max())
        assert asked == pairs.row_chunks


class TestOracle:
    def _oracle(self, rows, epsilon=None, seed=0, mode="mixed"):
        return block_oracle(corpus_from_rows(rows), epsilon=epsilon, mode=mode, seed=seed)

    def test_off_identical_vectors(self):
        oracle = self._oracle([[1, 0], [2, 0], [0, 1]])
        assert oracle.noisy_pairs([0], [1])[0] == pytest.approx(1.0, abs=1e-12)

    def test_cache_symmetry(self):
        oracle = self._oracle([[1, 0], [0.5, 0.5], [0, 1]], epsilon=1.0, mode="global")
        assert oracle.noisy_pairs([0], [1])[0] == oracle.noisy_pairs([1], [0])[0]

    def test_self_pair_rejected(self):
        oracle = self._oracle([[1, 0], [0, 1]])
        with pytest.raises(PrivacyError):
            oracle.noisy_pairs([1], [1])

    @pytest.mark.parametrize("u, v", [([-1], [3]), ([3], [-1]), ([0], [10]), ([0, 10], [1, 2])])
    def test_out_of_range_pair_rejected(self, rng, u, v):
        # a negative index would wrap in the pair index and release another pair's value
        oracle = self._oracle(rng.normal(size=(10, 4)), epsilon=1.0, mode="global")
        with pytest.raises(PrivacyError, match="out of range"):
            oracle.noisy_pairs(u, v)

    def test_cache_bound_and_stability(self, rng):
        emb = rng.normal(size=(8, 4))
        oracle = self._oracle(emb, epsilon=2.0, mode="global", seed=5)
        first = {}
        for i in range(8):
            for j in range(i + 1, 8):
                first[(i, j)] = oracle.noisy_pairs([i], [j])[0]
        for (i, j), val in first.items():
            assert oracle.noisy_pairs([j], [i])[0] == val

    def test_rows_match_scalar_path(self, rng):
        emb = rng.normal(size=(10, 6))
        oracle = self._oracle(emb, epsilon=1.5, mode="global", seed=9)
        rows = oracle.noisy_rows(0, 10)
        for i in range(10):
            for j in range(10):
                if i != j:
                    assert rows[i, j] == pytest.approx(scalar_reference(oracle, i, j), abs=1e-12)

    @pytest.mark.parametrize("mode, epsilon", [("global", 1.5), ("mixed", 0.5)])
    def test_rows_bit_exact_with_pairs(self, mode, epsilon):
        # exact cosines of dyadic vectors do not depend on summation order, so
        # equality checks each cell's pair index and noise draw bit for bit
        oracle = self._oracle(dyadic_embeddings(11, seed=4), epsilon=epsilon, mode=mode, seed=9)
        assert oracle.noise_scale > 0.1
        for lo, hi in ((4, 8), (8, 11)):  # lo > 0, then the ragged last 4-row chunk
            rows = oracle.noisy_rows(lo, hi)
            for r in range(hi - lo):
                for j in range(oracle.n):
                    if j != lo + r:
                        assert rows[r, j] == oracle.noisy_pairs([lo + r], [j])[0]

    def test_rows_bit_exact_with_pairs_across_tiles(self):
        # n = 300 puts 218 rows in a noise tile and 2,048 pairs in a
        # noisy_pairs tile, so ranges span several tiles of both
        oracle = self._oracle(dyadic_embeddings(300, seed=4), epsilon=1.5, mode="global", seed=9)
        for lo, hi in ((0, 300), (37, 290), (250, 251)):
            rows = oracle.noisy_rows(lo, hi)
            r, c = np.nonzero(~np.eye(hi - lo, oracle.n, k=lo, dtype=bool))
            assert np.array_equal(rows[r, c], oracle.noisy_pairs(r + lo, c))

    def test_pairs_match_scalar_path(self, rng):
        emb = rng.normal(size=(9, 5))
        oracle = self._oracle(emb, epsilon=0.8, mode="global", seed=2)
        u = np.array([0, 3, 7])
        v = np.array([5, 2, 1])
        vals = oracle.noisy_pairs(u, v)
        for k in range(3):
            assert vals[k] == pytest.approx(scalar_reference(oracle, int(u[k]), int(v[k])),
                                            abs=1e-12)

    def test_rebuild_reproduces_values(self, rng):
        emb = rng.normal(size=(6, 4))
        a = self._oracle(emb, epsilon=1.0, mode="global", seed=77)
        b = self._oracle(emb, epsilon=1.0, mode="global", seed=77)
        assert a.noisy_pairs([2], [5])[0] == b.noisy_pairs([2], [5])[0]

    def test_huge_epsilon_is_nearly_exact(self, rng):
        emb = rng.normal(size=(40, 8))
        oracle = self._oracle(emb, epsilon=1e6, mode="global", seed=1)
        u, v = np.triu_indices(40, k=1)
        errors = np.abs(oracle.noisy_pairs(u, v) - oracle.pairs.exact_pairs(u, v))
        # P(|Lap(2e-6)| >= 1e-3) = exp(-500); all pairs are effectively exact
        assert np.mean(errors < 1e-3) >= 0.999


class TestDpRatioProperty:
    @pytest.mark.parametrize("epsilon", [1.0, 5.0, 10.0])
    def test_density_ratio_bounded(self, epsilon):
        sensitivity = 2.0
        b = sensitivity / epsilon
        c0, c1 = 0.3, 0.3 + sensitivity
        n = 1_000_000
        u0 = substream_uniforms(101, np.arange(n))
        u1 = substream_uniforms(101, np.arange(n, 2 * n))
        s0 = c0 + b * signed_log_uniforms(u0)
        s1 = c1 + b * signed_log_uniforms(u1)
        lo, hi = c0 - 4 * b, c1 + 4 * b
        edges = np.linspace(lo, hi, 51)
        h0, _ = np.histogram(s0, bins=edges)
        h1, _ = np.histogram(s1, bins=edges)

        def laplace_cdf(x, mu):
            z = (x - mu) / b
            return np.where(z < 0, 0.5 * np.exp(z), 1 - 0.5 * np.exp(-z))

        e0 = n * np.diff(laplace_cdf(edges, c0))
        e1 = n * np.diff(laplace_cdf(edges, c1))
        usable = (e0 >= 500) & (e1 >= 500)
        assert usable.sum() >= 3  # overlap region shrinks as epsilon grows
        ratio = h0[usable] / np.maximum(h1[usable], 1)
        bound_hi = math.exp(epsilon) * 1.1
        bound_lo = math.exp(-epsilon) * 0.9
        assert np.all(ratio <= bound_hi)
        assert np.all(ratio >= bound_lo)


def test_params_validation():
    with pytest.raises(PrivacyError):
        PrivacyParams(epsilon=-1.0)
    for epsilon in (math.inf, -math.inf, math.nan):
        with pytest.raises(PrivacyError, match="finite"):
            PrivacyParams(epsilon=epsilon)
    with pytest.raises(PrivacyError):
        PrivacyParams(epsilon=1.0, sensitivity_mode="??")
    assert PrivacyParams().off


def test_report_serialization_fields():
    rep = SensitivityReport(block=3, s_global=2.0, s_local=1.0, s_smooth=0.5,
                            s_mixed=0.5, chosen="smooth", noise_scale=0.05)
    d = rep.to_dict()
    assert set(d) == {"block", "s_global", "s_local", "s_smooth", "s_mixed", "chosen",
                      "noise_scale"}
