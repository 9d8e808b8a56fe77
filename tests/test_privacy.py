import math

import numpy as np
import pytest

from conftest import dyadic_embeddings

from dpevent.corpus import Corpus, MessageRecord, SynthConfig, generate
from dpevent.privacy import (GLOBAL_SENSITIVITY, PrivacyError, PrivacyParams, SensitivityReport,
                             SimilarityOracle, derive_block_seed, global_sensitivity,
                             laplace_from_uniform, laplace_sample, local_sensitivity,
                             mixed_sensitivity, sensitivity_report, smooth_sensitivity,
                             substream_uniforms)


def corpus_from_rows(rows):
    return Corpus([MessageRecord(id=f"m{i}", block=0, embedding=np.asarray(r, float))
                   for i, r in enumerate(rows)])


class TestSensitivities:
    def test_global_is_two(self):
        assert global_sensitivity() == 2.0

    def test_local_identical_plus_orthogonal(self):
        block = corpus_from_rows([[1, 0, 0], [1, 0, 0], [0, 1, 0]])
        # anchor 0 sees cosines {1, 0} -> spread 1
        assert local_sensitivity(block) == pytest.approx(1.0, abs=1e-12)

    def test_local_all_identical(self):
        block = corpus_from_rows([[1, 0], [1, 0], [1, 0]])
        assert local_sensitivity(block) == pytest.approx(0.0, abs=1e-12)

    def test_local_bounded_by_global(self, rng):
        for _ in range(20):
            emb = rng.normal(size=(int(rng.integers(2, 40)), 8))
            block = corpus_from_rows(emb)
            assert local_sensitivity(block) <= GLOBAL_SENSITIVITY + 1e-12

    def test_local_needs_two_records(self):
        with pytest.raises(PrivacyError):
            local_sensitivity(corpus_from_rows([[1, 0]]))

    def test_smooth_epsilon_limit(self):
        # factor -> 1 as epsilon -> 0+
        assert smooth_sensitivity(1.0, 1e-12, 10) == pytest.approx(2.0, rel=1e-9)

    def test_smooth_zero_local(self):
        assert smooth_sensitivity(0.0, 5.0, 100) == 0.0

    def test_smooth_frozen_value(self):
        # 2*exp(-ln 200)*0.5 with delta = 1/100
        assert smooth_sensitivity(0.5, 2.0, 10) == pytest.approx(0.005, rel=1e-12)

    def test_mixed_min(self):
        assert mixed_sensitivity(2.0, 0.005) == 0.005
        assert mixed_sensitivity(2.0, 3.7) == 2.0

    def test_report_consistency(self):
        block = generate(SynthConfig(num_events=3, points_per_event=30, dim=16, seed=4))
        params = PrivacyParams(epsilon=2.0, seed=0)
        rep = sensitivity_report(block, params)
        assert rep.s_mixed == mixed_sensitivity(rep.s_global, rep.s_smooth)
        assert rep.s_mixed <= 2.0
        assert rep.chosen == ("smooth" if rep.s_smooth < 2.0 else "global")
        assert rep.noise_scale == pytest.approx(rep.s_mixed / 2.0)

    def test_report_clustered_eps15_chooses_smooth(self):
        block = generate(SynthConfig(num_events=3, points_per_event=50, dim=32, seed=7))
        rep = sensitivity_report(block, PrivacyParams(epsilon=15.0, seed=0))
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
            assert mixed_sensitivity(2.0, expected) == 2.0

    def test_report_off_mode(self):
        block = corpus_from_rows([[1, 0], [0, 1], [1, 1]])
        rep = sensitivity_report(block, PrivacyParams(epsilon=None, seed=0))
        assert rep.noise_scale == 0.0
        assert rep.s_mixed == 0.0


class TestLaplace:
    def test_scale_zero(self, rng):
        assert laplace_sample(0.0, rng) == 0.0

    def test_median_maps_to_zero(self):
        assert laplace_from_uniform(0.0, 3.7) == 0.0

    def test_sample_statistics(self):
        rng = np.random.default_rng(11)
        b = 0.7
        samples = np.array([laplace_sample(b, rng) for _ in range(200_000)])
        # spot-check the scalar path, then the vectorized substream at full size
        assert abs(samples.mean()) < 0.01 * b
        u = substream_uniforms(123, np.arange(1_000_000))
        vec = laplace_from_uniform(u, b)
        assert abs(vec.mean()) < 0.01 * b
        assert abs(vec.var() - 2 * b * b) < 0.05 * 2 * b * b

    def test_negative_scale_rejected(self, rng):
        with pytest.raises(PrivacyError):
            laplace_sample(-1.0, rng)


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

    def test_block_seed_separation(self):
        assert derive_block_seed(1, 0) != derive_block_seed(1, 1)
        assert derive_block_seed(1, 0) == derive_block_seed(1, 0)


class TestOracle:
    def _oracle(self, rows, epsilon=None, seed=0, mode="mixed"):
        block = corpus_from_rows(rows)
        return SimilarityOracle(block, PrivacyParams(epsilon=epsilon, sensitivity_mode=mode,
                                                     seed=seed))

    def test_off_identical_vectors(self):
        oracle = self._oracle([[1, 0], [2, 0], [0, 1]])
        assert oracle.noisy_similarity(0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_cache_symmetry(self):
        oracle = self._oracle([[1, 0], [0.5, 0.5], [0, 1]], epsilon=1.0, mode="global")
        assert oracle.noisy_similarity(0, 1) == oracle.noisy_similarity(1, 0)

    def test_self_pair_rejected(self):
        oracle = self._oracle([[1, 0], [0, 1]])
        with pytest.raises(PrivacyError):
            oracle.noisy_similarity(1, 1)

    def test_cache_bound_and_stability(self, rng):
        emb = rng.normal(size=(8, 4))
        oracle = self._oracle(emb, epsilon=2.0, mode="global", seed=5)
        first = {}
        for i in range(8):
            for j in range(i + 1, 8):
                first[(i, j)] = oracle.noisy_similarity(i, j)
        for (i, j), val in first.items():
            assert oracle.noisy_similarity(j, i) == val

    def test_rows_match_scalar_path(self, rng):
        emb = rng.normal(size=(10, 6))
        oracle = self._oracle(emb, epsilon=1.5, mode="global", seed=9)
        rows = oracle.noisy_rows(0, 10)
        for i in range(10):
            for j in range(10):
                if i != j:
                    assert rows[i, j] == pytest.approx(oracle.noisy_similarity(i, j), abs=1e-12)

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

    def test_pairs_match_scalar_path(self, rng):
        emb = rng.normal(size=(9, 5))
        oracle = self._oracle(emb, epsilon=0.8, mode="global", seed=2)
        u = np.array([0, 3, 7])
        v = np.array([5, 2, 1])
        vals = oracle.noisy_pairs(u, v)
        for k in range(3):
            assert vals[k] == pytest.approx(oracle.noisy_similarity(int(u[k]), int(v[k])),
                                            abs=1e-12)

    def test_rebuild_reproduces_values(self, rng):
        emb = rng.normal(size=(6, 4))
        a = self._oracle(emb, epsilon=1.0, mode="global", seed=77)
        b = self._oracle(emb, epsilon=1.0, mode="global", seed=77)
        assert a.noisy_similarity(2, 5) == b.noisy_similarity(2, 5)

    def test_huge_epsilon_is_nearly_exact(self, rng):
        emb = rng.normal(size=(40, 8))
        oracle = self._oracle(emb, epsilon=1e6, mode="global", seed=1)
        errors = []
        for i in range(40):
            for j in range(i + 1, 40):
                errors.append(abs(oracle.noisy_similarity(i, j) - oracle.exact_similarity(i, j)))
        # P(|Lap(2e-6)| >= 1e-3) = exp(-500); all pairs are effectively exact
        assert np.mean(np.asarray(errors) < 1e-3) >= 0.999


class TestDpRatioProperty:
    @pytest.mark.parametrize("epsilon", [1.0, 5.0, 10.0])
    def test_density_ratio_bounded(self, epsilon):
        sensitivity = 2.0
        b = sensitivity / epsilon
        c0, c1 = 0.3, 0.3 + sensitivity
        n = 1_000_000
        u0 = substream_uniforms(101, np.arange(n))
        u1 = substream_uniforms(101, np.arange(n, 2 * n))
        s0 = c0 + laplace_from_uniform(u0, b)
        s1 = c1 + laplace_from_uniform(u1, b)
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
    with pytest.raises(PrivacyError):
        PrivacyParams(epsilon=1.0, sensitivity_mode="??")
    with pytest.raises(PrivacyError):
        PrivacyParams(epsilon=1.0, delta=1.5)
    assert PrivacyParams().off


def test_report_serialization_fields():
    rep = SensitivityReport(block=3, s_global=2.0, s_local=1.0, s_smooth=0.5,
                            s_mixed=0.5, chosen="smooth", noise_scale=0.05)
    d = rep.to_dict()
    assert set(d) == {"block", "s_global", "s_local", "s_smooth", "s_mixed", "chosen",
                      "noise_scale"}
