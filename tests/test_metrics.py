import math

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import rankdata, spearmanr

from oracles import mp_ami, pair_count_ari

from dpevent import metrics
from dpevent.metrics import (MetricsError, _average_ranks, ami, ari, contingency, evaluate,
                             expected_mutual_information, log_factorial, spearman)


class TestAri:
    def test_identical(self):
        assert ari([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
        assert ari(["x", "y", "x"], [5, 2, 5]) == 1.0

    def test_crossed_pairs_exact(self):
        assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5

    def test_single_cluster_pred(self):
        assert ari([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_pair_counting_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 30))
            truth = rng.integers(0, 4, size=n).tolist()
            pred = rng.integers(0, 4, size=n).tolist()
            assert ari(truth, pred) == pytest.approx(pair_count_ari(truth, pred), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            ari([0, 1], [0, 1, 2])

    def test_range(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            val = ari(rng.integers(0, 5, size=n).tolist(), rng.integers(0, 5, size=n).tolist())
            assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


class TestAmi:
    def test_identical(self):
        assert ami([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
        assert ami([0, 1, 2], [2, 0, 1]) == 1.0  # permuted ids, same partition

    def test_crossed_pairs_matches_arbitrary_precision_oracle(self):
        truth, pred = [0, 0, 1, 1], [0, 1, 0, 1]
        expected = float(mp_ami(truth, pred))
        assert expected == pytest.approx(-0.5, abs=1e-12)  # frozen from the oracle
        assert ami(truth, pred) == pytest.approx(expected, abs=1e-10)

    def test_single_cluster_pred_is_zero(self):
        assert ami([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 16))
            truth = rng.integers(0, 3, size=n).tolist()
            pred = rng.integers(0, 3, size=n).tolist()
            assert ami(truth, pred) == pytest.approx(float(mp_ami(truth, pred)), abs=1e-9)

    def test_emi_matches_oracle(self, rng):
        from oracles import mp_expected_mi
        for _ in range(5):
            n = int(rng.integers(5, 20))
            table = contingency(rng.integers(0, 3, size=n).tolist(),
                                rng.integers(0, 4, size=n).tolist())
            assert expected_mutual_information(table) == pytest.approx(
                float(mp_expected_mi(table.counts)), abs=1e-10)

    def test_emi_equals_loop_reference(self, rng):
        # tie-heavy tables: most marginal pairs repeat, so most terms come
        # from the memo, and the sum must still be the double loop's, bit for bit
        from oracles import loop_expected_mi

        def labels(n, sizes):
            return rng.permutation(np.repeat(np.arange(n), rng.choice(sizes, size=n))[:n]).tolist()

        for _ in range(40):
            n = int(rng.integers(10, 300))
            table = contingency(labels(n, [n // 8 + 1, n // 4 + 1]), labels(n, [1, 2, 3, 5]))
            assert expected_mutual_information(table) == loop_expected_mi(table.counts)

    def test_upper_bound(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            val = ami(rng.integers(0, 5, size=n).tolist(), rng.integers(0, 5, size=n).tolist())
            assert val <= 1.0 + 1e-12


class TestLogFactorial:
    def test_equals_gammaln_table(self):
        x = np.arange(200_002)
        got = np.array([log_factorial(k) for k in x.tolist()])
        assert np.array_equal(got, gammaln(x + 1.0))

    @pytest.mark.parametrize("x", [10, 11, 12, 998, 999, 1000,
                                   99_999_999, 100_000_000, 100_000_001])
    def test_equals_gammaln_at_branch_edges(self, x):
        # exact factorials end at 11, the 5-term correction at z = x + 1 = 1000,
        # and the 3-term one above z = 1e8
        assert log_factorial(x) == float(gammaln(float(x) + 1.0))


class TestInvariances:
    def test_symmetry(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 25))
            x = rng.integers(0, 4, size=n).tolist()
            y = rng.integers(0, 4, size=n).tolist()
            assert ari(x, y) == pytest.approx(ari(y, x), abs=1e-12)
            assert ami(x, y) == pytest.approx(ami(y, x), abs=1e-12)

    def test_permutation_invariance(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 30))
            truth = rng.integers(0, 4, size=n).tolist()
            pred = rng.integers(0, 4, size=n).tolist()
            relabel = rng.permutation(10)
            pred_relabeled = [int(relabel[p]) for p in pred]
            assert ari(truth, pred) == pytest.approx(ari(truth, pred_relabeled), abs=1e-12)
            assert ami(truth, pred) == pytest.approx(ami(truth, pred_relabeled), abs=1e-12)


class TestContingency:
    def test_counts_and_marginals(self):
        t = contingency([0, 0, 1, 1], [0, 1, 0, 1])
        assert t.counts.tolist() == [[1, 1], [1, 1]]
        assert t.row_sums.tolist() == [2, 2]
        assert t.col_sums.tolist() == [2, 2]
        assert t.n == 4

    def test_marginal_consistency(self, rng):
        n = 50
        t = contingency(rng.integers(0, 6, size=n).tolist(), rng.integers(0, 6, size=n).tolist())
        assert int(t.counts.sum()) == t.n == n
        assert np.array_equal(t.counts.sum(axis=1), t.row_sums)
        assert np.array_equal(t.counts.sum(axis=0), t.col_sums)


class TestEvaluate:
    def test_scores_equal_the_standalone_functions(self, rng):
        cases = []
        for _ in range(60):
            n = int(rng.integers(2, 60))
            cases.append((rng.integers(0, rng.integers(1, 6), size=n).tolist(),
                          rng.integers(0, rng.integers(1, 9), size=n).tolist()))
        cases.append(([0, 0, 1, 1], [0, 1, 0, 1]))
        cases.append((["x", "y", "x"], [5, 2, 5]))
        # the sim-knn shape: 5,000 labels, 25 classes x 877 clusters
        pred = rng.permutation(np.r_[np.arange(877), rng.integers(0, 877, size=5000 - 877)])
        cases.append((np.repeat(np.arange(25), 200).tolist(), pred.tolist()))
        for truth, pred in cases:
            got = evaluate(truth, pred)
            assert repr(got["ami"]) == repr(ami(truth, pred))
            assert repr(got["ari"]) == repr(ari(truth, pred))
            assert (got["n"], got["num_true"], got["num_pred"]) == (
                len(truth), len(set(truth)), len(set(pred)))
        assert (got["num_true"], got["num_pred"]) == (25, 877)

    def test_one_contingency_table(self, monkeypatch):
        calls = []

        def spy(truth, pred):
            calls.append(1)
            return contingency(truth, pred)

        monkeypatch.setattr(metrics, "contingency", spy)
        evaluate([0, 0, 1, 1, 2], [0, 1, 1, 1, 0])
        assert len(calls) == 1


class TestSpearman:
    def test_equals_scipy_on_ties(self, rng):
        # few distinct values, so most vectors carry ties
        for _ in range(2000):
            n = int(rng.integers(2, 15))
            x = rng.integers(0, rng.integers(2, 6), size=n) * 0.1
            y = rng.integers(0, rng.integers(2, 6), size=n) / 3
            assert np.array_equal(_average_ranks(x), rankdata(x))
            if np.ptp(x) and np.ptp(y):
                assert spearman(x, y) == float(spearmanr(x, y).statistic)

    def test_undefined_is_nan(self):
        assert math.isnan(spearman([1.0, 2.0, 3.0], [0.5, 0.5, 0.5]))
        assert math.isnan(spearman([1.0, 1.0], [0.1, 0.2]))
        assert math.isnan(spearman([1.0, 2.0, 3.0], [0.1, math.nan, 0.3]))

    def test_monotone(self):
        assert spearman([1.0, 2.0, 3.0, 4.0], [0.1, 0.5, 0.6, 0.9]) == 1.0
        assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0
