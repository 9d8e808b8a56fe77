import math
import warnings

import numpy as np
import pytest

from conftest import block_513, block_oracle, dyadic_embeddings, make_graph
from oracles import (direct_one_dim_se, full_width_knn_edges, lexsort_top_neighbors,
                     partition_kth_mask, partition_top_k)

from dpevent import graphsynth
from dpevent.corpus import Corpus, MessageRecord, SynthConfig, generate
from dpevent.graphsynth import (ChunkWorkspace, GraphError, W_FLOOR, _dedupe_undirected,
                                build_attribute_edges, build_graph, build_knn_edges, one_dim_se,
                                synthesize_graph, top_neighbor_table)
from dpevent.privacy import (ROW_CHUNK_ELEMS, BlockPairs, PrivacyError, PrivacyParams,
                             SimilarityOracle)


def corpus_from_rows(rows, attrs=None):
    attrs = attrs or [{} for _ in rows]
    return Corpus([MessageRecord(id=f"m{i}", block=0, embedding=np.asarray(r, float),
                                 attributes=a)
                   for i, (r, a) in enumerate(zip(rows, attrs))])


class TestOneDimSe:
    def test_triangle(self):
        g = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert one_dim_se(g) == pytest.approx(math.log2(3), abs=1e-12)

    def test_single_edge(self):
        assert one_dim_se(make_graph(2, [(0, 1, 1.0)])) == pytest.approx(1.0, abs=1e-12)

    def test_path(self):
        g = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert one_dim_se(g) == pytest.approx(1.5, abs=1e-12)

    def test_empty_graph_error(self):
        with pytest.raises(GraphError):
            one_dim_se(make_graph(3, []))

    def test_matches_direct_formula(self, rng):
        from oracles import random_graph
        for _ in range(25):
            n, u, v, w = random_graph(rng, max_n=30)
            g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
            assert one_dim_se(g) == pytest.approx(direct_one_dim_se(n, u, v, w), abs=1e-9)


class TestMessageGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            make_graph(3, [(1, 1, 0.5)])

    def test_rejects_duplicates(self):
        with pytest.raises(GraphError):
            make_graph(3, [(0, 1, 0.5), (0, 1, 0.4)])

    def test_rejects_bad_weights(self):
        with pytest.raises(GraphError):
            make_graph(2, [(0, 1, 0.0)])
        with pytest.raises(GraphError):
            make_graph(2, [(0, 1, 1.5)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights(self, bad):
        # NaN compares false both ways, so a range check alone lets it through
        with pytest.raises(GraphError, match="finite"):
            make_graph(3, [(0, 1, 0.5), (1, 2, bad)])

    def test_degrees_and_volume(self):
        g = make_graph(3, [(0, 1, 0.5), (1, 2, 0.25)])
        assert np.allclose(g.degrees(), [0.5, 0.75, 0.25])
        assert g.volume == pytest.approx(1.5)


class TestKnnEdges:
    def test_two_nodes(self):
        block = corpus_from_rows([[1, 0], [0.6, 0.8]])
        with pytest.warns(UserWarning, match="clamping"):
            edges, trace = build_knn_edges(block_oracle(block), k_max=5)
        u, v, w = edges
        assert trace.chosen_k == 1
        assert u.tolist() == [0] and v.tolist() == [1]

    def test_two_separated_pairs_choose_k1(self):
        # cos 1 within pairs, exactly 0 across: the extra floor-weight edges at
        # k = 2 cannot beat the uniform degree profile of the two-pair matching
        block = corpus_from_rows([[1, 0], [1, 0], [0, 1], [0, 1]])
        edges, trace = build_knn_edges(block_oracle(block), k_max=3)
        u, v, _ = edges
        assert trace.chosen_k == 1
        assert set(zip(u.tolist(), v.tolist())) == {(0, 1), (2, 3)}

    def test_trace_strictly_decreasing_up_to_chosen(self):
        corpus = generate(SynthConfig(num_events=4, points_per_event=30, dim=16, seed=6))
        _, trace = build_knn_edges(block_oracle(corpus), k_max=10)
        accepted = trace.se_values[:trace.chosen_k]
        assert all(b < a for a, b in zip(accepted, accepted[1:]))
        assert trace.chosen_k <= 10

    def test_duplicated_vectors_terminate(self):
        block = corpus_from_rows([[1, 0]] * 5)
        edges, trace = build_knn_edges(block_oracle(block), k_max=4)
        assert trace.chosen_k == 1
        u, v, w = edges
        # top-1 with all-equal similarities picks the smallest other id
        assert set(zip(u.tolist(), v.tolist())) == {(0, 1), (0, 2), (0, 3), (0, 4)}

    def test_small_block_rejected(self):
        # a 1-record block has no sensitivity report, so no oracle to build from
        block = corpus_from_rows([[1, 0]])
        with pytest.raises(PrivacyError, match="at least 2 records"):
            build_knn_edges(block_oracle(block), k_max=1)

    def test_mutual_pair_keeps_smaller_endpoints_weight(self):
        # Row i's cosine of (i, j) and row j's of (j, i) come from different
        # matrix products and can differ in the last ulp (at n = 513, with the
        # noise off, in 8 of the mutual top-40 pairs). The edge keeps row
        # min(i, j)'s value: it comes first in row-major order.
        block = block_513()
        n, k = len(block), 40
        nbrs, sims = top_neighbor_table(block_oracle(block), k)
        u, v, w = _dedupe_undirected(n, np.repeat(np.arange(n), k), nbrs.ravel(), sims.ravel())
        row_value = {(i, int(j)): s for i in range(n) for j, s in zip(nbrs[i], sims[i])}
        mutual = [(a, b) for a, b in zip(u.tolist(), v.tolist())
                  if (a, b) in row_value and (b, a) in row_value]
        assert sum(row_value[a, b] != row_value[b, a] for a, b in mutual) > 0
        assert w.tolist() == [row_value[(a, b) if (a, b) in row_value else (b, a)]
                              for a, b in zip(u.tolist(), v.tolist())]


def tie_heavy_block():
    """20 records on 5 directions (4 axes and the all-0.5 diagonal), duplicated and
    shuffled: the exact similarities are only 1, 0.5 and 0, in large tie groups."""
    dirs = [[1, 0, 0, 0]] * 5 + [[0, 1, 0, 0]] * 5 + [[0, 0, 1, 0]] * 4 \
        + [[0.5, 0.5, 0.5, 0.5]] * 3 + [[0, 0, 0, 1]] * 3
    order = np.random.default_rng(3).permutation(len(dirs))
    return corpus_from_rows([dirs[i] for i in order])


def dyadic_block():
    return corpus_from_rows(dyadic_embeddings(23, seed=4))


def chunked_oracle(block, chunk_rows, **kwargs):
    """block_oracle with row chunks chunk_rows high; a height below n - 1
    must cut the block into more than one chunk."""
    oracle = block_oracle(block, chunk_rows=chunk_rows, **kwargs)
    if chunk_rows is not None and chunk_rows < len(block) - 1:
        assert len(oracle.pairs.row_chunks) > 1
    return oracle


def selection_rows(rng, k, ties, padded):
    """Random (rows, m) values with at least k finite cells per row, and the
    ids of their slots. ties draws integer-valued floats, whose zeros carry
    either sign. Unpadded: -inf at random cells (as the dense path's
    diagonal) and ids None. Padded: -inf at the end of each row under
    arbitrary ids, the other slots' ids ascending, as _noisy_candidates
    leaves them."""
    h, m = int(rng.integers(1, 40)), k + int(rng.integers(1, 40))
    if ties:
        vals = rng.integers(-3, 4, size=(h, m)).astype(float)
        zeros = vals == 0.0
        vals[zeros] *= rng.choice([-1.0, 1.0], size=int(zeros.sum()))
    else:
        vals = rng.normal(size=(h, m))
    finite = rng.integers(k, m + 1, size=h)
    if not padded:
        vals[rng.random((h, m)).argsort(axis=1) >= finite[:, None]] = -np.inf
        return vals, None
    vals[np.arange(m) >= finite[:, None]] = -np.inf
    cols = rng.integers(0, 3 * m, size=(h, m))
    for row, f in zip(cols, finite):
        row[:f] = np.sort(rng.choice(3 * m, f, replace=False))
    return vals, cols


class TestRowSelection:
    """_top_k and _kth_mask against the partition selection of tests/oracles.py.
    Each leaves vals as it was, bit for bit."""

    WIDTHS = [*range(1, 13), 40]

    @pytest.mark.parametrize("k", WIDTHS)
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("padded", [False, True])
    def test_top_k_matches_partition(self, k, ties, padded):
        rng = np.random.default_rng([k, ties, padded])
        for _ in range(10):
            vals, cols = selection_rows(rng, k, ties, padded)
            before = vals.copy()
            ref_ids, ref_vals = partition_top_k(vals, k, cols)
            ids, got = graphsynth._top_k(vals, k, cols)
            assert np.array_equal(ids, ref_ids)
            assert np.array_equal(got.view(np.int64), ref_vals.view(np.int64))
            assert np.array_equal(vals.view(np.int64), before.view(np.int64))

    @pytest.mark.parametrize("k", WIDTHS)
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("tile_elems", [None, 64])  # 64: several tiles per call
    def test_kth_mask_matches_partition(self, monkeypatch, k, ties, tile_elems):
        if tile_elems is not None:
            monkeypatch.setattr(graphsynth, "NOISE_TILE_ELEMS", tile_elems)
        rng = np.random.default_rng([k, ties, tile_elems or 0])
        work = ChunkWorkspace()
        for _ in range(10):
            vals, _ = selection_rows(rng, k, ties, padded=False)
            before = vals.copy()
            for b in (0.0, 0.5, float(rng.uniform(0.0, 2.0))):
                ref = partition_kth_mask(vals, k, b)
                assert np.array_equal(graphsynth._kth_mask(vals, k, b, work), ref)
                assert np.array_equal(vals.view(np.int64), before.view(np.int64))


class TestTopNeighborTable:
    @pytest.mark.parametrize("make_block, epsilon, k_max, chunk_rows", [
        (tie_heavy_block, None, 7, 512),    # k-th value inside a tie group
        (tie_heavy_block, None, 19, 512),   # k_max = n - 1
        (tie_heavy_block, None, 7, 3),      # ties across chunk boundaries
        (dyadic_block, 1.0, 5, 3),          # noisy rows, lo > 0, ragged last chunk
        (dyadic_block, 1.0, 22, 3),
    ])
    def test_matches_full_row_sort(self, make_block, epsilon, k_max, chunk_rows):
        block = make_block()
        oracle = chunked_oracle(block, chunk_rows, epsilon=epsilon, mode="global", seed=11)
        nbrs, sims = top_neighbor_table(oracle, k_max)
        ref_nbrs, ref_sims = lexsort_top_neighbors(oracle.noisy_rows(0, len(block)), k_max)
        assert np.array_equal(nbrs, ref_nbrs)
        assert np.array_equal(sims, ref_sims)

    @pytest.mark.parametrize("epsilon", [None, 1.0])
    def test_chunk_height_does_not_change_the_table(self, epsilon):
        # at n = 513, 512-row chunks used to leave a 1-row chunk whose product
        # rounds some cosines differently from a 513-row one
        block = block_513()
        ref_nbrs, ref_sims = top_neighbor_table(
            block_oracle(block, epsilon=epsilon, mode="global", seed=5, chunk_rows=513), 10)
        oracle = block_oracle(block, epsilon=epsilon, mode="global", seed=5, chunk_rows=512)
        assert oracle.pairs.row_chunks == [(0, 513)]
        nbrs, sims = top_neighbor_table(oracle, 10)
        assert np.array_equal(nbrs, ref_nbrs)
        assert np.array_equal(sims, ref_sims)


def table_and_path(monkeypatch, oracle, k_max):
    """top_neighbor_table, and whether the pruned path ran."""
    calls = []
    candidates = graphsynth._noisy_candidates

    def spy(*args):
        calls.append(args)
        return candidates(*args)

    monkeypatch.setattr(graphsynth, "_noisy_candidates", spy)
    nbrs, sims = top_neighbor_table(oracle, k_max)
    return nbrs, sims, bool(calls)


def switch_epsilon(block, chunk_rows=None, mode="smooth"):
    """(below, above): epsilons of mode on either side of the one at which
    2 * noise_bound crosses s_local (bisection: the ratio falls as epsilon
    grows), with row chunks chunk_rows high. below is dense by its bound."""
    pairs = block_oracle(block, chunk_rows=chunk_rows).pairs

    def ratio(eps):
        oracle = SimilarityOracle(pairs, PrivacyParams(epsilon=eps, sensitivity_mode=mode))
        return 2.0 * oracle.noise_bound / oracle.report.s_local

    lo, hi = 0.01, 50.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ratio(mid) >= 1.0 else (lo, mid)
    return lo, hi


class TestPrunedTable:
    """The pruned path gives the same table as a full sort of the dense rows."""

    @pytest.mark.parametrize("make_block, mode, epsilon, k_max, chunk_rows", [
        (tie_heavy_block, "smooth", 1.5, 7, 512),
        (tie_heavy_block, "mixed", 1.5, 7, 3),   # ties across chunk boundaries
        (tie_heavy_block, "mixed", 1.5, 19, 3),  # k_max = n - 1: every cell reachable
        (tie_heavy_block, "smooth", 8.0, 7, 4),  # bound ~1e-8: exact ties broken by noise
        (dyadic_block, "mixed", 1.5, 5, 3),
        (dyadic_block, "smooth", 2.5, 22, None),
        (block_513, "mixed", 1.0, 10, 100),
        (block_513, "smooth", 2.0, 40, 2),
    ])
    def test_matches_full_row_sort(self, monkeypatch, make_block, mode, epsilon, k_max,
                                   chunk_rows):
        block = make_block()
        oracle = chunked_oracle(block, chunk_rows, epsilon=epsilon, mode=mode, seed=11)
        assert 0.0 < 2.0 * oracle.noise_bound < oracle.report.s_local
        nbrs, sims, pruned = table_and_path(monkeypatch, oracle, k_max)
        assert pruned
        ref_nbrs, ref_sims = lexsort_top_neighbors(oracle.noisy_rows(0, len(block)), k_max)
        assert np.array_equal(nbrs, ref_nbrs)
        assert np.array_equal(sims, ref_sims)

    @pytest.mark.parametrize("make_block", [dyadic_block, block_513])
    def test_either_side_of_the_bound_switch(self, monkeypatch, make_block):
        block = make_block()
        for chunk_rows in (3, None):
            below, above = switch_epsilon(block, chunk_rows)
            for eps, expect_pruned in ((below, False), (above, True)):
                oracle = chunked_oracle(block, chunk_rows, epsilon=eps, mode="smooth", seed=2)
                assert (2.0 * oracle.noise_bound < oracle.report.s_local) == expect_pruned
                ref = lexsort_top_neighbors(oracle.noisy_rows(0, len(block)), 5)
                nbrs, sims, pruned = table_and_path(monkeypatch, oracle, 5)
                assert pruned == expect_pruned
                assert np.array_equal(nbrs, ref[0]) and np.array_equal(sims, ref[1])

    @pytest.mark.parametrize("epsilon, chunk_rows, least_share", [
        (1.5, None, 0.04),
        (1.5, 2, 0.05),
        (1.0, None, 0.33),  # a third of the first chunk reachable: still pruned
        (1.0, 2, 0.33),
    ])
    def test_reachable_share_does_not_pick_the_path(self, monkeypatch, epsilon, chunk_rows,
                                                    least_share):
        # the share of the first chunk's cells that can reach their row's
        # top 10 grows as epsilon falls; the bound alone decides, so the
        # block prunes at either share
        block = block_513()
        oracle = chunked_oracle(block, chunk_rows, epsilon=epsilon, seed=5)
        assert 0.0 < 2.0 * oracle.noise_bound < oracle.report.s_local
        shares = []
        kth_mask = graphsynth._kth_mask

        def spy(*args):
            mask = kth_mask(*args)
            shares.append(np.count_nonzero(mask) / mask.size)
            return mask

        monkeypatch.setattr(graphsynth, "_kth_mask", spy)
        nbrs, sims, pruned = table_and_path(monkeypatch, oracle, 10)
        assert pruned and len(shares) == len(oracle.pairs.row_chunks)
        assert least_share < shares[0] < least_share + 0.01
        ref_nbrs, ref_sims = lexsort_top_neighbors(oracle.noisy_rows(0, len(block)), 10)
        assert np.array_equal(nbrs, ref_nbrs) and np.array_equal(sims, ref_sims)

    @pytest.mark.parametrize("epsilon", [None, 3.0])
    def test_off_and_global_noise_stay_dense(self, monkeypatch, epsilon):
        # global mode: the bound is 36.7 * 2 / eps, far above any spread
        block = dyadic_block()
        oracle = block_oracle(block, epsilon=epsilon, mode="global")
        assert not table_and_path(monkeypatch, oracle, 5)[2]


def test_shared_workspace_leaves_no_stale_state(monkeypatch):
    # one workspace serves tables of other block sizes, chunk heights and
    # paths in turn (the dense path's per-chunk workspaces too); each must
    # equal the table built with new workspaces
    calls = []
    candidates = graphsynth._noisy_candidates

    def spy(*args):
        calls.append(args)
        return candidates(*args)

    monkeypatch.setattr(graphsynth, "_noisy_candidates", spy)
    big, small = block_513(), dyadic_block()
    cases = []
    for block, mode, epsilon, k_max, chunk_rows, pruned in [
        (big, "mixed", 1.5, 10, 100, True),
        (small, "mixed", 1.5, 5, None, True),
        (small, "global", 3.0, 5, None, False),
        (big, "mixed", 1.5, 10, None, True),
    ]:
        oracle = chunked_oracle(block, chunk_rows, epsilon=epsilon, mode=mode, seed=5)
        calls.clear()
        ref = top_neighbor_table(oracle, k_max)
        assert bool(calls) == pruned
        cases.append((oracle, k_max, ref))
    shared = ChunkWorkspace()
    monkeypatch.setattr(graphsynth, "ChunkWorkspace", lambda: shared)
    for oracle, k_max, (ref_nbrs, ref_sims) in cases:
        nbrs, sims = top_neighbor_table(oracle, k_max)
        assert np.array_equal(nbrs, ref_nbrs)
        assert np.array_equal(sims.view(np.int64), ref_sims.view(np.int64))


def duplicated_block():
    """60 records on the 24 dyadic directions: every row has exact ties, most
    of them at any column a table cuts at."""
    return corpus_from_rows(dyadic_embeddings(60, seed=9))


@pytest.mark.parametrize("make_block", [duplicated_block, block_513])
@pytest.mark.parametrize("epsilon, mode", [
    (None, "mixed"),
    (1.0, "global"),    # the bound exceeds every spread: dense
    (1.5, "mixed"),
    (15.0, "mixed"),    # noise far below an ulp: the exact ties survive it
])
@pytest.mark.parametrize("min_ratio", [0.0, 1.0])  # 1.0: dense, at an epsilon no larger
def test_narrow_table_is_a_prefix_of_the_wide_one(monkeypatch, make_block, epsilon, mode,
                                                   min_ratio):
    # min_ratio is the least 2 * noise_bound / s_local the table is built
    # at: 1.0 lowers epsilon (off counts as infinite) to the dense side of
    # the bound switch where the case's own epsilon is on the pruned side
    block = make_block()
    for chunk_rows in (None, 7, 100):
        eps = epsilon
        if min_ratio:
            below = switch_epsilon(block, chunk_rows, mode)[0]
            eps = below if epsilon is None else min(epsilon, below)
        oracle = chunked_oracle(block, chunk_rows, epsilon=eps, mode=mode, seed=4)
        prunable = 0.0 < 2.0 * oracle.noise_bound < oracle.report.s_local
        assert prunable == (not min_ratio and mode == "mixed" and epsilon is not None)
        for k_max in (10, 40):
            wide_nbrs, wide_sims, pruned = table_and_path(monkeypatch, oracle, k_max)
            assert pruned == prunable
            for w in (1, 2, 3, 7):
                nbrs, sims, pruned = table_and_path(monkeypatch, oracle, w)
                assert pruned == prunable
                assert np.array_equal(nbrs, wide_nbrs[:, :w])
                assert np.array_equal(sims.view(np.int64), wide_sims[:, :w].view(np.int64))


def planned_block(block, mode, epsilons):
    """BlockPairs of block that plans the grid of epsilons, and the grid."""
    grid = tuple(PrivacyParams(epsilon=e, sensitivity_mode=mode) for e in epsilons)
    return BlockPairs(block, 0, 4, grid), grid


def one_pass_tables(monkeypatch, pairs, oracles, k_max):
    """The table of each oracle (a view of pairs) in turn, and [scales, pruned]
    of each pass that built them."""
    passes = []
    neighbor_tables, candidates = graphsynth._neighbor_tables, graphsynth._noisy_candidates

    def table_pass(pairs, scales, k_max):
        passes.append([len(scales), False])
        return neighbor_tables(pairs, scales, k_max)

    def spy(*args):
        passes[-1][1] = True
        return candidates(*args)

    monkeypatch.setattr(graphsynth, "_neighbor_tables", table_pass)
    monkeypatch.setattr(graphsynth, "_noisy_candidates", spy)
    tables = [top_neighbor_table(oracle, k_max) for oracle in oracles]
    assert pairs.neighbor_tables == {}  # every parked table was taken
    monkeypatch.setattr(graphsynth, "_neighbor_tables", neighbor_tables)
    monkeypatch.setattr(graphsynth, "_noisy_candidates", candidates)
    return tables, passes


@pytest.mark.parametrize("make_block", [duplicated_block, block_513])
@pytest.mark.parametrize("mode, epsilons", [
    ("global", (1.0, 2.0, 10.0, None)),      # dense: the bound exceeds every spread
    ("mixed", (1.5, 3.0, 15.0, None, 10.0)),  # prunable; 15 and 10 leave the ties exact
    ("smooth", (2.5, 1.5, 8.0, None)),
])
@pytest.mark.parametrize("min_ratio", [0.0, 1.0])  # 1.0: dense, by one more grid point
@pytest.mark.parametrize("k_max", [1, 2, 40])
def test_one_pass_tables_equal_one_oracle_tables(monkeypatch, make_block, mode, epsilons,
                                                 min_ratio, k_max):
    # min_ratio is the least 2 * noise_bound / s_local of the grid's largest
    # scale: 1.0 adds the epsilon on the dense side of the bound switch, so
    # the one pass is dense for every grid point, ties and all
    block = make_block()
    if min_ratio:
        epsilons += (switch_epsilon(block, None, mode)[0],)
    pairs, grid = planned_block(block, mode, epsilons)
    oracles = [SimilarityOracle(pairs, params) for params in grid]
    tables, passes = one_pass_tables(monkeypatch, pairs, oracles, k_max)
    largest = max(oracles, key=lambda oracle: oracle.noise_scale)
    prunable = 0.0 < 2.0 * largest.noise_bound < largest.report.s_local
    assert prunable == (not min_ratio and mode != "global")
    assert passes == [[len(epsilons), prunable]]
    for epsilon, (nbrs, sims) in zip(epsilons, tables):
        ref_nbrs, ref_sims = top_neighbor_table(block_oracle(block, epsilon=epsilon, mode=mode,
                                                             seed=4), k_max)
        assert np.array_equal(nbrs, ref_nbrs)
        assert np.array_equal(sims.view(np.int64), ref_sims.view(np.int64))


def test_grid_point_whose_noise_overflows_raises_at_its_own_oracle(monkeypatch):
    # 1e-310 gives a noise scale of 2 / 1e-310 = inf: it is left out of the
    # plan, and its oracle raises as without a grid. The repeated epsilon
    # finds its table taken and builds its own.
    block = duplicated_block()
    epsilons = (1e-310, 2.0, 2.0, None)
    pairs, grid = planned_block(block, "global", epsilons)
    oracles = [SimilarityOracle(pairs, params) for params in grid[1:]]
    tables, passes = one_pass_tables(monkeypatch, pairs, oracles, 2)
    assert passes == [[2, False], [1, False]]
    with pytest.raises(PrivacyError, match="overflows float64"):
        SimilarityOracle(pairs, grid[0])
    for epsilon, (nbrs, sims) in zip(epsilons[1:], tables):
        ref_nbrs, ref_sims = top_neighbor_table(block_oracle(block, epsilon=epsilon,
                                                             mode="global", seed=4), 2)
        assert np.array_equal(nbrs, ref_nbrs)
        assert np.array_equal(sims.view(np.int64), ref_sims.view(np.int64))


def small_random_block(seed):
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(4, 12)), int(rng.integers(2, 4))
    return corpus_from_rows(rng.normal(size=(n, dim)))


def assert_same_scan(oracle, k_max):
    (u, v, w), trace = build_knn_edges(oracle, k_max)
    (ref_u, ref_v, ref_w), ref_trace = full_width_knn_edges(oracle, k_max)
    for got, ref in ((u, ref_u), (v, ref_v), (w, ref_w)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert trace.to_dict() == ref_trace.to_dict()
    return trace


NOISE = [(None, "mixed"), (2.0, "global"), (1.0, "mixed")]

# (seed of small_random_block, k_max, the k the rule picks) per noise setting
# of NOISE, pinned at the full-width scan; k = k_max when it never stops
SMALL_SCANS = {
    (None, "mixed"): [(0, 6, 1), (3, 6, 2), (7, 6, 3), (75, 6, 4), (166, 6, 6)],
    (2.0, "global"): [(0, 6, 1), (8, 6, 2), (16, 6, 3), (3, 6, 4), (159, 6, 6)],
    (1.0, "mixed"): [(0, 6, 1), (22, 6, 2), (8, 6, 3), (31, 6, 4), (66, 6, 6)],
}


class TestNarrowScan:
    """build_knn_edges on narrow tables returns what the full-width scan did."""

    @pytest.mark.parametrize("epsilon, mode", NOISE)
    def test_small_random_blocks(self, epsilon, mode):
        for seed, k_max, chosen in SMALL_SCANS[epsilon, mode]:
            oracle = block_oracle(small_random_block(seed), epsilon=epsilon, mode=mode, seed=seed)
            assert assert_same_scan(oracle, k_max).chosen_k == chosen

    @pytest.mark.parametrize("epsilon, mode", NOISE)
    def test_k_max_one_and_the_clamp(self, epsilon, mode):
        for seed in (0, 3, 7, 166):
            block = small_random_block(seed)
            oracle = block_oracle(block, epsilon=epsilon, mode=mode, seed=seed)
            assert assert_same_scan(oracle, 1).ks == [1]
            for k_max in (len(block) - 1, len(block), 40):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # the clamping warning
                    assert_same_scan(oracle, k_max)

    @pytest.mark.parametrize("events, points, share, blocks, epsilons, mode", [
        (25, 200, 0.0, [0], [1.0], "mixed"),                 # sim-knn
        (4, 125, 0.8, range(24), [15.0], "mixed"),           # attr-blocks
        (8, 150, 0.5, [0], range(1, 11), "global"),          # eps-sweep
    ], ids=["sim-knn", "attr-blocks", "eps-sweep"])
    def test_seed_7_benchmark_shapes(self, events, points, share, blocks, epsilons, mode):
        # each block as the benchmark generates it, at its epsilons and with the noise off
        for b in blocks:
            block = generate(SynthConfig(num_events=events, points_per_event=points, dim=32,
                                         attribute_sharing_prob=share, seed=7000 + b))
            pairs = BlockPairs(block, b, seed=7)
            for epsilon in epsilons:
                oracle = SimilarityOracle(pairs, PrivacyParams(epsilon=epsilon,
                                                               sensitivity_mode=mode))
                assert_same_scan(oracle, 40)
            assert_same_scan(block_oracle(block, epsilon=None, block_id=b, seed=7), 40)


@pytest.mark.parametrize("seed, k_max, expected", [
    (0, 6, [2]),       # chosen k = 1: the scan stops at k = 2
    (0, 1, [1]),
    (3, 2, [2]),       # chosen k = 2 = k_max: nothing past the narrow table
    (3, 6, [2, 6]),    # chosen k = 2: the scan reads k = 3
    (3, 9, [2, 9]),    # k_max = n - 1
    (75, 6, [2, 6]),   # chosen k = 4
    (166, 6, [2, 6]),  # chosen k = k_max
    (166, 10, [2, 10]),  # chosen k = 6: still one retry, at k_max
])
def test_table_width_contract(monkeypatch, seed, k_max, expected):
    widths = []
    table = graphsynth.top_neighbor_table

    def spy(oracle, k_max):
        widths.append(k_max)
        return table(oracle, k_max)

    monkeypatch.setattr(graphsynth, "top_neighbor_table", spy)
    _, trace = build_knn_edges(block_oracle(small_random_block(seed), seed=seed), k_max)
    assert widths == expected
    assert (len(trace.ks) > 2) == (len(widths) == 2)


def test_build_graph_peak_memory_is_flat():
    # Every O(n^2) pass works on row chunks of ROW_CHUNK_ELEMS cells, so the
    # peak is a few chunk temporaries plus a few n x k_max tables, whatever n
    # is. numpy reports its buffers to tracemalloc. 512-row chunks peaked at
    # 73 MB here (local sensitivity alone used 1,677-row chunks).
    import tracemalloc

    block = generate(SynthConfig(num_events=15, points_per_event=200, dim=32,
                                 attribute_sharing_prob=0.0, seed=1))
    n, k_max = len(block), 40
    bound = 8 * (6 * ROW_CHUNK_ELEMS + 6 * n * k_max)
    tracemalloc.start()
    try:
        oracle = block_oracle(block, epsilon=1.0, seed=3)
        build_graph(oracle, k_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


class TestAttributeEdges:
    def test_no_attributes(self):
        block = corpus_from_rows([[1, 0], [0, 1]])
        u, v, w = build_attribute_edges(block_oracle(block))
        assert u.size == 0

    def test_shared_token_triangle(self):
        attrs = [{"entity": {"x"}}] * 3
        block = corpus_from_rows([[1, 0], [0.9, 0.1], [0, 1]], attrs)
        u, v, w = build_attribute_edges(block_oracle(block))
        assert set(zip(u.tolist(), v.tolist())) == {(0, 1), (0, 2), (1, 2)}

    def test_sharing_across_categories(self):
        attrs = [{"entity": {"x"}}, {"mention": {"x"}}, {"entity": {"x"}}]
        block = corpus_from_rows([[1, 0], [0.5, 0.5], [0, 1]], attrs)
        u, v, _ = build_attribute_edges(block_oracle(block))
        # tokens only match within the same category
        assert set(zip(u.tolist(), v.tolist())) == {(0, 2)}

    def test_weights_equal_oracle_values(self, rng):
        emb = rng.normal(size=(6, 4))
        attrs = [{"entity": {"t"}} for _ in range(6)]
        block = corpus_from_rows(emb, attrs)
        oracle = block_oracle(block, epsilon=2.0, mode="global", seed=3)
        u, v, w = build_attribute_edges(oracle)
        assert u.size == 15
        for a, b, wt in zip(u.tolist(), v.tolist(), w.tolist()):
            assert wt == min(max(oracle.noisy_pairs([b], [a])[0], W_FLOOR), 1.0)


class TestSynthesizeGraph:
    def test_attr_empty_gives_se_graph(self):
        block = corpus_from_rows([[1, 0], [0.9, 0.1], [0, 1]])
        oracle = block_oracle(block)
        se_edges, _ = build_knn_edges(oracle, k_max=2)
        g = synthesize_graph(3, se_edges, build_attribute_edges(oracle))
        assert g.num_edges == se_edges[0].size
        assert set(g.provenance.tolist()) == {1}

    def test_overlap_marked_both_weight_unchanged(self):
        attrs = [{"entity": {"x"}}, {"entity": {"x"}}, {}, {}]
        block = corpus_from_rows([[1, 0], [1, 0], [0, 1], [0, 1]], attrs)
        oracle = block_oracle(block)
        se_edges, _ = build_knn_edges(oracle, k_max=1)
        attr_edges = build_attribute_edges(oracle)
        g = synthesize_graph(4, se_edges, attr_edges)
        both = [(u, v, w) for u, v, w, p in zip(g.u.tolist(), g.v.tolist(), g.w.tolist(),
                                                g.provenance.tolist()) if p == 3]
        assert both == [(0, 1, 1.0)]

    def test_both_keeps_se_value(self):
        se_edges = (np.array([0, 1]), np.array([1, 2]), np.array([0.25, 0.5]))
        attr_edges = (np.array([0, 0]), np.array([1, 3]), np.array([0.75, 0.125]))
        g = synthesize_graph(4, se_edges, attr_edges)
        assert list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist(), g.provenance.tolist())) == [
            (0, 1, 0.25, 3), (0, 3, 0.125, 2), (1, 2, 0.5, 1)]

    def test_union_bound(self, rng):
        corpus = generate(SynthConfig(num_events=3, points_per_event=20, dim=8, seed=8))
        oracle = block_oracle(corpus)
        se_edges, _ = build_knn_edges(oracle, k_max=3)
        attr_edges = build_attribute_edges(oracle)
        g = synthesize_graph(len(corpus), se_edges, attr_edges)
        assert g.num_edges <= se_edges[0].size + attr_edges[0].size


class TestReproducibility:
    def test_identical_inputs_identical_graph(self):
        corpus = generate(SynthConfig(num_events=3, points_per_event=25, dim=16, seed=12))
        g1, t1 = build_graph(block_oracle(corpus, epsilon=5.0, seed=21), k_max=8)
        g2, t2 = build_graph(block_oracle(corpus, epsilon=5.0, seed=21), k_max=8)
        assert np.array_equal(g1.u, g2.u) and np.array_equal(g1.v, g2.v)
        assert np.array_equal(g1.w, g2.w)
        assert t1.to_dict() == t2.to_dict()

    def test_weights_clipped_and_se_finite(self):
        corpus = generate(SynthConfig(num_events=2, points_per_event=30, dim=8, seed=13))
        g, _ = build_graph(block_oracle(corpus, epsilon=0.5, mode="global", seed=5), k_max=5)
        assert g.w.min() >= W_FLOOR
        assert g.w.max() <= 1.0
        assert math.isfinite(one_dim_se(g))
