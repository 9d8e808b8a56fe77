"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
from scipy.stats import spearmanr

from conftest import make_graph
from oracles import CommunityState, direct_two_dim_se, enumerate_partitions, random_graph

from dpevent.cli import main
from dpevent.corpus import SynthConfig, export, generate
from dpevent.entropy import Partition, two_dim_se, vanilla_minimize
from dpevent.graphsynth import build_graph, one_dim_se
from dpevent.metrics import ami, ari
from dpevent.partition import cluster
from dpevent.privacy import (BlockPairs, PrivacyParams, SimilarityOracle, sensitivity_report,
                             signed_log_uniforms, substream_uniforms)

ACCEPT_CORPUS = dict(num_events=5, points_per_event=100, dim=32,
                     intra_concentration=20.0, attribute_sharing_prob=0.7)


def _report(name, ok, detail=""):
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def _pipeline_ari(seed, epsilon, mode="mixed", q0=400, pairs=None):
    """ARI and AMI of one pipeline run. pairs is the seed's corpus as a
    BlockPairs at seed + 1000; when given, it is shared across epsilons."""
    if pairs is None:
        pairs = BlockPairs(generate(SynthConfig(seed=seed, **ACCEPT_CORPUS)), 0, seed + 1000)
    params = PrivacyParams(epsilon=epsilon, sensitivity_mode=mode)
    graph, _ = build_graph(SimilarityOracle(pairs, params), k_max=40)
    run = cluster(graph, q0=q0)
    truth = [r.label for r in pairs.block.records]
    pred = run.final.assignment.tolist()
    return ari(truth, pred), ami(truth, pred)


def test_criterion_1_collapse_identities():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n, u, v, w = random_graph(rng, min_n=3, max_n=50)
        g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        h1 = one_dim_se(g)
        worst = max(worst,
                    abs(two_dim_se(g, Partition.singletons(n)) - h1),
                    abs(two_dim_se(g, Partition(np.zeros(n, np.int64))) - h1))
    elapsed = time.perf_counter() - start
    _report("C1 collapse identities", worst < 1e-9 and elapsed < 5.0,
            f"max deviation {worst:.2e}, {elapsed:.1f}s over 200 graphs")


def test_criterion_2_bruteforce_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    greedy_ok = True
    for _ in range(50):
        n, u, v, w = random_graph(rng, min_n=3, max_n=8, density=1.5)
        g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        best = math.inf
        for assign in enumerate_partitions(n):
            direct = direct_two_dim_se(n, u.tolist(), v.tolist(), w.tolist(), assign)
            packaged = two_dim_se(g, Partition.from_labels(assign))
            worst = max(worst, abs(direct - packaged))
            best = min(best, direct)
        h2_greedy = two_dim_se(g, vanilla_minimize(g))
        if not (best - 1e-9 <= h2_greedy <= one_dim_se(g) + 1e-9):
            greedy_ok = False
    elapsed = time.perf_counter() - start
    _report("C2 brute-force oracle", worst < 1e-9 and greedy_ok and elapsed < 60.0,
            f"max |direct - packaged| {worst:.2e}, greedy within bounds, {elapsed:.1f}s")


def test_criterion_3_incremental_correctness():
    rng = np.random.default_rng(303)
    sequences = 0
    worst = 0.0
    while sequences < 1000:
        n, u, v, w = random_graph(rng, min_n=4, max_n=12)
        g = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
        state = CommunityState(g, Partition.singletons(n))
        prev = direct_two_dim_se(n, u.tolist(), v.tolist(), w.tolist(),
                                 state.partition().assignment.tolist())
        for _ in range(int(rng.integers(1, n))):
            alive = np.flatnonzero(state.alive)
            if alive.size < 2:
                break
            a, b = (int(x) for x in rng.choice(alive, size=2, replace=False))
            delta = state.merge_delta(a, b)
            state.apply_merge(a, b)
            cur = direct_two_dim_se(n, u.tolist(), v.tolist(), w.tolist(),
                                    state.partition().assignment.tolist())
            worst = max(worst, abs(delta - (cur - prev)))
            prev = cur
        sequences += 1
    _report("C3 incremental correctness", worst < 1e-9,
            f"max |delta - recompute| {worst:.2e} over 1000 sequences")


def test_criterion_4_dp_ratio():
    start = time.perf_counter()
    sensitivity = 2.0
    n = 1_000_000
    all_ok = True
    details = []
    for epsilon in (1.0, 5.0, 10.0):
        b = sensitivity / epsilon
        c0, c1 = 0.3, 0.3 + sensitivity
        s0 = c0 + b * signed_log_uniforms(substream_uniforms(404, np.arange(n)))
        s1 = c1 + b * signed_log_uniforms(substream_uniforms(404, np.arange(n, 2 * n)))
        edges = np.linspace(c0 - 4 * b, c1 + 4 * b, 51)
        h0, _ = np.histogram(s0, bins=edges)
        h1, _ = np.histogram(s1, bins=edges)

        def cdf(x, mu):
            z = (x - mu) / b
            return np.where(z < 0, 0.5 * np.exp(z), 1 - 0.5 * np.exp(-z))

        e0 = n * np.diff(cdf(edges, c0))
        e1 = n * np.diff(cdf(edges, c1))
        usable = (e0 >= 500) & (e1 >= 500)
        ratio = h0[usable] / np.maximum(h1[usable], 1)
        ok = (usable.sum() >= 3
              and np.all(ratio <= math.exp(epsilon) * 1.1)
              and np.all(ratio >= math.exp(-epsilon) * 0.9))
        all_ok &= ok
        details.append(f"eps={epsilon:g}: {int(usable.sum())} bins ok={ok}")
    elapsed = time.perf_counter() - start
    _report("C4 DP ratio", all_ok and elapsed < 30.0, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_5_sensitivity_logic():
    exact_min = True
    chosen_smooth = True
    for seed in range(3):
        block = generate(SynthConfig(seed=seed, **ACCEPT_CORPUS))
        for epsilon in (0.5, 1.0, 5.0, 10.0, 15.0):
            rep = sensitivity_report(BlockPairs(block, 0, seed), PrivacyParams(epsilon=epsilon))
            if rep.s_mixed != min(2.0, rep.s_smooth):
                exact_min = False
            if epsilon >= 5.0 and rep.chosen != "smooth":
                chosen_smooth = False
    _report("C5 sensitivity logic", exact_min and chosen_smooth,
            "s_mixed = min(2, s_smooth) exact; eps >= 5 chooses smooth on clustered data")


def test_criterion_6_end_to_end_quality():
    start = time.perf_counter()
    scores = [_pipeline_ari(seed, epsilon=None) for seed in range(5)]
    mean_ari = float(np.mean([s[0] for s in scores]))
    mean_ami = float(np.mean([s[1] for s in scores]))
    elapsed = time.perf_counter() - start
    _report("C6 end-to-end quality (eps off)",
            mean_ari >= 0.90 and mean_ami >= 0.90 and elapsed < 120.0,
            f"mean ARI {mean_ari:.4f}, mean AMI {mean_ami:.4f}, {elapsed:.1f}s over 5 seeds")


def test_criterion_7_epsilon_monotonicity():
    seeds = range(10)
    grid = list(range(1, 11))
    scores = {eps: [] for eps in grid + [None]}
    for seed in seeds:
        # one corpus and one epsilon-independent block state per seed
        pairs = BlockPairs(generate(SynthConfig(seed=seed, **ACCEPT_CORPUS)), 0, seed + 1000)
        for eps in scores:
            scores[eps].append(_pipeline_ari(seed, epsilon=None if eps is None else float(eps),
                                             mode="global", pairs=pairs)[0])
    mean_ari = {eps: float(np.mean(values)) for eps, values in scores.items()}
    rho = float(spearmanr(grid, [mean_ari[e] for e in grid]).statistic)
    chain_ok = (mean_ari[1] <= mean_ari[10] + 0.05
                and mean_ari[10] + 0.05 <= mean_ari[None] + 0.05)
    _report("C7 epsilon monotonicity", chain_ok and rho >= 0.7,
            f"ARI(1)={mean_ari[1]:.3f} ARI(10)={mean_ari[10]:.3f} "
            f"ARI(off)={mean_ari[None]:.3f} spearman={rho:.3f}")


def test_criterion_8_metrics_ground_truth():
    rng = np.random.default_rng(808)
    exact = ari([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5
    identity = ami([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0 and ari([3, 3, 5], [1, 1, 0]) == 1.0
    invariant = True
    for _ in range(100):
        n = int(rng.integers(3, 30))
        truth = rng.integers(0, 4, size=n).tolist()
        pred = rng.integers(0, 4, size=n).tolist()
        relabel = rng.permutation(8)
        pred2 = [int(relabel[p]) for p in pred]
        if abs(ari(truth, pred) - ari(truth, pred2)) > 1e-12:
            invariant = False
        if abs(ami(truth, pred) - ami(truth, pred2)) > 1e-12:
            invariant = False
    _report("C8 metrics ground truth", exact and identity and invariant,
            "ari crossed = -0.5 exact; identity = 1.0; permutation-invariant x100")


def test_criterion_9_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    export(generate(SynthConfig(num_events=3, points_per_event=40, dim=16,
                                attribute_sharing_prob=0.7, seed=77)), corpus_path)
    outputs = []
    for tag in ("a", "b"):
        gdir = tmp_path / f"g_{tag}"
        cdir = tmp_path / f"c_{tag}"
        edir = tmp_path / f"e_{tag}"
        assert main(["build-graph", "--input", str(corpus_path), "--out", str(gdir),
                     "--epsilon", "10", "--mode", "mixed", "--seed", "5"]) == 0
        assert main(["cluster", "--graphs", str(gdir), "--out", str(cdir)]) == 0
        assert main(["evaluate", "--input", str(corpus_path), "--partitions", str(cdir),
                     "--out", str(edir)]) == 0
        outputs.append({
            "graph": (gdir / "graph_block0.tsv").read_bytes(),
            "sidecar": (gdir / "graph_block0.json").read_bytes(),
            "partition": (cdir / "partition_block0.csv").read_bytes(),
            "run": (cdir / "run_block0.json").read_bytes(),
            "metrics": (edir / "metrics_block0.json").read_bytes(),
        })
    same = all(outputs[0][k] == outputs[1][k] for k in outputs[0])
    _report("C9 determinism", same, "graph, sidecar, partition, run and metrics byte-identical")


def test_criterion_10_scale_smoke():
    start = time.perf_counter()
    corpus = generate(SynthConfig(num_events=25, points_per_event=200, dim=32,
                                  intra_concentration=20.0, attribute_sharing_prob=0.7,
                                  seed=1010))
    params = PrivacyParams(epsilon=15.0, sensitivity_mode="mixed")
    graph, trace = build_graph(SimilarityOracle(BlockPairs(corpus, 0, 2020), params), k_max=40)
    run = cluster(graph, q0=400)
    elapsed = time.perf_counter() - start
    _report("C10 scale smoke (5000 nodes)",
            elapsed < 600.0 and run.final.n == 5000 and run.final.num_communities >= 2,
            f"{elapsed:.1f}s, {graph.num_edges} edges, "
            f"{run.final.num_communities} communities in {len(run.rounds)} rounds")
