"""Every name the benchmark looks up in dpevent still exists, and its counters count.

perfbench/spans.py wraps the functions in its TRACED table, looked up with
getattr and no default, and perfbench/worker.py times two CLI stages by name.
The COUNTERS of spans.py read the arguments and results of their spans by
position. A refactor that deletes or renames one of them, or moves an
argument a counter reads, breaks the benchmark, which only the slow perfbench
smoke test runs. This test reads perfbench/ and changes nothing in it or in
dpevent: the spans it wraps are restored after each test.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from conftest import make_graph
from oracles import random_graph

from dpevent import cli
from dpevent.corpus import Corpus, MessageRecord, SynthConfig, export, generate, split_blocks
from dpevent.persist import read_graph_tsv, read_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stage_timers():
    """(module variable, name) of each _stage_timer(...) call in worker.py."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    return [(call.args[0].id, call.args[1].value) for call in ast.walk(tree)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_stage_timer"]


SPANS = load_spans()
TRACED = [(module, name) for module, names in SPANS.TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_resolves(module, name):
    home = importlib.import_module(f"dpevent.{module}")
    if "." in name:
        cls_name, method = name.split(".")
        assert callable(vars(getattr(home, cls_name))[method])  # replaced on the class
    else:
        assert callable(getattr(home, name))


def test_counters_hook_traced_spans():
    traced = {f"{module}.{name}" for module, name in TRACED}
    assert set(SPANS.COUNTERS) <= traced


def test_worker_stage_timers_resolve():
    timers = stage_timers()
    assert timers == [("cli", "_build_block_graph"), ("cli", "cluster")]
    cli = importlib.import_module("dpevent.cli")
    for _, name in timers:
        assert callable(getattr(cli, name))


def test_merge_counter_reads_edges_and_merges(rng):
    # _count_merges takes the length of the first positional argument as the
    # input edges and the length of the result as the accepted merges
    from dpevent.entropy import _community_aggregates, minimize_edges
    assert list(inspect.signature(minimize_edges).parameters)[:3] == ["ea", "eb", "ew"]
    n, u, v, w = random_graph(rng, min_n=30, max_n=40)
    graph = make_graph(n, list(zip(u.tolist(), v.tolist(), w.tolist())))
    vol, V, g, ilog, ea, eb, ew = _community_aggregates(graph, np.arange(n))
    args = (ea, eb, ew, V, g, ilog, np.arange(n), vol)
    result = minimize_edges(*args)
    counts = defaultdict(int)
    SPANS._count_merges(counts, args, result)
    merged = int((args[6] != np.arange(n)).sum())  # each merge points one parent away
    assert merged > 0
    assert dict(counts) == {"merge_calls": 1, "merge_input_edges": ea.size, "merges": merged}


def install_counters(monkeypatch, tracer):
    """Wrap each COUNTERS span as Tracer.install does, through monkeypatch."""
    modules = [m for key, m in sys.modules.items() if key.startswith("dpevent.")]
    for span in SPANS.COUNTERS:
        module_name, name = span.split(".", 1)
        home = importlib.import_module(f"dpevent.{module_name}")
        if "." in name:
            cls_name, method = name.split(".")
            cls = getattr(home, cls_name)
            monkeypatch.setattr(cls, method, tracer.wrap(span, vars(cls)[method]))
            continue
        original = getattr(home, name)
        wrapper = tracer.wrap(span, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)


def test_counters_count_a_real_run(tmp_path, monkeypatch):
    # two blocks that share tokens, built in global mode at epsilon 1: the
    # noise bound (73.5) exceeds every spread, so each block draws its n^2
    # dense cells plus one unit draw per attribute pair
    records = []
    for b, points in enumerate((12, 9)):
        block = generate(SynthConfig(num_events=3, points_per_event=points, dim=8,
                                     attribute_sharing_prob=0.6, seed=60 + b))
        records += [MessageRecord(id=f"b{b}_{r.id}", block=b, embedding=r.embedding,
                                  attributes=r.attributes, label=r.label)
                    for r in block.records]
    path = tmp_path / "corpus.jsonl"
    export(Corpus(records), path)
    gdir, cdir = tmp_path / "g", tmp_path / "c"
    tracer = SPANS.Tracer()
    install_counters(monkeypatch, tracer)
    assert cli.main(["build-graph", "--input", str(path), "--out", str(gdir), "--epsilon", "1",
                     "--mode", "global", "--kmax", "5"]) == 0
    assert cli.main(["cluster", "--graphs", str(gdir), "--out", str(cdir), "--q0", "4"]) == 0

    views = split_blocks(Corpus(records))
    sizes = [len(view) for view in views]
    attr = [view.attribute_pairs()[0].size for view in views]
    sidecars = [read_json(gdir / f"graph_block{b}.json") for b in range(2)]
    graphs = [read_graph_tsv(gdir / f"graph_block{b}.tsv", s["nodes"])
              for b, s in enumerate(sidecars)]
    prov = sum(np.bincount(g.provenance, minlength=4) for g in graphs)
    runs = [read_json(cdir / f"run_block{b}.json") for b in range(2)]
    assert min(attr) > 0 and all(s["knn_trace"]["chosen_k"] >= 1 for s in sidecars)
    expected = {
        "pairs": sum(n * (n - 1) // 2 for n in sizes),  # _count_oracle
        "draws": sum(n * n + a for n, a in zip(sizes, attr)),  # _count_draws
        "blocks": 2,  # _count_graph
        "edges": sum(s["num_edges"] for s in sidecars),
        "edges_se": int(prov[1]), "edges_attr": int(prov[2]), "edges_both": int(prov[3]),
        "knn_k_tried": sum(len(s["knn_trace"]["ks"]) for s in sidecars),
        "chosen_k_sum": sum(s["knn_trace"]["chosen_k"] for s in sidecars),
        "attr_pairs": sum(attr),  # _count_attr
        "graph_bytes": sum((gdir / f"graph_block{b}.tsv").stat().st_size for b in range(2)),
        "rounds": sum(len(r["rounds"]) for r in runs),  # _count_cluster
        "stalled_rounds": sum(rd["stable"] for r in runs for rd in r["rounds"]),
        "communities": sum(r["num_communities"] for r in runs),
        "merges": sum(n - r["num_communities"] for n, r in zip(sizes, runs)),  # _count_merges
    }
    counts = dict(tracer.counts)
    assert counts.pop("merge_calls") > 0 and counts.pop("merge_input_edges") > 0
    assert counts == expected
