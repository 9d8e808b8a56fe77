"""Every name the benchmark looks up in dpevent still exists.

perfbench/spans.py wraps the functions in its TRACED table, looked up with
getattr and no default, and perfbench/worker.py times two CLI stages by name.
A refactor that deletes or renames one of them breaks the benchmark, which
only the slow perfbench smoke test runs. This test reads perfbench/ and
changes nothing in it or in dpevent.
"""

import ast
import importlib
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from conftest import make_graph
from oracles import random_graph

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
