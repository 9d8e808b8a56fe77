"""Span recording by wrapping the public functions of each ``dpevent`` module.

Nothing under ``src/`` is changed: the tracer replaces each traced function
with a wrapper in every ``dpevent`` module namespace that holds it, so names
imported by value (``cli.cluster``, ``partition.minimize_edges``, ...) are
traced where the caller looks them up, and methods are replaced on their
class. A span records name, start, end and parent; a span's self time is its
duration minus the durations of its direct children. Counters are taken from
the arguments and return values at the same boundaries.

Hot per-value helpers (``persist.fmt9``, ``entropy._contribution``) are not
traced: a wrapper per formatted float would cost more than the work.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

# module -> traced names; a dotted name is a method on a class of that module
TRACED = {
    "corpus": ["ingest", "split_blocks"],
    "privacy": ["sensitivity_report", "local_sensitivity", "substream_uniforms",
                "SimilarityOracle.__init__", "SimilarityOracle.noisy_rows",
                "SimilarityOracle.noisy_pairs"],
    "graphsynth": ["build_graph", "build_knn_edges", "top_neighbor_table",
                   "build_attribute_edges", "synthesize_graph", "one_dim_se"],
    "entropy": ["minimize_edges", "_community_aggregates", "two_dim_se"],
    "partition": ["cluster", "build_supergraph", "extract_subgraphs"],
    "persist": ["write_graph_tsv", "read_graph_tsv", "write_partition_csv",
                "read_partition_csv", "write_json", "read_json"],
    "metrics": ["evaluate", "ari", "ami"],
    "cli": ["main", "_build_block_graph", "run_pipeline"],
}
LAYERS = list(TRACED)


def _count_oracle(counts, args, result):
    oracle = args[0]
    if oracle.noise_scale > 0.0:
        counts["pairs"] += oracle.n * (oracle.n - 1) // 2


def _count_draws(counts, args, result):
    counts["draws"] += np.size(args[1])


def _count_graph(counts, args, result):
    graph, knn = result
    counts["blocks"] += 1
    counts["edges"] += graph.num_edges
    prov = np.bincount(graph.provenance, minlength=4)
    for code, name in ((1, "edges_se"), (2, "edges_attr"), (3, "edges_both")):
        counts[name] += int(prov[code])
    counts["knn_k_tried"] += len(knn.ks)
    counts["chosen_k_sum"] += knn.chosen_k


def _count_attr(counts, args, result):
    counts["attr_pairs"] += len(result[0])


def _count_graph_bytes(counts, args, result):
    counts["graph_bytes"] += os.path.getsize(args[0])


def _count_merges(counts, args, result):
    counts["merge_calls"] += 1
    counts["merge_input_edges"] += len(args[0])
    counts["merges"] += len(result)


def _count_cluster(counts, args, result):
    counts["rounds"] += len(result.rounds)
    counts["stalled_rounds"] += sum(1 for r in result.rounds if r["stable"])
    counts["communities"] += result.final.num_communities


COUNTERS = {
    "privacy.SimilarityOracle.__init__": _count_oracle,
    "privacy.substream_uniforms": _count_draws,
    "graphsynth.build_graph": _count_graph,
    "graphsynth.build_attribute_edges": _count_attr,
    "persist.write_graph_tsv": _count_graph_bytes,
    "entropy.minimize_edges": _count_merges,
    "partition.cluster": _count_cluster,
}


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every traced function in all loaded ``dpevent`` modules."""
        import dpevent.cli  # noqa: F401 - loads every module the CLI uses

        modules = [m for key, m in sys.modules.items()
                   if key == "dpevent" or key.startswith("dpevent.")]
        for module_name, names in TRACED.items():
            home = sys.modules[f"dpevent.{module_name}"]
            for name in names:
                span = f"{module_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self.wrap(span, cls.__dict__[meth]))
                    continue
                original = getattr(home, name)
                wrapper = self.wrap(span, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def self_times(self) -> list[float]:
        """Duration minus direct children's durations, per span."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict[str, float]:
        """Per-layer times and counters (see ``PER_LAYER`` in run.py)."""
        own = self.self_times()
        total: defaultdict[str, float] = defaultdict(float)
        self_t: defaultdict[str, float] = defaultdict(float)
        layer_self: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), s in zip(self.spans, own):
            total[name] += end - start
            self_t[name] += s
            layer_self[name.split(".")[0]] += s
        c = self.counts
        pairs = c["pairs"]
        blocks = c["blocks"]
        out = {
            "privacy.noisy_rows_s": total["privacy.SimilarityOracle.noisy_rows"],
            "privacy.local_sensitivity_s": total["privacy.local_sensitivity"],
            "privacy.draws": c["draws"],
            "privacy.draws_per_pair": c["draws"] / pairs if pairs else 0.0,
            "graphsynth.top_neighbor_table_s": self_t["graphsynth.top_neighbor_table"],
            "graphsynth.knn_search_s": self_t["graphsynth.build_knn_edges"],
            "graphsynth.knn_k_tried": c["knn_k_tried"],
            "graphsynth.chosen_k": c["chosen_k_sum"] / blocks if blocks else 0.0,
            "graphsynth.attribute_edges_s": self_t["graphsynth.build_attribute_edges"],
            "graphsynth.attr_pairs": c["attr_pairs"],
            "graphsynth.union_s": total["graphsynth.synthesize_graph"],
            "graphsynth.edges": c["edges"],
            "graphsynth.edges_se": c["edges_se"],
            "graphsynth.edges_attr": c["edges_attr"],
            "graphsynth.edges_both": c["edges_both"],
            "persist.write_graph_s": total["persist.write_graph_tsv"],
            "persist.read_graph_s": total["persist.read_graph_tsv"],
            "persist.graph_bytes": c["graph_bytes"],
            "persist.write_partition_s": total["persist.write_partition_csv"],
            "entropy.merge_loop_s": total["entropy.minimize_edges"],
            "entropy.merge_calls": c["merge_calls"],
            "entropy.merges": c["merges"],
            "entropy.merge_input_edges": c["merge_input_edges"],
            "entropy.aggregates_s": total["entropy._community_aggregates"],
            "entropy.two_dim_se_s": self_t["entropy.two_dim_se"],
            "partition.cluster_s": self_t["partition.cluster"],
            "partition.supergraph_s": total["partition.build_supergraph"],
            "partition.extract_s": total["partition.extract_subgraphs"],
            "partition.rounds": c["rounds"],
            "partition.stalled_rounds": c["stalled_rounds"],
            "partition.communities": c["communities"],
            "metrics.ami_s": total["metrics.ami"],
            "metrics.ari_s": total["metrics.ari"],
            "corpus.ingest_s": total["corpus.ingest"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out
