"""Differentially private message-graph release and unsupervised event
clustering by two-level structural entropy minimization."""

__version__ = "0.1.0"

from .corpus import Corpus, CorpusError, MessageRecord, SynthConfig, generate, ingest, split_blocks
from .entropy import InvalidPartitionError, Partition, two_dim_se, vanilla_minimize
from .graphsynth import (GraphError, KnnTrace, MessageGraph, build_attribute_edges, build_graph,
                         build_knn_edges, one_dim_se, synthesize_graph)
from .metrics import ContingencyTable, MetricsError, ami, ari
from .partition import ClusterRun, SuperGraph, build_supergraph, cluster, extract_subgraphs
from .privacy import (BlockPairs, PrivacyError, PrivacyParams, SensitivityReport,
                      SimilarityOracle, local_sensitivity, sensitivity_report, smooth_sensitivity)

__all__ = [
    "Corpus", "CorpusError", "MessageRecord", "SynthConfig", "generate", "ingest", "split_blocks",
    "InvalidPartitionError", "Partition", "two_dim_se", "vanilla_minimize",
    "GraphError", "KnnTrace", "MessageGraph", "build_attribute_edges", "build_graph",
    "build_knn_edges", "one_dim_se", "synthesize_graph",
    "ContingencyTable", "MetricsError", "ami", "ari",
    "ClusterRun", "SuperGraph", "build_supergraph", "cluster", "extract_subgraphs",
    "BlockPairs", "PrivacyError", "PrivacyParams", "SensitivityReport", "SimilarityOracle",
    "local_sensitivity", "sensitivity_report", "smooth_sensitivity",
]
