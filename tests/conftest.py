import itertools
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dpevent import privacy
from dpevent.corpus import SynthConfig, generate
from dpevent.graphsynth import MessageGraph
from dpevent.privacy import BlockPairs, PrivacyParams, SimilarityOracle


def make_graph(n, edges):
    """Graph from [(u, v, w), ...] triples."""
    if edges:
        u, v, w = (np.asarray(x) for x in zip(*edges))
    else:
        u = v = np.empty(0, dtype=np.int64)
        w = np.empty(0, dtype=np.float64)
    return MessageGraph(n=n, u=u.astype(np.int64), v=v.astype(np.int64),
                        w=w.astype(np.float64),
                        provenance=np.ones(u.size, dtype=np.uint8))


@pytest.fixture
def two_triangles():
    return make_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                          (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def block_oracle(block, epsilon=None, mode="mixed", seed=0, block_id=0, chunk_rows=None):
    """The SimilarityOracle of block (a new BlockPairs) at one epsilon.

    chunk_rows cuts the block into row chunks of that height (privacy's
    _row_chunks rule, so a 1-row tail joins the chunk before it) in place of
    the default ROW_CHUNK_ELEMS cells: the block state, the table pass and
    s_local all use them.
    """
    budget = privacy.ROW_CHUNK_ELEMS if chunk_rows is None else chunk_rows * len(block)
    with mock.patch.object(privacy, "ROW_CHUNK_ELEMS", budget):
        return SimilarityOracle(BlockPairs(block, block_id, seed),
                                PrivacyParams(epsilon=epsilon, sensitivity_mode=mode))


def graph_from_arrays(n, u, v, w):
    return MessageGraph(n=n, u=np.asarray(u, np.int64), v=np.asarray(v, np.int64),
                        w=np.asarray(w, np.float64),
                        provenance=np.ones(len(u), dtype=np.uint8))


def dyadic_embeddings(n, seed):
    """n unit vectors with coordinates in {0, +-1/2, +-1}: their dot products are
    exact in any summation order, so a matrix product and a row-wise dot agree
    bit for bit."""
    dirs = [s * np.eye(4)[k] for k in range(4) for s in (1.0, -1.0)]
    dirs += [0.5 * np.array(signs) for signs in itertools.product((1.0, -1.0), repeat=4)]
    return [dirs[i] for i in np.random.default_rng(seed).integers(0, len(dirs), size=n)]


def block_513():
    """513 generated records with generic (non-dyadic) embeddings. 513 rows is
    one past a 512-row chunk, and generic cosines can round differently when
    the same cell comes from matrix products of different shapes."""
    return generate(SynthConfig(num_events=3, points_per_event=171, dim=32, seed=7))
