"""Shared fixtures and builders for the test suite."""

import numpy as np
import pytest

from emodub.errors import SchemaError
from emodub.graph import EmotionGraph, GraphStage
from emodub.library import FootageLibrary, MODALITY_ORDER
from emodub.retrieval import CHANNELS, RetrievalResult


def random_library(rng: np.random.Generator, n: int, dims=None, speakers=3) -> FootageLibrary:
    """Library of n records with standard-normal vectors (test-side randomness).

    Draw order: record by record, each modality's vector and then the speaker.
    """
    if dims is None:
        dims = {m: 8 for m in MODALITY_ORDER}
    elif isinstance(dims, int):
        dims = {m: dims for m in MODALITY_ORDER}
    rows = {m: [] for m in MODALITY_ORDER}
    speaker_ids = []
    for _ in range(n):
        for m in MODALITY_ORDER:
            rows[m].append(rng.normal(size=dims[m]))
        speaker_ids.append(f"spk{rng.integers(speakers)}")
    return FootageLibrary.from_columns(
        dict(dims),
        list(range(n)),
        [f"mov{i % 4}" for i in range(n)],
        speaker_ids,
        [f"lab{i % 3}" for i in range(n)],
        {m: np.array(rows[m]).reshape(n, dims[m]) for m in MODALITY_ORDER},
    )


def rebuilt(lib: FootageLibrary, vectors=None, speakers=None) -> FootageLibrary:
    """A new library equal to ``lib`` but for the vectors in ``vectors``
    (``{(row, modality): values}``) and the speakers in ``speakers``
    (``{row: speaker_id}``). A built library is immutable, so this is how a
    test makes a faulty or rescaled one."""
    columns = {m: lib.matrix(m).copy(order="F") for m in MODALITY_ORDER}
    for (row, m), values in (vectors or {}).items():
        columns[m][row] = values
    speaker_ids = lib.speaker_ids
    for row, speaker in (speakers or {}).items():
        speaker_ids[row] = speaker
    return FootageLibrary.from_columns(
        dict(lib.schema), lib.ids.tolist(), lib.movie_ids, speaker_ids, lib.emotion_labels, columns
    )


def synthetic_retrieval(rng, k: int, dim: int, first_id: int = 100) -> RetrievalResult:
    """Retrieval result with k hits per channel: ids counting up from
    ``first_id`` across the channels, rank-j score ``1 - 0.1 j``, and
    standard-normal blocks (``k x 2dim`` for text, ``k x dim`` otherwise).

    Draw order: channel by channel, each hit's channel vector and then its
    matched audio. With ``k = 0`` every block is empty and ``rng`` is unused.
    """
    rankings, indirect, audio = {}, {}, {}
    for c, channel in enumerate(CHANNELS):
        width = 2 * dim if channel == "text" else dim
        draws = [(rng.normal(size=width), rng.normal(size=dim)) for _ in range(k)]
        rankings[channel] = [(first_id + c * k + j, 1.0 - 0.1 * j) for j in range(k)]
        indirect[channel] = np.array([v for v, _ in draws]).reshape(k, width)
        audio[channel] = np.array([a for _, a in draws]).reshape(k, dim)
    return RetrievalResult(rankings, indirect, audio)


def near_tie_rows(r, n_base, dim, big):
    """Rows that score equal or one rounding apart against each other:
    copies of each base row scaled by 2**j and by 3, copies one ulp away,
    exact duplicates, and with ``big`` rows near 1e150, rows whose
    products, squares or differences overflow, and rows whose squares are
    subnormal."""
    rows = []
    for base in r.normal(size=(n_base, dim)):
        rows += [base, base * 2.0 ** int(r.integers(-4, 5)), base * 3.0, base.copy()]
        rows += [np.nextafter(base, np.inf), np.nextafter(base, -np.inf)]
        if big:
            huge = base * 1e150
            rows += [huge, np.nextafter(huge, np.inf), huge * 3.0, base * 1e200]
            rows += [np.where(base >= 0, 1.5e308, -1.5e308), base * 1e-160, base * 3e-160]
    return np.array(rows)


def degree(graph: EmotionGraph, index: int) -> int:
    """Number of edges of ``graph`` that touch node ``index``."""
    return sum(1 for a, b, _ in graph.edges if index in (a, b))


def is_connected(graph: EmotionGraph) -> bool:
    """True if ``graph`` has a node and every node is reachable from node 0."""
    n = graph.node_count
    if n == 0:
        return False
    neighbors: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b, _ in graph.edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    seen = {0}
    frontier = [0]
    while frontier:
        for nxt in neighbors[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == n


def check_edge_kinds(graph: EmotionGraph) -> None:
    """Raise SchemaError unless every edge joins two basic nodes, for a basic
    edge, or a node of the edge's stage to the basic node of the same channel."""
    for a, b, stage in graph.edges:
        na, nb = graph.nodes[a], graph.nodes[b]
        if stage is GraphStage.BASIC:
            legal = na.stage is nb.stage is GraphStage.BASIC
        else:
            legal = {na.stage, nb.stage} == {GraphStage.BASIC, stage} and na.channel == nb.channel
        if not legal:
            raise SchemaError(f"{stage.value} edge cannot join {na.kind} and {nb.kind}")


def tape_ops(out) -> int:
    """Number of ops on the tape that ``out`` was computed by."""
    seen, stack, ops = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops += node._backward is not None
            stack.extend(node._parents)
    return ops


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
