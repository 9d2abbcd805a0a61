"""Shared fixtures and builders for the test suite."""

import numpy as np
import pytest

from emodub.errors import SchemaError
from emodub.graph import STAGES, EmotionGraph, GraphStage, node_labels
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


def pair_mask(n: int, pairs) -> np.ndarray:
    """The (n, n) adjacency mask, with self-loops, of the undirected edges ``pairs``."""
    mask = np.eye(n, dtype=bool)
    for a, b in pairs:
        mask[a, b] = mask[b, a] = True
    return mask


def graph_of(features, pairs=(), stage=GraphStage.INDIRECT) -> EmotionGraph:
    """A ``stage`` graph over the rows of ``features`` with the undirected
    edges ``pairs``. Every node is a scene node of that stage, and a
    non-basic node i came from record i."""
    n = features.rows
    code = STAGES.index(stage)
    record_ids = np.arange(n if code else 0, dtype=np.uint64)
    return EmotionGraph(stage, features, pair_mask(n, pairs), np.full(n, code), np.zeros(n, dtype=int), record_ids)


def node_table(graph: EmotionGraph) -> list[tuple[GraphStage, str, int | None]]:
    """(stage, channel, source record id) of each node, read off the codes;
    the leading basic nodes have no source record."""
    sources = [r for _, r in node_labels(graph)]
    return [(STAGES[s], CHANNELS[c], r) for s, c, r in zip(graph.stages.tolist(), graph.channels.tolist(), sources)]


def node_kinds(graph: EmotionGraph) -> list[str]:
    """Each node's label, such as ``basic_scene``, ``indirect_face`` or ``direct_audio_text``."""
    return [kind for kind, _ in node_labels(graph)]


def edge_count(graph: EmotionGraph) -> int:
    """Number of undirected edges: the mask's entries above the diagonal."""
    return int(np.triu(graph.mask, 1).sum())


def degree(graph: EmotionGraph, index: int) -> int:
    """Number of edges of ``graph`` that touch node ``index``: its mask row
    less the self-loop."""
    row = graph.mask[index]
    return int(row.sum() - row[index])


def is_connected(graph: EmotionGraph) -> bool:
    """True if ``graph`` has a node and every node is reachable from node 0."""
    n = len(graph.mask)
    reached = np.arange(n) == 0
    for _ in range(n):
        reached = reached | graph.mask[reached].any(axis=0)
    return n > 0 and bool(reached.all())


def check_edge_kinds(graph: EmotionGraph) -> None:
    """Raise SchemaError unless the mask is symmetric with self-loops, and
    every edge joins two basic nodes, for a basic edge, or a node of the
    edge's stage to the basic node of the same channel. An edge is of the
    stage of its higher end, as ``encode`` labels it."""
    mask, stages, channels = graph.mask, graph.stages, graph.channels
    if not (mask == mask.T).all() or not mask.diagonal().all():
        raise SchemaError("adjacency mask is not symmetric with self-loops")
    kinds = node_kinds(graph)
    for a, b in zip(*np.nonzero(np.triu(mask, 1))):
        if stages[b] == 0:
            legal = stages[a] == 0
        else:
            legal = stages[a] == 0 and channels[a] == channels[b]
        if not legal:
            raise SchemaError(f"{STAGES[stages[b]].value} edge cannot join {kinds[a]} and {kinds[b]}")


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
