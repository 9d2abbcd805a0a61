"""Emotion-similarity top-K retrieval over a footage library.

Each of the three query channels (scene, face, text) is searched
independently with the target's own emotion vectors as queries. The text
channel scores a candidate by the mean of the self-half and react-half
similarities. Every hit also carries the candidate's stored audio vector,
matched by index lookup, so downstream consumers get the direct audio
signal for each indirect hit.

Every score has one definition, down to the order of its float64
operations: each inner product or squared norm adds the elementwise
products left to right over the d dimensions (:func:`_sum`), each product
and addition rounded once, with no fused multiply-add; the square root
and the division follow. :func:`similarity` and :func:`text_criterion`
evaluate it on Python floats. The one scan, :func:`retrieve_block`,
runs the same operations for a block of Q query rows at once: one
dimension at a time, each query entry broadcast across the column of the
library's N×d array, so every (query, candidate) pair gets exactly the
bits :func:`similarity` gives it alone, whatever the BLAS, the CPU or Q.
The library stores each modality column-major, so each of those passes
reads one contiguous run of N floats. A built library is immutable; build
a new one with ``FootageLibrary.from_columns``. So the scan takes each
library row's cosine normaliser from ``FootageLibrary.norms``, computed once,
and computes each query row's from the rows it is given.
Each row's pool top K are ordered by (score desc, record_id asc).
:func:`retrieve_modality` is its one-row case; ``evaluate_purity`` scans
the library's own rows in blocks.

Errors are those of a scalar scan of each query's pool in turn, raised at
the first (query, channel, candidate) it rejects: under cosine a zero
squared norm, of the query's vector or the candidate's, is an
``ArgumentError``, and a NaN score (from sums that overflow) a
``NumericError``, so no NaN is sorted. The scan is the one place that
checks a query's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ArgumentError, NumericError, SchemaError
from .library import EmotionVector, FootageLibrary, FootageRecord, Modality

#: The three retrieval channels, in documented order.
CHANNELS: tuple[str, ...] = ("scene", "face", "text")


class Metric(Enum):
    COSINE = "cosine"
    DOT = "dot"
    NEG_EUCLIDEAN = "euclid"


class Mode(Enum):
    SPEAKER_AGNOSTIC = "agnostic"
    SPEAKER_SPECIFIC = "specific"


def _sum(terms):
    """The terms added left to right, each addition rounded once.

    The terms are Python floats, or fresh arrays holding one term per
    (query, candidate) pair (the first is updated in place): numpy's
    elementwise add rounds like Python's float add, so every pair gets the
    bits of its own scalar sum. Python's ``sum`` is compensated from 3.12 on.
    """
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
    return total


def similarity(metric: Metric, a: EmotionVector, b: EmotionVector) -> float:
    """Score a pair of vectors; higher is always better.

    Cosine: dot(a, b) / (|a| * |b|), requires both squared norms > 0.
    Dot: plain inner product. NegEuclidean: negated L2 distance, so the
    max-K interface is shared by all three metrics. This is the reference
    definition, evaluated on Python floats (see the module docstring).
    """
    va, vb = a.values.tolist(), b.values.tolist()
    if len(va) != len(vb):
        raise SchemaError(f"similarity dim mismatch: {len(va)} vs {len(vb)}")
    if metric is Metric.COSINE:
        aa, bb = _sum(x * x for x in va), _sum(y * y for y in vb)
        if aa == 0.0 or bb == 0.0:
            raise ArgumentError("cosine similarity is undefined for a zero vector")
        return _sum(x * y for x, y in zip(va, vb)) / (math.sqrt(aa) * math.sqrt(bb))
    if metric is Metric.DOT:
        return _sum(x * y for x, y in zip(va, vb))
    return -math.sqrt(_sum(d * d for d in (x - y for x, y in zip(va, vb))))


def text_criterion(
    metric: Metric,
    q_self: EmotionVector,
    q_react: EmotionVector,
    r_self: EmotionVector,
    r_react: EmotionVector,
) -> float:
    """Text-channel score: mean of the self-half and react-half similarities."""
    return 0.5 * (similarity(metric, q_self, r_self) + similarity(metric, q_react, r_react))


#: The query's four vectors, in the order they are validated.
QUERY_MODALITIES: tuple[Modality, ...] = (Modality.SCENE, Modality.FACE, Modality.TEXT_SELF, Modality.TEXT_REACT)


@dataclass
class Query:
    """The target utterance's own emotion vectors, used as retrieval queries."""

    scene: EmotionVector
    face: EmotionVector
    text_self: EmotionVector
    text_react: EmotionVector
    speaker_id: str | None = None
    exclude_ids: frozenset[int] = field(default_factory=frozenset)

    @classmethod
    def from_record(cls, record: FootageRecord, exclude_self: bool = True) -> "Query":
        """Query a library with one of its own records, excluding it by default."""
        return cls(
            scene=record.scene,
            face=record.face,
            text_self=record.text_self,
            text_react=record.text_react,
            speaker_id=record.speaker_id,
            exclude_ids=frozenset({record.record_id}) if exclude_self else frozenset(),
        )

    def validate(self, lib: FootageLibrary) -> None:
        """Check each vector's dimension; the scan checks its values."""
        for modality in QUERY_MODALITIES:
            vec = getattr(self, modality.value)
            want = lib.schema[modality]
            if vec.dim != want:
                raise SchemaError(f"query {modality.value} dim {vec.dim} does not match schema dim {want}")


#: The modalities each channel scores: one vector, or the text halves.
_CHANNEL_MODALITIES: dict[str, tuple[Modality, ...]] = {
    "scene": (Modality.SCENE,),
    "face": (Modality.FACE,),
    "text": (Modality.TEXT_SELF, Modality.TEXT_REACT),
}


def squared_norms(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each row of a (Q, d) array, its products added
    left to right: bit for bit the cosine normaliser of :func:`similarity`.
    A sum that overflows is +inf."""
    with np.errstate(over="ignore"):
        return _sum(c * c for c in rows.T)


def _top_k(scores: np.ndarray, pool: np.ndarray, ids: np.ndarray, k: int):
    """``(rows, cols, scores)`` of each row's top min(K, pool size) pool
    columns, in (row asc, score desc, id asc) order."""
    n = scores.shape[1]
    k = min(k, n)
    if k == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    # columns outside the pool sink to -inf, below or tied with every pool score
    scores = np.where(pool, scores, -np.inf)
    # a row whose pool is smaller than K has -inf at column n - K, so its
    # whole pool survives
    kth = np.partition(scores, n - k, axis=1)[:, n - k, None]
    flat = np.flatnonzero((scores >= kth) & pool)
    rows, cols = np.divmod(flat, n)
    top_scores = scores.ravel()[flat]
    order = np.lexsort((ids[cols], -top_scores, rows))
    # survivors are grouped by row before and after the sort, so a sorted
    # position's rank in its row is its distance from the row's first position
    keep = order[np.arange(rows.size) - np.searchsorted(rows, rows) < k]
    return rows[keep], cols[keep], top_scores[keep]


def _check_k(k: int) -> None:
    if k < 1:
        raise ArgumentError(f"k must be >= 1, got {k}")


def retrieve_block(
    lib: FootageLibrary,
    queries: dict[Modality, np.ndarray],
    pool: np.ndarray,
    k: int,
    metric: Metric = Metric.COSINE,
    channels: tuple[str, ...] = CHANNELS,
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Top-K of Q query rows against every library row, per channel.

    ``queries`` maps each modality the channels read to a (Q, d) array of
    query vectors, and ``pool`` is the (Q, N) boolean mask of each query's
    candidates. Returns, per channel, ``(rows, cols, scores)``: the query
    row, library row and score of each row's top min(K, pool size) hits,
    in (query row, score desc, record_id asc) order.

    Every score is that of :func:`similarity` or :func:`text_criterion`
    (see the module docstring); under cosine the library's normalisers
    come from ``lib.norms`` and the queries' from the same sums over the
    rows given. Errors are those of a loop over the query rows, each
    running a scalar scan of its pool in each channel in turn: at the
    first query row with a fault, at its first channel with one, a zero
    query vector under cosine (the first such modality), else that
    channel's first rejected pool row, for its zero norm under cosine
    (``ArgumentError``) or NaN score (``NumericError``). An empty pool
    yields no hits and no error.
    """
    _check_k(k)
    found, rejected, zeros, zero_queries = {}, {}, {}, {}
    with np.errstate(all="ignore"):
        for channel in channels:
            scores, zero = [], np.zeros(len(lib), dtype=bool)
            for modality in _CHANNEL_MODALITIES[channel]:
                # q[j]: entry j of every query, as a column; one query's
                # entries as Python floats, which numpy broadcasts faster
                q = queries[modality].T[:, :, None] if len(pool) != 1 else queries[modality][0].tolist()
                columns = lib.matrix(modality).T  # columns[j]: entry j of every library row, contiguous
                if metric is Metric.NEG_EUCLIDEAN:
                    scores.append(-np.sqrt(_sum(d * d for d in (x - c for x, c in zip(q, columns)))))
                    continue
                dot = _sum(x * c for x, c in zip(q, columns))
                if metric is Metric.COSINE:
                    norm, query_norm = lib.norms(modality), np.sqrt(_sum(x * x for x in q))
                    zero |= norm == 0.0  # sqrt(x) == 0 exactly when x == 0
                    zero_queries[modality] = np.reshape(query_norm == 0.0, len(pool))
                    dot = dot / (query_norm * norm)
                scores.append(dot)
            scores = (scores[0] if len(scores) == 1 else 0.5 * (scores[0] + scores[1])).reshape(pool.shape)
            rejected[channel], zeros[channel] = pool & (zero | np.isnan(scores)), zero
            found[channel] = _top_k(scores, pool, lib.ids, k)
    faults = [*rejected.values(), *zero_queries.values()]
    if any(f.any() for f in faults):
        row = min(int(np.argmax(f.reshape(len(pool), -1).any(axis=1))) for f in faults if f.any())
        for channel, channel_rejected in rejected.items():
            for modality in _CHANNEL_MODALITIES[channel]:
                if modality in zero_queries and zero_queries[modality][row]:
                    raise ArgumentError(f"cosine similarity is undefined for a zero vector: query {modality.value}")
            cols = np.flatnonzero(channel_rejected[row])
            if cols.size:
                record_id = lib.ids[cols[0]]
                if zeros[channel][cols[0]]:
                    raise ArgumentError(f"cosine similarity is undefined for a zero vector: record {record_id}")
                raise NumericError(f"{channel} score of record {record_id} is NaN: a sum overflows float64")
    return found


def _pool_mask(lib: FootageLibrary, query: Query, mode: Mode) -> np.ndarray:
    """Boolean row mask of the candidate pool."""
    keep = lib.speaker_mask(query.speaker_id) if mode is Mode.SPEAKER_SPECIFIC else np.ones(len(lib), dtype=bool)
    for record_id in query.exclude_ids:
        row = lib.id_index.get(record_id)
        if row is not None:
            keep[row] = False
    return keep


def retrieve_modality(
    lib: FootageLibrary,
    query: Query,
    channel: str,
    k: int,
    metric: Metric = Metric.COSINE,
    mode: Mode = Mode.SPEAKER_AGNOSTIC,
) -> list[tuple[int, float]]:
    """Top-K candidates for one channel as (record_id, score) pairs.

    Candidates are all records minus ``query.exclude_ids``, restricted to
    the query's speaker under SPEAKER_SPECIFIC. Returns fewer than K pairs
    only when the candidate set is smaller than K; an empty candidate set
    yields an empty list. This is the one-row case of
    :func:`retrieve_block`: scores, order and errors are those of a full
    sort of the candidates by :func:`similarity` or :func:`text_criterion`,
    so under cosine only a zero vector that the channel reads is rejected.
    """
    _check_k(k)
    if mode is Mode.SPEAKER_SPECIFIC and query.speaker_id is None:
        raise ArgumentError("speaker-specific retrieval requires query.speaker_id")
    if channel not in _CHANNEL_MODALITIES:
        raise ArgumentError(f"unknown retrieval channel {channel!r}")
    query.validate(lib)
    pool = _pool_mask(lib, query, mode)[None, :]
    queries = {m: getattr(query, m.value).values[None, :] for m in _CHANNEL_MODALITIES[channel]}
    _rows, cols, scores = retrieve_block(lib, queries, pool, k, metric, (channel,))[channel]
    return list(zip(lib.ids[cols].tolist(), scores.tolist()))


@dataclass
class RetrievalResult:
    """Per-channel rankings plus the vectors the graph stages consume.

    ``indirect_vectors[channel][j]`` is the emotion vector of the rank-j hit
    (for text, the concatenation of its self and react halves);
    ``matched_audio[channel][j]`` is that same record's stored audio vector.
    """

    rankings: dict[str, list[tuple[int, float]]]
    indirect_vectors: dict[str, list[np.ndarray]]
    matched_audio: dict[str, list[np.ndarray]]

    @classmethod
    def empty(cls) -> "RetrievalResult":
        return cls(
            rankings={c: [] for c in CHANNELS},
            indirect_vectors={c: [] for c in CHANNELS},
            matched_audio={c: [] for c in CHANNELS},
        )


def retrieve_all(
    lib: FootageLibrary,
    query: Query,
    k: int,
    metric: Metric = Metric.COSINE,
    mode: Mode = Mode.SPEAKER_AGNOSTIC,
) -> RetrievalResult:
    """Run all three channels and gather indirect vectors and matched audio.

    Each channel is ranked by one :func:`retrieve_modality` call, in
    :data:`CHANNELS` order, so the error raised is that of the first
    channel to reject the query or a candidate.
    """
    result = RetrievalResult.empty()
    audio = lib.matrix(Modality.AUDIO)
    for channel in CHANNELS:
        ranking = retrieve_modality(lib, query, channel, k, metric, mode)
        result.rankings[channel] = ranking
        columns = [lib.matrix(m) for m in _CHANNEL_MODALITIES[channel]]
        for record_id, _score in ranking:
            row = lib.id_index[record_id]
            halves = [column[row] for column in columns]
            result.indirect_vectors[channel].append(np.concatenate(halves) if len(halves) > 1 else halves[0])
            result.matched_audio[channel].append(audio[row])
    return result
