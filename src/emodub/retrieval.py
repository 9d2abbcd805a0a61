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
evaluate it on Python floats. A channel scan runs the same operations on
the columns of the library's N×d array, one dimension at a time across
all candidates, so each candidate gets exactly the bits
:func:`similarity` gives it alone, whatever the BLAS or the CPU. The
pool's top K are ordered by (score desc, record_id asc).

Errors are those of a full scalar scan of the pool, at its first rejected
row: under cosine a zero squared norm is an ``ArgumentError``, and a NaN
score (from sums that overflow) a ``NumericError``, so no NaN is sorted.
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
    candidate (the first is updated in place): numpy's elementwise add
    rounds like Python's float add, so every candidate gets the bits of its
    own scalar sum. Python's ``sum`` is compensated from 3.12 on.
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

    def validate(self, lib: FootageLibrary, metric: Metric) -> None:
        for modality in (Modality.SCENE, Modality.FACE, Modality.TEXT_SELF, Modality.TEXT_REACT):
            vec = getattr(self, modality.value)
            want = lib.schema[modality]
            if vec.dim != want:
                raise SchemaError(
                    f"query {modality.value} dim {vec.dim} does not match schema dim {want}"
                )
            if metric is Metric.COSINE and _sum(x * x for x in vec.values.tolist()) == 0.0:
                raise ArgumentError(
                    f"cosine similarity is undefined for a zero vector: query {modality.value}"
                )


#: The modalities each channel scores: one vector, or the text halves.
_CHANNEL_MODALITIES: dict[str, tuple[Modality, ...]] = {
    "scene": (Modality.SCENE,),
    "face": (Modality.FACE,),
    "text": (Modality.TEXT_SELF, Modality.TEXT_REACT),
}


def _channel_scores(lib: FootageLibrary, query: Query, channel: str, metric: Metric):
    """Every library row's score in the channel, bit for bit that of
    :func:`similarity` or :func:`text_criterion`, and under cosine which
    rows have a zero squared norm."""
    scores, zero = [], np.zeros(len(lib), dtype=bool)
    for modality in _CHANNEL_MODALITIES[channel]:
        q = getattr(query, modality.value).values.tolist()
        columns = lib.matrix(modality).T  # columns[j]: entry j of every row
        if metric is Metric.NEG_EUCLIDEAN:
            scores.append(-np.sqrt(_sum(d * d for d in (x - c for x, c in zip(q, columns)))))
            continue
        dot = _sum(x * c for x, c in zip(q, columns))
        if metric is Metric.COSINE:
            squared = _sum(c * c for c in columns)
            zero |= squared == 0.0
            dot = dot / (math.sqrt(_sum(x * x for x in q)) * np.sqrt(squared))
        scores.append(dot)
    return (scores[0] if len(scores) == 1 else 0.5 * (scores[0] + scores[1])), zero


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
    yields an empty list. Scores, order and errors are those of a full sort
    of the candidates by :func:`similarity` or :func:`text_criterion` (see
    the module docstring).
    """
    if k < 1:
        raise ArgumentError(f"k must be >= 1, got {k}")
    if mode is Mode.SPEAKER_SPECIFIC and query.speaker_id is None:
        raise ArgumentError("speaker-specific retrieval requires query.speaker_id")
    if channel not in _CHANNEL_MODALITIES:
        raise ArgumentError(f"unknown retrieval channel {channel!r}")
    query.validate(lib, metric)
    pool = _pool_mask(lib, query, mode)
    k = min(k, int(np.count_nonzero(pool)))
    if k == 0:
        return []
    with np.errstate(all="ignore"):
        scores, zero = _channel_scores(lib, query, channel, metric)
    rejected = np.flatnonzero(pool & (zero | np.isnan(scores)))
    if rejected.size:
        record_id = lib.ids[rejected[0]]
        if zero[rejected[0]]:
            raise ArgumentError(f"cosine similarity is undefined for a zero vector: record {record_id}")
        raise NumericError(f"{channel} score of record {record_id} is NaN: a sum overflows float64")
    # rows outside the pool sink to -inf, below or tied with every pool score
    scores = np.where(pool, scores, -np.inf)
    kth = np.partition(scores, scores.size - k)[scores.size - k]
    top = np.flatnonzero((scores >= kth) & pool)
    ids, top_scores = lib.ids[top], scores[top]
    order = np.lexsort((ids, -top_scores))[:k]
    return list(zip(ids[order].tolist(), top_scores[order].tolist()))


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
    """Run all three channels and gather indirect vectors and matched audio."""
    result = RetrievalResult.empty()
    for channel in CHANNELS:
        ranking = retrieve_modality(lib, query, channel, k, metric, mode)
        result.rankings[channel] = ranking
        for record_id, _score in ranking:
            rec = lib.lookup(record_id)
            if channel == "text":
                vec = np.concatenate([rec.text_self.values, rec.text_react.values])
            else:
                vec = getattr(rec, channel).values
            result.indirect_vectors[channel].append(vec)
            result.matched_audio[channel].append(rec.audio.values)
    return result
