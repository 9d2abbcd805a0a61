"""Emotion-similarity top-K retrieval over a footage library.

Each of the three query channels (scene, face, text) is searched
independently with the target's own emotion vectors as queries. The text
channel scores a candidate by the mean of the self-half and react-half
similarities. Every hit also carries the candidate's stored audio vector,
matched by index lookup, so downstream consumers get the direct audio
signal for each indirect hit.

A channel is searched in three steps over the library's column arrays
(see :class:`~emodub.library.FootageLibrary`):

1. *Scan*: one matrix-vector product per modality scores every candidate,
   and each fast score comes with a bound on its distance from the scalar
   :func:`similarity` (or :func:`text_criterion`) of the same pair, derived
   from the float64 rounding error of a dot product (see
   :func:`_fast_scores`).
2. *Band*: with ``t`` the K-th largest of (fast score - bound) over the
   candidate pool, the band is every candidate whose fast score + bound
   reaches ``t``. No candidate outside it can be in the top K. If any fast
   score or bound is non-finite, the band is the whole pool.
3. *Re-score*: the band is scored again with the scalar functions and
   ordered by (score descending, record_id ascending).

The re-score is needed because the matrix product sums in another order
than the scalar path, so its scores can differ in the last bits: returning
them would change the 17-digit scores of the ``retrieve`` CSV, and
near-ties could change places against a brute-force sort. The scalar
functions therefore stay the reference definitions, and every ranking
equals a full sort of the pool by them, errors included: a zero-norm
candidate under cosine gives a non-finite bound, so the whole pool is
re-scored and :func:`similarity` raises as it would in a full scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ArgumentError, SchemaError
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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b))


def similarity(metric: Metric, a: EmotionVector, b: EmotionVector) -> float:
    """Score a pair of vectors; higher is always better.

    Cosine: dot(a, b) / (|a| * |b|), requires both norms > 0.
    Dot: plain inner product. NegEuclidean: negated L2 distance, so the
    max-K interface is shared by all three metrics.
    """
    va, vb = a.values, b.values
    if va.shape[0] != vb.shape[0]:
        raise SchemaError(f"similarity dim mismatch: {va.shape[0]} vs {vb.shape[0]}")
    if metric is Metric.COSINE:
        na = math.sqrt(_dot(va, va))
        nb = math.sqrt(_dot(vb, vb))
        if na == 0.0 or nb == 0.0:
            raise ArgumentError("cosine similarity is undefined for a zero vector")
        return _dot(va, vb) / (na * nb)
    if metric is Metric.DOT:
        return _dot(va, vb)
    diff = va - vb
    return -math.sqrt(_dot(diff, diff))


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
        pairs = (
            (self.scene, Modality.SCENE),
            (self.face, Modality.FACE),
            (self.text_self, Modality.TEXT_SELF),
            (self.text_react, Modality.TEXT_REACT),
        )
        for vec, modality in pairs:
            want = lib.schema[modality]
            if vec.dim != want:
                raise SchemaError(
                    f"query {modality.value} dim {vec.dim} does not match schema dim {want}"
                )
            if metric is Metric.COSINE and not np.any(vec.values):
                raise ArgumentError(
                    f"query {modality.value} is all-zero; undefined under cosine"
                )


_U = 2.0**-53  # unit roundoff of float64
_ETA = 2.0**-1074  # smallest subnormal; bounds the error of one underflowing operation
# Squared norms in [_TINY, _HUGE] keep every cosine partial sum finite and
# every underflow far below the cosine bound.
_TINY = 2.0**-900
_HUGE = 2.0**1000

#: The modalities each channel scores: one vector, or the text halves.
_CHANNEL_MODALITIES: dict[str, tuple[Modality, ...]] = {
    "scene": (Modality.SCENE,),
    "face": (Modality.FACE,),
    "text": (Modality.TEXT_SELF, Modality.TEXT_REACT),
}


def _overflow(x: np.ndarray, c: float) -> np.ndarray:
    """``inf`` where the non-negative sum ``x`` is within a factor ``1 + c``
    of overflowing, else 0."""
    return np.where(np.isfinite(x * (1.0 + c)), 0.0, np.inf)


def _fast_scores(metric: Metric, rows: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores of ``q`` against every row, and per row a bound on the
    distance to ``similarity(metric, q, row)``.

    Any float64 evaluation of a d-term dot product, in any order and with or
    without fused multiply-adds, lies within ``g * sum|q_i r_i| + d * eta``
    of the exact value, where ``g = d*u / (1 - d*u)``, ``u`` is the unit
    roundoff and ``eta`` the smallest subnormal. The matrix product and the
    scalar path both obey it, so they differ by at most twice that; each
    bound below is at least twice that again, which also covers the
    rounding of the bound and band arithmetic. Per metric:

    * dot: ``c * sum|q_i r_i| + 4 d eta`` with ``c = 4 (d + 2) u``;
    * euclid: the differences are the scalar path's own, and the squared
      distance obeys the sum bound, so ``c * dist + 4 sqrt(d eta)``;
    * cosine: both evaluations lie within ``(2d + 4) u`` of the exact
      cosine while every squared norm is in ``[_TINY, _HUGE]``, so
      ``8 (d + 4) u``, and ``inf`` outside that range (zero norms included).

    The dot and euclid bounds are ``inf`` where a sum could overflow.
    """
    d = q.shape[0]
    c = 4 * (d + 2) * _U
    if metric is Metric.DOT:
        size = np.abs(rows) @ np.abs(q)
        return rows @ q, c * size + _overflow(size, c) + 4 * d * _ETA
    if metric is Metric.NEG_EUCLIDEAN:
        diff = q - rows
        squared = np.einsum("ij,ij->i", diff, diff)
        dist = np.sqrt(squared)
        return -dist, c * dist + _overflow(squared, c) + 4 * math.sqrt(d * _ETA)
    squared = np.einsum("ij,ij->i", rows, rows)
    q_squared = float(np.dot(q, q))
    fast = (rows @ q) / (math.sqrt(q_squared) * np.sqrt(squared))
    in_range = (squared >= _TINY) & (squared <= _HUGE) & (_TINY <= q_squared <= _HUGE)
    return fast, np.where(in_range, 8 * (d + 4) * _U, np.inf)


def _channel_scan(lib: FootageLibrary, query: Query, modalities, metric: Metric):
    """Fast scores and bounds of one channel for every library row."""
    parts = [_fast_scores(metric, lib.matrix(m), getattr(query, m.value).values) for m in modalities]
    if len(parts) == 1:
        return parts[0]
    (f_self, b_self), (f_react, b_react) = parts
    # the scalar path rounds the sum and the halving once more each
    bound = b_self + b_react + 2 * _U * (np.abs(f_self) + np.abs(f_react)) + 2 * _ETA
    return 0.5 * (f_self + f_react), bound


def _candidate_rows(lib: FootageLibrary, query: Query, mode: Mode) -> np.ndarray:
    """Ascending library rows of the candidate pool."""
    if mode is Mode.SPEAKER_SPECIFIC:
        keep = lib.speaker_mask(query.speaker_id)
    else:
        keep = np.ones(len(lib), dtype=bool)
    for record_id in query.exclude_ids:
        row = lib.id_index.get(record_id)
        if row is not None:
            keep[row] = False
    return np.flatnonzero(keep)


def _band(fast: np.ndarray, bound: np.ndarray, k: int) -> np.ndarray:
    """Positions of the candidates that can be in the top ``k``: all of
    them when any fast score or bound is non-finite."""
    if not (np.isfinite(fast).all() and np.isfinite(bound).all()):
        return np.arange(fast.size)
    floor = fast - bound
    kth = np.partition(floor, floor.size - k)[floor.size - k]
    return np.flatnonzero(fast + bound >= kth)


def _reference_score(metric: Metric, query_vectors, rec: FootageRecord, modalities) -> float:
    if len(modalities) == 1:
        return similarity(metric, query_vectors[0], rec.vector(modalities[0]))
    return text_criterion(metric, *query_vectors, *(rec.vector(m) for m in modalities))


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
    yields an empty list. Scores and order are those of a full sort of the
    candidates by the scalar reference functions (see the module docstring).
    """
    if k < 1:
        raise ArgumentError(f"k must be >= 1, got {k}")
    if mode is Mode.SPEAKER_SPECIFIC and query.speaker_id is None:
        raise ArgumentError("speaker-specific retrieval requires query.speaker_id")
    modalities = _CHANNEL_MODALITIES.get(channel)
    if modalities is None:
        raise ArgumentError(f"unknown retrieval channel {channel!r}")
    query.validate(lib, metric)
    pool = _candidate_rows(lib, query, mode)
    if pool.size == 0:
        return []
    with np.errstate(all="ignore"):
        fast, bound = _channel_scan(lib, query, modalities, metric)
        band = pool[_band(fast[pool], bound[pool], min(k, pool.size))]
    query_vectors = [getattr(query, m.value) for m in modalities]
    scored = [
        (_reference_score(metric, query_vectors, lib.records[row], modalities), record_id)
        for row, record_id in zip(band.tolist(), lib.ids[band].tolist())
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [(rid, score) for score, rid in scored[:k]]


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
            elif channel == "scene":
                vec = rec.scene.values
            else:
                vec = rec.face.values
            result.indirect_vectors[channel].append(vec)
            result.matched_audio[channel].append(rec.audio.values)
    return result
