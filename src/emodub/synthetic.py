"""Seeded synthetic libraries with labeled emotion clusters.

Records are drawn from per-label isotropic Gaussian clusters (unit sigma)
whose centroids sit on orthogonal axes, scaled so every pair of centroids
is exactly ``separation`` sigmas apart. The label is stored on each record,
which lets the harness score retrieval quality as *purity*: the fraction
of retrieved records sharing the query's label. Purity is a synthetic
surrogate signal, not a reproduction of any speech-model metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .library import FootageLibrary, MODALITY_ORDER, Schema, uniform_schema
from .retrieval import CHANNELS, Metric, Mode, Query, retrieve_all
from .rng import stream


@dataclass
class ClusterSpec:
    """Configuration of one synthetic library."""

    n: int = 200
    clusters: int = 4
    separation: float = 8.0
    dim: int = 8
    seed: int = 0
    speakers: int = 4
    speaker_per_cluster: bool = False
    movies: int = 4

    def schema(self) -> Schema:
        return uniform_schema(self.dim)


def generate_clustered_library(spec: ClusterSpec) -> FootageLibrary:
    """Build a labeled clustered library, deterministic in the seed.

    Cluster ``c`` lives at ``(separation / sqrt(2)) * e_c`` in every
    modality (``e_c`` the c-th standard basis vector), so pairwise centroid
    distances equal ``separation`` exactly; per-record noise is a standard
    Gaussian from the documented stream. Labels are assigned round-robin.
    Requires ``clusters <= dim`` to keep the placement exact.
    """
    if spec.n < 1:
        raise ArgumentError(f"library size must be >= 1, got {spec.n}")
    if spec.clusters < 1:
        raise ArgumentError(f"cluster count must be >= 1, got {spec.clusters}")
    if spec.clusters > spec.dim:
        raise ArgumentError(
            f"cluster count {spec.clusters} exceeds dimension {spec.dim}; "
            "orthogonal centroid placement needs clusters <= dim"
        )
    if not (math.isfinite(spec.separation) and spec.separation >= 0.0):
        raise ArgumentError(f"separation must be finite and >= 0, got {spec.separation}")
    if spec.speakers < 1:
        raise ArgumentError(f"speaker count must be >= 1, got {spec.speakers}")
    radius = spec.separation / np.sqrt(2.0)
    rng = stream(spec.seed, "clustered-library")
    # Draw order: record by record, modality by modality, dim values each.
    count = spec.n * len(MODALITY_ORDER) * spec.dim
    noise = np.fromiter((rng.next_gaussian() for _ in range(count)), np.float64, count)
    noise = noise.reshape(spec.n, len(MODALITY_ORDER), spec.dim)
    labels = [i % spec.clusters for i in range(spec.n)]
    speakers = [
        label if spec.speaker_per_cluster else i % spec.speakers for i, label in enumerate(labels)
    ]
    centroids = np.zeros((spec.n, spec.dim))
    centroids[np.arange(spec.n), labels] = radius
    return FootageLibrary.from_columns(
        spec.schema(),
        list(range(spec.n)),
        [f"movie_{i % spec.movies}" for i in range(spec.n)],
        [f"speaker_{s}" for s in speakers],
        [f"cluster_{label}" for label in labels],
        {m: centroids + noise[:, j] for j, m in enumerate(MODALITY_ORDER)},
    )


@dataclass
class PurityResult:
    purity: float
    mean_score: float
    retrieved: int
    queries: int


def evaluate_purity(
    lib: FootageLibrary,
    k: int,
    metric: Metric = Metric.COSINE,
    mode: Mode = Mode.SPEAKER_AGNOSTIC,
) -> PurityResult:
    """Label purity of top-K retrieval with every record as its own query.

    Each query excludes its own record. Purity pools hits across the three
    channels: (hits sharing the query's label) / (total retrieved). Queries
    whose candidate pool is empty contribute nothing to either count.
    """
    hits = 0
    total = 0
    score_sum = 0.0
    for rec in lib.records:
        query = Query.from_record(rec)
        result = retrieve_all(lib, query, k, metric, mode)
        for channel in CHANNELS:
            for record_id, score in result.rankings[channel]:
                total += 1
                score_sum += score
                if lib.lookup(record_id).emotion_label == rec.emotion_label:
                    hits += 1
    purity = hits / total if total else 0.0
    mean_score = score_sum / total if total else 0.0
    return PurityResult(purity=purity, mean_score=mean_score, retrieved=total, queries=len(lib.records))
