"""Reference footage library: per-sample emotion vectors in five modalities.

A library stores one record per reference clip, each holding five
fixed-dimension emotion vectors (scene, face, text-self, text-react, audio)
plus identifiers and an optional free-form emotion label used by the
synthetic evaluation harness.

Two persistence formats are provided:

* a binary format (magic ``MRFL``) that round-trips vector payloads
  bit-exactly, documented in :func:`save_library`;
* a line-oriented JSON interchange format (one record per line) for
  ingesting precomputed vectors from external extractors.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .binfmt import Reader, pack_string
from .errors import ArgumentError, FormatError, SchemaError
from .rng import SplitMix64, stream


class Modality(Enum):
    SCENE = "scene"
    FACE = "face"
    TEXT_SELF = "text_self"
    TEXT_REACT = "text_react"
    AUDIO = "audio"


#: Fixed serialization order of the five modalities: their declaration order.
MODALITY_ORDER: tuple[Modality, ...] = tuple(Modality)

#: schema: registered vector dimension per modality
Schema = dict[Modality, int]


def uniform_schema(dim: int) -> Schema:
    """Schema with the same dimension for all five modalities."""
    _check_dim(dim)
    return {m: dim for m in MODALITY_ORDER}


def _check_dim(dim: int, minimum: int = 1) -> None:
    if dim < minimum:
        raise SchemaError(f"emotion vector dimension must be >= {minimum}, got {dim}")


class EmotionVector:
    """A real-valued vector in one modality's emotion space.

    Values are 64-bit floats and must be finite. Equality compares the
    modality and the exact bytes of the payload.
    """

    __slots__ = ("modality", "values")

    def __init__(self, modality: Modality, values):
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise SchemaError(f"emotion vector must be 1-D, got shape {arr.shape}")
        _check_dim(arr.shape[0])
        if not np.isfinite(arr).all():
            raise SchemaError(f"emotion vector for {modality.value} contains non-finite values")
        self.modality = modality
        self.values = arr

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmotionVector):
            return NotImplemented
        return (
            self.modality is other.modality
            and self.values.tobytes() == other.values.tobytes()
        )

    def __repr__(self) -> str:
        return f"EmotionVector({self.modality.value}, dim={self.dim})"


def synthetic_extract(seed: int, content_key: str, modality: Modality, dim: int) -> EmotionVector:
    """Deterministic stand-in for a pretrained emotion extractor.

    Draws ``dim`` values in [-1, 1) from the SplitMix64 stream keyed by
    ``(seed, content_key, modality.value)``; see :mod:`emodub.rng` for the
    exact algorithm. Identical inputs always produce identical vectors.
    """
    _check_dim(dim, minimum=2)
    rng = stream(seed, content_key, modality.value)
    return EmotionVector(modality, [rng.next_signed_unit() for _ in range(dim)])


@dataclass(eq=False)
class FootageRecord:
    """One reference-library sample: identifiers plus five emotion vectors."""

    record_id: int
    movie_id: str
    speaker_id: str
    emotion_label: str | None
    scene: EmotionVector
    face: EmotionVector
    text_self: EmotionVector
    text_react: EmotionVector
    audio: EmotionVector

    def __post_init__(self):
        if not (0 <= int(self.record_id) < 1 << 64):
            raise SchemaError(f"record_id must fit in 64 unsigned bits, got {self.record_id}")
        if self.emotion_label == "":
            self.emotion_label = None

    def vector(self, modality: Modality) -> EmotionVector:
        return getattr(self, modality.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FootageRecord):
            return NotImplemented
        return (
            self.record_id == other.record_id
            and self.movie_id == other.movie_id
            and self.speaker_id == other.speaker_id
            and self.emotion_label == other.emotion_label
            and all(self.vector(m) == other.vector(m) for m in MODALITY_ORDER)
        )


def record_from_vectors(
    record_id: int,
    movie_id: str,
    speaker_id: str,
    emotion_label: str | None,
    vectors: dict[Modality, np.ndarray],
) -> FootageRecord:
    """Ingestion path for precomputed vectors; stores the payloads unchanged."""
    missing = [m.value for m in MODALITY_ORDER if m not in vectors]
    if missing:
        raise SchemaError(f"missing modalities in precomputed record: {missing}")
    return FootageRecord(
        record_id=record_id,
        movie_id=movie_id,
        speaker_id=speaker_id,
        emotion_label=emotion_label,
        scene=EmotionVector(Modality.SCENE, vectors[Modality.SCENE]),
        face=EmotionVector(Modality.FACE, vectors[Modality.FACE]),
        text_self=EmotionVector(Modality.TEXT_SELF, vectors[Modality.TEXT_SELF]),
        text_react=EmotionVector(Modality.TEXT_REACT, vectors[Modality.TEXT_REACT]),
        audio=EmotionVector(Modality.AUDIO, vectors[Modality.AUDIO]),
    )


@dataclass(eq=False)
class FootageLibrary:
    """Ordered collection of footage records with an id index.

    Construction is single-writer (``add``); once built or loaded, treat the
    library as immutable: every retrieval entry point only reads, so a
    library is safe to share across concurrent readers.
    """

    schema: Schema
    records: list[FootageRecord] = field(default_factory=list)
    id_index: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for m in MODALITY_ORDER:
            if m not in self.schema:
                raise SchemaError(f"schema is missing modality {m.value}")
            _check_dim(self.schema[m])

    def add(self, record: FootageRecord) -> None:
        if record.record_id in self.id_index:
            raise SchemaError(f"duplicate record_id {record.record_id}")
        for m in MODALITY_ORDER:
            got = record.vector(m).dim
            want = self.schema[m]
            if got != want:
                raise SchemaError(
                    f"dimension mismatch for {m.value} in record {record.record_id}: "
                    f"got {got}, schema says {want}"
                )
        self.id_index[record.record_id] = len(self.records)
        self.records.append(record)

    def lookup(self, record_id: int) -> FootageRecord:
        try:
            return self.records[self.id_index[record_id]]
        except KeyError:
            raise KeyError(f"record_id {record_id} not in library") from None

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FootageLibrary):
            return NotImplemented
        return self.schema == other.schema and self.records == other.records

    def subsample(self, fraction: float, seed: int) -> "FootageLibrary":
        """Uniform sample without replacement of ceil(fraction * N) records.

        Deterministic in ``seed``; selected records keep their original
        relative order. ``fraction`` must lie in (0, 1].
        """
        if not (0.0 < fraction <= 1.0):
            raise ArgumentError(f"fraction must be in (0, 1], got {fraction}")
        n = len(self.records)
        out = FootageLibrary(dict(self.schema))
        for idx in sample_indices(n, math.ceil(fraction * n), stream(seed, "subsample")):
            out.add(self.records[idx])
        return out


def subsample(lib: FootageLibrary, fraction: float, seed: int) -> FootageLibrary:
    return lib.subsample(fraction, seed)


def sample_indices(n: int, count: int, rng: SplitMix64) -> list[int]:
    """Ascending indices of a uniform sample of ``min(count, n)`` of
    ``range(n)`` without replacement, by partial Fisher-Yates over ``rng``."""
    if count < 0:
        raise ArgumentError(f"sample size must be >= 0, got {count}")
    count = min(count, n)
    indices = list(range(n))
    for i in range(count):
        j = i + rng.next_below(n - i)
        indices[i], indices[j] = indices[j], indices[i]
    return sorted(indices[:count])


# --- binary format ---------------------------------------------------------

_MAGIC = b"MRFL"
_VERSION = 1


def save_library(lib: FootageLibrary, path) -> None:
    """Write the binary library file.

    Layout (all integers little-endian): magic ``MRFL``; u32 version (1);
    five u32 modality dims in :data:`MODALITY_ORDER`; u64 record count.
    Then per record: u64 record_id; three length-prefixed UTF-8 strings
    (movie, speaker, label; u32 lengths, empty allowed, absent label stored
    as empty); five vector payloads as raw little-endian float64 in schema
    order.
    """
    buf = bytearray()
    buf += _MAGIC
    buf += struct.pack("<I", _VERSION)
    buf += struct.pack("<5I", *(lib.schema[m] for m in MODALITY_ORDER))
    buf += struct.pack("<Q", len(lib.records))
    for rec in lib.records:
        buf += struct.pack("<Q", rec.record_id)
        for s in (rec.movie_id, rec.speaker_id, rec.emotion_label or ""):
            buf += pack_string(s)
        for m in MODALITY_ORDER:
            buf += rec.vector(m).values.astype("<f8", copy=False).tobytes()
    Path(path).write_bytes(bytes(buf))


def load_library(path) -> FootageLibrary:
    """Read a file written by :func:`save_library`; round trip is bit-exact."""
    r = Reader(path)
    magic = r.take(4, "magic")
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    (version,) = r.unpack("<I", "version")
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}, expected {_VERSION}")
    dims = r.unpack("<5I", "modality dims")
    for m, d in zip(MODALITY_ORDER, dims):
        if d < 1:
            raise FormatError(f"{path}: invalid dimension {d} for {m.value}")
    schema = dict(zip(MODALITY_ORDER, dims))
    (count,) = r.unpack("<Q", "record count")
    lib = FootageLibrary(schema)
    for i in range(count):
        (record_id,) = r.unpack("<Q", f"record {i} id")
        strings = [r.string(f"record {i} {what}") for what in ("movie", "speaker", "label")]
        vectors = {}
        for m in MODALITY_ORDER:
            raw = r.take(8 * schema[m], f"record {i} {m.value} vector")
            vectors[m] = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        lib.add(
            record_from_vectors(
                record_id, strings[0], strings[1], strings[2] or None, vectors
            )
        )
    if r.remaining:
        raise FormatError(f"{path}: {r.remaining} trailing bytes after last record")
    return lib


# --- JSON-lines interchange format -----------------------------------------


def write_jsonl(lib: FootageLibrary, path) -> None:
    """One record per line as a JSON object; floats use shortest round-trip repr."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in lib.records:
            obj = {
                "record_id": rec.record_id,
                "movie_id": rec.movie_id,
                "speaker_id": rec.speaker_id,
                "emotion_label": rec.emotion_label,
            }
            for m in MODALITY_ORDER:
                obj[m.value] = rec.vector(m).values.tolist()
            fh.write(json.dumps(obj) + "\n")


def read_jsonl(path, schema: Schema | None = None) -> FootageLibrary:
    """Ingest precomputed vectors; schema inferred from the first record if absent."""
    lib: FootageLibrary | None = None
    if schema is not None:
        lib = FootageLibrary(dict(schema))
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise FormatError(f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
            label = obj.get("emotion_label")
            if label is not None and not isinstance(label, str):
                raise FormatError(f"{path}:{lineno}: emotion_label must be a string or null")
            try:
                vectors = {m: np.asarray(obj[m.value], dtype=np.float64) for m in MODALITY_ORDER}
                rec = record_from_vectors(
                    int(obj["record_id"]),
                    str(obj["movie_id"]),
                    str(obj["speaker_id"]),
                    label,
                    vectors,
                )
            except KeyError as exc:
                raise FormatError(f"{path}:{lineno}: missing field {exc}") from None
            if lib is None:
                lib = FootageLibrary({m: vectors[m].shape[0] for m in MODALITY_ORDER})
            lib.add(rec)
    if lib is None:
        raise FormatError(f"{path}: no records and no schema given")
    return lib
