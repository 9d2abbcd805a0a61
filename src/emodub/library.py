"""Reference footage library: per-sample emotion vectors in five modalities.

A library stores one record per reference clip, each holding five
fixed-dimension emotion vectors (scene, face, text-self, text-react, audio)
plus identifiers and an optional free-form emotion label used by the
synthetic evaluation harness. The library keeps each modality's vectors in
one array, and records view their rows (see :class:`FootageLibrary`). A
library is built whole, from columns: by loading a binary file, ingesting
JSON lines, synthesis, or subsampling another library. Retrieval then only
reads it.

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
    return EmotionVector(modality, 2.0 * rng.floats(dim) - 1.0)


def _row_vector(modality: Modality, row: np.ndarray) -> EmotionVector:
    """An :class:`EmotionVector` over one row of a library column, which the
    library has already validated as a whole."""
    vec = EmotionVector.__new__(EmotionVector)
    vec.modality = modality
    vec.values = row
    return vec


class _SpeakerColumn:
    """The speaker of every library row as an integer code, so that a
    speaker's rows are found with one array comparison."""

    __slots__ = ("codes", "_code_of")

    def __init__(self, speaker_ids):
        self._code_of: dict[str, int] = {}
        self.codes = np.array([self.code(s) for s in speaker_ids], dtype=np.int64)

    def code(self, speaker_id: str) -> int:
        return self._code_of.setdefault(speaker_id, len(self._code_of))

    def mask(self, speaker_id: str) -> np.ndarray:
        code = self._code_of.get(speaker_id)
        if code is None:
            return np.zeros(self.codes.shape, dtype=bool)
        return self.codes == code


class FootageRecord:
    """One row of a :class:`FootageLibrary`: identifiers plus five emotion
    vectors.

    The library makes its records. Each vector's ``values`` is a row view
    into the library's column for that modality, and setting ``speaker_id``
    also updates the library's speaker column.
    """

    __slots__ = (
        "record_id", "movie_id", "_speaker_id", "emotion_label",
        "scene", "face", "text_self", "text_react", "audio", "_home",
    )

    def __init__(
        self,
        home: tuple[_SpeakerColumn, int],
        record_id: int,
        movie_id: str,
        speaker_id: str,
        emotion_label: str | None,
        scene: EmotionVector,
        face: EmotionVector,
        text_self: EmotionVector,
        text_react: EmotionVector,
        audio: EmotionVector,
    ):
        #: (speaker column, row) of the record in its library
        self._home = home
        self.record_id = record_id
        self.movie_id = movie_id
        self._speaker_id = speaker_id
        self.emotion_label = None if emotion_label == "" else emotion_label
        self.scene = scene
        self.face = face
        self.text_self = text_self
        self.text_react = text_react
        self.audio = audio

    @property
    def speaker_id(self) -> str:
        return self._speaker_id

    @speaker_id.setter
    def speaker_id(self, value: str) -> None:
        self._speaker_id = value
        column, row = self._home
        column.codes[row] = column.code(value)

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


def _check_schema(schema: Schema) -> None:
    for m in MODALITY_ORDER:
        if m not in schema:
            raise SchemaError(f"schema is missing modality {m.value}")
        _check_dim(schema[m])


class FootageLibrary:
    """Ordered collection of footage records, stored by column.

    Each modality's vectors live in one C-contiguous ``(N, d)`` float64
    array (:meth:`matrix`), record ids in a uint64 array (:attr:`ids`) and
    speakers in an integer code array (:meth:`speaker_mask`), all in record
    order. ``records[i]`` is row ``i``: its five ``EmotionVector.values``
    are row views into the modality arrays, so an in-place write through
    ``values`` (``rec.scene.values *= 2``) is what the next retrieval
    reads, and setting a record's ``speaker_id`` updates the speaker
    column. ``id_index`` maps a record id to its row.

    A library is built whole: :meth:`from_columns` adopts the arrays of
    all its rows at once, and loading, ingestion, synthesis and subsampling
    all go through it. ``FootageLibrary(schema)`` is the empty library.
    Retrieval only reads, so a built library is safe to share across
    concurrent readers.
    """

    def __init__(self, schema: Schema):
        _check_schema(schema)
        self.schema = schema
        self.records: list[FootageRecord] = []
        self.id_index: dict[int, int] = {}
        self._vectors = {m: np.empty((0, schema[m])) for m in MODALITY_ORDER}
        self._ids = np.empty(0, dtype=np.uint64)
        self._speakers = _SpeakerColumn(())

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        record_ids: list[int],
        movie_ids: list[str],
        speaker_ids: list[str],
        labels: list[str | None],
        vectors: dict[Modality, np.ndarray],
    ) -> "FootageLibrary":
        """The library whose row ``i`` is ``record_ids[i]``, ``movie_ids[i]``,
        ..., ``vectors[m][i]``. Each ``vectors[m]`` must have shape
        ``(N, schema[m])``; float64 C-contiguous arrays are adopted, not copied.
        """
        lib = cls(schema)
        n = len(record_ids)
        for m in MODALITY_ORDER:
            arr = np.require(vectors[m], np.float64, ["C", "W"])
            if arr.shape != (n, schema[m]):
                raise SchemaError(
                    f"dimension mismatch for {m.value}: got shape {arr.shape}, "
                    f"schema says ({n}, {schema[m]})"
                )
            bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
            if bad.size:
                raise SchemaError(
                    f"emotion vector for {m.value} in record {record_ids[bad[0]]} "
                    "contains non-finite values"
                )
            lib._vectors[m] = arr
        lib._speakers = _SpeakerColumn(speaker_ids)
        columns = [lib._vectors[m] for m in MODALITY_ORDER]
        for row, (record_id, movie_id, speaker_id, label, *rows) in enumerate(
            zip(record_ids, movie_ids, speaker_ids, labels, *columns)
        ):
            if not 0 <= record_id < 1 << 64:
                raise SchemaError(f"record_id must fit in 64 unsigned bits, got {record_id}")
            if record_id in lib.id_index:
                raise SchemaError(f"duplicate record_id {record_id}")
            lib.id_index[record_id] = row
            lib.records.append(FootageRecord(
                (lib._speakers, row), record_id, movie_id, speaker_id, label,
                *(_row_vector(m, v) for m, v in zip(MODALITY_ORDER, rows)),
            ))
        lib._ids = np.array(record_ids, dtype=np.uint64)
        return lib

    def matrix(self, modality: Modality) -> np.ndarray:
        """The ``(N, d)`` array of the modality's vectors; row ``i`` is ``records[i]``."""
        return self._vectors[modality]

    @property
    def ids(self) -> np.ndarray:
        """Record ids in row order, as uint64."""
        return self._ids

    def speaker_mask(self, speaker_id: str) -> np.ndarray:
        """Boolean row mask of the records whose speaker is ``speaker_id``."""
        return self._speakers.mask(speaker_id)

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
        relative order. ``fraction`` must lie in (0, 1]. The sample holds
        copies of the selected rows.
        """
        if not (0.0 < fraction <= 1.0):
            raise ArgumentError(f"fraction must be in (0, 1], got {fraction}")
        n = len(self.records)
        rows = sample_indices(n, math.ceil(fraction * n), stream(seed, "subsample"))
        picked = [self.records[i] for i in rows]
        return FootageLibrary.from_columns(
            dict(self.schema),
            [r.record_id for r in picked],
            [r.movie_id for r in picked],
            [r.speaker_id for r in picked],
            [r.emotion_label for r in picked],
            {m: self.matrix(m)[rows] for m in MODALITY_ORDER},
        )


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
    payloads = np.hstack([lib.matrix(m) for m in MODALITY_ORDER]).astype("<f8", copy=False)
    for rec, payload in zip(lib.records, payloads):
        buf += struct.pack("<Q", rec.record_id)
        for s in (rec.movie_id, rec.speaker_id, rec.emotion_label or ""):
            buf += pack_string(s)
        buf += payload.tobytes()
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
    columns = _read_records(r, count, dims)
    if r.remaining:
        raise FormatError(f"{path}: {r.remaining} trailing bytes after last record")
    return FootageLibrary.from_columns(schema, *columns)


def _read_records(r: Reader, count: int, dims: tuple[int, ...]) -> tuple:
    """Ids, movies, speakers, labels and per-modality vector arrays of
    ``count`` records."""
    width = sum(dims)
    # id, three string lengths and the vectors: a smaller file cannot hold them
    if count * (20 + 8 * width) > r.remaining:
        raise FormatError(f"{r.path}: truncated payload: {count} records do not fit")
    vectors = {m: np.empty((count, d)) for m, d in zip(MODALITY_ORDER, dims)}
    edges = np.cumsum((0, *dims)).tolist()
    slots = [(vectors[m], lo, hi) for m, lo, hi in zip(MODALITY_ORDER, edges, edges[1:])]
    ids, movies, speakers, labels = [], [], [], []
    for i in range(count):
        ids.append(r.unpack("<Q", f"record {i} id")[0])
        movies.append(r.string(f"record {i} movie"))
        speakers.append(r.string(f"record {i} speaker"))
        labels.append(r.string(f"record {i} label") or None)
        payload = np.frombuffer(r.take(8 * width, f"record {i} vectors"), dtype="<f8")
        for column, lo, hi in slots:
            column[i] = payload[lo:hi]
    return ids, movies, speakers, labels, vectors


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


def _require_utf8(text: str, where: str) -> None:
    """Reject text that UTF-8 cannot encode: the lone surrogates that
    undecodable bytes become, or that a ``\\ud800`` JSON escape decodes to."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise FormatError(f"{where}: invalid UTF-8") from None


#: The Python types :func:`json.loads` gives JSON numbers (``bool`` is not one).
_JSON_NUMBERS = frozenset((int, float))
_JSONL_FIELDS = ("record_id", "movie_id", "speaker_id", *(m.value for m in MODALITY_ORDER))


def read_jsonl(path, schema: Schema | None = None) -> FootageLibrary:
    """Ingest precomputed vectors; schema inferred from the first record if absent.

    A malformed line raises :class:`FormatError` naming ``path:line``:
    ``record_id`` must be a JSON integer in ``[0, 2**64)`` and vector
    entries JSON numbers (booleans and numeric strings are rejected, not
    converted). A repeated ``record_id`` raises :class:`SchemaError`
    naming its second line.
    """
    if schema is not None:
        _check_schema(schema)
    ids, movies, speakers, labels = [], [], [], []
    # The ids read so far; dropped before the library builds its own id index.
    # Their line numbers are not kept: 10^4 more small objects raised peak RSS.
    seen: set[int] = set()
    rows: dict[Modality, list[np.ndarray]] = {m: [] for m in MODALITY_ORDER}
    # Undecodable bytes become lone surrogates here, which no valid UTF-8 text holds.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            _require_utf8(line, where)
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{where}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise FormatError(f"{where}: expected a JSON object, got {type(obj).__name__}")
            missing = [key for key in _JSONL_FIELDS if key not in obj]
            if missing:
                raise FormatError(f"{where}: missing field {missing[0]!r}")
            label = obj.get("emotion_label")
            if label is not None and not isinstance(label, str):
                raise FormatError(f"{where}: emotion_label must be a string or null")
            record_id = obj["record_id"]
            if type(record_id) is not int:  # a JSON integer; bool is not one
                raise FormatError(f"{where}: record_id {record_id!r} is not an integer")
            if not 0 <= record_id < 1 << 64:
                raise FormatError(f"{where}: record_id must fit in 64 unsigned bits, got {record_id}")
            if record_id in seen:
                raise SchemaError(f"{where}: duplicate record_id {record_id}")
            seen.add(record_id)
            parsed = {}
            for m in MODALITY_ORDER:
                values = obj[m.value]
                if not isinstance(values, list):
                    raise FormatError(f"{where}: {m.value} is not a flat list of numbers")
                if not _JSON_NUMBERS.issuperset(map(type, values)):
                    raise FormatError(f"{where}: {m.value} holds a non-numeric entry")
                try:
                    parsed[m] = np.asarray(values, dtype=np.float64)
                except OverflowError:  # an integer beyond float64
                    raise FormatError(f"{where}: {m.value} holds a non-numeric entry") from None
            if schema is None:
                schema = {m: vec.shape[0] for m, vec in parsed.items()}
                _check_schema(schema)
            for m, vec in parsed.items():
                if vec.shape[0] != schema[m]:
                    raise SchemaError(
                        f"dimension mismatch for {m.value} in record {record_id}: "
                        f"got {vec.shape[0]}, schema says {schema[m]}"
                    )
                rows[m].append(vec)
            movie, speaker = str(obj["movie_id"]), str(obj["speaker_id"])
            for field, text in (("movie_id", movie), ("speaker_id", speaker), ("emotion_label", label)):
                _require_utf8(text or "", f"{where}: {field}")
            ids.append(record_id)
            movies.append(movie)
            speakers.append(speaker)
            labels.append(label)
    del seen
    if schema is None:
        raise FormatError(f"{path}: no records and no schema given")
    vectors = {m: np.array(rows[m]).reshape(len(ids), schema[m]) for m in MODALITY_ORDER}
    return FootageLibrary.from_columns(dict(schema), ids, movies, speakers, labels, vectors)
