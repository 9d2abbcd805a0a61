"""Reference footage library: per-sample emotion vectors in five modalities.

A library stores one record per reference clip, each holding five
fixed-dimension emotion vectors (scene, face, text-self, text-react, audio)
plus identifiers and an optional free-form emotion label used by the
synthetic evaluation harness. The library is its columns, each stored
column-major so that retrieval reads every vector entry of all records as
one contiguous run, and records are row views made on access (see
:class:`FootageLibrary`). A library is built whole, from columns, and
retrieval then only reads it.

Two persistence formats are provided:

* a binary format (magic ``MRFL``) that round-trips vector payloads
  bit-exactly, documented in :func:`save_library`;
* a line-oriented JSON interchange format (one record per line) for
  ingesting precomputed vectors from external extractors.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from collections.abc import Sequence
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


class FootageRecord:
    """Row ``row`` of a :class:`FootageLibrary`, made when accessed; every
    field reads the library's columns. Each vector's ``values`` is a
    read-only row view of its modality's column-major array (strided, not
    contiguous): a built library is immutable; build a new one with
    :meth:`FootageLibrary.from_columns`."""

    __slots__ = ("library", "row")

    def __init__(self, library: "FootageLibrary", row: int):
        self.library = library
        self.row = row

    record_id = property(lambda self: int(self.library.ids[self.row]))
    movie_id = property(lambda self: self.library.movie_ids[self.row])
    emotion_label = property(lambda self: self.library.emotion_labels[self.row])
    speaker_id = property(lambda self: self.library.speaker_names[self.library.speaker_codes[self.row]])

    def vector(self, modality: Modality) -> EmotionVector:
        # the library validated its columns whole, so the row needs no check
        vec = EmotionVector.__new__(EmotionVector)
        vec.modality = modality
        vec.values = self.library.matrix(modality)[self.row]
        return vec

    scene = property(lambda self: self.vector(Modality.SCENE))
    face = property(lambda self: self.vector(Modality.FACE))
    text_self = property(lambda self: self.vector(Modality.TEXT_SELF))
    text_react = property(lambda self: self.vector(Modality.TEXT_REACT))
    audio = property(lambda self: self.vector(Modality.AUDIO))

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


class _Records(Sequence):
    """The rows of a library as :class:`FootageRecord` views made on access."""

    __slots__ = ("_lib",)

    def __init__(self, lib: "FootageLibrary"):
        self._lib = lib

    def __len__(self) -> int:
        return len(self._lib)

    def __getitem__(self, index) -> FootageRecord:
        # a range checks the index and counts a negative one from the end
        return FootageRecord(self._lib, range(len(self._lib))[operator.index(index)])


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_schema(schema: Schema) -> None:
    for m in MODALITY_ORDER:
        if m not in schema:
            raise SchemaError(f"schema is missing modality {m.value}")
        _check_dim(schema[m])


class FootageLibrary:
    """Ordered collection of footage records: its columns, in record order.

    One column-major (Fortran-contiguous) ``(N, d)`` float64 array per
    modality (:meth:`matrix`): entry ``j`` of every record is one contiguous
    run, the unit-stride pass retrieval makes per dimension. There is no
    row-major copy; a row is a strided view. Beside them: record ids as
    uint64 (:attr:`ids`; :attr:`id_index` maps an id to its row), movie ids
    and labels as lists, and speakers as integer codes into a name table, so
    a speaker's rows are one array comparison (:meth:`speaker_mask`).
    ``records[i]`` and :meth:`lookup` make a :class:`FootageRecord` row view
    on access. A library is built whole by :meth:`from_columns`, which
    loading, ingestion, synthesis and subsampling all call;
    ``FootageLibrary(schema)`` is the empty library. A built library is
    immutable; build a new one with :meth:`from_columns`. So its cosine
    normalisers (:meth:`norms`) are computed once, and it is safe to share
    across concurrent readers.
    """

    def __init__(self, schema: Schema):
        _check_schema(schema)
        self.schema = schema
        self._vectors = {m: _frozen(np.empty((0, schema[m]), order="F")) for m in MODALITY_ORDER}
        self.ids = _frozen(np.empty(0, dtype=np.uint64))
        self.id_index: dict[int, int] = {}
        self.movie_ids: list[str] = []
        self.emotion_labels: list[str | None] = []
        self.speaker_codes = _frozen(np.empty(0, dtype=np.int64))
        self.speaker_names: list[str] = []
        self._code_of: dict[str, int] = {}
        self._norms: dict[Modality, np.ndarray] = {}

    @classmethod
    def from_columns(
        cls, schema: Schema, record_ids: list[int], movie_ids: list[str], speaker_ids: list[str],
        labels: list[str | None], vectors: dict[Modality, np.ndarray],
    ) -> "FootageLibrary":
        """The library whose row ``i`` is ``record_ids[i]``, ..., ``vectors[m][i]``.
        Each ``vectors[m]`` must have shape ``(N, schema[m])``; float64
        column-major arrays are adopted, not copied, and made read-only; any
        other array is copied once into one. An empty label is ``None``.
        Every column has one entry per record, and every speaker is a
        ``str``, else :class:`SchemaError`. The library owns what it
        adopts: numpy does not make views that the caller already holds
        read-only, so they must not be written."""
        lib = cls(schema)
        n = len(record_ids)
        for m in MODALITY_ORDER:
            arr = np.require(vectors[m], np.float64, ["F"])
            if arr.shape != (n, schema[m]):
                shapes = f"got shape {arr.shape}, schema says ({n}, {schema[m]})"
                raise SchemaError(f"dimension mismatch for {m.value}: {shapes}")
            bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
            if bad.size:
                where = f"{m.value} in record {record_ids[bad[0]]}"
                raise SchemaError(f"emotion vector for {where} contains non-finite values")
            lib._vectors[m] = _frozen(arr)
        if n and not (min(record_ids) >= 0 and max(record_ids) < 1 << 64):
            bad_id = next(i for i in record_ids if not 0 <= i < 1 << 64)
            raise SchemaError(f"record_id must fit in 64 unsigned bits, got {bad_id}")
        lib.id_index = dict(zip(record_ids, range(n)))
        if len(lib.id_index) < n:
            seen: set[int] = set()
            for record_id in record_ids:
                if record_id in seen:
                    raise SchemaError(f"duplicate record_id {record_id}")
                seen.add(record_id)
        for name, column in (("movie_ids", movie_ids), ("speaker_ids", speaker_ids), ("labels", labels)):
            if len(column) != n:
                raise SchemaError(f"{name} has {len(column)} entries, record_ids has {n}")
        for record_id, speaker in zip(record_ids, speaker_ids):
            if not isinstance(speaker, str):
                raise SchemaError(f"record {record_id} has no speaker_id: {speaker!r} is not a string")
        lib.ids = _frozen(np.array(record_ids, dtype=np.uint64))
        lib.movie_ids = list(movie_ids)
        lib.emotion_labels = [None if label == "" else label for label in labels]
        code_of = lib._code_of
        lib.speaker_codes = _frozen(np.array([code_of.setdefault(s, len(code_of)) for s in speaker_ids], np.int64))
        lib.speaker_names = list(code_of)
        return lib

    @property
    def records(self) -> _Records:
        """The rows as :class:`FootageRecord` views, made on access."""
        return _Records(self)

    def matrix(self, modality: Modality) -> np.ndarray:
        """The column-major ``(N, d)`` array of the modality's vectors; row
        ``i`` is ``records[i]``, and column ``j`` (``matrix(m).T[j]``) is
        contiguous."""
        return self._vectors[modality]

    def norms(self, modality: Modality) -> np.ndarray:
        """Each row's L2 norm, the cosine normaliser: ``np.sqrt`` of its
        :func:`~emodub.retrieval.squared_norms`. Read-only, computed on first
        use and kept; readers that fill it at once compute the same bits."""
        if modality not in self._norms:
            from .retrieval import squared_norms  # retrieval imports this module
            self._norms[modality] = _frozen(np.sqrt(squared_norms(self._vectors[modality])))
        return self._norms[modality]

    @property
    def speaker_ids(self) -> list[str]:
        """The speaker of every row, as a new list."""
        names = self.speaker_names
        return [names[code] for code in self.speaker_codes.tolist()]

    def speaker_mask(self, speaker_id: str) -> np.ndarray:
        """Boolean row mask of the records whose speaker is ``speaker_id``."""
        return self.speaker_codes == self._code_of.get(speaker_id, -1)  # codes are >= 0

    def lookup(self, record_id: int) -> FootageRecord:
        try:
            return FootageRecord(self, self.id_index[record_id])
        except KeyError:
            raise KeyError(f"record_id {record_id} not in library") from None

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FootageLibrary):
            return NotImplemented
        return (
            self.schema == other.schema
            and np.array_equal(self.ids, other.ids)
            and self.movie_ids == other.movie_ids
            and self.speaker_ids == other.speaker_ids
            and self.emotion_labels == other.emotion_labels
            and all(self.matrix(m).tobytes() == other.matrix(m).tobytes() for m in MODALITY_ORDER)
        )

    def subsample(self, fraction: float, seed: int) -> "FootageLibrary":
        """Uniform sample without replacement of ceil(fraction * N) records.

        Deterministic in ``seed``; selected records keep their original
        relative order. ``fraction`` must lie in (0, 1]. The sample holds
        copies of the selected rows.
        """
        if not (0.0 < fraction <= 1.0):
            raise ArgumentError(f"fraction must be in (0, 1], got {fraction}")
        n = len(self)
        rows = sample_indices(n, math.ceil(fraction * n), stream(seed, "subsample"))
        names = self.speaker_names
        return FootageLibrary.from_columns(
            dict(self.schema),
            self.ids[rows].tolist(),
            [self.movie_ids[i] for i in rows],
            [names[code] for code in self.speaker_codes[rows].tolist()],
            [self.emotion_labels[i] for i in rows],
            # rows of the transposed (d, N) view keep the copy column-major
            {m: self.matrix(m).T[:, rows].T for m in MODALITY_ORDER},
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
    order. Every row has a string speaker (:meth:`FootageLibrary.from_columns`
    enforces it), so every library can be written.
    """
    buf = bytearray(struct.pack("<4sI5IQ", _MAGIC, _VERSION, *(lib.schema[m] for m in MODALITY_ORDER), len(lib)))
    codes = lib.speaker_codes.tolist()
    speakers = {code: pack_string(lib.speaker_names[code]) for code in set(codes)}  # each one in use, once
    edges = np.cumsum((0, *(lib.schema[m] for m in MODALITY_ORDER))).tolist()
    payloads = np.empty((len(lib), edges[-1]), dtype="<f8")  # row-major: a record's bytes are its row
    for m, lo, hi in zip(MODALITY_ORDER, edges, edges[1:]):
        payloads[:, lo:hi] = lib.matrix(m)
    for record_id, movie, code, label, payload in zip(
        lib.ids.tolist(), lib.movie_ids, codes, lib.emotion_labels, payloads
    ):
        buf += struct.pack("<Q", record_id)
        buf += pack_string(movie)
        buf += speakers[code]
        buf += pack_string(label or "")
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
    ``count`` records, read in one pass over the file's bytes."""
    width = 8 * sum(dims)
    # id, three string lengths and the vectors: a smaller file cannot hold them
    if count * (20 + width) > r.remaining:
        raise FormatError(f"{r.path}: truncated payload: {count} records do not fit")
    data, pos, view = r.data, r.pos, memoryview(r.data)
    id_and_length, length = struct.Struct("<QI").unpack_from, struct.Struct("<I").unpack_from
    ids, movies, speakers, labels, payloads = [], [], [], [], []
    for i in range(count):
        start = pos
        try:
            record_id, n = id_and_length(data, pos)
            pos += 12 + n
            movie = data[pos - n : pos]
            (n,) = length(data, pos)
            pos += 4 + n
            speaker = data[pos - n : pos]
            (n,) = length(data, pos)
            pos += 4 + n
            label = data[pos - n : pos]
            pos += width
            if pos > len(data):
                raise ValueError("record cut short")
            movies.append(movie.decode("utf-8"))
            speakers.append(speaker.decode("utf-8"))
            labels.append(label.decode("utf-8"))
        except (struct.error, ValueError):  # UnicodeDecodeError is a ValueError
            # the checked reader reads the record again and raises the error naming its field
            r.pos = start
            r.unpack("<Q", f"record {i} id")
            for field in ("movie", "speaker", "label"):
                r.string(f"record {i} {field}")
            r.take(width, f"record {i} vectors")
        ids.append(record_id)
        payloads.append(view[pos - width : pos])
    r.pos = pos
    block = np.frombuffer(b"".join(payloads), dtype="<f8").reshape(count, width // 8)
    edges = np.cumsum((0, *dims)).tolist()
    vectors = {m: block[:, lo:hi].copy(order="F") for m, lo, hi in zip(MODALITY_ORDER, edges, edges[1:])}
    return ids, movies, speakers, labels, vectors


# --- JSON-lines interchange format -----------------------------------------


def write_jsonl(lib: FootageLibrary, path) -> None:
    """One record per line as a JSON object; floats use shortest round-trip
    repr."""
    columns = [lib.matrix(m) for m in MODALITY_ORDER]
    with open(path, "w", encoding="utf-8") as fh:
        for record_id, movie, speaker, label, *rows in zip(
            lib.ids.tolist(), lib.movie_ids, lib.speaker_ids, lib.emotion_labels, *columns
        ):
            obj = {"record_id": record_id, "movie_id": movie, "speaker_id": speaker, "emotion_label": label}
            obj.update(zip(_MODALITY_NAMES, (row.tolist() for row in rows)))
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
_MODALITY_NAMES = tuple(m.value for m in MODALITY_ORDER)
_JSONL_FIELDS = ("record_id", "movie_id", "speaker_id", *_MODALITY_NAMES)


def read_jsonl(path, schema: Schema | None = None) -> FootageLibrary:
    """Ingest precomputed vectors; schema inferred from the first record if absent.

    A malformed line raises :class:`FormatError` naming ``path:line``:
    ``record_id`` must be a JSON integer in ``[0, 2**64)``, ``movie_id``
    and ``speaker_id`` JSON strings and vector entries JSON numbers;
    nothing is converted. A repeated ``record_id`` raises
    :class:`SchemaError` naming its second line.
    """
    if schema is not None:
        _check_schema(schema)
    ids, movies, speakers, labels = [], [], [], []
    # The ids read so far; dropped before the library builds its own id index.
    # Their line numbers are not kept: 10^4 more small objects raised peak RSS.
    seen: set[int] = set()
    # per modality, in MODALITY_ORDER: positions, not Modality keys, which hash slowly
    rows: list[list[np.ndarray]] = [[] for _ in MODALITY_ORDER]
    dims: tuple[int, ...] | None = None if schema is None else tuple(schema[m] for m in MODALITY_ORDER)
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
            movie, speaker = obj["movie_id"], obj["speaker_id"]
            for field, text in (("movie_id", movie), ("speaker_id", speaker)):
                if not isinstance(text, str):
                    raise FormatError(f"{where}: {field} must be a string, got {json.dumps(text)}")
            record_id = obj["record_id"]
            if type(record_id) is not int:  # a JSON integer; bool is not one
                raise FormatError(f"{where}: record_id {record_id!r} is not an integer")
            if not 0 <= record_id < 1 << 64:
                raise FormatError(f"{where}: record_id must fit in 64 unsigned bits, got {record_id}")
            if record_id in seen:
                raise SchemaError(f"{where}: duplicate record_id {record_id}")
            seen.add(record_id)
            parsed = []
            for name in _MODALITY_NAMES:
                values = obj[name]
                if not isinstance(values, list):
                    raise FormatError(f"{where}: {name} is not a flat list of numbers")
                if not _JSON_NUMBERS.issuperset(map(type, values)):
                    raise FormatError(f"{where}: {name} holds a non-numeric entry")
                try:
                    parsed.append(np.asarray(values, dtype=np.float64))
                except OverflowError:  # an integer beyond float64
                    raise FormatError(f"{where}: {name} holds a non-numeric entry") from None
            if dims is None:
                dims = tuple(vec.shape[0] for vec in parsed)
                _check_schema(dict(zip(MODALITY_ORDER, dims)))
            for name, dim, vec, column in zip(_MODALITY_NAMES, dims, parsed, rows):
                if vec.shape[0] != dim:
                    raise SchemaError(
                        f"dimension mismatch for {name} in record {record_id}: "
                        f"got {vec.shape[0]}, schema says {dim}"
                    )
                column.append(vec)
            for field, text in (("movie_id", movie), ("speaker_id", speaker), ("emotion_label", label)):
                _require_utf8(text or "", f"{where}: {field}")
            ids.append(record_id)
            movies.append(movie)
            speakers.append(speaker)
            labels.append(label)
    del seen
    if dims is None:
        raise FormatError(f"{path}: no records and no schema given")
    vectors = {
        m: np.array(column, order="F").reshape(len(ids), d)  # column-major, as the library keeps it
        for m, d, column in zip(MODALITY_ORDER, dims, rows)
    }
    return FootageLibrary.from_columns(dict(zip(MODALITY_ORDER, dims)), ids, movies, speakers, labels, vectors)
