"""Footage library: extraction, construction, serialization, subsampling."""

import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emodub.errors import ArgumentError, FormatError, SchemaError
from emodub.library import (
    EmotionVector,
    FootageLibrary,
    FootageRecord,
    Modality,
    MODALITY_ORDER,
    load_library,
    read_jsonl,
    save_library,
    synthetic_extract,
    uniform_schema,
    write_jsonl,
)
from emodub.retrieval import Mode, Query, retrieve_all, squared_norms
from emodub.synthetic import ClusterSpec, evaluate_purity, generate_clustered_library

from conftest import near_tie_rows, random_library, rebuilt

# Frozen offline from the documented PRNG algorithm: seed=7, key="a", scene, dim=8.
EXPECTED_SCENE_7A = [
    -0.06153235701194848,
    -0.9713804759437044,
    -0.14192241957874951,
    0.8185360841803708,
    0.6357544513474851,
    0.7481600636784598,
    -0.2813114051708938,
    0.7834866355465839,
]


class TestSyntheticExtract:
    def test_deterministic(self):
        a = synthetic_extract(7, "a", Modality.SCENE, 8)
        b = synthetic_extract(7, "a", Modality.SCENE, 8)
        assert a == b

    def test_seed_keys_the_stream(self):
        a = synthetic_extract(7, "a", Modality.SCENE, 8)
        b = synthetic_extract(8, "a", Modality.SCENE, 8)
        assert a != b

    def test_content_and_modality_key_the_stream(self):
        base = synthetic_extract(7, "a", Modality.SCENE, 8)
        assert base != synthetic_extract(7, "b", Modality.SCENE, 8)
        assert not np.array_equal(
            base.values, synthetic_extract(7, "a", Modality.FACE, 8).values
        )

    def test_matches_frozen_reference_values(self):
        vec = synthetic_extract(7, "a", Modality.SCENE, 8)
        assert vec.values.tolist() == EXPECTED_SCENE_7A

    def test_values_in_range(self):
        vec = synthetic_extract(3, "content", Modality.AUDIO, 512)
        assert np.all(vec.values >= -1.0) and np.all(vec.values < 1.0)

    def test_zero_dim_rejected(self):
        with pytest.raises(SchemaError):
            synthetic_extract(1, "x", Modality.SCENE, 0)
        with pytest.raises(SchemaError):
            synthetic_extract(1, "x", Modality.SCENE, 1)


class TestEmotionVector:
    def test_rejects_non_finite(self):
        with pytest.raises(SchemaError):
            EmotionVector(Modality.SCENE, [1.0, float("nan")])
        with pytest.raises(SchemaError):
            EmotionVector(Modality.SCENE, [float("inf"), 0.0])

    def test_equality_is_bitwise(self):
        a = EmotionVector(Modality.FACE, [0.0, 1.0])
        b = EmotionVector(Modality.FACE, [-0.0, 1.0])  # -0.0 differs in bits
        assert a != b
        assert a == EmotionVector(Modality.FACE, [0.0, 1.0])


def extracted_columns(seed, content_keys, dim):
    """Per-modality vector arrays with one synthetic-extractor row per content key."""
    return {
        m: np.array([synthetic_extract(seed, key, m, dim).values for key in content_keys])
        for m in MODALITY_ORDER
    }


class TestBuildRecord:
    def test_duplicate_id_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            FootageLibrary.from_columns(
                uniform_schema(4), [1, 1], ["m"] * 2, ["s"] * 2, [None] * 2,
                extracted_columns(0, ["a", "b"], 4),
            )

    def test_wrong_extractor_dim_rejected(self):
        with pytest.raises(SchemaError, match="dimension mismatch"):
            FootageLibrary.from_columns(
                uniform_schema(4), [1], ["m"], ["s"], [None],
                extracted_columns(0, ["a"], 6),  # dim 6 into dim 4
            )

    @pytest.mark.parametrize("column", ["movie_ids", "speaker_ids", "labels"])
    def test_column_of_another_length_rejected(self, column):
        columns = {"movie_ids": ["m"] * 4, "speaker_ids": ["s"] * 4, "labels": ["x"] * 4}
        columns[column] = columns[column][:2]
        with pytest.raises(SchemaError, match=f"^{column} has 2 entries, record_ids has 4$"):
            FootageLibrary.from_columns(
                uniform_schema(2), [0, 1, 2, 3], **columns, vectors=extracted_columns(0, "abcd", 2)
            )

    def test_precomputed_vectors_stored_unchanged(self, rng):
        vectors = {m: rng.normal(size=(1, 5)) for m in MODALITY_ORDER}
        payloads = {m: v.tobytes() for m, v in vectors.items()}
        lib = FootageLibrary.from_columns(uniform_schema(5), [9], ["m"], ["s"], ["lab"], vectors)
        for m in MODALITY_ORDER:
            assert lib.records[0].vector(m).values.tobytes() == payloads[m]


class TestIndexConsistency:
    def test_lookup_returns_own_record(self, rng):
        lib = random_library(rng, 40)
        for rec in lib.records:
            found = lib.lookup(rec.record_id)
            assert found.row == rec.row and found == rec

    def test_lookup_missing_raises(self, rng):
        lib = random_library(rng, 3)
        with pytest.raises(KeyError):
            lib.lookup(999)


def row_objects() -> int:
    gc.collect()
    return sum(isinstance(o, (FootageRecord, EmotionVector)) for o in gc.get_objects())


class TestRecordViews:
    def test_loading_builds_no_record_objects(self, rng, tmp_path):
        path = tmp_path / "lib.mrfl"
        save_library(random_library(rng, 50), path)
        before = row_objects()
        lib = load_library(path)
        assert row_objects() == before
        assert len(lib) == 50

    def test_records_take_numpy_and_negative_indices(self, rng):
        lib = random_library(rng, 6)
        ids = lib.ids.tolist()
        for i in range(6):
            assert lib.records[np.int64(i)].record_id == ids[i]
            assert lib.records[np.uint8(i)].row == i
            assert lib.records[i - 6].row == i
        assert lib.records[-1] == lib.lookup(ids[-1])
        for bad in (6, -7):
            with pytest.raises(IndexError):
                lib.records[bad]
        with pytest.raises(TypeError):
            lib.records[1.0]
        assert len(lib.records) == 6
        assert [r.record_id for r in lib.records] == ids

    def test_rebuilt_speakers_reach_masks_purity_and_files(self, rng, tmp_path):
        lib = random_library(rng, 12, dims=4, speakers=2)
        old = lib.records[3].speaker_id
        lib = rebuilt(lib, speakers={3: "solo"})
        assert lib.records[3].speaker_id == "solo"
        assert np.flatnonzero(lib.speaker_mask("solo")).tolist() == [3]
        assert not lib.speaker_mask(old)[3]
        speakers = lib.speaker_ids
        pools = [speakers.count(s) - 1 for s in speakers]
        want = 3 * sum(min(3, pool) for pool in pools)
        assert evaluate_purity(lib, 3, mode=Mode.SPEAKER_SPECIFIC).retrieved == want
        path = tmp_path / "lib.mrfl"
        save_library(lib, path)
        loaded = load_library(path)
        assert loaded.records[3].speaker_id == "solo" and loaded == lib
        assert path.read_bytes().count(b"solo") == 1

        with pytest.raises(SchemaError, match="record 11 has no speaker_id"):
            rebuilt(lib, speakers={-1: None})
        speakerless = Query.from_record(lib.records[11])
        speakerless.speaker_id = None
        with pytest.raises(ArgumentError, match="requires query.speaker_id"):
            retrieve_all(lib, speakerless, 3, mode=Mode.SPEAKER_SPECIFIC)
        lib = rebuilt(lib, speakers={-1: "late"})
        save_library(lib, path)
        assert load_library(path).records[11].speaker_id == "late"
        assert evaluate_purity(lib, 3, mode=Mode.SPEAKER_SPECIFIC).retrieved == want - 3 * min(3, pools[11])


def assert_column_major(lib):
    for m in MODALITY_ORDER:
        arr = lib.matrix(m)
        assert arr.dtype == np.float64 and arr.flags.f_contiguous and not arr.flags.writeable, m.value
        # a (1, d) or (N, 1) array is both; these have N, d >= 2, so the layout is real
        assert len(lib) < 2 or not arr.flags.c_contiguous, m.value


class TestColumnLayout:
    def test_every_builder_gives_column_major_arrays(self, rng, tmp_path):
        assert_column_major(FootageLibrary(uniform_schema(3)))
        lib = random_library(rng, 20, dims={m: 2 + i for i, m in enumerate(MODALITY_ORDER)})
        assert_column_major(lib)  # from_columns, given row-major arrays
        save_library(lib, tmp_path / "lib.mrfl")
        assert_column_major(load_library(tmp_path / "lib.mrfl"))
        write_jsonl(lib, tmp_path / "lib.jsonl")
        assert_column_major(read_jsonl(tmp_path / "lib.jsonl"))
        assert_column_major(lib.subsample(0.5, seed=1))
        assert_column_major(generate_clustered_library(ClusterSpec(n=16, clusters=2, dim=4, seed=0)))

    def test_column_major_arrays_are_adopted(self, rng):
        vectors = {m: np.asfortranarray(rng.normal(size=(5, 3))) for m in MODALITY_ORDER}
        lib = FootageLibrary.from_columns(uniform_schema(3), list(range(5)), ["m"] * 5, ["s"] * 5, [None] * 5, vectors)
        assert all(lib.matrix(m) is vectors[m] for m in MODALITY_ORDER)

    def test_a_rebuilt_row_reaches_retrieval(self, rng):
        lib = random_library(rng, 30, dims=6)
        query = Query.from_record(lib.records[0])
        before = retrieve_all(lib, query, 3).rankings["scene"]
        row = next(i for i in range(1, 30) if lib.records[i].record_id not in dict(before))
        values = lib.records[row].scene.values
        assert not values.flags.c_contiguous  # a strided view, not a copy
        lib = rebuilt(lib, {(row, Modality.SCENE): 2.0 * query.scene.values})  # cosine 1 with the query
        assert np.array_equal(lib.matrix(Modality.SCENE)[row], 2.0 * query.scene.values)
        after = retrieve_all(lib, query, 3).rankings["scene"]
        assert after[0][0] == lib.records[row].record_id
        assert [rid for rid, _ in after[1:]] == [rid for rid, _ in before[:2]]


class TestImmutable:
    def test_writes_raise(self, rng):
        lib = random_library(rng, 6, dims=3)
        lib.norms(Modality.FACE)
        arrays = [lib.matrix(Modality.SCENE), lib.records[2].face.values, lib.speaker_codes, lib.ids,
                  lib.norms(Modality.FACE)]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        with pytest.raises(AttributeError):
            lib.records[2].speaker_id = "other"

    def test_norms_are_the_square_roots_of_the_squared_norms(self, rng):
        rows = near_tie_rows(rng, 3, 5, big=True)
        lib = FootageLibrary.from_columns(
            uniform_schema(5), list(range(len(rows))), ["m"] * len(rows), ["s"] * len(rows), [None] * len(rows),
            {m: rows for m in MODALITY_ORDER},
        )
        squared = squared_norms(lib.matrix(Modality.SCENE))
        assert np.isinf(squared).any()  # squares that overflow
        assert ((0 < squared) & (squared < np.finfo(np.float64).tiny)).any()  # subnormal squares
        for m in MODALITY_ORDER:
            assert lib.norms(m).tobytes() == np.sqrt(squared_norms(lib.matrix(m))).tobytes()
            assert lib.norms(m) is lib.norms(m)  # computed once

    def test_read_only_arrays_are_adopted_without_a_copy(self, rng):
        lib = random_library(rng, 40, dims=4)
        vectors = {m: lib.matrix(m) for m in MODALITY_ORDER}
        copy = FootageLibrary.from_columns(
            dict(lib.schema), lib.ids.tolist(), lib.movie_ids, lib.speaker_ids, lib.emotion_labels, vectors
        )
        assert all(copy.matrix(m) is lib.matrix(m) for m in MODALITY_ORDER)
        for row in (0, 17, 39):
            query = Query.from_record(lib.records[row])
            assert retrieve_all(copy, query, 5).rankings == retrieve_all(lib, query, 5).rankings


class TestBinaryRoundTrip:
    def test_empty_library(self, tmp_path):
        lib = FootageLibrary(uniform_schema(8))
        path = tmp_path / "empty.mrfl"
        save_library(lib, path)
        loaded = load_library(path)
        assert loaded == lib
        assert len(loaded) == 0

    def test_round_trip_deep_equality(self, rng, tmp_path):
        dims = {m: int(d) for m, d in zip(MODALITY_ORDER, rng.integers(2, 16, size=5))}
        lib = random_library(rng, 100, dims=dims)
        path = tmp_path / "lib.mrfl"
        save_library(lib, path)
        assert load_library(path) == lib

    def test_save_is_deterministic(self, rng, tmp_path):
        lib = random_library(rng, 20)
        p1, p2 = tmp_path / "a.mrfl", tmp_path / "b.mrfl"
        save_library(lib, p1)
        save_library(lib, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unicode_and_empty_strings(self, rng, tmp_path):
        vectors = {m: rng.normal(size=(1, 3)) for m in MODALITY_ORDER}
        lib = FootageLibrary.from_columns(uniform_schema(3), [5], ["ドラマ"], [""], [None], vectors)
        path = tmp_path / "uni.mrfl"
        save_library(lib, path)
        loaded = load_library(path)
        assert loaded == lib
        assert loaded.records[0].emotion_label is None

    def test_bad_magic(self, rng, tmp_path):
        path = tmp_path / "bad.mrfl"
        save_library(random_library(rng, 2), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="bad magic"):
            load_library(path)

    def test_version_mismatch(self, rng, tmp_path):
        path = tmp_path / "ver.mrfl"
        save_library(random_library(rng, 2), path)
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            load_library(path)

    def test_truncated_payload(self, rng, tmp_path):
        path = tmp_path / "trunc.mrfl"
        save_library(random_library(rng, 4), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 11])
        with pytest.raises(FormatError, match="truncated"):
            load_library(path)

    def test_trailing_garbage(self, rng, tmp_path):
        path = tmp_path / "trail.mrfl"
        save_library(random_library(rng, 2), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_library(path)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(0, 12),
    dim=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_property(n, dim, seed):
    import tempfile, os

    rng = np.random.default_rng(seed)
    lib = random_library(rng, n, dims=dim)
    fd, path = tempfile.mkstemp(suffix=".mrfl")
    os.close(fd)
    try:
        save_library(lib, path)
        assert load_library(path) == lib
    finally:
        os.unlink(path)


class TestJsonl:
    def test_round_trip(self, rng, tmp_path):
        lib = random_library(rng, 30)
        path = tmp_path / "lib.jsonl"
        write_jsonl(lib, path)
        assert read_jsonl(path) == lib

    def test_line_format(self, rng, tmp_path):
        lib = random_library(rng, 2)
        path = tmp_path / "lib.jsonl"
        write_jsonl(lib, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        obj = json.loads(lines[0])
        assert set(obj) == {
            "record_id",
            "movie_id",
            "speaker_id",
            "emotion_label",
            "scene",
            "face",
            "text_self",
            "text_react",
            "audio",
        }

    def test_dim_mismatch_against_explicit_schema(self, rng, tmp_path):
        lib = random_library(rng, 2, dims=4)
        path = tmp_path / "lib.jsonl"
        write_jsonl(lib, path)
        with pytest.raises(SchemaError, match="dimension mismatch"):
            read_jsonl(path, schema=uniform_schema(8))

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(FormatError, match="invalid JSON"):
            read_jsonl(path)

    def test_speakerless_record_is_not_written(self, rng):
        """No library holds a row without a string speaker, so none is written."""
        lib = random_library(rng, 4)
        for speaker in (None, 7):
            with pytest.raises(SchemaError, match=f"^record 2 has no speaker_id: {speaker} is not a string$"):
                rebuilt(lib, speakers={2: speaker})

    def test_empty_without_schema(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(FormatError, match="no records"):
            read_jsonl(path)


class TestSubsample:
    def test_fraction_one_is_identity(self, rng):
        lib = random_library(rng, 25)
        assert lib.subsample(1.0, seed=4) == lib

    def test_half_of_hundred(self, rng):
        lib = random_library(rng, 100)
        sub1 = lib.subsample(0.5, seed=9)
        sub2 = lib.subsample(0.5, seed=9)
        assert len(sub1) == 50
        assert sub1 == sub2
        ids = {r.record_id for r in lib.records}
        assert {r.record_id for r in sub1.records} <= ids

    def test_ceil_cardinality(self, rng):
        lib = random_library(rng, 10)
        assert len(lib.subsample(0.21, seed=0)) == math.ceil(0.21 * 10)

    def test_bad_fraction(self, rng):
        lib = random_library(rng, 5)
        for f in (0.0, -0.5, 1.0001):
            with pytest.raises(ArgumentError):
                lib.subsample(f, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(fraction=st.floats(0.01, 1.0), seed=st.integers(0, 2**20))
    def test_subset_property(self, fraction, seed):
        rng = np.random.default_rng(99)
        lib = random_library(rng, 37)
        sub = lib.subsample(fraction, seed)
        assert len(sub) == math.ceil(fraction * 37)
        parent = {r.record_id: r for r in lib.records}
        for rec in sub.records:
            assert parent[rec.record_id] == rec
