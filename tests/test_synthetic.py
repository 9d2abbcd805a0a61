"""Clustered synthetic libraries and the purity surrogate."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emodub import synthetic
from emodub.errors import ArgumentError, EmodubError, SchemaError
from emodub.library import FootageLibrary, Modality, MODALITY_ORDER
from emodub.retrieval import CHANNELS, Metric, Mode, Query, retrieve_modality
from emodub.synthetic import ClusterSpec, PurityResult, evaluate_purity, generate_clustered_library

from conftest import near_tie_rows, random_library, rebuilt
from test_retrieval import oracle_purity


class TestGeneration:
    def test_config_echo(self):
        lib = generate_clustered_library(ClusterSpec(n=200, clusters=4, seed=3))
        assert len(lib) == 200
        labels = {r.emotion_label for r in lib.records}
        assert labels == {f"cluster_{i}" for i in range(4)}

    def test_deterministic_per_seed(self):
        spec = ClusterSpec(n=40, clusters=3, seed=12)
        a = generate_clustered_library(spec)
        b = generate_clustered_library(spec)
        assert a == b
        c = generate_clustered_library(ClusterSpec(n=40, clusters=3, seed=13))
        assert a != c

    def test_centroid_separation_is_exact(self):
        spec = ClusterSpec(n=300, clusters=3, separation=6.0, dim=8, seed=1)
        lib = generate_clustered_library(spec)
        # empirical centroids should sit near the exact lattice points
        radius = 6.0 / np.sqrt(2.0)
        for label in range(3):
            members = [r.scene.values for r in lib.records if r.emotion_label == f"cluster_{label}"]
            centroid = np.mean(members, axis=0)
            want = np.zeros(8)
            want[label] = radius
            assert np.linalg.norm(centroid - want) < 0.5  # noise is sigma=1 / sqrt(100)

    def test_speaker_schemes(self):
        rr = generate_clustered_library(ClusterSpec(n=12, clusters=3, speakers=4, seed=0))
        assert {r.speaker_id for r in rr.records} == {f"speaker_{i}" for i in range(4)}
        pc = generate_clustered_library(
            ClusterSpec(n=12, clusters=3, seed=0, speaker_per_cluster=True)
        )
        for r in pc.records:
            assert r.speaker_id == f"speaker_{r.emotion_label.removeprefix('cluster_')}"

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ArgumentError, match="clusters <= dim"):
            generate_clustered_library(ClusterSpec(n=10, clusters=9, dim=8))

    def test_bad_sizes_rejected(self):
        with pytest.raises(ArgumentError):
            generate_clustered_library(ClusterSpec(n=0))
        with pytest.raises(ArgumentError):
            generate_clustered_library(ClusterSpec(clusters=0))
        with pytest.raises(ArgumentError):
            generate_clustered_library(ClusterSpec(separation=-1.0))


class TestPurity:
    def test_well_separated_clusters_retrieve_pure(self):
        lib = generate_clustered_library(ClusterSpec(n=120, clusters=3, separation=8.0, seed=5))
        res = evaluate_purity(lib, k=3)
        assert res.purity > 0.97
        assert res.retrieved == 120 * 3 * 3

    def test_six_sigma_nearest_neighbor_purity(self):
        lib = generate_clustered_library(ClusterSpec(n=240, clusters=3, separation=6.0, seed=4))
        res = evaluate_purity(lib, k=1)
        assert res.purity >= 0.99

    def test_zero_separation_is_chance_level(self):
        lib = generate_clustered_library(ClusterSpec(n=150, clusters=3, separation=0.0, seed=6))
        res = evaluate_purity(lib, k=3)
        assert abs(res.purity - 1.0 / 3.0) < 0.1

    def test_purity_across_metrics(self):
        lib = generate_clustered_library(ClusterSpec(n=90, clusters=3, separation=8.0, seed=7))
        for metric in Metric:
            res = evaluate_purity(lib, k=1, metric=metric)
            assert res.purity > 0.95, metric

    def test_speaker_specific_on_per_cluster_speakers(self):
        # each cluster owned by one speaker: specific mode can only return
        # same-cluster records, so purity is exactly 1
        lib = generate_clustered_library(
            ClusterSpec(n=60, clusters=3, separation=4.0, seed=8, speaker_per_cluster=True)
        )
        specific = evaluate_purity(lib, k=3, mode=Mode.SPEAKER_SPECIFIC)
        agnostic = evaluate_purity(lib, k=3, mode=Mode.SPEAKER_AGNOSTIC)
        assert specific.purity == 1.0
        assert specific.purity >= agnostic.purity


# --- the block scan against a per-record loop -------------------------------


def per_record_purity(lib, k, metric, mode):
    """``evaluate_purity`` as a loop of one-row scans: each record queries
    each channel in turn, and the scores add up in (query, channel, rank)
    order."""
    hits = total = 0
    score_sum = 0.0
    for rec in lib.records:
        query = Query.from_record(rec)
        for channel in CHANNELS:
            for record_id, score in retrieve_modality(lib, query, channel, k, metric, mode):
                total += 1
                score_sum += score
                hits += lib.lookup(record_id).emotion_label == rec.emotion_label
    return PurityResult(
        purity=hits / total if total else 0.0,
        mean_score=score_sum / total if total else 0.0,
        retrieved=total,
        queries=len(lib.records),
    )


def outcome(fn, *args, block_floats=synthetic.BLOCK_FLOATS):
    """The result with its floats as bits, or the class and message of the
    EmodubError raised, with ``evaluate_purity`` blocks of about
    ``block_floats`` floats."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthetic, "BLOCK_FLOATS", block_floats)
        try:
            res = fn(*args)
        except EmodubError as exc:
            return type(exc), str(exc)
    return struct.pack("<dd", res.purity, res.mean_score), res.retrieved, res.queries


def assert_block_matches_loop(lib, k, metric, mode, block_floats=synthetic.BLOCK_FLOATS):
    want = outcome(per_record_purity, lib, k, metric, mode)
    assert outcome(evaluate_purity, lib, k, metric, mode, block_floats=block_floats) == want
    return want


class TestBlockParity:
    @pytest.mark.parametrize("k", [1, 3, 40])  # 40 exceeds every pool
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("metric", list(Metric))
    def test_every_metric_mode_and_k(self, rng, metric, mode, k):
        lib = random_library(rng, 30, dims=4, speakers=3)
        assert_block_matches_loop(lib, k, metric, mode)
        # one and two query rows per block
        assert_block_matches_loop(lib, k, metric, mode, block_floats=1)
        assert_block_matches_loop(lib, k, metric, mode, block_floats=60)

    @pytest.mark.parametrize("metric,mode", [(Metric.COSINE, Mode.SPEAKER_AGNOSTIC),
                                             (Metric.COSINE, Mode.SPEAKER_SPECIFIC),
                                             (Metric.NEG_EUCLIDEAN, Mode.SPEAKER_AGNOSTIC)])
    def test_library_spanning_row_blocks(self, metric, mode):
        lib = generate_clustered_library(ClusterSpec(n=300, clusters=3, separation=2.0, dim=4, speakers=2))
        assert len(lib) > synthetic.BLOCK_FLOATS // len(lib)  # at least two blocks
        assert_block_matches_loop(lib, 4, metric, mode)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_speaker_with_one_record_has_an_empty_pool(self, rng, metric):
        lib = rebuilt(random_library(rng, 20, dims=4, speakers=2), speakers={7: "solo"})
        specific = assert_block_matches_loop(lib, 3, metric, Mode.SPEAKER_SPECIFIC, block_floats=40)
        agnostic = assert_block_matches_loop(lib, 3, metric, Mode.SPEAKER_AGNOSTIC, block_floats=40)
        assert specific[1] == 19 * 3 * 3 and agnostic[1] == 20 * 3 * 3

    def test_k_below_one_is_rejected(self, rng):
        lib = random_library(rng, 5, dims=4)
        with pytest.raises(ArgumentError, match="k must be >= 1, got 0"):
            evaluate_purity(lib, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_base=st.integers(1, 3),
        dim=st.integers(2, 6),
        big=st.booleans(),
        k=st.integers(1, 12),
        metric=st.sampled_from(list(Metric)),
        mode=st.sampled_from(list(Mode)),
        block_floats=st.sampled_from([1, 50, 1 << 16]),
    )
    def test_near_tie_libraries(self, seed, n_base, dim, big, k, metric, mode, block_floats):
        r = np.random.default_rng(seed)
        tables = {m: near_tie_rows(r, n_base, dim, big) for m in MODALITY_ORDER}
        n = len(tables[Modality.SCENE])
        for table in tables.values():
            r.shuffle(table)
        lib = FootageLibrary.from_columns(
            {m: dim for m in MODALITY_ORDER}, r.permutation(n).tolist(), ["m0"] * n,
            [f"spk{r.integers(2)}" for _ in range(n)], [f"lab{r.integers(3)}" for _ in range(n)], tables,
        )
        assert_block_matches_loop(lib, k, metric, mode, block_floats)


class TestErrorParity:
    """A faulty row raises what the per-record loop raises, at the same
    (query, channel, candidate), or nothing where the loop raises nothing."""

    # 1e-170 squares to a zero norm, 1.5e308 (with row 0's signs) overflows
    # the sums into a NaN cosine, and 0.0 is a zero vector outright; the
    # retrieval guard's norm limits 2**500 and 2**-500 lie between 1e150 and
    # 1e160 and between 1e-160 and 1e-150 (norm 2 * value at d = 4)
    @pytest.mark.parametrize("value", [1e-170, 1.5e308, 0.0, 1e150, 1e160, 1e-150, 1e-160])
    @pytest.mark.parametrize("row", [0, 6])  # met first as a query, or as a candidate
    @pytest.mark.parametrize("alone", [False, True])  # outside every specific-mode pool
    @pytest.mark.parametrize("modality", [Modality.SCENE, Modality.TEXT_REACT])
    def test_faulty_row(self, rng, value, row, alone, modality):
        lib = random_library(rng, 12, dims=4, speakers=2)
        values = np.copysign(value, lib.records[0].vector(modality).values)
        lib = rebuilt(lib, {(row, modality): values}, {row: "alone"} if alone else None)
        for metric in Metric:
            for mode in Mode:
                # a 12-row agnostic block scores 36 or 132 pairs per channel
                # exactly, one row 3 or 11: both sides of the accumulate crossover
                for k in (3, 11):
                    assert_block_matches_loop(lib, k, metric, mode)
                    assert_block_matches_loop(lib, k, metric, mode, block_floats=12)

    @pytest.mark.parametrize("value", [1e150, 1e160, 1e-150, 1e-160, 1.5e308, 0.0])
    @pytest.mark.parametrize("row", [0, 6])
    @pytest.mark.parametrize("modality", [Modality.SCENE, Modality.TEXT_REACT])
    def test_guard_boundaries_match_the_oracle(self, rng, value, row, modality):
        """On both sides of the guard's limits, the purity or the error
        (class and message) is the scalar oracle's."""
        lib = random_library(rng, 12, dims=4, speakers=2)
        lib = rebuilt(lib, {(row, modality): np.copysign(value, lib.records[0].vector(modality).values)})
        for metric in Metric:
            for mode in Mode:
                assert outcome(evaluate_purity, lib, 3, metric, mode) == oracle_purity(lib, 3, metric, mode)

    def test_errors_raised(self, rng):
        base = random_library(rng, 12, dims=4, speakers=2)
        lib = rebuilt(base, {(6, Modality.SCENE): 1e-170})
        with pytest.raises(ArgumentError, match="zero vector: record 6"):
            evaluate_purity(lib, 3)
        lib = rebuilt(lib, {(0, Modality.FACE): 0.0})
        with pytest.raises(ArgumentError, match="zero vector: record 6"):  # query 0's scene scan meets it first
            evaluate_purity(lib, 3)
        assert_block_matches_loop(lib, 3, Metric.COSINE, Mode.SPEAKER_AGNOSTIC, block_floats=12)
        lib = rebuilt(lib, {(6, Modality.SCENE): base.records[6].scene.values})
        with pytest.raises(ArgumentError, match="zero vector: query face"):
            evaluate_purity(lib, 3)
        lib = random_library(rng, 12, dims=4, speakers=2)
        lib = rebuilt(lib, {(6, Modality.TEXT_REACT): np.copysign(1.5e308, lib.records[0].text_react.values)})
        with pytest.raises(EmodubError, match="text score of record 6 is NaN"):
            evaluate_purity(lib, 3)
        lib = rebuilt(lib, speakers={6: "alone"})  # its own pool is empty; nobody else scores it
        assert evaluate_purity(lib, 3, mode=Mode.SPEAKER_SPECIFIC).retrieved == 11 * 3 * 3

    def test_query_without_speaker_under_specific_mode(self, rng):
        """A library row always has a speaker; only a hand-built query lacks one."""
        lib = random_library(rng, 12, dims=4, speakers=2)
        with pytest.raises(SchemaError, match="record 6 has no speaker_id"):
            rebuilt(lib, speakers={6: None})
        query = Query.from_record(lib.records[6])
        query.speaker_id = None
        for channel in CHANNELS:
            with pytest.raises(ArgumentError, match="requires query.speaker_id"):
                retrieve_modality(lib, query, channel, 3, Metric.COSINE, Mode.SPEAKER_SPECIFIC)
