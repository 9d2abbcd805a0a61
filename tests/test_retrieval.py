"""Retrieval: metric math, the text criterion, ranking, modes, matching.

The brute-force oracle below recomputes every score with scalar Python
arithmetic and ranks with an independent full sort, so it shares no code
with the retrieval path it checks.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emodub.errors import ArgumentError, SchemaError
from emodub.library import EmotionVector, FootageLibrary, Modality, MODALITY_ORDER
from emodub.retrieval import (
    CHANNELS,
    Metric,
    Mode,
    Query,
    retrieve_all,
    retrieve_modality,
    similarity,
    text_criterion,
)

from conftest import make_record, random_library


def vec(values, modality=Modality.SCENE):
    return EmotionVector(modality, values)


# --- independent scalar oracle ----------------------------------------------


def oracle_similarity(metric, a, b):
    a, b = list(a), list(b)
    dot = sum(x * y for x, y in zip(a, b))
    if metric is Metric.COSINE:
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(x * x for x in b))
        return dot / (na * nb)
    if metric is Metric.DOT:
        return dot
    return -math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def oracle_rank(lib, query, channel, k, metric, mode):
    rows = []
    for rec in lib.records:
        if rec.record_id in query.exclude_ids:
            continue
        if mode is Mode.SPEAKER_SPECIFIC and rec.speaker_id != query.speaker_id:
            continue
        if channel == "scene":
            s = oracle_similarity(metric, query.scene.values, rec.scene.values)
        elif channel == "face":
            s = oracle_similarity(metric, query.face.values, rec.face.values)
        else:
            s = 0.5 * (
                oracle_similarity(metric, query.text_self.values, rec.text_self.values)
                + oracle_similarity(metric, query.text_react.values, rec.text_react.values)
            )
        rows.append((rec.record_id, s))
    rows.sort(key=lambda t: (-t[1], t[0]))
    return rows[:k]


def assert_matches_oracle(got, expected):
    assert [rid for rid, _ in got] == [rid for rid, _ in expected]
    np.testing.assert_allclose(
        [s for _, s in got], [s for _, s in expected], rtol=1e-12, atol=1e-12
    )


# --- similarity -------------------------------------------------------------


class TestSimilarity:
    def test_cosine_self_is_one(self, rng):
        for _ in range(10):
            v = vec(rng.normal(size=6))
            assert similarity(Metric.COSINE, v, v) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_orthogonal(self):
        assert similarity(Metric.COSINE, vec([1, 0]), vec([0, 1])) == pytest.approx(0.0, abs=1e-15)

    def test_cosine_analytic_45_degrees(self):
        got = similarity(Metric.COSINE, vec([1, 0]), vec([1, 1]))
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_neg_euclidean_3_4_5(self):
        assert similarity(Metric.NEG_EUCLIDEAN, vec([1, 2]), vec([4, 6])) == pytest.approx(-5.0)

    def test_dot_product(self):
        assert similarity(Metric.DOT, vec([1, 2, 3]), vec([4, 5, 6])) == 32.0

    def test_cosine_bounds(self, rng):
        for _ in range(50):
            a, b = vec(rng.normal(size=5)), vec(rng.normal(size=5))
            assert -1.0 - 1e-12 <= similarity(Metric.COSINE, a, b) <= 1.0 + 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(SchemaError):
            similarity(Metric.DOT, vec([1, 2]), vec([1, 2, 3]))

    def test_zero_norm_under_cosine(self):
        with pytest.raises(ArgumentError):
            similarity(Metric.COSINE, vec([0.0, 0.0]), vec([1.0, 0.0]))
        with pytest.raises(ArgumentError):
            similarity(Metric.COSINE, vec([1.0, 0.0]), vec([0.0, 0.0]))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        metric=st.sampled_from(list(Metric)),
        dim=st.integers(2, 16),
    )
    def test_matches_scalar_oracle(self, seed, metric, dim):
        r = np.random.default_rng(seed)
        a, b = r.normal(size=dim), r.normal(size=dim)
        got = similarity(metric, vec(a), vec(b))
        assert got == pytest.approx(oracle_similarity(metric, a, b), rel=1e-12, abs=1e-12)


class TestTextCriterion:
    def test_arithmetic_mean_of_fixed_sims(self):
        # build pairs whose cosine similarities are exactly 0.8 and 0.6
        q_self, r_self = vec([1, 0]), vec([0.8, 0.6])
        q_react, r_react = vec([1, 0]), vec([0.6, 0.8])
        got = text_criterion(Metric.COSINE, q_self, q_react, r_self, r_react)
        assert got == pytest.approx(0.7, abs=1e-12)

    def test_identical_pairs_give_one(self, rng):
        s, t = vec(rng.normal(size=4)), vec(rng.normal(size=4))
        assert text_criterion(Metric.COSINE, s, t, s, t) == pytest.approx(1.0, abs=1e-12)

    def test_matches_independent_mean(self, rng):
        for _ in range(20):
            qs, qr = rng.normal(size=8), rng.normal(size=8)
            rs, rr = rng.normal(size=8), rng.normal(size=8)
            got = text_criterion(Metric.COSINE, vec(qs), vec(qr), vec(rs), vec(rr))
            want = 0.5 * (oracle_similarity(Metric.COSINE, qs, rs) + oracle_similarity(Metric.COSINE, qr, rr))
            assert got == pytest.approx(want, rel=1e-12)


# --- ranking ----------------------------------------------------------------


class TestRetrieveModality:
    def test_three_record_scene_ranking(self, rng):
        lib = random_library(rng, 3)
        q = Query.from_record(lib.records[0], exclude_self=False)
        got = retrieve_modality(lib, q, "scene", k=2)
        want = oracle_rank(lib, q, "scene", 2, Metric.COSINE, Mode.SPEAKER_AGNOSTIC)
        assert_matches_oracle(got, want)

    def test_tie_break_by_ascending_id(self, rng):
        lib = random_library(rng, 1)
        base = lib.records[0]
        # two extra records with scene vectors identical to the query's
        from conftest import make_record

        for rid in (7, 5):
            vectors = {m: rng.normal(size=8) for m in MODALITY_ORDER}
            vectors[Modality.SCENE] = base.scene.values.copy()
            lib.add(make_record(rid, vectors))
        q = Query.from_record(base, exclude_self=False)
        got = retrieve_modality(lib, q, "scene", k=3)
        # records 0, 5, 7 all score exactly 1.0 under cosine; ids ascend
        assert [rid for rid, _ in got] == [0, 5, 7]

    def test_k_larger_than_library(self, rng):
        lib = random_library(rng, 4)
        q = Query.from_record(lib.records[0], exclude_self=False)
        got = retrieve_modality(lib, q, "face", k=50)
        assert len(got) == 4

    def test_k_zero_rejected(self, rng):
        lib = random_library(rng, 4)
        q = Query.from_record(lib.records[0])
        with pytest.raises(ArgumentError):
            retrieve_modality(lib, q, "scene", k=0)

    def test_speaker_specific_requires_speaker(self, rng):
        lib = random_library(rng, 4)
        q = Query.from_record(lib.records[0])
        q.speaker_id = None
        with pytest.raises(ArgumentError):
            retrieve_modality(lib, q, "scene", k=1, mode=Mode.SPEAKER_SPECIFIC)

    def test_empty_candidate_set_is_empty_result(self, rng):
        lib = random_library(rng, 3)
        q = Query.from_record(lib.records[0])
        q.exclude_ids = frozenset(r.record_id for r in lib.records)
        assert retrieve_modality(lib, q, "scene", k=2) == []

    def test_speaker_filter_containment(self, rng):
        lib = random_library(rng, 60, speakers=3)
        q = Query.from_record(lib.records[5])
        specific = retrieve_modality(lib, q, "text", k=8, mode=Mode.SPEAKER_SPECIFIC)
        agnostic_pool = [
            r for r in lib.records
            if r.speaker_id == q.speaker_id and r.record_id not in q.exclude_ids
        ]
        want = oracle_rank(lib, q, "text", 8, Metric.COSINE, Mode.SPEAKER_SPECIFIC)
        assert_matches_oracle(specific, want)
        assert all(
            any(r.record_id == rid for r in agnostic_pool) for rid, _ in specific
        )

    def test_monotone_k_prefix(self, rng):
        lib = random_library(rng, 30)
        q = Query.from_record(lib.records[2])
        for metric in Metric:
            prev = []
            for k in range(1, 12):
                cur = retrieve_modality(lib, q, "scene", k, metric)
                assert cur[: len(prev)] == prev
                prev = cur

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(1, 40),
        k=st.integers(1, 10),
        metric=st.sampled_from(list(Metric)),
        mode=st.sampled_from(list(Mode)),
        channel=st.sampled_from(CHANNELS),
    )
    def test_oracle_equivalence_property(self, seed, n, k, metric, mode, channel):
        r = np.random.default_rng(seed)
        lib = random_library(r, n, dims=int(r.integers(2, 12)))
        q = Query.from_record(lib.records[int(r.integers(n))])
        got = retrieve_modality(lib, q, channel, k, metric, mode)
        want = oracle_rank(lib, q, channel, k, metric, mode)
        assert_matches_oracle(got, want)


class TestZeroNormCandidates:
    """Under cosine a zero-norm record in the scored pool raises, as the
    scalar similarity does; outside the pool it is never scored."""

    # the modality whose zero vector the channel scores
    ZEROED = {"scene": Modality.SCENE, "face": Modality.FACE, "text": Modality.TEXT_REACT}

    def library(self, rng, channel):
        lib = random_library(rng, 12, speakers=1)
        lib.records[4].vector(self.ZEROED[channel]).values[...] = 0.0
        lib.records[4].speaker_id = "other"
        return lib

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_zero_norm_record_in_pool_raises(self, rng, channel):
        lib = self.library(rng, channel)
        q = Query.from_record(lib.records[0])
        with pytest.raises(ArgumentError, match="zero vector"):
            retrieve_modality(lib, q, channel, k=3)

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_zero_norm_record_outside_pool_is_skipped(self, rng, channel):
        lib = self.library(rng, channel)
        excluded = Query.from_record(lib.records[0])
        excluded.exclude_ids = frozenset({0, 4})
        specific = Query.from_record(lib.records[0])
        for q, mode in ((excluded, Mode.SPEAKER_AGNOSTIC), (specific, Mode.SPEAKER_SPECIFIC)):
            got = retrieve_modality(lib, q, channel, k=3, mode=mode)
            assert got == brute_force_rank(lib, q, channel, 3, Metric.COSINE, mode)
            assert 4 not in [rid for rid, _ in got]


def brute_force_rank(lib, query, channel, k, metric, mode):
    """Full sort of the pool by the scalar reference functions, (score desc, id asc)."""
    scored = []
    for rec in lib.records:
        if rec.record_id in query.exclude_ids:
            continue
        if mode is Mode.SPEAKER_SPECIFIC and rec.speaker_id != query.speaker_id:
            continue
        if channel == "text":
            s = text_criterion(metric, query.text_self, query.text_react, rec.text_self, rec.text_react)
        else:
            s = similarity(metric, getattr(query, channel), getattr(rec, channel))
        scored.append((rec.record_id, s))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


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


class TestNearTies:
    # the scalar reference overflows on purpose for the big rows
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_base=st.integers(1, 4),
        dim=st.integers(2, 8),
        big=st.booleans(),
        k=st.integers(1, 12),
        metric=st.sampled_from(list(Metric)),
        mode=st.sampled_from(list(Mode)),
        channel=st.sampled_from(CHANNELS),
        exclude_self=st.booleans(),
    )
    def test_matches_brute_force_bit_for_bit(
        self, seed, n_base, dim, big, k, metric, mode, channel, exclude_self
    ):
        r = np.random.default_rng(seed)
        tables = {m: near_tie_rows(r, n_base, dim, big) for m in MODALITY_ORDER}
        n = len(tables[Modality.SCENE])
        for table in tables.values():
            r.shuffle(table)
        lib = FootageLibrary({m: dim for m in MODALITY_ORDER})
        for i, rid in enumerate(r.permutation(n).tolist()):
            vectors = {m: tables[m][i] for m in MODALITY_ORDER}
            lib.add(make_record(rid, vectors, speaker_id=f"spk{r.integers(2)}"))
        q = Query.from_record(lib.records[int(r.integers(n))], exclude_self=exclude_self)
        got = retrieve_modality(lib, q, channel, k, metric, mode)
        want = brute_force_rank(lib, q, channel, k, metric, mode)
        assert [(rid, struct.pack("<d", s)) for rid, s in got] == [
            (rid, struct.pack("<d", s)) for rid, s in want
        ]


class TestCosineScaleInvariance:
    def test_rescaled_library_vector_keeps_ranking(self, rng):
        lib = random_library(rng, 25)
        q = Query.from_record(lib.records[0])
        before = [rid for rid, _ in retrieve_modality(lib, q, "scene", k=10)]
        victim = lib.records[7]
        victim.scene.values *= 37.5
        after = [rid for rid, _ in retrieve_modality(lib, q, "scene", k=10)]
        assert before == after

    def test_rescaled_query_keeps_ranking(self, rng):
        lib = random_library(rng, 25)
        q = Query.from_record(lib.records[0])
        before = [rid for rid, _ in retrieve_modality(lib, q, "face", k=10)]
        q.face.values *= 0.003
        after = [rid for rid, _ in retrieve_modality(lib, q, "face", k=10)]
        assert before == after

    def test_metrics_agree_on_unit_sphere(self, rng):
        # on unit-normalized vectors all three metrics are monotone transforms
        # of each other, so the id rankings coincide
        lib = random_library(rng, 40)
        for rec in lib.records:
            for m in MODALITY_ORDER:
                rec.vector(m).values /= np.linalg.norm(rec.vector(m).values)
        q = Query.from_record(lib.records[0])
        rankings = {
            metric: [rid for rid, _ in retrieve_modality(lib, q, "scene", 39, metric)]
            for metric in Metric
        }
        assert rankings[Metric.COSINE] == rankings[Metric.DOT] == rankings[Metric.NEG_EUCLIDEAN]

    def test_dot_product_not_invariant(self, rng):
        # constructed counterexample: scaling a runner-up makes it win under dot
        lib = random_library(rng, 2)
        q = Query.from_record(lib.records[0], exclude_self=False)
        ranking = retrieve_modality(lib, q, "scene", k=2, metric=Metric.DOT)
        runner_up = lib.lookup(ranking[1][0])
        if float(np.dot(q.scene.values, runner_up.scene.values)) <= 0:
            runner_up.scene.values *= -1.0  # make its dot score positive first
        runner_up.scene.values *= 1e6
        rescored = retrieve_modality(lib, q, "scene", k=2, metric=Metric.DOT)
        assert rescored[0][0] == runner_up.record_id


class TestRetrieveAll:
    def test_three_channels_with_matched_audio(self, rng):
        lib = random_library(rng, 50)
        q = Query.from_record(lib.records[3])
        res = retrieve_all(lib, q, k=3)
        for channel in CHANNELS:
            assert len(res.rankings[channel]) == 3
            want = oracle_rank(lib, q, channel, 3, Metric.COSINE, Mode.SPEAKER_AGNOSTIC)
            assert_matches_oracle(res.rankings[channel], want)
            for j, (rid, _score) in enumerate(res.rankings[channel]):
                rec = lib.lookup(rid)
                assert res.matched_audio[channel][j].tobytes() == rec.audio.values.tobytes()

    def test_indirect_text_vectors_are_concatenations(self, rng):
        lib = random_library(rng, 20)
        q = Query.from_record(lib.records[0])
        res = retrieve_all(lib, q, k=2)
        for j, (rid, _score) in enumerate(res.rankings["text"]):
            rec = lib.lookup(rid)
            want = np.concatenate([rec.text_self.values, rec.text_react.values])
            assert res.indirect_vectors["text"][j].tobytes() == want.tobytes()

    def test_self_exclusion(self, rng):
        lib = random_library(rng, 30)
        target = lib.records[4]
        res = retrieve_all(lib, Query.from_record(target), k=30)
        for channel in CHANNELS:
            assert target.record_id not in [rid for rid, _ in res.rankings[channel]]

    def test_speaker_with_single_record_saturates(self, rng):
        lib = random_library(rng, 10, speakers=1)
        # give one record a unique speaker, then query as that speaker
        lib.records[0].speaker_id = "loner"
        lib.records[1].speaker_id = "loner"
        q = Query.from_record(lib.records[0])  # excludes itself
        res = retrieve_all(lib, q, k=3, mode=Mode.SPEAKER_SPECIFIC)
        for channel in CHANNELS:
            assert [rid for rid, _ in res.rankings[channel]] == [1]
