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

from emodub.errors import ArgumentError, EmodubError, NumericError, SchemaError
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

from conftest import near_tie_rows, random_library, rebuilt


def vec(values, modality=Modality.SCENE):
    return EmotionVector(modality, values)


# --- independent scalar oracle ----------------------------------------------


def left_to_right(terms):
    """Plain float sum in index order (``sum`` is compensated on Python >= 3.12)."""
    total, *rest = terms
    for t in rest:
        total += t
    return total


def oracle_similarity(metric, a, b):
    a, b = list(a), list(b)
    dot = left_to_right([x * y for x, y in zip(a, b)])
    if metric is Metric.COSINE:
        na = math.sqrt(left_to_right([x * x for x in a]))
        nb = math.sqrt(left_to_right([x * x for x in b]))
        return dot / (na * nb)
    if metric is Metric.DOT:
        return dot
    return -math.sqrt(left_to_right([(x - y) * (x - y) for x, y in zip(a, b)]))


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
        # 1e-170 squared underflows to 0: the squared norm decides, not the entries
        for zero in ([0.0, 0.0], [1e-170, -1e-170]):
            with pytest.raises(ArgumentError):
                similarity(Metric.COSINE, vec(zero), vec([1.0, 0.0]))
            with pytest.raises(ArgumentError):
                similarity(Metric.COSINE, vec([1.0, 0.0]), vec(zero))

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
        assert struct.pack("<d", got) == struct.pack("<d", oracle_similarity(metric, a, b))


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
        base = random_library(rng, 1).records[0]
        # records 7 and 5 with scene vectors (modality 0) identical to the query's
        extra = rng.normal(size=(2, len(MODALITY_ORDER), 8))
        extra[:, 0] = base.scene.values
        lib = FootageLibrary.from_columns(
            {m: 8 for m in MODALITY_ORDER},
            [0, 7, 5],
            [base.movie_id, "m0", "m0"],
            [base.speaker_id, "spk0", "spk0"],
            [base.emotion_label, None, None],
            {m: np.vstack([base.vector(m).values, extra[:, j]]) for j, m in enumerate(MODALITY_ORDER)},
        )
        q = Query.from_record(lib.records[0], exclude_self=False)
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
    scalar similarity does, and a record whose score is NaN (its sums
    overflow) raises NumericError; outside the pool neither is scored."""

    # the modality whose zero vector the channel scores
    ZEROED = {"scene": Modality.SCENE, "face": Modality.FACE, "text": Modality.TEXT_REACT}

    # (entries of record 4's scored vector, error it raises in the pool): 1e-170
    # squares underflow to a zero norm; 1.5e308 with the query's signs makes
    # the dot product and the squared norm overflow, so the cosine is inf / inf
    CASES = ((0.0, ArgumentError, "zero vector"), (1e-170, ArgumentError, "zero vector"),
             (1.5e308, NumericError, "NaN"))

    def library(self, rng, channel, value):
        lib = random_library(rng, 12, speakers=1)
        query = lib.records[0].vector(self.ZEROED[channel]).values
        return rebuilt(lib, {(4, self.ZEROED[channel]): np.copysign(value, query)}, {4: "other"})

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_zero_norm_record_in_pool_raises(self, rng, channel):
        for value, error, message in self.CASES:
            lib = self.library(rng, channel, value)
            q = Query.from_record(lib.records[0])
            with pytest.raises(error, match=message):
                retrieve_modality(lib, q, channel, k=3)

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_zero_norm_record_outside_pool_is_skipped(self, rng, channel):
        for value, _error, _message in self.CASES:
            lib = self.library(rng, channel, value)
            excluded = Query.from_record(lib.records[0])
            excluded.exclude_ids = frozenset({0, 4})
            specific = Query.from_record(lib.records[0])
            for q, mode in ((excluded, Mode.SPEAKER_AGNOSTIC), (specific, Mode.SPEAKER_SPECIFIC)):
                got = retrieve_modality(lib, q, channel, k=3, mode=mode)
                assert got == brute_force_rank(lib, q, channel, 3, Metric.COSINE, mode)
                assert 4 not in [rid for rid, _ in got]


def reference_score(metric, query, rec, channel):
    """The scalar reference score of one record; a NaN score is rejected."""
    if channel == "text":
        s = text_criterion(metric, query.text_self, query.text_react, rec.text_self, rec.text_react)
    else:
        s = similarity(metric, getattr(query, channel), getattr(rec, channel))
    if math.isnan(s):
        raise NumericError(f"record {rec.record_id} scores NaN")
    return s


def brute_force_rank(lib, query, channel, k, metric, mode):
    """Full sort of the pool by the scalar reference functions, (score desc, id asc)."""
    scored = []
    for rec in lib.records:
        if rec.record_id in query.exclude_ids:
            continue
        if mode is Mode.SPEAKER_SPECIFIC and rec.speaker_id != query.speaker_id:
            continue
        scored.append((rec.record_id, reference_score(metric, query, rec, channel)))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def bits(ranking):
    return [(rid, struct.pack("<d", s)) for rid, s in ranking]


class TestNearTies:
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
        ids = r.permutation(n).tolist()
        speakers = [f"spk{r.integers(2)}" for _ in ids]
        lib = FootageLibrary.from_columns(
            {m: dim for m in MODALITY_ORDER}, ids, ["m0"] * n, speakers, [None] * n, tables
        )
        q = Query.from_record(lib.records[int(r.integers(n))], exclude_self=exclude_self)
        try:
            want = brute_force_rank(lib, q, channel, k, metric, mode)
        except EmodubError as exc:
            with pytest.raises(EmodubError) as raised:
                retrieve_modality(lib, q, channel, k, metric, mode)
            assert type(raised.value) is type(exc)
            return
        assert bits(retrieve_modality(lib, q, channel, k, metric, mode)) == bits(want)


class TestScanMatchesReference:
    """The channel scan gives every pool row the bits of the scalar reference."""

    @pytest.mark.parametrize("dim", [1, 2, 8, 33])
    @pytest.mark.parametrize("metric", list(Metric))
    def test_every_row_bit_for_bit(self, rng, dim, metric):
        q = rng.normal(size=dim)
        q += np.copysign(1.5, q)  # every |q_i| * 1.5e308 overflows
        base = rng.normal(size=(30, dim))
        rows = np.vstack([
            base,
            base * 2.0**520,  # products that overflow
            base * 2.0**-520,  # products that underflow
            base * 1e-160,  # subnormal squares
            base * 1e153,  # squared norms near overflow
            [np.copysign(1.5e308, q), -np.copysign(1.5e308, q)],  # dot +inf and -inf
        ])
        query = Query(*(vec(q, m) for m in MODALITY_ORDER[:4]))
        for channel in CHANNELS:
            tables = {m: rng.permutation(rows) for m in MODALITY_ORDER}
            # keep the rows the reference scores: no zero norm and no NaN
            keep = []
            for row, rec in enumerate(library_of(tables).records):
                try:
                    reference_score(metric, query, rec, channel)
                    keep.append(row)
                except EmodubError:
                    pass
            lib = library_of({m: t[keep] for m, t in tables.items()})
            want = brute_force_rank(lib, query, channel, len(lib), metric, Mode.SPEAKER_AGNOSTIC)
            assert bits(retrieve_modality(lib, query, channel, len(lib), metric)) == bits(want)
            if metric is not Metric.COSINE and channel != "text":
                assert any(math.isinf(s) for _, s in want)


def library_of(tables):
    """A one-speaker library whose record ``i`` holds row ``i`` of each table."""
    n, dim = tables[Modality.SCENE].shape
    return FootageLibrary.from_columns(
        {m: dim for m in MODALITY_ORDER}, list(range(n)), ["m0"] * n, ["spk0"] * n, [None] * n, tables
    )


class TestCosineScaleInvariance:
    def test_rescaled_library_vector_keeps_ranking(self, rng):
        lib = random_library(rng, 25)
        q = Query.from_record(lib.records[0])
        before = [rid for rid, _ in retrieve_modality(lib, q, "scene", k=10)]
        lib = rebuilt(lib, {(7, Modality.SCENE): lib.records[7].scene.values * 37.5})
        after = [rid for rid, _ in retrieve_modality(lib, q, "scene", k=10)]
        assert before == after

    def test_rescaled_query_keeps_ranking(self, rng):
        lib = random_library(rng, 25)
        q = Query.from_record(lib.records[0])
        before = [rid for rid, _ in retrieve_modality(lib, q, "face", k=10)]
        q.face = EmotionVector(Modality.FACE, q.face.values * 0.003)
        after = [rid for rid, _ in retrieve_modality(lib, q, "face", k=10)]
        assert before == after

    def test_metrics_agree_on_unit_sphere(self, rng):
        # on unit-normalized vectors all three metrics are monotone transforms
        # of each other, so the id rankings coincide
        lib = random_library(rng, 40)
        lib = rebuilt(lib, {
            (rec.row, m): rec.vector(m).values / np.linalg.norm(rec.vector(m).values)
            for rec in lib.records for m in MODALITY_ORDER
        })
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
        values = runner_up.scene.values
        if float(np.dot(q.scene.values, values)) <= 0:
            values = values * -1.0  # make its dot score positive first
        lib = rebuilt(lib, {(runner_up.row, Modality.SCENE): values * 1e6})
        rescored = retrieve_modality(lib, q, "scene", k=2, metric=Metric.DOT)
        assert rescored[0][0] == runner_up.record_id


class TestCachedNorms:
    def test_zero_row_raises_naming_its_record_in_the_pool_only(self, rng):
        base = random_library(rng, 10, dims=4, speakers=2)
        lib = FootageLibrary.from_columns(
            dict(base.schema), [100 + i for i in range(10)], base.movie_ids, base.speaker_ids,
            base.emotion_labels, {m: base.matrix(m) for m in MODALITY_ORDER},
        )
        lib = rebuilt(lib, {(6, Modality.FACE): 0.0}, {6: "alone"})
        assert lib.norms(Modality.FACE)[6] == 0.0  # filled before any scan
        q = Query.from_record(lib.records[0])
        with pytest.raises(ArgumentError, match="zero vector: record 106"):
            retrieve_all(lib, q, 3)
        got = retrieve_all(lib, q, 3, mode=Mode.SPEAKER_SPECIFIC).rankings  # record 106 is outside the pool
        for channel in CHANNELS:
            assert got[channel] == brute_force_rank(lib, q, channel, 3, Metric.COSINE, Mode.SPEAKER_SPECIFIC)


class TestRetrieveAll:
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("metric", list(Metric))
    def test_same_as_one_retrieve_modality_per_channel(self, rng, metric, mode):
        """The rankings, or the error of the first channel to raise."""
        lib = random_library(rng, 20, dims=4, speakers=2)
        lib = rebuilt(
            lib,
            {
                (9, Modality.SCENE): 1e-170,  # a zero norm under cosine
                (11, Modality.TEXT_REACT): np.copysign(1.5e308, lib.records[0].text_react.values),
                (13, Modality.TEXT_SELF): 0.0,  # a zero query vector, read after the scene candidates
            },
        )

        def outcome(fn):
            try:
                return fn()
            except EmodubError as exc:
                return type(exc), str(exc)

        for row, k in ((0, 3), (5, 3), (9, 3), (11, 25), (13, 3), (2, 0)):
            q = Query.from_record(lib.records[row])
            if row == 5:
                q.speaker_id = None  # a hand-built query without a speaker
            want = outcome(lambda: {c: retrieve_modality(lib, q, c, k, metric, mode) for c in CHANNELS})
            assert outcome(lambda: retrieve_all(lib, q, k, metric, mode).rankings) == want
        if metric is Metric.COSINE:
            # a channel rejects only the zero query vectors it reads
            q = Query.from_record(lib.records[9])
            face = retrieve_modality(lib, q, "face", 3, metric, mode)
            q.scene = lib.records[0].scene
            assert len(face) == 3 and face == retrieve_modality(lib, q, "face", 3, metric, mode)
            q.scene = lib.records[9].scene
            with pytest.raises(ArgumentError, match="zero vector: query scene"):
                retrieve_all(lib, q, 3, metric, mode)
            q.face = EmotionVector(Modality.FACE, [1.0])  # dimensions are checked before any scan
            with pytest.raises(SchemaError, match="query face dim 1 does not match schema dim 4"):
                retrieve_all(lib, q, 3, metric, mode)
            if mode is Mode.SPEAKER_AGNOSTIC:  # record 9 is in the scene pool, so it raises first
                with pytest.raises(ArgumentError, match="zero vector: record 9"):
                    retrieve_all(lib, Query.from_record(lib.records[13]), 3, metric, mode)

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
        lib = rebuilt(lib, speakers={0: "loner", 1: "loner"})
        q = Query.from_record(lib.records[0])  # excludes itself
        res = retrieve_all(lib, q, k=3, mode=Mode.SPEAKER_SPECIFIC)
        for channel in CHANNELS:
            assert [rid for rid, _ in res.rankings[channel]] == [1]
