"""Retrieval: metric math, the text criterion, ranking, modes, matching.

The brute-force oracle below recomputes every score with scalar Python
arithmetic and ranks with an independent full sort, so it shares no code
with the retrieval path it checks.
"""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from emodub import retrieval, synthetic
from emodub.errors import ArgumentError, EmodubError, NumericError, SchemaError
from emodub.library import EmotionVector, FootageLibrary, Modality, MODALITY_ORDER
from emodub.retrieval import (
    CHANNELS,
    QUERY_MODALITIES,
    _CHANNEL_MODALITIES,
    Metric,
    Mode,
    Query,
    _sum_rows,
    _top_k,
    retrieve_all,
    retrieve_modality,
    similarity,
    squared_norms,
    text_criterion,
)
from emodub.synthetic import evaluate_purity

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


def oracle_scores(lib, query, channel, metric):
    """The oracle score of every library row for ``query`` in ``channel``:
    a float, or the ``(class, message)`` of the error a scalar scan raises
    at that row (under cosine a zero norm, then a NaN score). A query that
    cosine rejects (a zero vector) gives that error alone, which a scan
    raises whatever its pool."""
    names = ("text_self", "text_react") if channel == "text" else (channel,)
    qs = [getattr(query, name).values.tolist() for name in names]
    if metric is Metric.COSINE:
        for name, q in zip(names, qs):
            if left_to_right([x * x for x in q]) == 0.0:
                return ArgumentError, f"cosine similarity is undefined for a zero vector: query {name}"
    columns = [lib.matrix(Modality(name)).tolist() for name in names]
    table = []
    for row, record_id in enumerate(lib.ids.tolist()):
        rs = [column[row] for column in columns]
        if metric is Metric.COSINE and any(left_to_right([y * y for y in r]) == 0.0 for r in rs):
            table.append((ArgumentError, f"cosine similarity is undefined for a zero vector: record {record_id}"))
            continue
        sims = [oracle_similarity(metric, q, r) for q, r in zip(qs, rs)]
        score = sims[0] if len(sims) == 1 else 0.5 * (sims[0] + sims[1])
        nan = (NumericError, f"{channel} score of record {record_id} is NaN: a sum overflows float64")
        table.append(nan if math.isnan(score) else score)
    return table


def oracle_ranking(lib, query, table, k, mode):
    """The top K of ``query``'s pool by (score desc, id asc) from its
    :func:`oracle_scores` table, as (record_id, score bits) pairs, or the
    ``(class, message)`` of the first error its scan meets."""
    if isinstance(table, tuple):
        return table
    scored = []
    for record_id, speaker, outcome in zip(lib.ids.tolist(), lib.speaker_ids, table):
        if record_id in query.exclude_ids or mode is Mode.SPEAKER_SPECIFIC and speaker != query.speaker_id:
            continue
        if isinstance(outcome, tuple):
            return outcome
        scored.append((-outcome, record_id))
    scored.sort()
    return [(record_id, struct.pack("<d", -neg)) for neg, record_id in scored[:k]]


def oracle_purity(lib, k, metric, mode, tables=None):
    """``evaluate_purity`` by the oracle, every record querying each channel
    in turn: ``(purity and mean score bits, retrieved, queries)``, or the
    ``(class, message)`` of the first error. ``tables[row][channel]`` may
    hold the :func:`oracle_scores` of record ``row``'s query."""
    hits = total = 0
    score_sum = 0.0
    labels = lib.emotion_labels
    for row, rec in enumerate(lib.records):
        query = Query.from_record(rec)
        for channel in CHANNELS:
            table = tables[row][channel] if tables else oracle_scores(lib, query, channel, metric)
            ranking = oracle_ranking(lib, query, table, k, mode)
            if isinstance(ranking, tuple):
                return ranking
            for record_id, score in ranking:
                hits += labels[lib.id_index[record_id]] == labels[row]
                total += 1
                score_sum += struct.unpack("<d", score)[0]
    purity, mean = (hits / total, score_sum / total) if total else (0.0, 0.0)
    return struct.pack("<dd", purity, mean), total, len(lib)


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


class TestSumRows:
    """A block's sums, by one accumulate up to the crossover and by the row
    loop past it, have the bits of a left-to-right sum of Python floats."""

    # factors whose products are ordinary, overflow, are subnormal, or are
    # signed zeros; 1e154 squared is within a factor of two of the largest
    # float, so two such products overflow the sum
    FACTORS = [0.3, -1.7, 2.5, 1e200, -1e200, 1e154, 1e-160, -1e-160, 0.0, -0.0]

    def terms(self, d, p):
        """``(x, y)``: (d, p) factors whose column 0 holds only -0.0
        products, column 1 an overflow to +inf then to -inf (NaN from
        d = 2), column 2 subnormal products, and column 3 products whose
        sum overflows; the other columns draw from :data:`FACTORS`."""
        r = np.random.default_rng(1000 * d + p)
        x = r.choice(self.FACTORS, size=(d, p))
        y = r.choice(self.FACTORS, size=(d, p))
        x[:, 0], y[:, 0] = -0.0, 1.0
        x[:, 1], y[:, 1] = 1e200, np.resize([1e200, -1e200], d)
        x[:, 2], y[:, 2] = 1e-160, -3e-160
        x[:, 3], y[:, 3] = 1e154, 1.5e154
        return x, y

    @pytest.mark.parametrize("d", [1, 2, 8, 33])
    @pytest.mark.parametrize("p", [4, retrieval._ACCUMULATE_MAX, retrieval._ACCUMULATE_MAX + 1, 300])
    def test_both_branches_match_python_floats(self, monkeypatch, d, p):
        x, y = self.terms(d, p)
        want = [left_to_right([a * b for a, b in zip(xc, yc)]) for xc, yc in zip(x.T.tolist(), y.T.tolist())]
        want = struct.pack(f"<{p}d", *want)
        for widest in (p, p - 1):  # accumulate, then the row loop
            monkeypatch.setattr(retrieval, "_ACCUMULATE_MAX", widest)
            with np.errstate(all="ignore"):
                assert _sum_rows(x * y).tobytes() == want
        if d > 1:
            assert math.isnan(struct.unpack_from("<d", want, 8)[0])
        assert want[:8] == struct.pack("<d", -0.0)

    @pytest.mark.parametrize("q", [1, retrieval._ACCUMULATE_MAX + 1])
    def test_squared_norms_are_silent_on_either_side(self, q):
        rows = np.asfortranarray(np.random.default_rng(q).choice(self.FACTORS, size=(q, 33)))
        rows[0] = 1e154  # each square is finite, their sum overflows
        want = [left_to_right([v * v for v in row]) for row in rows.tolist()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert squared_norms(rows).tobytes() == struct.pack(f"<{q}d", *want)


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


    @pytest.mark.parametrize("channel", CHANNELS)
    def test_zero_norm_record_beside_a_nan_score_is_scored_under_dot(self, rng, channel):
        """Only cosine rejects a zero vector: under dot, a zero row ahead of
        a row whose products overflow to +inf and -inf scores 0.0, and the
        NaN row raises."""
        modality = self.ZEROED[channel]
        lib = random_library(rng, 12, speakers=1)
        signs = np.where(np.arange(8) % 2 == 0, 1.0, -1.0)
        lib = rebuilt(lib, {(0, modality): 2.0, (3, modality): 0.0, (6, modality): 1.5e308 * signs})
        q = Query.from_record(lib.records[0])
        with pytest.raises(NumericError, match="record 6 scores NaN"):
            brute_force_rank(lib, q, channel, 3, Metric.DOT, Mode.SPEAKER_AGNOSTIC)
        with pytest.raises(NumericError, match=f"{channel} score of record 6 is NaN"):
            retrieve_modality(lib, q, channel, 3, Metric.DOT)
        with pytest.raises(NumericError, match=f"{channel} score of record 6 is NaN"):
            evaluate_purity(lib, 3, Metric.DOT)


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
            for block, width in ((res.indirect_vectors[channel], 16 if channel == "text" else 8), (res.matched_audio[channel], 8)):
                assert block.dtype == np.float64 and block.flags.c_contiguous and block.shape == (3, width)
            for j, (rid, _score) in enumerate(res.rankings[channel]):
                rec = lib.lookup(rid)
                assert res.matched_audio[channel][j].tobytes() == rec.audio.values.tobytes()

    def test_indirect_text_vectors_are_concatenations(self, rng):
        lib = random_library(rng, 20)
        q = Query.from_record(lib.records[0])
        res = retrieve_all(lib, q, k=2)
        block = res.indirect_vectors["text"]
        assert block.dtype == np.float64 and block.flags.c_contiguous and block.shape == (2, 16)
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


# --- ranking a block of scores ----------------------------------------------


def full_sort_top_k(scores, pool, ids, k):
    """Each row's pool columns fully sorted by (score desc, id asc), cut to K."""
    rows, cols, top = [], [], []
    for row in range(scores.shape[0]):
        ranked = sorted((-scores[row, col], int(ids[col]), col) for col in np.flatnonzero(pool[row]))
        for neg, _id, col in ranked[:k]:
            rows.append(row)
            cols.append(col)
            top.append(-neg)
    return rows, cols, struct.pack(f"<{len(top)}d", *top)


class TestTopK:
    """``_top_k`` against a full sort, on hand-built rows of every shape its
    shortcuts must leave alone: with K = 3, one sort orders a block only
    when every row has exactly K survivors with no tie among them."""

    N = 9
    # ids fall as the column rises, so the lower id of a tie is the later column
    IDS = np.array([2**64 - 1 - 5 * c for c in range(N)], dtype=np.uint64)
    INF = np.inf
    ROWS = {
        "distinct": ([0.3, -1.0, 2.5, 0.7, 0.1, 1.5, -0.2, 0.9, 0.0], "111111111"),
        "pool smaller than K": ([0.3, 5.0, 2.5, 6.0, 0.1, 1.5, -0.2, 0.9, 0.0], "001000010"),
        # the excluded columns score above the pool, or -inf beside its -inf members
        "-inf pool members": ([0.5, 9.0, -INF, 7.0, -INF, -INF, -INF, -INF, 8.0], "101010100"),
        "tie at the K-th place": ([0.25, 0.75, 0.5, 0.25, 0.25, 0.1, 1.0, 0.25, -3.0], "111111111"),
        "tie inside the top K": ([0.5, 0.75, 0.75, 0.25, 0.125, 0.1, 0.2, 0.3, 0.75], "111111011"),
        "signed zeros tie": ([2.0, -0.0, -1.0, -0.5, 0.0, -2.0, -0.25, -1.5, -0.75], "111111111"),
        "empty pool": ([0.3, 5.0, 2.5, 6.0, 0.1, 1.5, -0.2, 0.9, 0.0], "000000000"),
    }

    def block(self, names):
        scores = np.array([self.ROWS[name][0] for name in names])
        pool = np.array([[flag == "1" for flag in self.ROWS[name][1]] for name in names])
        return scores, pool

    def check(self, names, k):
        scores, pool = self.block(names)
        want = full_sort_top_k(scores, pool, self.IDS, k)
        rows, cols, top = _top_k(scores.copy(), pool, self.IDS, k)
        assert (rows.tolist(), cols.tolist(), top.tobytes()) == want

    @pytest.mark.parametrize("k", [1, 3, 9, 12])
    @pytest.mark.parametrize("name", list(ROWS))
    def test_one_row(self, name, k):
        self.check([name], k)

    @pytest.mark.parametrize("k", [1, 3, 9, 12])
    def test_seven_rows_of_every_kind(self, k):
        names = list(self.ROWS)
        assert len(names) == 7
        self.check(names, k)
        self.check(["distinct", "empty pool", "tie inside the top K", "pool smaller than K",
                    "tie at the K-th place", "empty pool", "-inf pool members"], k)

    @pytest.mark.parametrize("tied", ["tie inside the top K", "signed zeros tie", "distinct"])
    def test_seven_rows_of_exactly_k_survivors(self, tied):
        """Every row has exactly three survivors, so the block goes to the
        one sort, which must give way when a row ties inside its top K."""
        names = ["distinct"] * 3 + [tied] + ["distinct"] * 3
        scores, pool = self.block(names)
        scores[1] *= -1.0  # rows that differ from each other
        scores[5] += 10.0
        want = full_sort_top_k(scores, pool, self.IDS, 3)
        assert len(want[0]) == 7 * 3
        rows, cols, top = _top_k(scores.copy(), pool, self.IDS, 3)
        assert (rows.tolist(), cols.tolist(), top.tobytes()) == want


class TestHighRecordIds:
    """Record ids are uint64: a tie goes to the lower id also at and above
    2**63, where a signed 64-bit id would turn negative."""

    IDS = [2**63, 5, 2**64 - 1, 2**63 - 1, 2**63 + 1, 0, 2**64 - 2, 17, 2**63 + 2, 3, 2**64 - 3, 2**62]

    def library(self, rng):
        """Four groups of three records with identical vectors (exact ties
        under every metric); two of a group share a label, so the tie a
        query breaks decides whether it retrieves a hit."""
        base = rng.normal(size=(4, len(MODALITY_ORDER), 4))
        tables = {m: np.repeat(base[:, j], 3, axis=0) for j, m in enumerate(MODALITY_ORDER)}
        n = len(self.IDS)
        return FootageLibrary.from_columns(
            {m: 4 for m in MODALITY_ORDER}, self.IDS, ["m0"] * n, [f"spk{i % 2}" for i in range(n)],
            [f"lab{i % 3 // 2}" for i in range(n)], tables,
        )

    @pytest.mark.parametrize("metric", list(Metric))
    def test_retrieve_modality(self, rng, metric):
        lib = self.library(rng)
        for row in range(len(lib)):
            q = Query.from_record(lib.records[row], exclude_self=row % 2 == 0)
            for channel in CHANNELS:
                for k in (1, 2, 4, 12):
                    want = brute_force_rank(lib, q, channel, k, metric, Mode.SPEAKER_AGNOSTIC)
                    assert bits(retrieve_modality(lib, q, channel, k, metric)) == bits(want)
        if metric is Metric.DOT:
            return  # another group may outscore a record's own
        q = Query.from_record(lib.records[1], exclude_self=False)  # ids 2**63, 5, 2**64 - 1 tie
        assert [rid for rid, _ in retrieve_modality(lib, q, "scene", 3, metric)] == [5, 2**63, 2**64 - 1]

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("metric", list(Metric))
    def test_evaluate_purity(self, rng, metric, mode):
        lib = self.library(rng)
        for k in (1, 2, 4):
            hits = total = 0
            score_sum = 0.0
            for rec in lib.records:
                q = Query.from_record(rec)
                for channel in CHANNELS:
                    for record_id, score in brute_force_rank(lib, q, channel, k, metric, mode):
                        hits += lib.lookup(record_id).emotion_label == rec.emotion_label
                        total += 1
                        score_sum += score
            got = evaluate_purity(lib, k, metric, mode)
            assert (got.purity, got.retrieved) == (hits / total, total)
            assert struct.pack("<d", got.mean_score) == struct.pack("<d", score_sum / total)


# --- the BLAS filter against the oracle -------------------------------------


def filter_rows(r, n_base, dim, exponent, extreme):
    """Rows whose BLAS and exact scores can order them differently: base
    rows near 2**exponent, each with a copy of its entries permuted, a copy
    rescaled by a power of two, copies one ulp above and below, and an
    exact duplicate. With ``extreme``, also rows on both sides of the
    guard: a zero row, rows near 2**490 and 2**510 and near 2**-490 and
    2**-510, a row whose squares are subnormal, and one whose products
    overflow."""
    rows = []
    for base in r.normal(size=(n_base, dim)) * 2.0**exponent:
        rows += [base, r.permutation(base), base * 2.0 ** int(r.integers(-3, 4))]
        rows += [np.nextafter(base, np.inf), np.nextafter(base, -np.inf), base.copy()]
    if extreme:
        unit = r.normal(size=dim)
        rows += [np.zeros(dim), unit * 2.0**490, unit * 2.0**510, unit * 2.0**-490, unit * 2.0**-510]
        rows += [unit * 1e-160, np.copysign(1.5e308, unit)]
    return np.array(rows).reshape(-1, dim)


def retrieval_outcome(lib, query, channel, k, metric, mode):
    """The ranking as (record_id, score bits) pairs, or the error's class and message."""
    try:
        return bits(retrieve_modality(lib, query, channel, k, metric, mode))
    except EmodubError as exc:
        return type(exc), str(exc)


def purity_outcome(lib, k, metric, mode, block_floats):
    """``evaluate_purity`` in blocks of about ``block_floats`` floats, as
    :func:`oracle_purity` reports it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthetic, "BLOCK_FLOATS", block_floats)
        try:
            res = evaluate_purity(lib, k, metric, mode)
        except EmodubError as exc:
            return type(exc), str(exc)
    return struct.pack("<dd", res.purity, res.mean_score), res.retrieved, res.queries


class TestFilterMatchesOracle:
    """The BLAS filter keeps every pair that can reach a row's top K, where
    BLAS and exact scores order pairs differently and on both sides of the
    guard: ``retrieve_modality`` and ``evaluate_purity`` equal the scalar
    oracle bit for bit, errors included, for N = 0 and N = 1 too."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_base=st.integers(0, 3),
        size=st.integers(0, 24),
        dim=st.sampled_from([1, 2, 8, 33]),
        exponent=st.integers(-400, 400),
        extreme=st.booleans(),
        metric=st.sampled_from(list(Metric)),
        block_floats=st.sampled_from([1, 50, 1 << 16]),
    )
    # n = 18 or 24 rows: one query scores at most n - 1 pairs per channel
    # exactly, fewer than the accumulate crossover, and the one-block purity
    # scan at K = n + 1 (or past the guard) n (n - 1) = 306 or 552, more
    @example(seed=7, n_base=3, size=24, dim=8, exponent=0, extreme=False, metric=Metric.COSINE, block_floats=1 << 16)
    @example(seed=8, n_base=3, size=24, dim=33, exponent=-5, extreme=True, metric=Metric.DOT, block_floats=1 << 16)
    @example(seed=9, n_base=3, size=24, dim=2, exponent=3, extreme=True, metric=Metric.NEG_EUCLIDEAN, block_floats=1 << 16)
    def test_matches_oracle_bit_for_bit(self, seed, n_base, size, dim, exponent, extreme, metric, block_floats):
        r = np.random.default_rng(seed)
        tables = {}
        for m in MODALITY_ORDER:
            rows = filter_rows(r, n_base, dim, exponent, extreme)
            r.shuffle(rows)
            tables[m] = rows[:size]
        n = len(tables[Modality.SCENE])
        lib = FootageLibrary.from_columns(
            {m: dim for m in MODALITY_ORDER}, r.permutation(n).tolist(), ["m0"] * n,
            [f"spk{r.integers(2)}" for _ in range(n)], [f"lab{r.integers(3)}" for _ in range(n)], tables,
        )
        if n == 0:
            assert all(not over.size and y == 0.0 and not outside.size
                       for over, y, outside in map(lib.guard, MODALITY_ORDER))
        queries = [Query.from_record(lib.records[int(row)], exclude_self=bool(r.integers(2)))
                   for row in r.choice(n, min(n, 3), replace=False)]
        # one ulp from a record, of a speaker with no records: its specific-mode pool is empty
        sources = {m: tables[m][int(r.integers(n))] if n else r.normal(size=dim) * 2.0**exponent
                   for m in QUERY_MODALITIES}
        queries.append(Query(*(vec(np.nextafter(v, np.inf), m) for m, v in sources.items()), speaker_id="nobody"))
        for query in queries:
            for channel in CHANNELS:
                table = oracle_scores(lib, query, channel, metric)
                for mode in Mode:
                    for k in (1, 3, n + 1):
                        want = oracle_ranking(lib, query, table, k, mode)
                        assert retrieval_outcome(lib, query, channel, k, metric, mode) == want
        own = [{c: oracle_scores(lib, Query.from_record(rec), c, metric) for c in CHANNELS} for rec in lib.records]
        for mode in Mode:
            for k in (1, 3, n + 1):
                want = oracle_purity(lib, k, metric, mode, own)
                assert purity_outcome(lib, k, metric, mode, block_floats) == want


# --- the float32 cosine filter ----------------------------------------------


def float32_rows(r, n_rows, dim):
    """Rows that a float32 cosine cannot order and float64 can: steps of
    2**-30 to 2**-20 from one base row along one direction, so that their
    cosine scores, against each other and against a query in their line,
    lie about that far apart. In half of the rows each entry past the
    first half is scaled by 2**-127 to 2**-150: divided by the row's norm,
    it is a float32 subnormal or rounds to zero."""
    base, step = r.normal(size=(2, dim))
    rows = base + np.cumsum(2.0 ** -r.uniform(20, 30, size=n_rows))[:, None] * step
    tiny = r.random(n_rows) < 0.5
    rows[tiny, dim // 2:] *= 2.0 ** -r.integers(127, 151, size=(int(tiny.sum()), dim - dim // 2))
    return r.permutation(rows)


class TestFloat32Filter:
    """The cosine filter scores in float32: it cannot order scores 2**-30
    to 2**-20 apart, and it sees unit components below 2**-126 as
    subnormals or zeros, so each text half adds an error of its own. Its
    slack still keeps every pair that can rank: ``retrieve_modality`` and
    ``evaluate_purity`` equal the scalar oracle bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dim", [2, 8, 33])
    def test_matches_oracle_bit_for_bit(self, seed, dim):
        r = np.random.default_rng(seed)
        n = 20
        tables = {m: float32_rows(r, n + 1, dim) for m in MODALITY_ORDER}
        lib = FootageLibrary.from_columns(
            {m: dim for m in MODALITY_ORDER}, r.permutation(n).tolist(), ["m0"] * n,
            [f"spk{r.integers(2)}" for _ in range(n)], [f"lab{r.integers(3)}" for _ in range(n)],
            {m: rows[:n] for m, rows in tables.items()},
        )
        queries = [Query.from_record(lib.records[int(row)], exclude_self=bool(r.integers(2)))
                   for row in r.choice(n, 3, replace=False)]
        # a row of the same line that is no record, of the first record's speaker
        queries.append(Query(*(vec(tables[m][n], m) for m in QUERY_MODALITIES), speaker_id=lib.speaker_ids[0]))
        misordered = 0
        for query in queries:
            for channel in CHANNELS:
                table = oracle_scores(lib, query, channel, Metric.COSINE)
                if channel == "scene":
                    q = query.scene.values
                    approx = (q / np.linalg.norm(q)).astype(np.float32) @ lib.unit_columns(Modality.SCENE)
                    misordered += not np.array_equal(np.argsort(approx, kind="stable"), np.argsort(table, kind="stable"))
                for mode in Mode:
                    for k in (1, 3, n + 1):
                        want = oracle_ranking(lib, query, table, k, mode)
                        assert retrieval_outcome(lib, query, channel, k, Metric.COSINE, mode) == want
        assert misordered  # the float32 product alone would rank some query wrongly
        own = [{c: oracle_scores(lib, Query.from_record(rec), c, Metric.COSINE) for c in CHANNELS}
               for rec in lib.records]
        for mode in Mode:
            for k in (1, 3, n + 1):
                want = oracle_purity(lib, k, Metric.COSINE, mode, own)
                for block_floats in (50, 1 << 16):
                    assert purity_outcome(lib, k, Metric.COSINE, mode, block_floats) == want


class TestUnitColumns:
    """The float32 unit columns the cosine filter reads are cached beside
    the norms, only a cosine scan within the dimension limit builds them,
    and a row that fails the guard is a column of zeros in them."""

    def test_float32_read_only_and_bit_equal(self, rng):
        lib = random_library(rng, 30, dims=5)
        retrieve_all(lib, Query.from_record(lib.records[0]), 3)
        assert set(lib._unit_cache) == set(QUERY_MODALITIES)
        for m in QUERY_MODALITIES:
            unit = lib.unit_columns(m)
            assert unit is lib._unit_cache[m]
            assert unit.dtype == np.float32 and unit.shape == (5, 30)
            assert unit.tobytes() == (lib.matrix(m).T / lib.norms(m)).astype(np.float32).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                unit[0, 0] = 1.0

    @pytest.mark.parametrize("metric", [Metric.DOT, Metric.NEG_EUCLIDEAN])
    def test_none_under_dot_or_euclid(self, rng, metric):
        lib = random_library(rng, 30, dims=5)
        retrieve_all(lib, Query.from_record(lib.records[0]), 3, metric)
        evaluate_purity(lib, 3, metric, Mode.SPEAKER_AGNOSTIC)
        assert lib._unit_cache == {}

    def test_zero_column_for_a_zero_norm_row_and_no_warning(self, rng):
        lib = rebuilt(random_library(rng, 30, dims=5), {(4, Modality.SCENE): 0.0}, {4: "alone"})
        q = Query.from_record(lib.records[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match=f"zero vector: record {lib.ids[4]}"):
                retrieve_modality(lib, q, "scene", 3)
            got = retrieve_modality(lib, q, "scene", 3, mode=Mode.SPEAKER_SPECIFIC)  # record 4 is outside the pool
            assert got == brute_force_rank(lib, q, "scene", 3, Metric.COSINE, Mode.SPEAKER_SPECIFIC)
            assert set(lib._unit_cache) == {Modality.SCENE}
            unit = lib.unit_columns(Modality.SCENE)
            assert not unit[:, 4].any()
            others = np.arange(30) != 4
            want = lib.matrix(Modality.SCENE).T[:, others] / lib.norms(Modality.SCENE)[others]
            assert unit[:, others].tobytes() == want.astype(np.float32).tobytes()
            with pytest.raises(ArgumentError, match="zero vector"):
                evaluate_purity(lib, 3, Metric.COSINE, Mode.SPEAKER_AGNOSTIC)  # scans every channel
        assert set(lib._unit_cache) == set(QUERY_MODALITIES)

    def test_none_past_the_dimension_limit(self, rng, monkeypatch):
        """A cosine channel too wide for the float32 slack is scored exactly."""
        monkeypatch.setattr(retrieval, "_COSINE_DIM_MAX", 5)
        lib = random_library(rng, 30, dims=5)
        q = Query.from_record(lib.records[0])
        for channel in CHANNELS:
            want = brute_force_rank(lib, q, channel, 3, Metric.COSINE, Mode.SPEAKER_AGNOSTIC)
            assert bits(retrieve_modality(lib, q, channel, 3)) == bits(want)
        assert lib._unit_cache == {}


# --- the guard, record by record ----------------------------------------------


def guard_fails(rows, metric):
    """Which (.., d) rows the filter cannot bound: a norm above 2**500, or
    under cosine one below 2**-500 (test-side norms)."""
    norms = np.sqrt((rows * rows).sum(axis=-1))
    return (norms > 2.0**500) | ((metric is Metric.COSINE) & (norms < 2.0**-500))


def exact_bound(pools, row_fails, col_fails, k, tables):
    """The most pairs a scan of ``pools`` (one row per query) may score
    exactly: each query's failing pool pairs (its whole pool where the
    query fails) and its survivors. These are at most 2 K (K and their near
    ties), or every pool entry whose :func:`oracle_scores` entry in
    ``tables`` ties or beats the K-th (a table that is an error scores none)."""
    scores = np.array([[s if isinstance(s, float) else np.nan for s in t] if isinstance(t, list)
                       else np.full(pools.shape[1], np.nan) for t in tables])
    sizes = pools.sum(axis=1)
    failing = np.where(row_fails, sizes, (pools & col_fails).sum(axis=1))
    ranked = -np.sort(-np.where(pools, scores, -np.inf), axis=1)
    kth = ranked[:, min(k, pools.shape[1]) - 1]
    tied = (pools & (scores >= kth[:, None])).sum(axis=1)
    return int((failing + np.maximum(np.minimum(sizes, 2 * k), tied)).sum())


class TestGuardPerRecord:
    """A record the guard fails is left to exact scoring on its own, and the
    filter still ranks the rest of its channel: a norm below 2**-500 (not
    zero), a norm above 2**500 whose sums do not overflow, and a zero row,
    inside and outside a speaker-specific pool. ``retrieve_modality`` and
    ``evaluate_purity`` equal the scalar oracle bit for bit, errors
    included, and the pairs scored exactly are the failing pool pairs and
    the survivors, not the pool."""

    N = 200

    def library(self, zero):
        r = np.random.default_rng(28)
        lib = random_library(r, self.N)
        unit = r.normal(size=8)
        planted = {(5, Modality.SCENE): unit * 2.0**-512, (5, Modality.TEXT_SELF): unit * 2.0**-505,
                   (17, Modality.FACE): unit * 2.0**505, (17, Modality.TEXT_REACT): -unit * 2.0**503}
        if zero:
            planted.update({(40, m): np.zeros(8) for m in (Modality.SCENE, Modality.FACE, Modality.TEXT_REACT)})
        return rebuilt(lib, planted)

    def queries(self, lib):
        r = np.random.default_rng(5)
        speakers = lib.speaker_ids
        rows = [5, 17, 40] + [speakers.index(s) for s in sorted(set(speakers))]
        queries = [Query.from_record(lib.records[row], exclude_self=row != 17) for row in rows]
        # off the library, failing in scene and face, of record 40's speaker
        vectors = r.normal(size=(4, 8)) * [[2.0**-520], [2.0**502], [1.0], [1.0]]
        queries.append(Query(*(vec(v, m) for v, m in zip(vectors, QUERY_MODALITIES)), speaker_id=speakers[40]))
        return queries

    def counting(self, monkeypatch):
        counted = []
        real = retrieval._exact_scores
        monkeypatch.setattr(retrieval, "_exact_scores", lambda *args: counted.append(len(args[-1])) or real(*args))
        return counted

    @pytest.mark.parametrize("zero", [False, True])
    @pytest.mark.parametrize("metric", list(Metric))
    def test_retrieve_modality_matches_oracle_and_scores_few_pairs(self, monkeypatch, metric, zero):
        lib = self.library(zero)
        counted = self.counting(monkeypatch)
        speakers = np.array(lib.speaker_ids)
        for query in self.queries(lib):
            for channel in CHANNELS:
                modalities = _CHANNEL_MODALITIES[channel]
                row_fails = any(guard_fails(getattr(query, m.value).values, metric) for m in modalities)
                col_fails = np.logical_or.reduce([guard_fails(lib.matrix(m), metric) for m in modalities])
                table = oracle_scores(lib, query, channel, metric)
                for mode in Mode:
                    pool = ~np.isin(lib.ids, list(query.exclude_ids))
                    if mode is Mode.SPEAKER_SPECIFIC:
                        pool &= speakers == query.speaker_id
                    for k in (1, 3, self.N + 1):
                        counted.clear()
                        want = oracle_ranking(lib, query, table, k, mode)
                        assert retrieval_outcome(lib, query, channel, k, metric, mode) == want
                        assert sum(counted) <= exact_bound(pool[None], [row_fails], col_fails, k, [table])

    @pytest.mark.parametrize("zero", [False, True])
    @pytest.mark.parametrize("metric", list(Metric))
    def test_evaluate_purity_matches_oracle_and_scores_few_pairs(self, monkeypatch, metric, zero):
        lib = self.library(zero)
        counted = self.counting(monkeypatch)
        codes = lib.speaker_codes
        # under cosine the zero row raises at once, so the oracle scores lazily
        own = None if zero and metric is Metric.COSINE else [
            {c: oracle_scores(lib, Query.from_record(rec), c, metric) for c in CHANNELS} for rec in lib.records]
        for mode in Mode:
            pools = ~np.eye(self.N, dtype=bool)
            if mode is Mode.SPEAKER_SPECIFIC:
                pools &= codes[:, None] == codes
            for k in (1, 3):
                counted.clear()
                assert purity_outcome(lib, k, metric, mode, 1 << 16) == oracle_purity(lib, k, metric, mode, own)
                bound = 0
                for channel in CHANNELS:
                    modalities = _CHANNEL_MODALITIES[channel]
                    fails = np.logical_or.reduce([guard_fails(lib.matrix(m), metric) for m in modalities])
                    tables = [own[row][channel] if own else None for row in range(self.N)]
                    bound += exact_bound(pools, fails, fails, k, tables)
                assert sum(counted) <= bound
