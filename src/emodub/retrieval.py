"""Emotion-similarity top-K retrieval over a footage library.

Each of the three query channels (scene, face, text) is searched
independently with the target's own emotion vectors as queries. The text
channel scores a candidate by the mean of the self-half and react-half
similarities. Every hit also carries the candidate's stored audio vector,
matched by index lookup, so downstream consumers get the direct audio
signal for each indirect hit.

Every score has one definition, down to the order of its float64
operations: each inner product or squared norm adds the elementwise
products left to right over the d dimensions (:func:`_sum`), each product
and addition rounded once, with no fused multiply-add; the square root
and the division follow. :func:`similarity` and :func:`text_criterion`
evaluate it on Python floats, and :func:`_exact_scores` for a list of
(query, candidate) pairs at once, each sum taken down a column of one
(d, pairs) array (:func:`_sum_rows`), so each pair gets exactly the bits
:func:`similarity` gives it alone, whatever the BLAS, CPU or pair count.

The scan, :func:`retrieve_block`, scores exactly only the pairs that can
reach a row's top K, the filter-and-refine scheme of Seidl and Kriegel
(*Optimal Multi-Step k-Nearest Neighbor Search*, SIGMOD 1998). It first
scores every (query, candidate) pair approximately, with one BLAS product
per modality. Cosine multiplies the query rows, each divided by its norm
and rounded to float32, by the library's float32 unit columns
(:meth:`~emodub.library.FootageLibrary.unit_columns`: each library row
divided by its cached norm in float64, then rounded once, 4 d N bytes per
modality, built by the first cosine scan),
and upcasts the product to float64. Dot takes the float64 product of the
rows as given, and euclid ``-sqrt(max(qn**2 + cn**2 - 2 D, 0))`` from it
and the cached norms. Text averages its halves in float64. Dot and euclid
stay in float64: neither divides by a norm, so a float32 product saves
no pass, and the power-of-two scaling that would keep their products in
float32's range cost more than the narrower product saved. Each query row
i gets a slack s_i that bounds the gap between the approximate score A
and the exact score R of every candidate (below). :func:`_top_k` keeps
each row's pool columns within 2 s_i of its K-th approximate score,
which is every column that can reach the row's top K, and scores only
those exactly. The BLAS only chooses how many pairs are scored exactly:
hits, scores and their order are those of a full sort by exact score, on
every BLAS kernel.

The slack (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
ed. 2002, section 3.1; for filtering in a lower precision, Higham and
Mary, *Mixed precision algorithms in numerical linear algebra*, Acta
Numerica 2022). Let gamma_n(w) = n w / (1 - n w) for a unit roundoff w:
u = 2**-53 for float64, v = 2**-24 for float32. A sum of d products,
added in any order, with or without fused multiply-add, is within
gamma_d(u) * sum|x_j y_j| + d * 2**-1074 of the real inner product (the
second term covers products that underflow, under IEEE 754 gradual
underflow), and so is the exact score's left-to-right sum; by
Cauchy-Schwarz sum|x_j y_j| <= |x| |y|. A computed norm n bounds the real
one: |x| <= (1 + gamma_(d+2)(u)) (n + sqrt(d) 2**-537). So with the query
row's norm qn_i, the largest passing library norm cn_max (as computed),
X = qn_i + 2**-500, Y = cn_max + 2**-500 and G = gamma_(d+5)(u):

- dot: |A - R| <= 2 gamma_d(u) |x| |y| + 2 d 2**-1074, so s_i = 4 G X Y.
- cosine: let T = x.y / (qn cn) and rho = sum|x_j y_j| / (qn cn), which
  is at most ((1 + gamma_(d+2)(u)) (1 + 2**-26))**2 under the guard. R
  divides its float64 sum by qn * cn, so it is within gamma_(d+3)(u) rho
  of T. A sums in float32 the products a_j b_j, where a_j is x_j / qn
  rounded to float64 and then to float32, and b_j is y_j / cn likewise.
  Each is within a relative v (1 + 2**-28) of its real quotient or,
  below float32's normal range, within 2**-126 absolutely; that holds
  also where the BLAS reads a subnormal input as zero. The BLAS's
  float32 sum, in any order, with or without fused multiply-add, is
  within gamma_d(v) sum|a_j b_j| of the real sum of its inputs, plus
  2**-126 for each of its 2 d - 1 roundings (carried by at most d
  further ones), also where it flushes a subnormal result to zero. The
  upcast is exact. With d v < 1/4 this puts A within
  gamma_(d+2)(v) (1 + 2**-27) rho + 6 d 2**-126 of T, and the gap below
  gamma_(d+3)(v) rho + 6 d 2**-126. So s_i = 2 gamma_(d+5)(v) + d 2**-122.
- euclid: the root's argument is within 2.02 G (X**2 + Y**2) of the real
  |x - y|**2, and |sqrt(a) - sqrt(b)| <= sqrt(|a - b|), so the gap is
  taken in square-root space; R's root is within G (X + Y) / 2 of the real
  distance, and each root adds a rounding of u (X + Y). So
  s_i = 2 sqrt(G (X**2 + Y**2)) + 2 G (X + Y).
- text: the two halves' slacks add, which also covers the mean's two
  roundings.

Each slack exceeds the gap it bounds at least 1.4 times over, more than
the roundings of computing it and the threshold take. None depends on the
order of the BLAS's sums or on whether it keeps subnormals, so the filter
keeps every pair it must on every kernel.

The bound needs a guard, checked per record, on the query rows given and
on the library rows' cached :meth:`~emodub.library.FootageLibrary.guard`:
a norm is at most 2**500, so no product, sum or squared norm overflows;
under cosine at least 2**-500, so none is zero and every squared norm is
normal; and a cosine channel has d < 2**22, so d v < 1/4. A pool pair
whose query or library row fails, in either text half, is scored exactly
first, its exact score replacing its approximate one with an error of 0.
A failing query row's slack is 0, a failing library row's unit column 0
(its norm is never divided), and past the dimension limit every pair
fails and no unit columns are built.

Up to K = :data:`_ARGMAX_K_MAX`, :func:`_top_k` finds each row's K-th
approximate score by K + 1 argmax passes. When every row's (K+1)-th score
falls below its threshold, the K columns each row took are its survivors
and no entry is compared; else (a near tie or a pool shorter than K in any
row) every entry is compared with its row's threshold. Past that K, a
partition gives the K-th score.
Each row's pool top K are ordered by (score desc, record_id asc), ids
compared as the unsigned 64-bit integers they are: one per-row sort when
each row has exactly K survivors and none tie, else a sort by (row, score
desc, id asc), so a tie still goes to the lower record id.
:func:`retrieve_modality` is the one-row case; ``evaluate_purity`` scans
the library's own rows in blocks.

Errors are those of a scalar scan of each query's pool in turn, raised at
the first (query, channel, candidate) it rejects: under cosine a zero
squared norm, of the query's vector or the candidate's, is an
``ArgumentError``, and a NaN score (from sums that overflow) a
``NumericError``, so no NaN is sorted. A record outside the pool raises
nothing, whatever it scores. A pair that passes the guard has no fault,
so the faults are located only among the failing pairs. The scan is the
one place that checks a query's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from .errors import ArgumentError, NumericError, SchemaError
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


def _sum(terms):
    """The terms added left to right, each addition rounded once.

    The terms are Python floats, or the rows of a fresh (d, P) array past
    :data:`_ACCUMULATE_MAX` columns (:func:`_sum_rows`), the first updated
    in place: numpy's add rounds like Python's float add, so each pair gets
    its scalar sum's bits. Python's ``sum`` is compensated from 3.12 on.
    """
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
    return total


#: Widest (d, P) array of terms that :func:`_sum_rows` adds by one
#: accumulate: on a 2-vCPU Xeon (numpy 2.4) that beats the loop over the
#: rows up to P = 90 at d = 8 and up to P = 110-130 at d = 16 and 32.
_ACCUMULATE_MAX = 96


def _sum_rows(terms: np.ndarray) -> np.ndarray:
    """:func:`_sum` of a fresh (d, P) array's rows, by one accumulate (which
    adds in sequence) up to :data:`_ACCUMULATE_MAX` columns: the same bits."""
    if terms.shape[1] <= _ACCUMULATE_MAX:
        return np.add.accumulate(terms, axis=0)[-1]
    return _sum(terms)


def similarity(metric: Metric, a: EmotionVector, b: EmotionVector) -> float:
    """Score a pair of vectors; higher is always better.

    Cosine: dot(a, b) / (|a| * |b|), requires both squared norms > 0.
    Dot: plain inner product. NegEuclidean: negated L2 distance, so the
    max-K interface is shared by all three metrics. This is the reference
    definition, evaluated on Python floats (see the module docstring).
    """
    va, vb = a.values.tolist(), b.values.tolist()
    if len(va) != len(vb):
        raise SchemaError(f"similarity dim mismatch: {len(va)} vs {len(vb)}")
    if metric is Metric.COSINE:
        aa, bb = _sum(x * x for x in va), _sum(y * y for y in vb)
        if aa == 0.0 or bb == 0.0:
            raise ArgumentError("cosine similarity is undefined for a zero vector")
        return _sum(x * y for x, y in zip(va, vb)) / (math.sqrt(aa) * math.sqrt(bb))
    if metric is Metric.DOT:
        return _sum(x * y for x, y in zip(va, vb))
    return -math.sqrt(_sum(d * d for d in (x - y for x, y in zip(va, vb))))


def text_criterion(
    metric: Metric,
    q_self: EmotionVector,
    q_react: EmotionVector,
    r_self: EmotionVector,
    r_react: EmotionVector,
) -> float:
    """Text-channel score: mean of the self-half and react-half similarities."""
    return 0.5 * (similarity(metric, q_self, r_self) + similarity(metric, q_react, r_react))


#: The query's four vectors, in the order they are validated.
QUERY_MODALITIES: tuple[Modality, ...] = (Modality.SCENE, Modality.FACE, Modality.TEXT_SELF, Modality.TEXT_REACT)


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

    def validate(self, lib: FootageLibrary) -> None:
        """Check each vector's dimension; the scan checks its values."""
        for modality in QUERY_MODALITIES:
            vec = getattr(self, modality.value)
            want = lib.schema[modality]
            if vec.dim != want:
                raise SchemaError(f"query {modality.value} dim {vec.dim} does not match schema dim {want}")


#: The modalities each channel scores: one vector, or the text halves.
_CHANNEL_MODALITIES: dict[str, tuple[Modality, ...]] = {
    "scene": (Modality.SCENE,),
    "face": (Modality.FACE,),
    "text": (Modality.TEXT_SELF, Modality.TEXT_REACT),
}


def squared_norms(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each row of a (Q, d) array, its products added
    left to right (:func:`_sum_rows`): bit for bit the cosine normaliser of
    :func:`similarity`. A sum that overflows is +inf."""
    with np.errstate(over="ignore"):
        return _sum_rows(rows.T * rows.T)


#: The guard's limits on a norm, and on the dimension of a cosine channel,
#: whose float32 slack needs d v < 1/4 (see the module docstring).
_NORM_MAX, _NORM_MIN = 2.0**500, 2.0**-500
_COSINE_DIM_MAX = 2**22


def _gamma(n: int, unit: float) -> float:
    """Higham's gamma_n(w) = n w / (1 - n w) for the unit roundoff w."""
    return n * unit / (1.0 - n * unit)


def guard_failures(norms: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """``(over, y, outside)`` for a modality's library norms: the rows past
    the dot and euclid guard (norm above 2**500), the largest other norm,
    and the rows past the cosine guard (also norm below 2**-500)."""
    over = norms > _NORM_MAX
    return np.flatnonzero(over), float(norms.max(initial=0.0, where=~over)), np.flatnonzero(over | (norms < _NORM_MIN))


def _approximate(lib: FootageLibrary, q: np.ndarray, qn: np.ndarray, modality: Modality, metric: Metric):
    """``(scores, slack, rows, cols)``: the BLAS score of every (query row,
    library row) pair, each query row's slack (see the module docstring),
    and the query rows (a mask) and library rows that fail the guard, whose
    scores and slacks are arbitrary. ``qn`` holds the query rows' norms."""
    over, y, outside = lib.guard(modality)
    d = q.shape[1]
    if metric is Metric.COSINE:
        if d >= _COSINE_DIM_MAX:  # no float32 slack holds: every pair fails
            return np.zeros((q.shape[0], len(lib))), 0.0, np.ones(q.shape[0], dtype=bool), outside
        scores = ((q / qn[:, None]).astype(np.float32) @ lib.unit_columns(modality)).astype(np.float64)
        return scores, 2.0 * _gamma(d + 5, 2.0**-24) + d * 2.0**-122, (qn < _NORM_MIN) | (qn > _NORM_MAX), outside
    g = _gamma(d + 5, 2.0**-53)
    x, y = qn + _NORM_MIN, y + _NORM_MIN
    if metric is Metric.DOT:
        return q @ lib.matrix(modality).T, 4.0 * g * x * y, qn > _NORM_MAX, over
    scores = (-2.0 * q) @ lib.matrix(modality).T
    scores += (qn * qn)[:, None]
    scores += lib.norms(modality) ** 2
    np.sqrt(np.maximum(scores, 0.0, out=scores), out=scores)
    np.negative(scores, out=scores)
    return scores, 2.0 * np.sqrt(g * (x * x + y * y)) + 2.0 * g * (x + y), qn > _NORM_MAX, over


def _exact_scores(lib, queries, query_norms, metric, modalities, rows, cols) -> np.ndarray:
    """The score of each (query row ``rows[i]``, library row ``cols[i]``)
    pair, with the bits of :func:`similarity` or :func:`text_criterion`."""
    scores = []
    for modality in modalities:
        q = queries[modality].T.take(rows, axis=1)  # q[j]: entry j of each pair's query
        c = lib.matrix(modality).T.take(cols, axis=1)
        if metric is Metric.NEG_EUCLIDEAN:
            scores.append(-np.sqrt(_sum_rows(np.square(q - c))))
            continue
        dot = _sum_rows(q * c)
        if metric is Metric.COSINE:
            dot /= query_norms[modality][rows] * lib.norms(modality)[cols]
        scores.append(dot)
    if len(scores) == 2:
        scores[0] += scores[1]
        scores[0] *= 0.5
    return scores[0]


#: Largest K whose K-th score :func:`_top_k` takes by argmax passes, not a
#: partition. Timing ``_top_k`` alone (2-vCPU Xeon, numpy 2.4.6, medians of
#: 400 interleaved calls), the passes win up to K = 9 on a 6 x 10**4 block (a
#: sweep block at N = 10**4), K = 11 on 200 x 200, and past K = 16 with 75% of
#: each row outside the pool; on one 10**4 row they tie at K = 4 and cost
#: 35 -> 50 µs at K = 8, and on 50 x 50 a few µs from K = 3 on.
_ARGMAX_K_MAX = 8


def _survivors(scores: np.ndarray, threshold: np.ndarray, pool: np.ndarray, short: bool) -> np.ndarray:
    """The flat indices, grouped by row, of the entries scoring at least
    their row's threshold; with a ``short`` row, only pool entries."""
    survivors = scores >= threshold[:, None]
    if short:
        # such a row's pool is smaller than K, or its pool scores -inf: each
        # of its pool columns survives, and only those
        survivors &= pool
    return np.flatnonzero(survivors)


def _top_k(scores: np.ndarray, pool: np.ndarray, ids: np.ndarray, k: int, slack=0.0, exact=None):
    """``(rows, cols, scores)`` of each row's top min(K, pool size) pool
    columns by exact score, in (row asc, score desc, id asc) order.

    ``scores`` is the block's own C-contiguous (Q, N) array of approximate
    scores, each within ``slack`` (a scalar or one entry per row) of the
    exact score that ``exact(rows, cols)`` gives for a list of pairs; its
    entries outside the pool are set to -inf in place, and other entries
    may be too. With the defaults, the scores are exact. The pool columns
    scoring at least a_K - 2 s survive, a_K the row's K-th approximate
    score and s its slack. They hold every column whose exact score R
    reaches the row's K-th exact score R_K: at least K pool columns have
    R >= R_K, so A >= R_K - s for K of them and a_K >= R_K - s; at most
    K - 1 have R > R_K, so at most K - 1 have A > R_K + s and
    a_K <= R_K + s. A column with R >= R_K then has A >= R_K - s >=
    a_K - 2 s. An entry already exact (A = R, an error of 0) is within any
    slack, so the bound holds for a block that mixes them in. A dropped
    column scores strictly below K pool columns, so neither a tie nor an
    id can bring it back.

    Up to K = :data:`_ARGMAX_K_MAX`, K + 1 argmax passes find a_K: each
    takes every row's first maximal entry and writes -inf in its place, so
    pass j takes the row's j-th score counted with its multiplicity, as a
    partition would (a row whose pool is shorter than K takes -inf, maybe
    from a column it took before). When no row's a_K is -inf and every row
    has a_(K+1) < a_K - 2 s, the threshold as computed, each row's K taken
    columns are exactly its survivors: they score at least a_K, at least
    the threshold, which rounds a_K - 2 s <= a_K; any other column scores
    at most a_(K+1), below it. At K = N there is no pass K + 1 and no
    other column. The comparison is then skipped, and the taken entries
    stay -inf, as the array is not read again. Otherwise, as when one row
    has a near tie, the whole block puts the taken scores back, in reverse
    order so that a column taken twice gets its own score last, and is
    compared with the threshold, as it is past :data:`_ARGMAX_K_MAX`, where
    a_K comes from one partition.

    Only the survivors are scored exactly. When every row has exactly K
    survivors, one per-row sort of the Q×K block orders them if Q > 1 and
    no two of a row tie. Any other block (a pool smaller than K, a tie at
    or above the K-th exact score, survivors past K within the slack, or
    one row, where this costs less) is sorted by (row, score desc, id
    asc), each row keeping its first K.
    """
    q, n = scores.shape
    k = min(k, n)
    if k == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0)
    np.copyto(scores, -np.inf, where=~pool)
    flat, starts, taken, taken_scores = scores.reshape(-1), np.arange(0, q * n, n), [], []
    for _ in range(k + (k < n) if k <= _ARGMAX_K_MAX else 0):
        at = scores.argmax(axis=1)
        at += starts
        taken.append(at)
        taken_scores.append(flat[at])
        flat[at] = -np.inf
    kth = taken_scores[k - 1] if taken else np.partition(scores, n - k, axis=1)[:, n - k]
    threshold, short = kth - 2.0 * slack, bool((kth == -np.inf).any())
    if taken and not short and (k == n or (taken_scores[k] < threshold).all()):
        chosen, top_scores = np.array(taken[:k]).T.ravel(), np.array(taken_scores[:k]).T.ravel()
    else:
        for at, score in zip(taken[::-1], taken_scores[::-1]):
            flat[at] = score
        chosen = _survivors(scores, threshold, pool, short)
        top_scores = flat[chosen]
    rows, cols = np.divmod(chosen, n)
    if exact is not None:
        top_scores = exact(rows, cols)
    if chosen.size == q * k and not short:
        # every row has at least K survivors, so exactly K, grouped by row
        if k == 1:
            return rows, cols, top_scores
        if q > 1:  # for a single row the lexsort below costs less
            order = np.argsort(-top_scores.reshape(q, k), axis=1)
            order += np.arange(0, q * k, k)[:, None]
            ordered = top_scores[order]
            if not (ordered[:, 1:] == ordered[:, :-1]).any():
                return rows, cols[order].ravel(), ordered.ravel()
    order = np.lexsort((ids[cols], -top_scores, rows))
    # survivors are grouped by row before and after the sort, so a sorted
    # position's rank in its row is its distance from the row's first position
    keep = order[np.arange(rows.size) - np.searchsorted(rows, rows) < k]
    return rows[keep], cols[keep], top_scores[keep]


def _check_k(k: int) -> None:
    if k < 1:
        raise ArgumentError(f"k must be >= 1, got {k}")


def retrieve_block(
    lib: FootageLibrary,
    queries: dict[Modality, np.ndarray],
    pool: np.ndarray,
    k: int,
    metric: Metric = Metric.COSINE,
    channels: tuple[str, ...] = CHANNELS,
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Top-K of Q query rows against every library row, per channel.

    ``queries`` maps each modality the channels read to a (Q, d) array of
    query vectors, and ``pool`` is the (Q, N) boolean mask of each query's
    candidates. Returns, per channel, ``(rows, cols, scores)``: the query
    row, library row and score of each row's top min(K, pool size) hits,
    in (query row, score desc, record_id asc) order.

    Every score is that of :func:`similarity` or :func:`text_criterion`,
    and only the pairs that the BLAS filter keeps are scored (see the
    module docstring); under cosine the library's normalisers come from
    ``lib.norms`` and the queries' from the same sums over the rows given.
    Errors are those of a loop over the query rows, each running a scalar
    scan of its pool in each channel in turn: at the first query row with
    a fault, at its first channel with one, a zero query vector under
    cosine (the first such modality), else that channel's first rejected
    pool row, for its zero norm under cosine (``ArgumentError``) or NaN
    score (``NumericError``). An empty pool yields no hits and no error.
    """
    _check_k(k)
    found, rejected, zero_queries = {}, {}, {}
    for channel in channels:
        modalities = _CHANNEL_MODALITIES[channel]
        query_norms = {m: np.sqrt(squared_norms(queries[m])) for m in modalities}
        if metric is Metric.COSINE:
            zero_queries.update((m, query_norms[m] == 0.0) for m in modalities)
        exact = partial(_exact_scores, lib, queries, query_norms, metric, modalities)
        with np.errstate(all="ignore"):
            (scores, slack, failing, columns), *react = [
                _approximate(lib, queries[m], query_norms[m], m, metric) for m in modalities
            ]
            if react:
                scores += react[0][0]
                scores *= 0.5
                slack = slack + react[0][1]
                failing = failing | react[0][2]
                if react[0][3].size:
                    columns = np.union1d(columns, react[0][3])
            if failing.any() or columns.size:
                # the failing pool pairs, row by row, are scored exactly; only they can fault
                if failing.any():
                    mask = np.zeros(pool.shape, dtype=bool)
                    mask[failing] = True
                    mask[:, columns] = True
                    rows, cols = np.divmod(np.flatnonzero(mask & pool), pool.shape[1])
                    slack = np.where(failing, 0.0, slack)  # not inf, so that no threshold is NaN
                else:
                    rows, cols = np.nonzero(pool[:, columns])
                    cols = columns[cols]
                exact_scores = exact(rows, cols)
                bad = np.isnan(exact_scores)
                # a zero library norm need not give NaN: a nonzero row whose
                # squares all underflow scores +-inf
                if metric is Metric.COSINE:
                    for m in modalities:
                        bad |= lib.norms(m)[cols] == 0.0
                if bad.any():
                    rejected[channel] = rows[bad], cols[bad]
                    continue
                scores[rows, cols] = exact_scores
            found[channel] = _top_k(scores, pool, lib.ids, k, slack, exact)
    faults = [int(rows[0]) for rows, _cols in rejected.values()]
    faults += [int(np.argmax(zero)) for zero in zero_queries.values() if zero.any()]
    if faults:
        row = min(faults)
        for channel in channels:
            modalities = _CHANNEL_MODALITIES[channel]
            for modality in modalities:
                if modality in zero_queries and zero_queries[modality][row]:
                    raise ArgumentError(f"cosine similarity is undefined for a zero vector: query {modality.value}")
            if channel in rejected:
                rows, cols = rejected[channel]
                cols = cols[rows == row]
                if cols.size:
                    record_id = lib.ids[cols[0]]
                    if metric is Metric.COSINE and any(lib.norms(m)[cols[0]] == 0.0 for m in modalities):
                        raise ArgumentError(f"cosine similarity is undefined for a zero vector: record {record_id}")
                    raise NumericError(f"{channel} score of record {record_id} is NaN: a sum overflows float64")
    return found


def _pool_mask(lib: FootageLibrary, query: Query, mode: Mode) -> np.ndarray:
    """Boolean row mask of the candidate pool."""
    keep = lib.speaker_mask(query.speaker_id) if mode is Mode.SPEAKER_SPECIFIC else np.ones(len(lib), dtype=bool)
    for record_id in query.exclude_ids:
        row = lib.id_index.get(record_id)
        if row is not None:
            keep[row] = False
    return keep


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
    yields an empty list. This is the one-row case of
    :func:`retrieve_block`: scores, order and errors are those of a full
    sort of the candidates by :func:`similarity` or :func:`text_criterion`,
    so under cosine only a zero vector that the channel reads is rejected.
    """
    _check_k(k)
    if mode is Mode.SPEAKER_SPECIFIC and query.speaker_id is None:
        raise ArgumentError("speaker-specific retrieval requires query.speaker_id")
    if channel not in _CHANNEL_MODALITIES:
        raise ArgumentError(f"unknown retrieval channel {channel!r}")
    query.validate(lib)
    pool = _pool_mask(lib, query, mode)[None, :]
    queries = {m: getattr(query, m.value).values[None, :] for m in _CHANNEL_MODALITIES[channel]}
    _rows, cols, scores = retrieve_block(lib, queries, pool, k, metric, (channel,))[channel]
    return list(zip(lib.ids[cols].tolist(), scores.tolist()))


@dataclass
class RetrievalResult:
    """Per-channel rankings plus the vectors the graph stages consume.

    ``indirect_vectors[channel]`` is a C-contiguous float64 ``hits x d``
    block whose row j is the emotion vector of the rank-j hit (for text a
    ``hits x 2d`` block: its self half, then its react half);
    ``matched_audio[channel]`` is the ``hits x d`` block of those same
    records' stored audio vectors.
    """

    rankings: dict[str, list[tuple[int, float]]]
    indirect_vectors: dict[str, np.ndarray]
    matched_audio: dict[str, np.ndarray]


def retrieve_all(
    lib: FootageLibrary,
    query: Query,
    k: int,
    metric: Metric = Metric.COSINE,
    mode: Mode = Mode.SPEAKER_AGNOSTIC,
) -> RetrievalResult:
    """Run all three channels and gather indirect vectors and matched audio.

    Each channel is ranked by one :func:`retrieve_modality` call, in
    :data:`CHANNELS` order, so the error raised is that of the first
    channel to reject the query or a candidate. Each block is gathered by
    one fancy index per modality.
    """
    result = RetrievalResult({}, {}, {})
    for channel in CHANNELS:
        ranking = retrieve_modality(lib, query, channel, k, metric, mode)
        rows = [lib.id_index[record_id] for record_id, _score in ranking]
        result.rankings[channel] = ranking
        result.indirect_vectors[channel] = np.hstack([lib.matrix(m)[rows] for m in _CHANNEL_MODALITIES[channel]])
        result.matched_audio[channel] = np.ascontiguousarray(lib.matrix(Modality.AUDIO)[rows])
    return result
