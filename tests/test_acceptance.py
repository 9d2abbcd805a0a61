"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion. Each test prints its measured wall time; the stated time budget
is asserted as an upper bound.
"""

import dataclasses
import math
import time

import numpy as np

from emodub.autodiff import Parameter, grad_check, load_checkpoint, mse, save_checkpoint
from emodub.graph import (
    GAEParams,
    ProjectionParams,
    gae_encode,
    progressive_encode,
)
from emodub.head import (
    HeadParams,
    PipelineParams,
    aggregate,
    make_toy_batch,
    toy_forward,
    toy_loss,
    train_toy,
)
from emodub.library import MODALITY_ORDER, EmotionVector, load_library, save_library
from emodub.retrieval import (
    CHANNELS,
    Metric,
    Mode,
    Query,
    retrieve_all,
    retrieve_modality,
)
from emodub.rng import SplitMix64, stream
from emodub.sweeps import sweep_topk
from emodub.synthetic import ClusterSpec, evaluate_purity, generate_clustered_library
from emodub.autodiff import Tensor

from conftest import check_edge_kinds, edge_count, is_connected, random_library, rebuilt, synthetic_retrieval
from test_retrieval import assert_matches_oracle, oracle_rank


def report(number, message, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {number} PASS: {message} ({elapsed:.1f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def toy_fixture(seed, dim, n_mel, length, k):
    spec = ClusterSpec(n=12, clusters=3, separation=8.0, dim=4, seed=seed)
    lib = generate_clustered_library(spec)
    query = Query.from_record(lib.records[0])
    batch = make_toy_batch(lib, query, seed, length, dim, n_mel, k=k)
    model = PipelineParams.init_for_library(lib, dim, stream(seed, "params"), n_mel=n_mel)
    return batch, model


def test_criterion_1_retrieval_oracle_equivalence():
    """1,000 randomized retrievals match brute-force full sort exactly."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    metrics = list(Metric)
    modes = list(Mode)
    for trial in range(1000):
        n = int(math.exp(rng.uniform(math.log(2), math.log(500))))
        dims = int(rng.integers(2, 33))
        lib = random_library(rng, n, dims=dims, speakers=3)
        if n >= 3 and trial % 5 == 0:
            # inject exact duplicates so the ascending-id tie-break is exercised
            lib = rebuilt(lib, {(n // 2, m): lib.records[0].vector(m).values for m in MODALITY_ORDER})
        k = int(rng.integers(1, 11))
        metric = metrics[trial % 3]
        mode = modes[trial % 2]
        channel = CHANNELS[trial % 3]
        query = Query.from_record(lib.records[int(rng.integers(n))], exclude_self=bool(trial % 2))
        got = retrieve_modality(lib, query, channel, k, metric, mode)
        want = oracle_rank(lib, query, channel, k, metric, mode)
        assert_matches_oracle(got, want)
    report(1, "1000 randomized retrievals identical to brute-force sort", t0, 30.0)


def test_criterion_2_graph_topology():
    """Node/edge counts, edge-kind legality, and connectivity for K in 0..8."""
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    lib = random_library(rng, 20)
    d_vec = 8
    proj = ProjectionParams.init(d_vec, d_vec, 2 * d_vec, d_vec, 16, SplitMix64(7))
    gae = GAEParams.init(16, SplitMix64(8))
    base = lib.records[0]
    text = np.concatenate([base.text_self.values, base.text_react.values])
    for k in range(0, 9):
        if k == 0:
            retrieved = synthetic_retrieval(None, 0, d_vec)
        else:
            retrieved = retrieve_all(lib, Query.from_record(base), k)
        enc = progressive_encode(base.scene.values, base.face.values, text, retrieved, proj, gae)
        expect = [(3, 3), (3 + 3 * k, 3 + 3 * k), (3 + 6 * k, 3 + 6 * k)]
        got = [(len(g.stages), edge_count(g)) for g in enc.graphs]
        assert got == expect, f"K={k}: {got} != {expect}"
        for g in enc.graphs:
            check_edge_kinds(g)
            assert is_connected(g)
    report(2, "stage node/edge counts (3, 3+3K, 3+6K), legality, connectivity for K=0..8", t0, 1.0)


def test_criterion_3_attention_normalization():
    """Every attention distribution sums to 1 within 1e-12."""
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    checked = 0
    for trial in range(7):
        d_vec, d_h = 6, 8
        lib = random_library(rng, 15, dims=d_vec)
        proj = ProjectionParams.init(d_vec, d_vec, 2 * d_vec, d_vec, d_h, SplitMix64(trial))
        gae = GAEParams.init(d_h, SplitMix64(trial + 50))
        base = lib.records[trial]
        retrieved = retrieve_all(lib, Query.from_record(base), k=3)
        text = np.concatenate([base.text_self.values, base.text_react.values])
        enc = progressive_encode(base.scene.values, base.face.values, text, retrieved, proj, gae)
        for g in enc.graphs:
            plain = dataclasses.replace(g, encoded=False)
            _, maps = gae_encode(plain, gae, with_attention=True)
            for alpha in maps:
                np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
                checked += alpha.shape[0]
        head = HeadParams.init(d_h, SplitMix64(trial + 99), n_mel=4)
        aligned = Tensor(rng.normal(size=(6, d_h)))
        _, weights = aggregate(
            aligned, enc.h_basic, enc.h_indirect, enc.h_direct, head, with_weights=True
        )
        for w in weights:
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
            checked += w.shape[0]
    assert checked > 300  # the loop really did cover distributions
    report(3, f"{checked} attention rows sum to 1 within 1e-12", t0, 5.0)


def test_criterion_4_full_pipeline_gradient():
    """Finite differences confirm every parameter gradient at d=8, L=5, K=2."""
    t0 = time.monotonic()
    batch, model = toy_fixture(seed=1, dim=8, n_mel=4, length=5, k=2)
    params = model.parameters()
    worst = grad_check(lambda: toy_loss(batch, model), params, eps=1e-5)
    assert worst < 1e-4, f"max relative gradient error {worst}"
    n_entries = sum(p.data.size for p in params)
    report(4, f"pipeline gradient check over {n_entries} entries, max rel err {worst:.2e}", t0, 60.0)


def test_criterion_4_gradient_reaches_the_basic_cross_attention():
    """On a seed whose basic-stage rows differ, every parameter, the basic
    cross-attention's query and key included, has gradient entries above
    grad_check's 1e-8 floor, so finite differences check them. (On seeds 0
    and 1, h_basic's rows are equal to within 3e-16 and those gradients are
    about 1e-21.)"""
    batch, model = toy_fixture(seed=2, dim=8, n_mel=4, length=5, k=2)
    pred, encoding = toy_forward(batch, model)
    rows = encoding.h_basic.data
    assert min(np.abs(rows[i] - rows[j]).max() for i, j in ((0, 1), (0, 2), (1, 2))) > 1e-3
    mse(pred, batch.target_mel).backward()
    params = model.parameters()
    largest = {p.name: np.abs(p.grad).max() for p in params}
    assert min(largest.values()) > 1e-8, largest
    assert largest["head.ca_basic.wq"] > 1e-8 and largest["head.ca_basic.wk"] > 1e-8
    worst = grad_check(lambda: toy_loss(batch, model), params, eps=1e-5)
    assert worst < 1e-4, f"max relative gradient error {worst}"


def test_criterion_5_toy_training_convergence():
    """200 steps at the published optimizer settings cut the loss to <= 10%."""
    t0 = time.monotonic()
    batch, model = toy_fixture(seed=0, dim=32, n_mel=16, length=8, k=3)
    losses = train_toy(batch, model, steps=200)  # Adam lr=0.00625, betas (0.9, 0.98), eps 1e-9
    ratio = losses[-1] / losses[0]
    assert ratio <= 0.10, f"loss ratio {ratio}"
    batch2, model2 = toy_fixture(seed=0, dim=32, n_mel=16, length=8, k=3)
    assert train_toy(batch2, model2, steps=200) == losses  # bit-identical trajectory
    report(5, f"toy training loss ratio {ratio:.4f} after 200 steps, deterministic", t0, 60.0)


def test_criterion_6_cosine_ranking_invariance():
    """Positive rescaling of any vector never reorders cosine rankings."""
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    for trial in range(100):
        lib = random_library(rng, 30, dims=int(rng.integers(2, 17)))
        query = Query.from_record(lib.records[int(rng.integers(30))])
        channel = CHANNELS[trial % 3]
        before = [rid for rid, _ in retrieve_modality(lib, query, channel, 10, Metric.COSINE)]
        factor = math.exp(rng.uniform(-3, 3))
        if trial % 2:
            row = int(rng.integers(30))
            modality = MODALITY_ORDER[int(rng.integers(5))]
            lib = rebuilt(lib, {(row, modality): lib.records[row].vector(modality).values * factor})
        else:
            name = ("scene", "face", "text_self", "text_react")[int(rng.integers(4))]
            vec = getattr(query, name)
            setattr(query, name, EmotionVector(vec.modality, vec.values * factor))
        after = [rid for rid, _ in retrieve_modality(lib, query, channel, 10, Metric.COSINE)]
        assert before == after
    report(6, "100 positive rescalings left cosine id rankings unchanged", t0, 30.0)


def test_criterion_7_serialization_round_trips(tmp_path):
    """Library and checkpoint round trips are bit-exact over 100 random sets."""
    t0 = time.monotonic()
    rng = np.random.default_rng(707)
    lib_path = tmp_path / "roundtrip.mrfl"
    for trial in range(100):
        dims = {m: int(d) for m, d in zip(MODALITY_ORDER, rng.integers(2, 12, size=5))}
        lib = random_library(rng, int(rng.integers(0, 25)), dims=dims)
        save_library(lib, lib_path)
        loaded = load_library(lib_path)
        assert loaded == lib
        for rec, back in zip(lib.records, loaded.records):
            for m in MODALITY_ORDER:
                assert rec.vector(m).values.tobytes() == back.vector(m).values.tobytes()
    ckpt_path = tmp_path / "roundtrip.adpk"
    for trial in range(100):
        params = [
            Parameter(rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7)))), f"p{i}")
            for i in range(int(rng.integers(1, 6)))
        ]
        save_checkpoint(params, ckpt_path)
        loaded = load_checkpoint(ckpt_path)
        for p in params:
            assert loaded[p.name].tobytes() == p.data.tobytes()
    report(7, "100 library and 100 checkpoint round trips bit-exact", t0, 30.0)


def test_criterion_8_surrogate_sweeps():
    """Purity at 6-sigma separation, scale trend over 10 seeds, K coverage."""
    t0 = time.monotonic()
    # (a) 6-sigma clusters: top-3 purity >= 0.99
    lib = generate_clustered_library(ClusterSpec(n=360, clusters=3, separation=6.0, dim=8, seed=0))
    res = evaluate_purity(lib, k=3, metric=Metric.COSINE)
    assert res.purity >= 0.99, f"purity {res.purity}"
    # (b) full library at least as pure as a 10% subsample, averaged over 10 seeds
    full_sum = small_sum = 0.0
    for seed in range(10):
        lib = generate_clustered_library(
            ClusterSpec(n=200, clusters=3, separation=6.0, dim=8, seed=seed)
        )
        small_sum += evaluate_purity(lib.subsample(0.1, seed), k=3).purity
        full_sum += evaluate_purity(lib, k=3).purity
    assert full_sum / 10 >= small_sum / 10
    # (c) the K sweep covers 1..8, including the default operating width 3
    lib = generate_clustered_library(ClusterSpec(n=60, clusters=3, separation=6.0, dim=8, seed=3))
    rows = sweep_topk(lib, list(range(1, 9)))
    ks = {row["k"] for row in rows}
    assert ks == set(range(1, 9)) and 3 in ks
    assert {row["mode"] for row in rows} == {"agnostic", "specific"}
    report(
        8,
        f"6-sigma purity {res.purity:.4f} >= 0.99; scale trend {full_sum/10:.4f} >= {small_sum/10:.4f}; K sweep covers 1..8",
        t0,
        120.0,
    )


def test_criterion_9_aggregation_structure():
    """Later-stage inputs matter, and stage outputs are computed in isolation."""
    t0 = time.monotonic()
    rng = np.random.default_rng(909)
    d_h = 8
    head = HeadParams.init(d_h, SplitMix64(90), n_mel=4)
    aligned = Tensor(rng.normal(size=(5, d_h)))
    h_basic = Tensor(rng.normal(size=(3, d_h)))
    h_indirect = Tensor(rng.normal(size=(9, d_h)))
    h_direct = Tensor(rng.normal(size=(15, d_h)))
    full = aggregate(aligned, h_basic, h_indirect, h_direct, head)
    gutted = aggregate(
        aligned, h_basic, Tensor(np.zeros((9, d_h))), Tensor(np.zeros((15, d_h))), head
    )
    assert np.isfinite(gutted.data).all()
    assert np.abs(full.data - gutted.data).max() > 1e-9

    # stage isolation: changing direct-audio inputs must not touch earlier stages
    d_vec = 6
    lib = random_library(rng, 15, dims=d_vec)
    proj = ProjectionParams.init(d_vec, d_vec, 2 * d_vec, d_vec, d_h, SplitMix64(91))
    gae = GAEParams.init(d_h, SplitMix64(92))
    base = lib.records[0]
    text = np.concatenate([base.text_self.values, base.text_react.values])
    retrieved = retrieve_all(lib, Query.from_record(base), k=2)
    enc_a = progressive_encode(base.scene.values, base.face.values, text, retrieved, proj, gae)
    modified = dataclasses.replace(
        retrieved, matched_audio={c: block * 2.0 + 0.5 for c, block in retrieved.matched_audio.items()}
    )
    enc_b = progressive_encode(base.scene.values, base.face.values, text, modified, proj, gae)
    assert enc_a.h_basic.data.tobytes() == enc_b.h_basic.data.tobytes()
    assert enc_a.h_indirect.data.tobytes() == enc_b.h_indirect.data.tobytes()
    assert enc_a.h_direct.data.tobytes() != enc_b.h_direct.data.tobytes()
    report(9, "zeroed later stages change the output; earlier stages bit-identical", t0, 10.0)
