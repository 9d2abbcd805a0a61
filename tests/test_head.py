"""Aggregation head: fusing structure, mel head, and the toy trainer."""

import numpy as np
import pytest

from emodub.autodiff import AdamState, Tensor, grad_check, mse
from emodub.errors import ArgumentError, ShapeError
from emodub.head import (
    HeadParams,
    PipelineParams,
    aggregate,
    make_toy_batch,
    stub_aligned_sequence,
    toy_forward,
    toy_loss,
    toy_mel_head,
    toy_train_step,
    train_toy,
)
from emodub.retrieval import Query
from emodub.rng import SplitMix64, stream
from emodub.synthetic import ClusterSpec, generate_clustered_library

from conftest import tape_ops

D = 8


@pytest.fixture
def head():
    return HeadParams.init(D, SplitMix64(40), n_mel=5)


def stage_features(rng, rows):
    return Tensor(rng.normal(size=(rows, D)))


def toy_fixture(seed=0, dim=16, n_mel=6, length=5, k=2):
    spec = ClusterSpec(n=12, clusters=3, separation=8.0, dim=4, seed=seed)
    lib = generate_clustered_library(spec)
    query = Query.from_record(lib.records[0])
    batch = make_toy_batch(lib, query, seed, length, dim, n_mel, k=k)
    model = PipelineParams.init_for_library(lib, dim, stream(seed, "params"), n_mel=n_mel)
    return batch, model


class TestAggregate:
    def test_output_shape_preserves_length(self, rng, head):
        aligned = stage_features(rng, 5)
        out = aggregate(aligned, stage_features(rng, 3), stage_features(rng, 12), stage_features(rng, 21), head)
        assert out.shape == (5, D)

    def test_single_key_basic_stage(self, rng, head):
        # one basic row: the first attention read returns it for every frame
        aligned = stage_features(rng, 4)
        h_basic = stage_features(rng, 1)
        from emodub.autodiff import cross_attention

        ca_out, weights = cross_attention(aligned, h_basic, head.ca_basic, with_weights=True)
        np.testing.assert_array_equal(weights[0], np.ones((4, 1)))
        row = (h_basic.data @ head.ca_basic.wv.data) @ head.ca_basic.wo.data
        for i in range(4):
            np.testing.assert_allclose(ca_out.data[i], row[0], rtol=1e-12)

    def test_attention_weight_rows_sum_to_one(self, rng, head):
        aligned = stage_features(rng, 6)
        _, weights = aggregate(
            aligned, stage_features(rng, 3), stage_features(rng, 9), stage_features(rng, 15),
            head, with_weights=True,
        )
        assert len(weights) == 3
        for w in weights:
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_zeroed_stage_keys_still_finite(self, rng, head):
        aligned = stage_features(rng, 5)
        zeros = Tensor(np.zeros((4, D)))
        out = aggregate(aligned, zeros, zeros, zeros, head)
        assert np.isfinite(out.data).all()

    def test_zeroing_later_stages_changes_output(self, rng, head):
        aligned = stage_features(rng, 5)
        h_basic = stage_features(rng, 3)
        h_ind = stage_features(rng, 9)
        h_dir = stage_features(rng, 15)
        full = aggregate(aligned, h_basic, h_ind, h_dir, head)
        zeroed = aggregate(
            aligned, h_basic, Tensor(np.zeros((9, D))), Tensor(np.zeros((15, D))), head
        )
        assert np.abs(full.data - zeroed.data).max() > 1e-6

    def test_residual_read_of_original_alignment(self, rng, head):
        # two aligned inputs equal in rows 1.. but different in row 0 must differ
        # in E_out row 0 even when the attention chain output is held fixed
        aligned_a = stage_features(rng, 3)
        aligned_b = Tensor(aligned_a.data.copy())
        aligned_b.data[0] += 1.0
        h = stage_features(rng, 3)
        out_a = aggregate(aligned_a, h, h, h, head)
        out_b = aggregate(aligned_b, h, h, h, head)
        assert not np.allclose(out_a.data[0], out_b.data[0])

    def test_empty_stage_rejected(self, rng, head):
        aligned = stage_features(rng, 4)
        with pytest.raises(ShapeError):
            aggregate(aligned, Tensor(np.zeros((0, D))), stage_features(rng, 3), stage_features(rng, 3), head)

    def test_gradient_through_full_head(self, rng):
        head = HeadParams.init(4, SplitMix64(41), n_mel=3)
        aligned = Tensor(rng.normal(size=(3, 4)))
        h_b, h_i, h_d = (Tensor(rng.normal(size=(r, 4))) for r in (3, 5, 7))
        target = rng.normal(size=(3, 3))

        def loss():
            return mse(toy_mel_head(aggregate(aligned, h_b, h_i, h_d, head), head), target)

        assert grad_check(loss, head.parameters()) < 1e-4


class TestHeadParams:
    def test_checkpoint_names_in_declaration_order(self, head):
        names = [p.name for p in head.parameters()]
        blocks = [f"head.{b}.{w}" for b in ("ca_basic", "ca_indirect", "ca_direct") for w in ("wq", "wk", "wv", "wo")]
        convs = [f"head.{c}.{w}" for c in ("conv_basic", "conv_indirect", "conv_direct", "conv_out") for w in ("kernel", "bias")]
        assert names == blocks + convs + ["head.mel.weight", "head.mel.bias"]

    def test_convolutions_map_twice_the_width_to_the_width(self, head):
        for conv in (head.conv_basic, head.conv_indirect, head.conv_direct, head.conv_out):
            assert conv.kernel.shape == (2 * D, D) and conv.bias.shape == (1, D)


class TestStubAlignedSequence:
    def test_deterministic(self):
        a = stub_aligned_sequence(3, 6, 16)
        b = stub_aligned_sequence(3, 6, 16)
        assert a.data.tobytes() == b.data.tobytes()

    def test_shapes(self):
        assert stub_aligned_sequence(0, 1, 256).shape == (1, 256)
        assert stub_aligned_sequence(0, 9, 32).shape == (9, 32)

    def test_seed_keys_content(self):
        assert stub_aligned_sequence(1, 4, 8).data.tobytes() != stub_aligned_sequence(2, 4, 8).data.tobytes()

    def test_zero_length_rejected(self):
        with pytest.raises(ArgumentError):
            stub_aligned_sequence(0, 0, 8)


class TestToyMelHead:
    def test_zero_input_gives_bias_rows(self, head):
        out = toy_mel_head(Tensor(np.zeros((4, D))), head)
        for i in range(4):
            np.testing.assert_array_equal(out.data[i], head.mel.bias.data[0])

    def test_shape(self, rng, head):
        out = toy_mel_head(Tensor(rng.normal(size=(7, D))), head)
        assert out.shape == (7, 5)

    def test_matches_matmul_oracle(self, rng, head):
        x = rng.normal(size=(3, D))
        got = toy_mel_head(Tensor(x), head).data
        np.testing.assert_allclose(got, x @ head.mel.weight.data + head.mel.bias.data, rtol=1e-13)


class TestToyTraining:
    def test_perfect_fit_gives_zero_loss_and_gradients(self):
        batch, model = toy_fixture(seed=5)
        pred, _ = toy_forward(batch, model)
        batch.target_mel = pred.data.copy()
        adam = AdamState(model.parameters())
        loss = toy_train_step(batch, model, adam)
        assert loss == 0.0
        # gradients were zero, so Adam left every parameter unchanged
        pred2, _ = toy_forward(batch, model)
        assert pred2.data.tobytes() == batch.target_mel.tobytes()

    def test_two_hundred_steps_reach_ten_percent(self):
        batch, model = toy_fixture(seed=0)
        losses = train_toy(batch, model, 200)
        assert losses[-1] <= 0.1 * losses[0]

    def test_training_is_deterministic(self):
        batch1, model1 = toy_fixture(seed=7)
        batch2, model2 = toy_fixture(seed=7)
        l1 = train_toy(batch1, model1, 40)
        l2 = train_toy(batch2, model2, 40)
        assert l1 == l2  # float-exact trajectories

    def test_gradient_reachability(self):
        batch, model = toy_fixture(seed=3)
        loss = toy_loss(batch, model)
        loss.backward()
        for p in model.parameters():
            assert np.any(p.grad != 0.0), f"dead parameter block {p.name}"

    def test_tape_length(self):
        # 15 encode ops, 4 per cross-attention step (block, concat, conv matmul
        # and bias), 3 for the final fusion, 2 for the mel head and 1 for mse
        batch, model = toy_fixture(seed=0, k=3)
        assert tape_ops(toy_loss(batch, model)) == 33

    def test_loss_decreases_overall(self):
        batch, model = toy_fixture(seed=11)
        losses = train_toy(batch, model, 60)
        assert losses[-1] < losses[0]

    def test_steps_must_be_positive(self):
        batch, model = toy_fixture(seed=1)
        with pytest.raises(ArgumentError):
            train_toy(batch, model, 0)
