"""Progressive graphs: topology, attention encoding, staging, gradients."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from emodub.autodiff import Parameter, Tensor, grad_check, mse
from emodub.errors import ArgumentError, SchemaError, StateError
from emodub.graph import (
    GAEParams,
    GraphStage,
    ProjectionParams,
    build_basic_graph,
    extend_graph,
    LEAKY_SLOPE,
    gae_encode,
    progressive_encode,
    project_input,
)
from emodub.library import Modality
from emodub.retrieval import CHANNELS, Metric, Mode, Query, RetrievalResult, retrieve_all
from emodub.rng import SplitMix64

from conftest import (
    check_edge_kinds,
    degree,
    edge_count,
    graph_of,
    is_connected,
    node_kinds,
    node_table,
    random_library,
    rebuilt,
    synthetic_retrieval,
    tape_ops,
)


BASIC, INDIRECT, DIRECT = GraphStage.BASIC, GraphStage.INDIRECT, GraphStage.DIRECT
D_VEC = 8  # raw emotion vector dim used by these fixtures
D_H = 6  # node feature dim


@pytest.fixture
def proj():
    return ProjectionParams.init(D_VEC, D_VEC, 2 * D_VEC, D_VEC, D_H, SplitMix64(1))


@pytest.fixture
def gae():
    return GAEParams.init(D_H, SplitMix64(2))


def encode_stages(rng, proj, gae, k):
    retrieved = synthetic_retrieval(rng, k, D_VEC)
    basic = build_basic_graph(rng.normal(size=D_VEC), rng.normal(size=D_VEC), rng.normal(size=2 * D_VEC), proj)
    basic_enc = gae_encode(basic, gae)
    indirect = extend_graph(basic_enc, retrieved, proj)
    indirect_enc = gae_encode(indirect, gae)
    direct = extend_graph(indirect_enc, retrieved, proj)
    direct_enc = gae_encode(direct, gae)
    return basic, basic_enc, indirect, indirect_enc, direct, direct_enc, retrieved


class TestProjection:
    def test_zero_raw_vector_gives_bias_row(self, proj):
        out = project_input(np.zeros(D_VEC), proj.scene)
        np.testing.assert_array_equal(out.data, proj.scene.bias.data)

    def test_text_input_width_is_self_plus_react(self, proj):
        assert proj.text.weight.rows == 2 * D_VEC
        with pytest.raises(SchemaError):
            project_input(np.zeros(D_VEC), proj.text)
        with pytest.raises(SchemaError, match=r"shape \(1, 2, 16\)"):
            project_input(np.zeros((1, 2, 2 * D_VEC)), proj.text)

    def test_matches_matmul_oracle(self, rng, proj):
        raw = rng.normal(size=D_VEC)
        out = project_input(raw, proj.face)
        want = raw.reshape(1, -1) @ proj.face.weight.data + proj.face.bias.data
        np.testing.assert_allclose(out.data, want, rtol=1e-13)

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_block_rows_have_the_bits_of_one_row_products(self, rng, proj, rows):
        block = random_library(rng, 12).matrix(Modality.FACE)[2 : 2 + rows]  # column-major rows
        assert not block.flags.c_contiguous
        w, b = proj.face.weight, proj.face.bias
        out = project_input(block, proj.face)
        assert out.shape == (rows, D_H)
        for x_i, row in zip(block, out.data):
            assert row.tobytes() == (np.ascontiguousarray(x_i)[None] @ w.data + b.data).tobytes()

        # the backward adds each row's outer product in row order, bit for bit
        target = rng.normal(size=out.shape)
        mse(out, target).backward()
        half = (1.0 / out.data.size) * (out.data - target)
        g = half + half  # mse's upstream gradient, rounded as mse rounds it
        want_w, want_b = np.zeros_like(w.data), np.zeros_like(b.data)
        for x_i, g_i in zip(block, g):
            want_w += np.outer(x_i, g_i)
            want_b += g_i
        assert w.grad.tobytes() == want_w.tobytes()
        assert b.grad.tobytes() == want_b.tobytes()

        assert grad_check(lambda: mse(project_input(block, proj.face), target), proj.face.parameters()) < 1e-4


class TestBasicGraph:
    def test_triangle_construction(self, rng, proj):
        g = build_basic_graph(rng.normal(size=D_VEC), rng.normal(size=D_VEC), rng.normal(size=2 * D_VEC), proj)
        assert g.stage is GraphStage.BASIC
        assert len(g.stages) == 3 and edge_count(g) == 3
        assert g.mask.all()  # every edge joins two basic nodes
        assert node_table(g) == [(BASIC, c, None) for c in CHANNELS]
        assert node_kinds(g) == ["basic_scene", "basic_face", "basic_text"]
        assert all(degree(g, i) == 2 for i in range(3))
        check_edge_kinds(g)
        assert is_connected(g)


class TestGAEEncode:
    def test_single_node_graph_is_projection_only(self):
        w = np.array([[1.0, 2.0], [0.5, -1.0]])
        params = GAEParams(Parameter(w, "w"), Parameter(np.array([[0.3, -0.2, 0.5, 0.1]]), "a"))
        h = np.array([[2.0, -1.0]])
        g = graph_of(Tensor(h), stage=BASIC)
        out = gae_encode(g, params)
        np.testing.assert_allclose(out.features.data, h @ w, rtol=1e-14)

    def test_attention_rows_sum_to_one(self, rng, proj, gae):
        _, _, _, _, _, direct_enc, _ = encode_stages(rng, proj, gae, k=3)
        g = dataclasses.replace(direct_enc, encoded=False)
        _, maps = gae_encode(g, gae, with_attention=True)
        for alpha in maps:
            np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(alpha[~g.mask] == 0.0)

    def test_matches_loop_oracle_on_triangle(self):
        # hand-set 2-dim parameters, explicit per-node loop oracle
        w = np.array([[1.0, 2.0], [0.0, 1.0]])
        a_vec = np.array([0.3, -0.2, 0.5, 0.1])
        slope = 0.2
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        g = graph_of(Tensor(feats), [(0, 1), (0, 2), (1, 2)], BASIC)
        params = GAEParams(Parameter(w, "w"), Parameter(a_vec.reshape(1, -1), "a"))
        got = gae_encode(g, params).features.data

        def lrelu(x):
            return x if x > 0 else slope * x

        wh = feats @ w
        want = np.zeros_like(wh)
        for i in range(3):
            nb = [i] + [j for j in range(3) if j != i]  # triangle: all neighbors + self
            scores = [lrelu(a_vec[:2] @ wh[i] + a_vec[2:] @ wh[j]) for j in nb]
            mx = max(scores)
            exps = [math.exp(s - mx) for s in scores]
            z = sum(exps)
            for weight, j in zip(exps, nb):
                want[i] += (weight / z) * wh[j]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_topology_preserved_exactly(self, rng, proj, gae):
        _, _, indirect, indirect_enc, _, _, _ = encode_stages(rng, proj, gae, k=2)
        for field in ("mask", "stages", "channels", "record_ids"):
            assert np.array_equal(getattr(indirect_enc, field), getattr(indirect, field))
        assert indirect_enc.stage is indirect.stage
        assert indirect_enc.encoded

    @staticmethod
    def path_graph(rng, n=5):
        """A path of ``n`` nodes, so most pairs are off the adjacency."""
        return graph_of(Parameter(rng.normal(size=(n, D_H)), "features"), [(i, i + 1) for i in range(n - 1)])

    def test_stage_gradient(self, rng, gae):
        g = self.path_graph(rng)
        target = rng.normal(size=(5, D_H))
        params = [g.features, gae.weight, gae.attn]
        assert grad_check(lambda: mse(gae_encode(g, gae).features, target), params) < 1e-6

    @pytest.mark.parametrize("trainable", ["features", "weight", "attn"])
    def test_stage_gradient_of_one_operand(self, rng, gae, trainable):
        # the other two operands are constants, which the backward must skip
        values = {"features": rng.normal(size=(5, D_H)), "weight": gae.weight.data, "attn": gae.attn.data}
        t = {k: Parameter(v, k) if k == trainable else Tensor(v) for k, v in values.items()}
        g = self.path_graph(rng)
        g.features = t["features"]
        params = GAEParams(t["weight"], t["attn"])
        target = rng.normal(size=(5, D_H))
        assert grad_check(lambda: mse(gae_encode(g, params).features, target), [t[trainable]]) < 1e-6
        assert all(v.grad is None for k, v in t.items() if k != trainable)

    TOPOLOGIES = {
        "path": [(0, 1), (1, 2), (2, 3), (3, 4)],
        "star": [(0, 1), (0, 2), (0, 3), (0, 4)],
        "complete": list(itertools.combinations(range(5), 2)),
        "isolated": [(0, 1)],  # nodes 2, 3 and 4 attend only to themselves
    }

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_attention_matches_masked_softmax_oracle(self, rng, gae, topology):
        pairs = self.TOPOLOGIES[topology]
        g = graph_of(Tensor(rng.normal(size=(5, D_H))), pairs)
        out, (alpha,) = gae_encode(g, gae, with_attention=True)
        wh = g.features.data @ gae.weight.data
        a_vec = gae.attn.data[0]
        want = np.zeros((5, 5))
        for i in range(5):
            nb = [j for j in range(5) if j == i or (i, j) in pairs or (j, i) in pairs]
            scores = [a_vec[:D_H] @ wh[i] + a_vec[D_H:] @ wh[j] for j in nb]
            exps = [math.exp(s if s > 0 else LEAKY_SLOPE * s) for s in scores]
            for e, j in zip(exps, nb):
                want[i, j] = e / sum(exps)
        np.testing.assert_allclose(alpha, want, rtol=1e-12, atol=0.0)  # exactly 0.0 off the adjacency
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(out.features.data, want @ wh, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "second,want",
        [(math.log(3.0), [0.25, 0.75]), (-math.log(3.0) / LEAKY_SLOPE, [0.75, 0.25])],
        ids=["positive", "negative"],
    )
    def test_analytic_weights_of_two_nodes(self, second, want):
        # dim 1, W = 1 and attn = [0, 1]: both rows score the two nodes 0 and
        # ``second``; a negative score is scaled by the leaky slope first
        params = GAEParams(Parameter(np.array([[1.0]]), "w"), Parameter(np.array([[0.0, 1.0]]), "a"))
        g = graph_of(Tensor(np.array([[0.0], [second]])), [(0, 1)])
        out, (alpha,) = gae_encode(g, params, with_attention=True)
        np.testing.assert_allclose(alpha, [want, want], atol=1e-15)
        np.testing.assert_allclose(out.features.data, [[want[1] * second]] * 2, rtol=1e-15)

    def test_stage_gradient_reaches_one_hop(self, rng, gae):
        g = self.path_graph(rng)
        out = gae_encode(g, gae).features
        target = out.data.copy()
        target[0] += 1.0  # only node 0 is off its target
        mse(out, target).backward()
        # on the path 0-1-2-3-4, node 0 reads nodes 0 and 1 only
        assert np.all(g.features.grad[2:] == 0.0)
        assert np.all(g.features.grad[:2].any(axis=1))

    def test_attention_hook_returns_the_weights_the_output_used(self, rng, gae):
        g = self.path_graph(rng)
        out, (alpha,) = gae_encode(g, gae, with_attention=True)
        assert out.features.data.tobytes() == gae_encode(g, gae).features.data.tobytes()
        wh = g.features.data @ gae.weight.data
        np.testing.assert_allclose(out.features.data, alpha @ wh, rtol=1e-12, atol=1e-14)

    def test_large_scores_give_finite_weights_on_the_adjacency(self, rng, gae):
        g = self.path_graph(rng)
        big = GAEParams(gae.weight, Parameter(gae.attn.data * 1e4, "attn"))
        _, (alpha,) = gae_encode(g, big, with_attention=True)
        wh = g.features.data @ big.weight.data
        assert np.abs(wh @ big.attn.data[0, :D_H]).max() > 1e3  # exp would overflow without the row max
        assert np.isfinite(alpha).all()
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(alpha[~g.mask] == 0.0)

    def test_empty_graph_rejected(self, gae):
        empty = graph_of(Tensor(np.zeros((0, D_H))), stage=BASIC)
        with pytest.raises(ArgumentError):
            gae_encode(empty, gae)

    def test_feature_dim_mismatch(self, gae):
        g = graph_of(Tensor(np.zeros((1, D_H + 1))), stage=BASIC)
        with pytest.raises(SchemaError):
            gae_encode(g, gae)

    @pytest.mark.parametrize("shape", [(4, 4), (6, 6), (5, 4), (5,), (5, 5, 1)])
    def test_mask_shape_mismatch(self, rng, gae, shape):
        # a mask of another size than the feature rows is refused before any product
        g = dataclasses.replace(self.path_graph(rng), mask=np.ones(shape, dtype=bool))
        with pytest.raises(SchemaError, match=rf"adjacency mask of shape \({shape[0]},.* is not 5 x 5 with self-loops"):
            gae_encode(g, gae)

    @pytest.mark.parametrize("node", [0, 2, 4])
    def test_mask_without_a_self_loop(self, rng, gae, node):
        # refused: a node with neither a self-loop nor an edge would get a NaN softmax row
        g = self.path_graph(rng)
        g.mask = g.mask.copy()
        g.mask[node, node] = False
        with pytest.raises(SchemaError, match="with self-loops"):
            gae_encode(g, gae)


class TestExtensions:
    @pytest.mark.parametrize("k,nodes,edges", [(0, 3, 3), (1, 6, 6), (3, 12, 12)])
    def test_indirect_counts(self, rng, proj, gae, k, nodes, edges):
        _, _, indirect, _, _, _, _ = encode_stages(rng, proj, gae, k)
        assert (len(indirect.stages), edge_count(indirect)) == (nodes, edges)
        check_edge_kinds(indirect)
        assert is_connected(indirect)

    @pytest.mark.parametrize("k,nodes,edges", [(0, 3, 3), (1, 9, 9), (3, 21, 21)])
    def test_direct_counts(self, rng, proj, gae, k, nodes, edges):
        _, _, _, _, direct, _, _ = encode_stages(rng, proj, gae, k)
        assert (len(direct.stages), edge_count(direct)) == (nodes, edges)
        check_edge_kinds(direct)
        assert is_connected(direct)

    def test_basic_features_carried_bit_exact(self, rng, proj, gae):
        _, basic_enc, indirect, _, _, _, _ = encode_stages(rng, proj, gae, k=2)
        assert (
            indirect.features.data[:3].tobytes() == basic_enc.features.data.tobytes()
        )

    def test_direct_carries_encoded_indirect_features(self, rng, proj, gae):
        _, _, _, indirect_enc, direct, _, _ = encode_stages(rng, proj, gae, k=2)
        n = indirect_enc.features.rows
        assert direct.features.data[:n].tobytes() == indirect_enc.features.data.tobytes()

    def test_provenance_record_ids(self, rng, proj, gae):
        _, _, _, _, direct, _, retrieved = encode_stages(rng, proj, gae, k=3)
        # scene-rank-2 audio node carries the scene rank-2 record id
        scene_rank2_id = retrieved.rankings["scene"][1][0]
        audio_nodes = [n for n in node_table(direct) if n[:2] == (DIRECT, "scene")]
        assert audio_nodes[1][2] == scene_rank2_id
        indirect_nodes = [n for n in node_table(direct) if n[:2] == (INDIRECT, "face")]
        assert [source for _, _, source in indirect_nodes] == [
            rid for rid, _ in retrieved.rankings["face"]
        ]

    def test_degrees_after_direct_extension(self, rng, proj, gae):
        k = 3
        _, _, _, _, direct, _, _ = encode_stages(rng, proj, gae, k)
        for basic_node in range(len(CHANNELS)):
            assert degree(direct, basic_node) == 2 + 2 * k
        for i, (stage, _, _) in enumerate(node_table(direct)):
            if stage is DIRECT:
                assert degree(direct, i) == 1

    def test_unequal_hit_counts(self, rng, proj, gae):
        # 3, 1 and 0 hits: each hit is still wired to its own channel's basic node
        full = synthetic_retrieval(rng, 3, D_VEC)
        keep = {"scene": 3, "face": 1, "text": 0}
        retrieved = RetrievalResult(
            {c: full.rankings[c][:k] for c, k in keep.items()},
            {c: full.indirect_vectors[c][:k] for c, k in keep.items()},
            {c: full.matched_audio[c][:k] for c, k in keep.items()},
        )
        basic = build_basic_graph(rng.normal(size=D_VEC), rng.normal(size=D_VEC), rng.normal(size=2 * D_VEC), proj)
        indirect_enc = gae_encode(extend_graph(gae_encode(basic, gae), retrieved, proj), gae)
        direct = extend_graph(indirect_enc, retrieved, proj)
        assert node_kinds(direct) == [
            "basic_scene", "basic_face", "basic_text", *["indirect_scene"] * 3, "indirect_face",
            *["direct_audio_scene"] * 3, "direct_audio_face",
        ]
        assert [source for _, _, source in node_table(direct)][3:] == [100, 101, 102, 103] * 2
        assert [degree(direct, c) for c in range(3)] == [2 + 6, 2 + 2, 2]
        check_edge_kinds(direct)
        assert is_connected(direct)

    def test_node_ordering_convention(self, rng, proj, gae):
        _, _, _, _, direct, _, _ = encode_stages(rng, proj, gae, k=2)
        kinds = node_kinds(direct)
        assert kinds == [
            "basic_scene",
            "basic_face",
            "basic_text",
            "indirect_scene",
            "indirect_scene",
            "indirect_face",
            "indirect_face",
            "indirect_text",
            "indirect_text",
            "direct_audio_scene",
            "direct_audio_scene",
            "direct_audio_face",
            "direct_audio_face",
            "direct_audio_text",
            "direct_audio_text",
        ]
        assert [stage for stage, _, _ in node_table(direct)] == [BASIC] * 3 + [INDIRECT] * 6 + [DIRECT] * 6

    def test_stage_gating(self, rng, proj, gae):
        basic, basic_enc, indirect, indirect_enc, _, direct_enc, retrieved = encode_stages(rng, proj, gae, k=1)
        for graph in (basic, indirect, direct_enc):  # not encoded yet, or no stage left
            with pytest.raises(StateError):
                extend_graph(graph, retrieved, proj)
        assert extend_graph(basic_enc, retrieved, proj).stage is INDIRECT
        assert extend_graph(indirect_enc, retrieved, proj).stage is DIRECT
        # the direct stage needs the indirect stage's hits, channel by channel
        for k in (0, 2):
            with pytest.raises(StateError, match="does not hold"):
                extend_graph(indirect_enc, synthetic_retrieval(rng, k, D_VEC), proj)

        def one_hit(channel):
            full = synthetic_retrieval(rng, 1, D_VEC)
            parts = (full.rankings, full.indirect_vectors, full.matched_audio)
            return RetrievalResult(*({c: v if c == channel else v[:0] for c, v in p.items()} for p in parts))

        scene_enc = gae_encode(extend_graph(basic_enc, one_hit("scene"), proj), gae)
        assert extend_graph(scene_enc, one_hit("scene"), proj).stage is DIRECT
        with pytest.raises(StateError, match=r"\[0, 1, 0\] hits per channel"):  # same total, other channel
            extend_graph(scene_enc, one_hit("face"), proj)

    def test_extension_keeps_encoded_mask(self, rng, proj, gae):
        _, _, _, indirect_enc, direct, _, retrieved = encode_stages(rng, proj, gae, k=1)
        assert np.array_equal(direct.mask[:6, :6], indirect_enc.mask)
        mask = indirect_enc.mask.copy()
        mask[3, 4] = mask[4, 3] = True  # an edge the wiring rule does not make
        extended = extend_graph(dataclasses.replace(indirect_enc, mask=mask), retrieved, proj)
        assert np.array_equal(extended.mask[:6, :6], mask)
        assert np.array_equal(extended.mask[6:], direct.mask[6:])

    def test_edge_check_rejects_illegal_wiring(self, rng, proj, gae):
        _, _, _, _, direct, _, _ = encode_stages(rng, proj, gae, k=1)
        check_edge_kinds(direct)
        kinds = node_kinds(direct)
        scene_audio, face_hit = kinds.index("direct_audio_scene"), kinds.index("indirect_face")
        bad_masks = []
        for a, b in [
            (1, scene_audio),  # basic face to scene audio: crosses channels
            (0, face_hit),  # basic scene to a face hit: crosses channels
            (face_hit, scene_audio),  # no basic end
        ]:
            mask = direct.mask.copy()
            mask[a, b] = mask[b, a] = True
            bad_masks.append(mask)
        one_way = direct.mask.copy()
        one_way[1, scene_audio] = True  # not symmetric
        no_loop = direct.mask.copy()
        no_loop[face_hit, face_hit] = False  # a node without its self-loop
        for mask in bad_masks + [one_way, no_loop]:
            with pytest.raises(SchemaError):
                check_edge_kinds(dataclasses.replace(direct, mask=mask))


class TestProgressiveEncode:
    def test_shapes_for_k3(self, rng, proj, gae):
        retrieved = synthetic_retrieval(rng, 3, D_VEC)
        enc = progressive_encode(
            rng.normal(size=D_VEC), rng.normal(size=D_VEC), rng.normal(size=2 * D_VEC),
            retrieved, proj, gae,
        )
        assert enc.h_basic.shape == (3, D_H)
        assert enc.h_indirect.shape == (12, D_H)
        assert enc.h_direct.shape == (21, D_H)

    @pytest.mark.parametrize("k,ops", [(0, 7), (1, 15), (3, 15)])
    def test_one_op_per_stage(self, rng, proj, gae, k, ops):
        # per stage: the projections (one per channel block), their row concat
        # and the stage; with no hits a later stage is the stage op alone
        *_, direct_enc, _ = encode_stages(rng, proj, gae, k)
        assert tape_ops(direct_enc.features) == ops

    def test_k0_still_runs(self, rng, proj, gae):
        scene, face = rng.normal(size=D_VEC), rng.normal(size=D_VEC)
        text = rng.normal(size=2 * D_VEC)
        enc = progressive_encode(scene, face, text, synthetic_retrieval(None, 0, D_VEC), proj, gae)
        assert enc.h_basic.shape == (3, D_H)
        assert enc.h_indirect.shape == (3, D_H)
        assert enc.h_direct.shape == (3, D_H)
        # with no hits, each later stage is one more encoding pass over the triangle
        basic_enc = gae_encode(build_basic_graph(scene, face, text, proj), gae)
        twice = gae_encode(dataclasses.replace(basic_enc, stage=INDIRECT, encoded=False), gae)
        np.testing.assert_array_equal(enc.h_indirect.data, twice.features.data)

    def test_end_to_end_gradient(self, rng):
        d_vec, d_h = 3, 4
        proj = ProjectionParams.init(d_vec, d_vec, 2 * d_vec, d_vec, d_h, SplitMix64(5))
        gae = GAEParams.init(d_h, SplitMix64(6))
        result = synthetic_retrieval(rng, 2, d_vec)
        scene, face = rng.normal(size=d_vec), rng.normal(size=d_vec)
        text = rng.normal(size=2 * d_vec)
        target = rng.normal(size=(15, d_h))

        def loss():
            enc = progressive_encode(scene, face, text, result, proj, gae)
            return mse(enc.h_direct, target)

        params = proj.parameters() + gae.parameters()
        assert grad_check(loss, params) < 1e-4

    def test_permutation_equivariance_of_indirect_nodes(self, rng, proj, gae):
        k = 3
        retrieved = synthetic_retrieval(rng, k, D_VEC)
        scene, face = rng.normal(size=D_VEC), rng.normal(size=D_VEC)
        text = rng.normal(size=2 * D_VEC)
        enc = progressive_encode(scene, face, text, retrieved, proj, gae)

        perm = [2, 0, 1]  # permute the scene channel's insertion order
        permuted = dataclasses.replace(
            retrieved,
            rankings={**retrieved.rankings, "scene": [retrieved.rankings["scene"][p] for p in perm]},
            indirect_vectors={**retrieved.indirect_vectors, "scene": retrieved.indirect_vectors["scene"][perm]},
            matched_audio={**retrieved.matched_audio, "scene": retrieved.matched_audio["scene"][perm]},
        )
        enc_p = progressive_encode(scene, face, text, permuted, proj, gae)

        # basic rows unchanged; scene-indirect rows permuted accordingly
        np.testing.assert_allclose(
            enc_p.h_indirect.data[:3], enc.h_indirect.data[:3], rtol=1e-12, atol=1e-14
        )
        for new_pos, old_pos in enumerate(perm):
            np.testing.assert_allclose(
                enc_p.h_indirect.data[3 + new_pos],
                enc.h_indirect.data[3 + old_pos],
                rtol=1e-12,
                atol=1e-14,
            )
        # face and text rows unaffected
        np.testing.assert_allclose(
            enc_p.h_indirect.data[6:], enc.h_indirect.data[6:], rtol=1e-12, atol=1e-14
        )

    def test_stage_isolation_is_bitwise(self, rng, proj, gae):
        retrieved = synthetic_retrieval(rng, 2, D_VEC)
        scene, face = rng.normal(size=D_VEC), rng.normal(size=D_VEC)
        text = rng.normal(size=2 * D_VEC)
        enc_a = progressive_encode(scene, face, text, retrieved, proj, gae)

        modified = dataclasses.replace(
            retrieved, matched_audio={c: block + 1.0 for c, block in retrieved.matched_audio.items()}
        )
        enc_b = progressive_encode(scene, face, text, modified, proj, gae)
        assert enc_a.h_basic.data.tobytes() == enc_b.h_basic.data.tobytes()
        assert enc_a.h_indirect.data.tobytes() == enc_b.h_indirect.data.tobytes()
        assert enc_a.h_direct.data.tobytes() != enc_b.h_direct.data.tobytes()

    def test_empty_pool_gives_empty_blocks_and_the_k0_encoding(self, rng, proj, gae):
        lib = rebuilt(random_library(rng, 20), speakers={5: "solo"})
        rec = lib.records[5]  # the only record of its speaker, and excluded from its own pool
        retrieved = retrieve_all(lib, Query.from_record(rec), 3, mode=Mode.SPEAKER_SPECIFIC)
        for channel in CHANNELS:
            assert retrieved.rankings[channel] == []
            assert retrieved.indirect_vectors[channel].shape == (0, 2 * D_VEC if channel == "text" else D_VEC)
            assert retrieved.matched_audio[channel].shape == (0, D_VEC)
        text = np.concatenate([rec.text_self.values, rec.text_react.values])
        got = progressive_encode(rec.scene.values, rec.face.values, text, retrieved, proj, gae)
        want = progressive_encode(rec.scene.values, rec.face.values, text, synthetic_retrieval(None, 0, D_VEC), proj, gae)
        for a, b in zip((got.h_basic, got.h_indirect, got.h_direct), (want.h_basic, want.h_indirect, want.h_direct)):
            assert a.shape == (3, D_H) and a.data.tobytes() == b.data.tobytes()

    def test_counts_from_real_retrieval(self, rng, proj, gae):
        lib = random_library(rng, 30)
        q = Query.from_record(lib.records[0])
        retrieved = retrieve_all(lib, q, k=3, metric=Metric.COSINE)
        d_vec = 8
        model_proj = ProjectionParams.init(d_vec, d_vec, 2 * d_vec, d_vec, D_H, SplitMix64(9))
        enc = progressive_encode(
            lib.records[0].scene.values,
            lib.records[0].face.values,
            np.concatenate([lib.records[0].text_self.values, lib.records[0].text_react.values]),
            retrieved,
            model_proj,
            GAEParams.init(D_H, SplitMix64(10)),
        )
        graphs = enc.graphs
        assert [len(g.stages) for g in graphs] == [3, 12, 21]
        assert [edge_count(g) for g in graphs] == [3, 12, 21]
        for g in graphs:
            check_edge_kinds(g)
            assert is_connected(g)
