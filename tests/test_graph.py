"""Progressive graphs: topology, attention encoding, staging, gradients."""

import math

import numpy as np
import pytest

from emodub.autodiff import Parameter, Tensor, grad_check, mse
from emodub.errors import ArgumentError, SchemaError, StateError
from emodub.graph import (
    BASIC_NODE_INDEX,
    EmotionGraph,
    GAEHeadParams,
    GAEParams,
    GraphNode,
    GraphStage,
    ProjectionParams,
    build_basic_graph,
    check_edge_kinds,
    extend_graph,
    gae_encode,
    progressive_encode,
    project_input,
)
from emodub.retrieval import CHANNELS, Metric, Query, RetrievalResult, retrieve_all
from emodub.rng import SplitMix64

from conftest import random_library


BASIC, INDIRECT, DIRECT = GraphStage.BASIC, GraphStage.INDIRECT, GraphStage.DIRECT
D_VEC = 8  # raw emotion vector dim used by these fixtures
D_H = 6  # node feature dim


@pytest.fixture
def proj():
    return ProjectionParams.init(D_VEC, D_VEC, 2 * D_VEC, D_VEC, D_H, SplitMix64(1))


@pytest.fixture
def gae():
    return GAEParams.init(D_H, SplitMix64(2))


def make_retrieved(rng, k, dim=D_VEC):
    """Synthetic retrieval payload with k hits per channel."""
    result = RetrievalResult.empty()
    next_id = 100
    for channel in CHANNELS:
        for rank in range(k):
            result.rankings[channel].append((next_id, 1.0 - 0.1 * rank))
            width = 2 * dim if channel == "text" else dim
            result.indirect_vectors[channel].append(rng.normal(size=width))
            result.matched_audio[channel].append(rng.normal(size=dim))
            next_id += 1
    return result


def encode_stages(rng, proj, gae, k):
    retrieved = make_retrieved(rng, k)
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
        assert proj.text.d_in == 2 * D_VEC
        with pytest.raises(SchemaError):
            project_input(np.zeros(D_VEC), proj.text)

    def test_matches_matmul_oracle(self, rng, proj):
        raw = rng.normal(size=D_VEC)
        out = project_input(raw, proj.face)
        want = raw.reshape(1, -1) @ proj.face.weight.data + proj.face.bias.data
        np.testing.assert_allclose(out.data, want, rtol=1e-13)


class TestBasicGraph:
    def test_triangle_construction(self, rng, proj):
        g = build_basic_graph(rng.normal(size=D_VEC), rng.normal(size=D_VEC), rng.normal(size=2 * D_VEC), proj)
        assert g.stage is GraphStage.BASIC
        assert g.node_count == 3 and g.edge_count == 3
        assert all(stage is BASIC for _, _, stage in g.edges)
        assert [(n.stage, n.channel) for n in g.nodes] == [(BASIC, c) for c in CHANNELS]
        assert [n.kind for n in g.nodes] == ["basic_scene", "basic_face", "basic_text"]
        assert all(g.degree(i) == 2 for i in range(3))
        check_edge_kinds(g)
        assert g.is_connected()


class TestGAEEncode:
    def test_single_node_graph_is_projection_only(self):
        w = np.array([[1.0, 2.0], [0.5, -1.0]])
        params = GAEParams(
            layers=[[GAEHeadParams(Parameter(w, "w"), Parameter(np.array([[0.3, -0.2, 0.5, 0.1]]), "a"))]]
        )
        h = np.array([[2.0, -1.0]])
        g = EmotionGraph(GraphStage.BASIC, [GraphNode(BASIC, "scene")], [], Tensor(h))
        out = gae_encode(g, params)
        np.testing.assert_allclose(out.features.data, h @ w, rtol=1e-14)

    def test_attention_rows_sum_to_one(self, rng, proj, gae):
        _, _, _, _, _, direct_enc, _ = encode_stages(rng, proj, gae, k=3)
        g = EmotionGraph(
            direct_enc.stage, direct_enc.nodes, direct_enc.edges, direct_enc.features
        )
        _, maps = gae_encode(g, gae, with_attention=True)
        for alpha in maps:
            np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
            mask = g.adjacency_mask()
            assert np.all(alpha[mask == 0.0] == 0.0)

    def test_matches_loop_oracle_on_triangle(self):
        # hand-set 2-dim parameters, explicit per-node loop oracle
        w = np.array([[1.0, 2.0], [0.0, 1.0]])
        a_vec = np.array([0.3, -0.2, 0.5, 0.1])
        slope = 0.2
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        nodes = [GraphNode(BASIC, c) for c in CHANNELS]
        edges = [(0, 1, BASIC), (0, 2, BASIC), (1, 2, BASIC)]
        g = EmotionGraph(GraphStage.BASIC, nodes, edges, Tensor(feats))
        params = GAEParams(layers=[[GAEHeadParams(Parameter(w, "w"), Parameter(a_vec.reshape(1, -1), "a"))]], slope=slope)
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
        assert indirect_enc.nodes == indirect.nodes
        assert indirect_enc.edges == indirect.edges
        assert indirect_enc.stage is indirect.stage
        assert indirect_enc.encoded

    def test_empty_graph_rejected(self, gae):
        empty = EmotionGraph(GraphStage.BASIC, [], [], Tensor(np.zeros((0, D_H))))
        with pytest.raises(ArgumentError):
            gae_encode(empty, gae)

    def test_feature_dim_mismatch(self, gae):
        g = EmotionGraph(GraphStage.BASIC, [GraphNode(BASIC, "scene")], [], Tensor(np.zeros((1, D_H + 1))))
        with pytest.raises(SchemaError):
            gae_encode(g, gae)


class TestExtensions:
    @pytest.mark.parametrize("k,nodes,edges", [(0, 3, 3), (1, 6, 6), (3, 12, 12)])
    def test_indirect_counts(self, rng, proj, gae, k, nodes, edges):
        _, _, indirect, _, _, _, _ = encode_stages(rng, proj, gae, k)
        assert (indirect.node_count, indirect.edge_count) == (nodes, edges)
        check_edge_kinds(indirect)
        assert indirect.is_connected()

    @pytest.mark.parametrize("k,nodes,edges", [(0, 3, 3), (1, 9, 9), (3, 21, 21)])
    def test_direct_counts(self, rng, proj, gae, k, nodes, edges):
        _, _, _, _, direct, _, _ = encode_stages(rng, proj, gae, k)
        assert (direct.node_count, direct.edge_count) == (nodes, edges)
        check_edge_kinds(direct)
        assert direct.is_connected()

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
        audio_nodes = [n for n in direct.nodes if (n.stage, n.channel) == (DIRECT, "scene")]
        assert audio_nodes[1].source_record_id == scene_rank2_id
        indirect_nodes = [n for n in direct.nodes if (n.stage, n.channel) == (INDIRECT, "face")]
        assert [n.source_record_id for n in indirect_nodes] == [
            rid for rid, _ in retrieved.rankings["face"]
        ]

    def test_degrees_after_direct_extension(self, rng, proj, gae):
        k = 3
        _, _, _, _, direct, _, _ = encode_stages(rng, proj, gae, k)
        for channel in CHANNELS:
            assert direct.degree(BASIC_NODE_INDEX[channel]) == 2 + 2 * k
        for i, node in enumerate(direct.nodes):
            if node.stage is DIRECT:
                assert direct.degree(i) == 1

    def test_node_ordering_convention(self, rng, proj, gae):
        _, _, _, _, direct, _, _ = encode_stages(rng, proj, gae, k=2)
        kinds = [n.kind for n in direct.nodes]
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
        assert [n.stage for n in direct.nodes] == [BASIC] * 3 + [INDIRECT] * 6 + [DIRECT] * 6

    def test_stage_gating(self, rng, proj, gae):
        basic, basic_enc, indirect, indirect_enc, _, direct_enc, retrieved = encode_stages(rng, proj, gae, k=1)
        for graph in (basic, indirect, direct_enc):  # not encoded yet, or no stage left
            with pytest.raises(StateError):
                extend_graph(graph, retrieved, proj)
        assert extend_graph(basic_enc, retrieved, proj).stage is INDIRECT
        assert extend_graph(indirect_enc, retrieved, proj).stage is DIRECT

    def test_edge_check_rejects_illegal_wiring(self, rng, proj, gae):
        _, _, _, _, direct, _, _ = encode_stages(rng, proj, gae, k=1)
        scene_audio = next(i for i, n in enumerate(direct.nodes) if (n.stage, n.channel) == (DIRECT, "scene"))
        face_hit = next(i for i, n in enumerate(direct.nodes) if (n.stage, n.channel) == (INDIRECT, "face"))
        bad_edges = [
            (BASIC_NODE_INDEX["face"], scene_audio, DIRECT),  # crosses channels
            (BASIC_NODE_INDEX["face"], face_hit, DIRECT),  # edge stage differs from its node's
            (BASIC_NODE_INDEX["scene"], face_hit, BASIC),  # basic edge to a non-basic node
            (face_hit, scene_audio, INDIRECT),  # no basic end
        ]
        for edge in bad_edges:
            g = EmotionGraph(DIRECT, direct.nodes, direct.edges + [edge], direct.features)
            with pytest.raises(SchemaError):
                check_edge_kinds(g)


class TestProgressiveEncode:
    def test_shapes_for_k3(self, rng, proj, gae):
        retrieved = make_retrieved(rng, 3)
        enc = progressive_encode(
            rng.normal(size=D_VEC), rng.normal(size=D_VEC), rng.normal(size=2 * D_VEC),
            retrieved, proj, gae,
        )
        assert enc.h_basic.shape == (3, D_H)
        assert enc.h_indirect.shape == (12, D_H)
        assert enc.h_direct.shape == (21, D_H)

    def test_k0_still_runs(self, rng, proj, gae):
        scene, face = rng.normal(size=D_VEC), rng.normal(size=D_VEC)
        text = rng.normal(size=2 * D_VEC)
        enc = progressive_encode(scene, face, text, RetrievalResult.empty(), proj, gae)
        assert enc.h_basic.shape == (3, D_H)
        assert enc.h_indirect.shape == (3, D_H)
        assert enc.h_direct.shape == (3, D_H)
        # with no hits, each later stage is one more encoding pass over the triangle
        basic_enc = gae_encode(build_basic_graph(scene, face, text, proj), gae)
        twice = gae_encode(
            EmotionGraph(GraphStage.INDIRECT, basic_enc.nodes, basic_enc.edges, basic_enc.features),
            gae,
        )
        np.testing.assert_array_equal(enc.h_indirect.data, twice.features.data)

    def test_end_to_end_gradient(self, rng):
        d_vec, d_h = 3, 4
        proj = ProjectionParams.init(d_vec, d_vec, 2 * d_vec, d_vec, d_h, SplitMix64(5))
        gae = GAEParams.init(d_h, SplitMix64(6))
        result = RetrievalResult.empty()
        for channel in CHANNELS:
            for rank in range(2):
                result.rankings[channel].append((10 + rank, 0.5))
                width = 2 * d_vec if channel == "text" else d_vec
                result.indirect_vectors[channel].append(rng.normal(size=width))
                result.matched_audio[channel].append(rng.normal(size=d_vec))
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
        retrieved = make_retrieved(rng, k)
        scene, face = rng.normal(size=D_VEC), rng.normal(size=D_VEC)
        text = rng.normal(size=2 * D_VEC)
        enc = progressive_encode(scene, face, text, retrieved, proj, gae)

        perm = [2, 0, 1]  # permute the scene channel's insertion order
        permuted = RetrievalResult(
            rankings={c: list(retrieved.rankings[c]) for c in CHANNELS},
            indirect_vectors={c: list(retrieved.indirect_vectors[c]) for c in CHANNELS},
            matched_audio={c: list(retrieved.matched_audio[c]) for c in CHANNELS},
        )
        permuted.rankings["scene"] = [retrieved.rankings["scene"][p] for p in perm]
        permuted.indirect_vectors["scene"] = [retrieved.indirect_vectors["scene"][p] for p in perm]
        permuted.matched_audio["scene"] = [retrieved.matched_audio["scene"][p] for p in perm]
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
        retrieved = make_retrieved(rng, 2)
        scene, face = rng.normal(size=D_VEC), rng.normal(size=D_VEC)
        text = rng.normal(size=2 * D_VEC)
        enc_a = progressive_encode(scene, face, text, retrieved, proj, gae)

        modified = RetrievalResult(
            rankings={c: list(retrieved.rankings[c]) for c in CHANNELS},
            indirect_vectors={c: list(retrieved.indirect_vectors[c]) for c in CHANNELS},
            matched_audio={c: [v + 1.0 for v in retrieved.matched_audio[c]] for c in CHANNELS},
        )
        enc_b = progressive_encode(scene, face, text, modified, proj, gae)
        assert enc_a.h_basic.data.tobytes() == enc_b.h_basic.data.tobytes()
        assert enc_a.h_indirect.data.tobytes() == enc_b.h_indirect.data.tobytes()
        assert enc_a.h_direct.data.tobytes() != enc_b.h_direct.data.tobytes()

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
        assert [g.node_count for g in graphs] == [3, 12, 21]
        assert [g.edge_count for g in graphs] == [3, 12, 21]
        for g in graphs:
            check_edge_kinds(g)
            assert g.is_connected()
