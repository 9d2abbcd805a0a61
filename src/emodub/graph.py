"""Three-stage progressive emotion graphs with a graph attention encoder.

The pipeline builds and encodes three graphs in sequence:

1. the basic graph: the target's own scene/face/text features wired as a
   triangle;
2. the indirect extension: each retrieved same-channel hit attaches to its
   basic node, with the basic nodes initialized from the encoded stage-1
   features;
3. the direct extension: each hit's matched audio vector attaches to the
   basic node whose query produced it, on top of the encoded stage-2
   features.

Each stage is encoded by a single-head graph attention encoder (GAE): per
node, attention over its neighborhood plus a self-loop, scores
``leaky_relu(attn . [W h_i | W h_j])``, softmax-normalized, then a weighted
sum of the projected neighbor features. One stage is one autodiff op with
a hand-written backward.

Each node is typed by the stage that added it and the channel it serves
(scene, face or text); each edge carries the stage of its non-basic end.
Basic edges join two basic nodes; an indirect or direct edge joins a
node of its stage to the basic node of the same channel. The types label
topology only; all edges share the same learned transform.

Node order is fixed so the encoded feature matrices are reproducible:
basic (scene, face, text), then indirect hits per channel in rank order,
then direct audio in the same channel/rank order.

One progressive encode is inherently sequential (each stage consumes the
previous one); distinct inputs encode concurrently against shared
read-only parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .autodiff import (
    LinearParams,
    Parameter,
    Params,
    Tensor,
    _accum,
    _accum_product,
    _make,
    _softmax_rows,
    concat_rows,
    uniform_init,
)
from .errors import ArgumentError, SchemaError, StateError
from .library import Modality, Schema
from .retrieval import CHANNELS, RetrievalResult
from .rng import SplitMix64


class GraphStage(Enum):
    BASIC = "basic"
    INDIRECT = "indirect"
    DIRECT = "direct"


#: index of each channel's basic node, by construction order
BASIC_NODE_INDEX = {"scene": 0, "face": 1, "text": 2}


@dataclass
class GraphNode:
    """A node typed by the stage that added it and the channel it serves."""

    stage: GraphStage
    channel: str
    source_record_id: int | None = None

    @property
    def kind(self) -> str:
        """Label such as ``basic_scene``, ``indirect_face`` or ``direct_audio_text``."""
        prefix = "direct_audio" if self.stage is GraphStage.DIRECT else self.stage.value
        return f"{prefix}_{self.channel}"


@dataclass
class EmotionGraph:
    """Undirected graph of typed nodes and stage-labelled edges, with node features.

    ``features`` is an (n_nodes x d) tensor; row i belongs to ``nodes[i]``.
    ``encoded`` flips to True after a GAE pass; the extension constructors
    require their input stage to be encoded.
    """

    stage: GraphStage
    nodes: list[GraphNode]
    edges: list[tuple[int, int, GraphStage]]
    features: Tensor
    encoded: bool = False

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def adjacency_mask(self) -> np.ndarray:
        """Symmetric boolean mask with self-loops, used by GAE attention."""
        mask = np.eye(self.node_count, dtype=bool)
        for a, b, _ in self.edges:
            mask[a, b] = mask[b, a] = True
        return mask


@dataclass
class ProjectionParams(Params):
    """Per-channel linear maps from raw emotion vectors to node features.

    The text projection takes the concatenated self+react vector; the audio
    projection feeds the direct-audio nodes.
    """

    scene: LinearParams
    face: LinearParams
    text: LinearParams
    audio: LinearParams

    @classmethod
    def init(
        cls,
        scene_dim: int,
        face_dim: int,
        text_dim: int,
        audio_dim: int,
        out_dim: int,
        rng: SplitMix64,
    ) -> "ProjectionParams":
        return cls(
            scene=LinearParams.init("proj.scene", scene_dim, out_dim, rng),
            face=LinearParams.init("proj.face", face_dim, out_dim, rng),
            text=LinearParams.init("proj.text", text_dim, out_dim, rng),
            audio=LinearParams.init("proj.audio", audio_dim, out_dim, rng),
        )

    @classmethod
    def for_schema(cls, schema: Schema, out_dim: int, rng: SplitMix64) -> "ProjectionParams":
        """Projections sized to a library schema; text takes self + react."""
        return cls.init(
            schema[Modality.SCENE],
            schema[Modality.FACE],
            schema[Modality.TEXT_SELF] + schema[Modality.TEXT_REACT],
            schema[Modality.AUDIO],
            out_dim,
            rng,
        )


def project_input(raw, proj: LinearParams) -> Tensor:
    """Project one raw vector, or an ``n x d_in`` block of them, to node
    feature rows as one op; the raw values are a constant.

    The block is copied C-contiguous, and one stacked matmul projects each
    row as its own one-row product, so every row gets the bits a lone
    contiguous row gets (a plain 2-D product of the block can round
    differently). The backward adds each row's gradient in row order.
    """
    x = np.array(raw, dtype=np.float64, order="C", ndmin=2)
    if x.ndim != 2 or x.shape[1] != proj.weight.rows:
        raise SchemaError(f"raw input of shape {x.shape} does not match projection dim {proj.weight.rows}")

    def backward(g):
        for x_i, g_i in zip(x, g):
            _accum(proj.weight, np.outer(x_i, g_i))
            _accum(proj.bias, g_i)

    out = np.matmul(x[:, None, :], proj.weight.data)[:, 0, :] + proj.bias.data
    return _make(out, (proj.weight, proj.bias), backward)


@dataclass
class GAEParams(Params):
    """Graph attention encoder parameters: one single-head attention layer.

    The same parameter set is reused across all three stages. Parameters
    are named ``gae.layer0.head0.*``, the names that existing checkpoints
    hold.
    """

    weight: Parameter  # d x d
    attn: Parameter  # 1 x 2d

    @classmethod
    def init(cls, dim: int, rng: SplitMix64) -> "GAEParams":
        return cls(
            weight=Parameter(uniform_init(rng, dim, dim, dim), "gae.layer0.head0.weight"),
            attn=Parameter(uniform_init(rng, 1, 2 * dim, dim), "gae.layer0.head0.attn"),
        )


#: slope of the stage's leaky ReLU on negative attention scores
LEAKY_SLOPE = 0.2


def gae_encode(
    graph: EmotionGraph,
    params: GAEParams,
    with_attention: bool = False,
):
    """Encode node features with masked graph attention; topology unchanged.

    Per node i the attention neighborhood is N(i) plus a self-loop; scores
    are ``leaky_relu(attn . [W h_i | W h_j])``, normalized by softmax over
    the neighborhood, and the new feature is the attention-weighted sum of
    projected neighbor features. The stage is one op. Returns the encoded
    graph, plus a one-element list holding the attention matrix when
    requested.

    The forward rounds as the chain of single ops did, and the backward adds
    each gradient in the chain's order: ``g_wh = (alpha^T g + g_src a_src^T)
    + g_dst a_dst^T``, then the features' and ``W``'s products of ``g_wh``.
    A product whose operand needs no gradient is not computed.
    """
    if graph.node_count == 0:
        raise ArgumentError("cannot encode an empty graph")
    x, w, attn = graph.features, params.weight, params.attn
    dim = w.rows
    if x.cols != dim:
        raise SchemaError(f"feature dim {x.cols} does not match encoder dim {dim}")
    wh = x.data @ w.data
    a_src, a_dst = attn.data.reshape(2, dim, 1)  # the two d x 1 halves
    scores = wh @ a_src + (wh @ a_dst).T
    positive = scores > 0
    leaky = np.where(positive, scores, LEAKY_SLOPE * scores)
    alpha = _softmax_rows(np.where(graph.adjacency_mask(), leaky, -np.inf))

    def backward(g):
        g_alpha = g @ wh.T
        g_leaky = alpha * (g_alpha - (g_alpha * alpha).sum(axis=1, keepdims=True))
        g_scores = g_leaky * np.where(positive, 1.0, LEAKY_SLOPE)
        g_src = g_scores.sum(axis=1, keepdims=True)
        g_dst = g_scores.sum(axis=0, keepdims=True).T.copy()  # in the chain's layout, for BLAS
        g_wh = alpha.T @ g + g_src @ a_src.T + g_dst @ a_dst.T
        if attn.requires_grad:
            _accum(attn, np.concatenate([wh.T @ g_src, wh.T @ g_dst]).reshape(1, -1))
        if x.requires_grad:
            _accum(x, g_wh @ w.data.T)
        if w.requires_grad:
            _accum_product(w, x.data.T, g_wh)

    out = EmotionGraph(
        stage=graph.stage,
        nodes=list(graph.nodes),
        edges=list(graph.edges),
        features=_make(alpha @ wh, (x, w, attn), backward),
        encoded=True,
    )
    return (out, [alpha]) if with_attention else out


def build_basic_graph(scene_raw, face_raw, text_concat_raw, proj: ProjectionParams) -> EmotionGraph:
    """Triangle over the target's own scene, face and text features."""
    rows = [
        project_input(scene_raw, proj.scene),
        project_input(face_raw, proj.face),
        project_input(text_concat_raw, proj.text),
    ]
    nodes = [GraphNode(GraphStage.BASIC, c) for c in CHANNELS]
    edges = [
        (0, 1, GraphStage.BASIC),
        (0, 2, GraphStage.BASIC),
        (1, 2, GraphStage.BASIC),
    ]
    return EmotionGraph(
        stage=GraphStage.BASIC,
        nodes=nodes,
        edges=edges,
        features=concat_rows(rows),
    )


def extend_graph(
    encoded: EmotionGraph,
    retrieved: RetrievalResult,
    proj: ProjectionParams,
) -> EmotionGraph:
    """Build the next stage on top of an encoded basic or indirect graph.

    An encoded basic graph gains one indirect node per retrieved hit,
    projected from the hit's own channel vector; an encoded indirect graph
    gains one direct node per hit, projected from its matched audio. Each
    channel's block of hits is projected by one op. Each new node is wired
    to the basic node of the channel whose query found the hit, and every
    encoded feature row is carried over as-is.
    """
    if not encoded.encoded or encoded.stage is GraphStage.DIRECT:
        raise StateError("only an encoded basic or indirect graph can be extended")
    stage = GraphStage.INDIRECT if encoded.stage is GraphStage.BASIC else GraphStage.DIRECT
    nodes = list(encoded.nodes)
    edges = list(encoded.edges)
    blocks: list[Tensor] = [encoded.features]
    for channel in CHANNELS:
        if stage is GraphStage.INDIRECT:
            vectors, projection = retrieved.indirect_vectors[channel], getattr(proj, channel)
        else:
            vectors, projection = retrieved.matched_audio[channel], proj.audio
        for record_id, _score in retrieved.rankings[channel]:
            edges.append((BASIC_NODE_INDEX[channel], len(nodes), stage))
            nodes.append(GraphNode(stage, channel, record_id))
        if len(vectors):
            blocks.append(project_input(vectors, projection))
    features = concat_rows(blocks) if len(blocks) > 1 else encoded.features
    return EmotionGraph(stage, nodes, edges, features)


@dataclass
class ProgressiveEncoding:
    """Encoded feature matrices of the three stages, plus their graphs."""

    h_basic: Tensor  # 3 x d
    h_indirect: Tensor  # (3 + sum of indirect hits) x d
    h_direct: Tensor  # (3 + 2 * sum of hits) x d
    graphs: tuple[EmotionGraph, EmotionGraph, EmotionGraph] = field(repr=False, default=())


def progressive_encode(
    scene_raw,
    face_raw,
    text_concat_raw,
    retrieved: RetrievalResult,
    proj: ProjectionParams,
    gae: GAEParams,
) -> ProgressiveEncoding:
    """Run the full construct-and-encode sequence over the three stages.

    Differentiable end to end: gradients flow from any encoded feature back
    to the projections and the encoder parameters. The raw vectors (the
    target's own and the retrieved blocks) are constants.
    """
    basic_enc = gae_encode(build_basic_graph(scene_raw, face_raw, text_concat_raw, proj), gae)
    indirect_enc = gae_encode(extend_graph(basic_enc, retrieved, proj), gae)
    direct_enc = gae_encode(extend_graph(indirect_enc, retrieved, proj), gae)
    return ProgressiveEncoding(
        h_basic=basic_enc.features,
        h_indirect=indirect_enc.features,
        h_direct=direct_enc.features,
        graphs=(basic_enc, indirect_enc, direct_enc),
    )
