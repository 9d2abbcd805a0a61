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

Each stage is encoded by a graph attention encoder (GAE): per node,
attention over its neighborhood plus a self-loop, scores
``leaky_relu(attn . [W h_i | W h_j])``, softmax-normalized, then a weighted
sum of the projected neighbor features.

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
    add,
    as_tensor,
    concat_cols,
    concat_rows,
    leaky_relu,
    linear,
    masked_softmax_rows,
    matmul,
    slice_cols,
    transpose,
    uniform_init,
)
from .errors import ArgumentError, ConfigError, SchemaError, StateError
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

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, index: int) -> int:
        return sum(1 for a, b, _ in self.edges if index in (a, b))

    def adjacency_mask(self) -> np.ndarray:
        """Symmetric 0/1 mask with self-loops, used by GAE attention."""
        n = self.node_count
        mask = np.eye(n)
        for a, b, _ in self.edges:
            mask[a, b] = 1.0
            mask[b, a] = 1.0
        return mask

    def is_connected(self) -> bool:
        n = self.node_count
        if n == 0:
            return False
        seen = {0}
        frontier = [0]
        neighbors: dict[int, list[int]] = {i: [] for i in range(n)}
        for a, b, _ in self.edges:
            neighbors[a].append(b)
            neighbors[b].append(a)
        while frontier:
            cur = frontier.pop()
            for nxt in neighbors[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == n


def check_edge_kinds(graph: EmotionGraph) -> None:
    """Raise unless every edge joins two basic nodes, for a basic edge, or
    a node of the edge's stage to the basic node of the same channel."""
    for a, b, stage in graph.edges:
        na, nb = graph.nodes[a], graph.nodes[b]
        if stage is GraphStage.BASIC:
            legal = na.stage is nb.stage is GraphStage.BASIC
        else:
            legal = {na.stage, nb.stage} == {GraphStage.BASIC, stage} and na.channel == nb.channel
        if not legal:
            raise SchemaError(f"{stage.value} edge cannot join {na.kind} and {nb.kind}")


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
    """Project one raw vector to a 1 x d node feature row.

    A library row is a strided view into its column-major array; it is
    copied into a contiguous row first, so the product takes numpy's BLAS
    path and gives the bits it gives any contiguous vector.
    """
    row = as_tensor(np.ascontiguousarray(raw))
    if row.rows != 1:
        raise SchemaError(f"raw input must be a single row, got shape {row.shape}")
    if row.cols != proj.d_in:
        raise SchemaError(f"raw input dim {row.cols} does not match projection dim {proj.d_in}")
    return linear(row, proj.weight, proj.bias)


@dataclass
class GAEHeadParams(Params):
    weight: Parameter  # d x d_head
    attn: Parameter  # 1 x 2*d_head


@dataclass
class GAEParams(Params):
    """Graph attention encoder parameters: one attention layer.

    Head outputs are concatenated back to width d, so d must be divisible
    by the head count. The same parameter set is reused across all three
    stages. Parameters are named ``gae.layer0.head{h}.*``, the names that
    existing checkpoints hold.
    """

    heads: list[GAEHeadParams]

    @classmethod
    def init(cls, dim: int, rng: SplitMix64, heads: int = 1) -> "GAEParams":
        if heads < 1 or dim % heads != 0:
            raise ConfigError(f"head count {heads} must divide dim {dim}")
        d_head = dim // heads
        return cls(
            heads=[
                GAEHeadParams(
                    weight=Parameter(uniform_init(rng, dim, d_head, dim), f"gae.layer0.head{h}.weight"),
                    attn=Parameter(uniform_init(rng, 1, 2 * d_head, dim), f"gae.layer0.head{h}.attn"),
                )
                for h in range(heads)
            ]
        )

    @property
    def dim(self) -> int:
        return self.heads[0].weight.rows


def gae_encode(
    graph: EmotionGraph,
    params: GAEParams,
    with_attention: bool = False,
):
    """Encode node features with masked graph attention; topology unchanged.

    Per node i the attention neighborhood is N(i) plus a self-loop; scores
    are ``leaky_relu(attn . [W h_i | W h_j])``, normalized by softmax over
    the neighborhood, and the new feature is the attention-weighted sum of
    projected neighbor features; head outputs are concatenated. Returns
    the encoded graph, plus the list of attention matrices (one per head)
    when requested.
    """
    if graph.node_count == 0:
        raise ArgumentError("cannot encode an empty graph")
    if graph.features.cols != params.dim:
        raise SchemaError(
            f"feature dim {graph.features.cols} does not match encoder dim {params.dim}"
        )
    mask = graph.adjacency_mask()
    attention_maps: list[np.ndarray] = []
    head_outs = []
    for head in params.heads:
        wh = matmul(graph.features, head.weight)
        d_head = head.weight.cols
        a_src = slice_cols(head.attn, 0, d_head)
        a_dst = slice_cols(head.attn, d_head, 2 * d_head)
        s_src = matmul(wh, transpose(a_src))  # n x 1
        s_dst = matmul(wh, transpose(a_dst))  # n x 1
        alpha = masked_softmax_rows(leaky_relu(add(s_src, transpose(s_dst))), mask)
        attention_maps.append(alpha.data)
        head_outs.append(matmul(alpha, wh))
    merged = head_outs[0]
    for part in head_outs[1:]:
        merged = concat_cols(merged, part)
    out = EmotionGraph(
        stage=graph.stage,
        nodes=list(graph.nodes),
        edges=list(graph.edges),
        features=merged,
        encoded=True,
    )
    return (out, attention_maps) if with_attention else out


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
    new node is wired to the basic node of the channel whose query found
    the hit, and every encoded feature row is carried over as-is.
    """
    if not encoded.encoded or encoded.stage is GraphStage.DIRECT:
        raise StateError("only an encoded basic or indirect graph can be extended")
    stage = GraphStage.INDIRECT if encoded.stage is GraphStage.BASIC else GraphStage.DIRECT
    nodes = list(encoded.nodes)
    edges = list(encoded.edges)
    new_rows: list[Tensor] = []
    for channel in CHANNELS:
        if stage is GraphStage.INDIRECT:
            vectors, projection = retrieved.indirect_vectors[channel], getattr(proj, channel)
        else:
            vectors, projection = retrieved.matched_audio[channel], proj.audio
        for (record_id, _score), vec in zip(retrieved.rankings[channel], vectors):
            edges.append((BASIC_NODE_INDEX[channel], len(nodes), stage))
            nodes.append(GraphNode(stage, channel, record_id))
            new_rows.append(project_input(vec, projection))
    features = concat_rows([encoded.features] + new_rows) if new_rows else encoded.features
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
    to the projections, the encoder parameters, and the raw inputs.
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
