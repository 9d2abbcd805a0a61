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

A stage is arrays: its features, the boolean attention mask with
self-loops, a stage code and a channel code per node (indices into
``STAGES`` and ``CHANNELS``), and the source record ids of its non-basic
nodes. The basic nodes form a triangle, and each later node is wired to
the basic node of its channel, whose index is the channel code. Each
extension keeps the encoded stage's mask as its leading block and sets
the new nodes' edges and self-loops in place. All edges share the same
learned transform.

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
from itertools import chain
from operator import itemgetter

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
from .library import Modality, Schema, _frozen
from .retrieval import CHANNELS, RetrievalResult
from .rng import SplitMix64


class GraphStage(Enum):
    BASIC = "basic"
    INDIRECT = "indirect"
    DIRECT = "direct"


#: a node's stage code indexes this tuple
STAGES = tuple(GraphStage)
#: a node's kind, by stage code and channel code
_NODE_KINDS = _frozen(np.array([[f"{p}_{c}" for c in CHANNELS] for p in ("basic", "indirect", "direct_audio")]))

_NO_RECORDS = _frozen(np.empty(0, dtype=np.uint64))
_TRIANGLE = _frozen(np.ones((3, 3), dtype=bool))
_BASIC_STAGES = _frozen(np.zeros(3, dtype=np.int64))
_BASIC_CHANNELS = _frozen(np.arange(3, dtype=np.int64))  # the channel code is the basic node's index


@dataclass
class EmotionGraph:
    """One stage: (n x d) ``features``, the symmetric (n x n) boolean ``mask``
    with self-loops that GAE attention reads, the per-node ``stages`` and
    ``channels`` codes, and the non-basic nodes' source ``record_ids``.
    ``encoded`` flips to True after a GAE pass; the extension constructors
    require their input stage to be encoded.
    """

    stage: GraphStage
    features: Tensor
    mask: np.ndarray
    stages: np.ndarray
    channels: np.ndarray
    record_ids: np.ndarray
    encoded: bool = False


def node_labels(graph: EmotionGraph) -> list[tuple[str, int | None]]:
    """Each node's kind, such as ``direct_audio_text``, and source record id (None for a basic node)."""
    kinds = _NODE_KINDS[graph.stages, graph.channels].tolist()
    return list(zip(kinds, [None] * (len(kinds) - len(graph.record_ids)) + graph.record_ids.tolist()))


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
    x, w, attn = graph.features, params.weight, params.attn
    n, dim = x.rows, w.rows
    if n == 0:
        raise ArgumentError("cannot encode an empty graph")
    if x.cols != dim:
        raise SchemaError(f"feature dim {x.cols} does not match encoder dim {dim}")
    if graph.mask.shape != (n, n) or not graph.mask.diagonal().all():  # a row with no entry would be NaN
        raise SchemaError(f"adjacency mask of shape {graph.mask.shape} is not {n} x {n} with self-loops")
    wh = x.data @ w.data
    a_src, a_dst = attn.data.reshape(2, dim, 1)  # the two d x 1 halves
    scores = wh @ a_src + (wh @ a_dst).T
    positive = scores > 0
    leaky = np.where(positive, scores, LEAKY_SLOPE * scores)
    alpha = _softmax_rows(np.where(graph.mask, leaky, -np.inf))

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

    features = _make(alpha @ wh, (x, w, attn), backward)
    out = EmotionGraph(graph.stage, features, graph.mask, graph.stages, graph.channels, graph.record_ids, encoded=True)
    return (out, [alpha]) if with_attention else out


def build_basic_graph(scene_raw, face_raw, text_concat_raw, proj: ProjectionParams) -> EmotionGraph:
    """Triangle over the target's own scene, face and text features."""
    rows = [
        project_input(scene_raw, proj.scene),
        project_input(face_raw, proj.face),
        project_input(text_concat_raw, proj.text),
    ]
    return EmotionGraph(GraphStage.BASIC, concat_rows(rows), _TRIANGLE, _BASIC_STAGES, _BASIC_CHANNELS, _NO_RECORDS)


def extend_graph(
    encoded: EmotionGraph,
    retrieved: RetrievalResult,
    proj: ProjectionParams,
) -> EmotionGraph:
    """Build the next stage on top of an encoded basic or indirect graph.

    An encoded basic graph gains one indirect node per retrieved hit,
    projected from the hit's own channel vector; an encoded indirect graph
    gains one direct node per hit, projected from its matched audio. Each
    channel's block of hits is projected by one op, and every encoded
    feature row is carried over as-is. Each new node is wired to the basic
    node of the channel whose query found the hit, and the encoded mask is
    the new mask's leading block. An encoded stage whose shape or codes do
    not match the hits of ``retrieved`` is a StateError.
    """
    if not encoded.encoded or encoded.stage is GraphStage.DIRECT:
        raise StateError("only an encoded basic or indirect graph can be extended")
    stage = GraphStage.INDIRECT if encoded.stage is GraphStage.BASIC else GraphStage.DIRECT
    code = STAGES.index(stage)
    rankings = [retrieved.rankings[c] for c in CHANNELS]
    hits: list[int] = []  # each hit's channel code, in channel and rank order
    for c, ranking in enumerate(rankings):
        hits += [c] * len(ranking)
    h = len(hits)
    n, m = 3 + code * h, 3 + (code - 1) * h
    # the basic nodes, then the indirect and the direct nodes; this stage keeps the leading n
    stages, channels = ([0, 0, 0] + [1] * h + [2] * h)[:n], ([0, 1, 2] + hits * 2)[:n]
    if (encoded.mask.shape, encoded.stages.tolist(), encoded.channels.tolist()) != ((m, m), stages[:m], channels[:m]):
        raise StateError(f"the encoded stage does not hold {[len(r) for r in rankings]} hits per channel")
    blocks: list[Tensor] = [encoded.features]
    for channel in CHANNELS:
        if stage is GraphStage.INDIRECT:
            vectors, projection = retrieved.indirect_vectors[channel], getattr(proj, channel)
        else:
            vectors, projection = retrieved.matched_audio[channel], proj.audio
        if len(vectors):
            blocks.append(project_input(vectors, projection))
    mask = np.zeros((n, n), dtype=bool)
    mask[:m, :m] = encoded.mask
    new, hit_channels = np.arange(m, n), np.array(hits, dtype=np.int64)
    mask[new, hit_channels] = mask[hit_channels, new] = mask[new, new] = True
    return EmotionGraph(
        stage,
        concat_rows(blocks) if len(blocks) > 1 else encoded.features,
        mask,
        np.array(stages),
        np.array(channels),
        np.fromiter(chain(encoded.record_ids.tolist(), map(itemgetter(0), chain(*rankings))), np.uint64),
    )


@dataclass
class ProgressiveEncoding:
    """Encoded feature matrices of the three stages, plus their graphs."""

    h_basic: Tensor  # 3 x d
    h_indirect: Tensor  # (3 + sum of indirect hits) x d
    h_direct: Tensor  # (3 + 2 * sum of hits) x d
    graphs: tuple[EmotionGraph, EmotionGraph, EmotionGraph] = field(repr=False)


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
