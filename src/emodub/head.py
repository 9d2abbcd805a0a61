"""Hierarchical aggregation head and desk-scale toy trainer.

The head fuses the three encoded graph-stage feature matrices into an
aligned feature sequence in four steps, each a cross-attention read
followed by a width-1 convolution over the concatenation:

1. attend the aligned sequence over the basic-stage features,
2. attend that result over the indirect-stage features,
3. attend that result over the direct-stage features,
4. fuse the original aligned sequence with the step-3 output.

The upstream aligner that produces the aligned sequence is out of scope
and replaced by a seeded stub; a toy mel projection plus MSE loss gives
the whole pipeline a scalar objective so training and gradient checking
are end-to-end exercises of every parameter.

Training is single-threaded per step; evaluation over many inputs is
embarrassingly parallel with shared read-only parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    AdamState,
    Conv1dParams,
    CrossAttentionParams,
    LinearParams,
    Params,
    Tensor,
    as_tensor,
    concat_cols,
    conv1d,
    cross_attention,
    linear,
    mse,
)
from .errors import ArgumentError, NumericError, ShapeError
from .graph import GAEParams, ProgressiveEncoding, ProjectionParams, progressive_encode
from .library import FootageLibrary
from .retrieval import Metric, Query, RetrievalResult, retrieve_all
from .rng import SplitMix64, stream


@dataclass
class HeadParams(Params):
    """Three single-head cross-attention blocks, four convolutions, and the mel head."""

    ca_basic: CrossAttentionParams
    ca_indirect: CrossAttentionParams
    ca_direct: CrossAttentionParams
    conv_basic: Conv1dParams
    conv_indirect: Conv1dParams
    conv_direct: Conv1dParams
    conv_out: Conv1dParams
    mel: LinearParams

    @classmethod
    def init(cls, dim: int, rng: SplitMix64, n_mel: int = 80) -> "HeadParams":
        return cls(
            ca_basic=CrossAttentionParams.init("head.ca_basic", dim, rng),
            ca_indirect=CrossAttentionParams.init("head.ca_indirect", dim, rng),
            ca_direct=CrossAttentionParams.init("head.ca_direct", dim, rng),
            conv_basic=Conv1dParams.init("head.conv_basic", 2 * dim, dim, rng),
            conv_indirect=Conv1dParams.init("head.conv_indirect", 2 * dim, dim, rng),
            conv_direct=Conv1dParams.init("head.conv_direct", 2 * dim, dim, rng),
            conv_out=Conv1dParams.init("head.conv_out", 2 * dim, dim, rng),
            mel=LinearParams.init("head.mel", dim, n_mel, rng),
        )


def aggregate(
    aligned: Tensor,
    h_basic: Tensor,
    h_indirect: Tensor,
    h_direct: Tensor,
    params: HeadParams,
    with_weights: bool = False,
):
    """Fuse the three stage encodings into the aligned sequence.

    Sequence length is preserved at every step; the final fusion reads the
    original aligned sequence again, so the output depends on it both
    directly and through the attention chain. Returns the L x d output,
    plus all cross-attention weight matrices when requested.
    """
    aligned = as_tensor(aligned)
    stages = (
        ("basic", h_basic, params.ca_basic, params.conv_basic),
        ("indirect", h_indirect, params.ca_indirect, params.conv_indirect),
        ("direct", h_direct, params.ca_direct, params.conv_direct),
    )
    for label, mat, _block, _conv in stages:
        if as_tensor(mat).rows < 1:
            raise ShapeError(f"{label} stage features must be non-empty")
    weights: list[np.ndarray] = []
    fused = aligned
    for _label, mat, block, conv in stages:
        read, w = cross_attention(fused, mat, block, with_weights=True)
        weights.extend(w)
        fused = conv1d(concat_cols(fused, read), conv)
    out = conv1d(concat_cols(aligned, fused), params.conv_out)
    return (out, weights) if with_weights else out


def stub_aligned_sequence(seed: int, length: int, dim: int) -> Tensor:
    """Deterministic stand-in for the cross-modal aligner output.

    Values are uniform in [-1, 1) from the stream keyed by
    ``(seed, "aligned")``, drawn row-major over an L x dim matrix.
    """
    if length < 1:
        raise ArgumentError(f"sequence length must be >= 1, got {length}")
    rng = stream(seed, "aligned")
    return Tensor((2.0 * rng.floats(length * dim) - 1.0).reshape(length, dim))


def toy_mel_head(fused: Tensor, params: HeadParams) -> Tensor:
    """Per-frame linear projection of the fused features to mel bins."""
    return linear(fused, params.mel.weight, params.mel.bias)


@dataclass
class PipelineParams(Params):
    """All trainable parameters of the desk-scale pipeline."""

    proj: ProjectionParams
    gae: GAEParams
    head: HeadParams

    @classmethod
    def init_for_library(cls, lib: FootageLibrary, dim: int, rng: SplitMix64, n_mel: int = 80) -> "PipelineParams":
        """Fresh parameters sized to ``lib``'s schema, drawn from ``rng`` in
        the order projections, encoder, head."""
        return cls(
            proj=ProjectionParams.for_schema(lib.schema, dim, rng),
            gae=GAEParams.init(dim, rng),
            head=HeadParams.init(dim, rng, n_mel=n_mel),
        )


@dataclass
class ToyBatch:
    """One fixed training example: query vectors, retrieval, aligned stub, target."""

    scene: np.ndarray
    face: np.ndarray
    text_concat: np.ndarray
    retrieved: RetrievalResult
    aligned: Tensor
    target_mel: np.ndarray


def make_toy_batch(
    lib: FootageLibrary,
    query: Query,
    seed: int,
    length: int,
    dim: int,
    n_mel: int,
    k: int = 3,
    metric: Metric = Metric.COSINE,
) -> ToyBatch:
    """Assemble a deterministic batch from a speaker-agnostic library query.

    The mel target is uniform in [-1, 1) from the stream keyed by
    ``(seed, "mel-target")``. The aligned stub is drawn first, so its
    length check fires before the target is sized.
    """
    retrieved = retrieve_all(lib, query, k, metric)
    aligned = stub_aligned_sequence(seed, length, dim)
    rng = stream(seed, "mel-target")
    target = (2.0 * rng.floats(length * n_mel) - 1.0).reshape(length, n_mel)
    return ToyBatch(
        scene=query.scene.values,
        face=query.face.values,
        text_concat=np.concatenate([query.text_self.values, query.text_react.values]),
        retrieved=retrieved,
        aligned=aligned,
        target_mel=target,
    )


def toy_forward(batch: ToyBatch, model: PipelineParams) -> tuple[Tensor, ProgressiveEncoding]:
    """Full forward pass: progressive encode, aggregate, mel projection."""
    encoding = progressive_encode(
        batch.scene, batch.face, batch.text_concat, batch.retrieved, model.proj, model.gae
    )
    fused = aggregate(
        batch.aligned, encoding.h_basic, encoding.h_indirect, encoding.h_direct, model.head
    )
    return toy_mel_head(fused, model.head), encoding


def toy_loss(batch: ToyBatch, model: PipelineParams) -> Tensor:
    pred, _ = toy_forward(batch, model)
    return mse(pred, batch.target_mel)


def toy_train_step(batch: ToyBatch, model: PipelineParams, adam: AdamState) -> float:
    """One training step: forward, MSE, backward, Adam update. Returns the loss."""
    loss = toy_loss(batch, model)
    value = loss.item()
    if not np.isfinite(value):
        raise NumericError(f"training loss is non-finite: {value}")
    loss.backward()
    adam.step()
    return value


def train_toy(batch: ToyBatch, model: PipelineParams, steps: int) -> list[float]:
    """Run the toy loop for ``steps`` updates with :class:`AdamState`'s
    default recipe; returns the loss per step."""
    if steps < 1:
        raise ArgumentError(f"steps must be >= 1, got {steps}")
    adam = AdamState(model.parameters())
    return [toy_train_step(batch, model, adam) for _ in range(steps)]
