"""emodub: retrieval-augmented emotion encoding for dubbing experiments.

The package provides a reference footage library of per-clip emotion
vectors, emotion-similarity top-K retrieval over it, a three-stage
progressive graph attention encoder, a differentiable hierarchical
aggregation head with a toy trainer, and a CLI harness for synthetic
sweeps.
"""

__version__ = "0.1.0"

from .autodiff import (
    AdamState,
    Conv1dParams,
    CrossAttentionParams,
    LinearParams,
    Parameter,
    Tensor,
    conv1d,
    cross_attention,
    grad_check,
    linear,
    load_checkpoint,
    mse,
    save_checkpoint,
)
from .errors import (
    ArgumentError,
    ConfigError,
    EmodubError,
    FormatError,
    NumericError,
    SchemaError,
    ShapeError,
    StateError,
)
from .graph import (
    EmotionGraph,
    GAEParams,
    GraphStage,
    ProgressiveEncoding,
    ProjectionParams,
    build_basic_graph,
    extend_graph,
    gae_encode,
    progressive_encode,
    project_input,
)
from .head import (
    HeadParams,
    PipelineParams,
    ToyBatch,
    aggregate,
    make_toy_batch,
    stub_aligned_sequence,
    toy_forward,
    toy_loss,
    toy_mel_head,
    toy_train_step,
    train_toy,
)
from .library import (
    EmotionVector,
    FootageLibrary,
    FootageRecord,
    Modality,
    MODALITY_ORDER,
    load_library,
    read_jsonl,
    save_library,
    subsample,
    uniform_schema,
    write_jsonl,
)
from .retrieval import (
    CHANNELS,
    Metric,
    Mode,
    Query,
    RetrievalResult,
    retrieve_all,
    retrieve_modality,
    similarity,
    text_criterion,
)
from .rng import SplitMix64, mix64, stream
from .synthetic import ClusterSpec, evaluate_purity, generate_clustered_library
