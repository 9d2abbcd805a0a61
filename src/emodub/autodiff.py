"""Minimal dense numeric core with reverse-mode differentiation.

Everything is a 2-D float64 matrix. A :class:`Tensor` wraps a numpy array
and records enough structure to run reverse-mode backpropagation from a
scalar (1x1) output; :class:`Parameter` is a named trainable leaf with a
persistent gradient buffer. Ops cover exactly what the encoding pipeline
needs: sums, linear maps, row and column concatenation, scaled dot-product
cross-attention over one memory with learned projections as one op, a
width-1 1-D convolution, and mean-squared error as one op, plus Adam and a
central-finite-difference gradient checker. The graph attention stage is
one op too, in :mod:`emodub.graph`. Each fused op rounds as the composition
of single ops it stands for would: its backward adds each gradient in that
composition's order, on operands of that composition's memory layout.

All computation is numpy float64 and single-threaded per tape; independent
tapes share no mutable state and may run concurrently.
"""

from __future__ import annotations

import math
import mmap
import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .binfmt import Reader, pack_string
from .errors import ArgumentError, ConfigError, FormatError, NumericError, ShapeError
from .rng import SplitMix64


class Tensor:
    """A 2-D float64 matrix node in a reverse-mode computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim < 2:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() requires a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        Interior nodes start from a zero gradient on every call, so running
        ``backward`` again on the same graph adds exactly one more gradient
        to each leaf instead of re-propagating what earlier calls left on
        the interior nodes.
        """
        if self.data.shape != (1, 1):
            raise ArgumentError(f"backward() starts from a scalar, got shape {self.data.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        for node in order:
            if node._parents:
                node.grad = None
        self.grad = np.ones((1, 1))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Named trainable matrix with a gradient buffer that is zeroed lazily:
    ``zero_grad()`` and ``AdamState.step`` only mark it logically zero, and
    reading ``grad`` while it is marked zeroes it first. While it is marked,
    a weight's first gradient product is written into it (:func:`_accum_product`)."""

    __slots__ = ("name", "_grad", "_zero")

    def __init__(self, data, name: str):
        # C-contiguous, so that Adam's flat slices of data and grad are views
        super().__init__(np.ascontiguousarray(data, dtype=np.float64), requires_grad=True)
        self.name = name
        self._grad, self._zero = np.empty_like(self.data), True

    @property
    def grad(self) -> np.ndarray:
        if self._zero:
            self._grad[...] = 0.0
            self._zero = False
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad, self._zero = value, False

    def zero_grad(self) -> None:
        self._zero = True

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    # every op's result is a 2-D float64 array, adopted as-is with its layout
    out = Tensor.__new__(Tensor)
    out.data, out.grad = data, None
    for p in parents:
        if p.requires_grad:
            out.requires_grad, out._parents, out._backward = True, parents, backward
            return out
    out.requires_grad, out._parents, out._backward = False, (), None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _accum_product(t: Tensor, a: np.ndarray, b: np.ndarray) -> None:
    """Add ``a @ b`` to ``t``'s gradient. Into a parameter's logically zero
    gradient it is written in place, with no temporary and no add pass: BLAS
    sums start from +0.0, so that has the bits of ``0.0 + a @ b``, sign of
    zero included."""
    if isinstance(t, Parameter) and t._zero:
        np.matmul(a, b, out=t._grad)
        t._zero = False
    else:
        _accum(t, a @ b)


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row softmax after subtracting each row's max, so rows of any magnitude
    are safe; a ``-inf`` entry gets probability exactly 0."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# --- elementwise and structural ops ----------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    (ar, ac), (br, bc) = sa, sb = a.data.shape, b.data.shape
    if (ar != br and ar != 1 and br != 1) or (ac != bc and ac != 1 and bc != 1):
        raise ShapeError(f"cannot add shapes {sa} and {sb}")

    def backward(g):
        _accum(a, _unbroadcast(g, sa))
        _accum(b, _unbroadcast(g, sb))

    return _make(a.data + b.data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum_product(b, a.data.T, g)

    return _make(a.data @ b.data, (a, b), backward)


def concat_cols(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.rows != b.rows:
        raise ShapeError(f"column concat needs equal row counts: {a.shape} vs {b.shape}")
    split = a.cols

    def backward(g):
        _accum(a, g[:, :split])
        _accum(b, g[:, split:])

    return _make(np.concatenate([a.data, b.data], axis=1), (a, b), backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ArgumentError("concat_rows needs at least one part")
    cols = parts[0].data.shape[1]
    offsets = [0]
    for p in parts:
        if p.data.shape[1] != cols:
            raise ShapeError("row concat needs equal column counts")
        offsets.append(offsets[-1] + p.data.shape[0])

    def backward(g):
        for p, lo, hi in zip(parts, offsets, offsets[1:]):
            _accum(p, g[lo:hi])

    return _make(np.concatenate([p.data for p in parts], axis=0), tuple(parts), backward)


def mse(pred, target) -> Tensor:
    """Mean squared error over all entries; target is a constant.

    One op. With ``diff = pred - target`` and ``f = 1 / size``, the value
    rounds as ``sum(diff * diff) * f`` and the gradient as ``h + h`` with
    ``h = (g * f) * diff``.
    """
    pred = as_tensor(pred)
    target_arr = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    if pred.data.shape != target_arr.shape:
        raise ShapeError(f"mse shape mismatch: {pred.data.shape} vs {target_arr.shape}")
    diff = pred.data - target_arr
    factor = 1.0 / pred.data.size

    def backward(g):
        half = (g * factor) * diff
        _accum(pred, half + half)

    return _make(np.array([[(diff * diff).sum()]]) * factor, (pred,), backward)


# --- parameterized layers ---------------------------------------------------


def uniform_init(rng: SplitMix64, rows: int, cols: int, d_in: int) -> np.ndarray:
    """Row-major uniform(-sqrt(1/d_in), +sqrt(1/d_in)) draw from the stream."""
    if min(rows, cols, d_in) < 1:
        raise ConfigError(
            f"parameter sizes must be >= 1, got rows={rows}, cols={cols}, d_in={d_in}"
        )
    bound = math.sqrt(1.0 / d_in)
    # lo + (hi - lo) * f with lo = -bound, hi = bound, in place (+ and * commute exactly).
    out = rng.floats(rows * cols).reshape(rows, cols)
    out *= bound - -bound
    out += -bound
    return out


class Params:
    """Base of the parameter-set dataclasses.

    ``parameters()`` lists the :class:`Parameter` fields in declaration
    order, recursing into nested parameter sets. Declaration order is the
    order ``init`` draws in and the order checkpoints are written in.
    """

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Parameter):
                out.append(value)
            elif isinstance(value, Params):
                out.extend(value.parameters())
        return out


@dataclass
class LinearParams(Params):
    """Weights and bias of an affine map ``x @ weight + bias``."""

    weight: Parameter
    bias: Parameter

    @classmethod
    def init(cls, name: str, d_in: int, d_out: int, rng: SplitMix64) -> "LinearParams":
        return cls(
            weight=Parameter(uniform_init(rng, d_in, d_out, d_in), f"{name}.weight"),
            bias=Parameter(uniform_init(rng, 1, d_out, d_in), f"{name}.bias"),
        )


def linear(x, weight: Parameter | Tensor, bias: Parameter | Tensor) -> Tensor:
    """Affine map ``x @ weight + bias`` with the bias broadcast over rows."""
    return add(matmul(x, weight), bias)


@dataclass
class CrossAttentionParams(Params):
    """Learned projections of one cross-attention block (square, bias-free)."""

    wq: Parameter
    wk: Parameter
    wv: Parameter
    wo: Parameter

    @classmethod
    def init(cls, name: str, dim: int, rng: SplitMix64) -> "CrossAttentionParams":
        return cls(
            wq=Parameter(uniform_init(rng, dim, dim, dim), f"{name}.wq"),
            wk=Parameter(uniform_init(rng, dim, dim, dim), f"{name}.wk"),
            wv=Parameter(uniform_init(rng, dim, dim, dim), f"{name}.wv"),
            wo=Parameter(uniform_init(rng, dim, dim, dim), f"{name}.wo"),
        )

    @property
    def dim(self) -> int:
        return self.wq.rows


def cross_attention(
    query: Tensor, memory: Tensor, params: CrossAttentionParams, with_weights: bool = False
):
    """Single-head scaled dot-product cross-attention with learned projections.

    Keys and values both come from one memory. Computes
    ``softmax(Q' K'^T / sqrt(d)) V' @ wo`` with ``Q' = query @ wq``,
    ``K' = memory @ wk`` and ``V' = memory @ wv``, as one op. Returns the
    L x d output, plus a one-element list holding the attention weight
    matrix when ``with_weights`` is set.

    The forward rounds as the chain of single ops did (``kt = K'^T`` copied,
    then ``(Q' @ kt) * (1 / sqrt(d))``), and the backward adds each gradient
    in the chain's order: ``wo``, then ``query`` and ``wq``, then ``memory``
    from the key path before the value path, each product taken on operands
    of the chain's memory layout. A product whose operand needs no gradient
    is not computed.
    """
    query, memory = as_tensor(query), as_tensor(memory)
    dim = params.dim
    for mat, label in ((query, "query"), (memory, "memory")):
        if mat.cols != dim:
            raise ShapeError(f"cross-attention {label} has dim {mat.cols}, expected {dim}")
    wq, wk, wv, wo = params.wq, params.wk, params.wv, params.wo
    factor = 1.0 / math.sqrt(dim)
    q = query.data @ wq.data
    v = memory.data @ wv.data
    kt = (memory.data @ wk.data).T.copy()
    attn = _softmax_rows((q @ kt) * factor)
    av = attn @ v

    def backward(g):
        g_av = g @ wo.data.T
        if wo.requires_grad:
            _accum_product(wo, av.T, g)
        g_attn = g_av @ v.T
        g_scores = attn * (g_attn - (g_attn * attn).sum(axis=1, keepdims=True)) * factor
        g_q = g_scores @ kt.T
        if query.requires_grad:
            _accum(query, g_q @ wq.data.T)
        if wq.requires_grad:
            _accum_product(wq, query.data.T, g_q)
        g_k = (q.T @ g_scores).T.copy()  # in the chain's layout, for BLAS
        if memory.requires_grad:
            _accum(memory, g_k @ wk.data.T)
        if wk.requires_grad:
            _accum_product(wk, memory.data.T, g_k)
        g_v = attn.T @ g_av
        if memory.requires_grad:
            _accum(memory, g_v @ wv.data.T)
        if wv.requires_grad:
            _accum_product(wv, memory.data.T, g_v)

    out = _make(av @ wo.data, (query, memory, wq, wk, wv, wo), backward)
    return (out, [attn]) if with_weights else out


@dataclass
class Conv1dParams(Params):
    """Width-1 1-D convolution along the sequence axis: a ``d_in x d_out``
    kernel and a bias row, applied to every position alike."""

    kernel: Parameter
    bias: Parameter

    @classmethod
    def init(cls, name: str, d_in: int, d_out: int, rng: SplitMix64) -> "Conv1dParams":
        return cls(
            kernel=Parameter(uniform_init(rng, d_in, d_out, d_in), f"{name}.kernel"),
            bias=Parameter(uniform_init(rng, 1, d_out, d_in), f"{name}.bias"),
        )


def conv1d(x, params: Conv1dParams) -> Tensor:
    """Apply the convolution, ``linear(x, kernel, bias)``; the output has
    the same number of rows as ``x``."""
    x = as_tensor(x)
    if x.cols != params.kernel.rows:
        raise ShapeError(f"conv1d input dim {x.cols}, kernel expects {params.kernel.rows}")
    return linear(x, params.kernel, params.bias)


# --- optimizer, gradient checking, checkpoints ------------------------------


def collect_parameters(params: Iterable[Parameter]) -> list[Parameter]:
    """Validate and return a list of uniquely named parameters."""
    out = list(params)
    names = [p.name for p in out]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate parameter names: {dupes}")
    return out


class AdamState:
    """Adam with bias correction under the fixed training recipe
    (Kingma and Ba, ICLR 2015, with lr=0.00625, beta1=0.9, beta2=0.98,
    eps=1e-9).

    ``step`` applies the paper's efficient form (Section 2) of
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)``, equal in exact arithmetic:
    ``p -= alpha_t * m / (sqrt(v) + eps_hat)``, with
    ``alpha_t = lr * sqrt(1-beta2**t) / (1-beta1**t)`` and
    ``eps_hat = eps * sqrt(1-beta2**t)``. The moments ``m`` and ``v`` are
    kept divided by ``1-beta1`` and ``1-beta2``, and the Python floats
    ``alpha' = alpha_t * (1-beta1) / sqrt(1-beta2)`` and
    ``eps' = eps_hat / sqrt(1-beta2)`` make up for it. A step walks each
    parameter's flattened data, gradient and moments in slices of
    :attr:`CHUNK` elements and, on each slice, rounds once per operation in
    this order: ``m = beta1*m + g``, ``v = beta2*v + g*g``,
    ``p -= (m / (sqrt(v) + eps')) * alpha'``: 10 passes, one a division,
    each written in place or into two scratch slices allocated once, so a
    step allocates no parameter-sized temporary. ``m`` and ``v`` are flat
    arrays in parameter order; each parameter's moments are views into
    them. The step leaves each gradient marked logically zero.

    The moments live in a private anonymous memory mapping of their own (a
    POSIX ``mmap``), not on the malloc heap. Its pages stay untouched zero
    pages until the first step, so building a new state while an old one is
    alive (a training restart) adds no resident memory, and dropping a state
    returns its pages. On the heap, calloc has to clear a reused chunk at
    once, and a dim-256 run with restarts peaked 18-29 MB higher or not,
    depending on the heap's layout.
    """

    lr = 0.00625
    beta1 = 0.9
    beta2 = 0.98
    eps = 1e-9
    #: elements per slice: the six slices a step touches (g, m, v, p and
    #: two scratch) take 768 KB, which fits a 2 MB L2 cache
    CHUNK = 16384

    def __init__(self, params: Iterable[Parameter]):
        self.params = collect_parameters(params)
        self.step_count = 0
        sizes = [p.data.size for p in self.params]
        total = sum(sizes)
        # both moments, zero-filled by the kernel; private like numpy's own pages,
        # and advised to use huge pages as numpy advises its arrays of 4 MB and up
        mapping = mmap.mmap(-1, max(16 * total, 1), flags=mmap.MAP_PRIVATE)
        if hasattr(mmap, "MADV_HUGEPAGE"):
            mapping.madvise(mmap.MADV_HUGEPAGE)
        self.m, self.v = np.frombuffer(mapping, dtype=np.float64, count=2 * total).reshape(2, total)
        offsets = np.cumsum([0, *sizes]).tolist()
        self._moments = [(self.m[a:b], self.v[a:b]) for a, b in zip(offsets, offsets[1:])]
        self._t1, self._t2 = np.empty((2, min(self.CHUNK, max(sizes, default=0))))

    def step(self) -> None:
        self.step_count += 1
        t, beta1, beta2 = self.step_count, self.beta1, self.beta2
        root_bc2, root_c2 = math.sqrt(1.0 - beta2**t), math.sqrt(1.0 - beta2)
        alpha = self.lr * root_bc2 / (1.0 - beta1**t) * (1.0 - beta1) / root_c2
        eps = self.eps * root_bc2 / root_c2
        for p, (m_flat, v_flat) in zip(self.params, self._moments):
            data, grad = p.data.reshape(-1), p.grad.reshape(-1)  # views: both are C-contiguous
            for start in range(0, data.size, self.CHUNK):
                end = start + self.CHUNK
                g, m, v, x = grad[start:end], m_flat[start:end], v_flat[start:end], data[start:end]
                t1, t2 = self._t1[: g.size], self._t2[: g.size]
                m *= beta1
                m += g
                v *= beta2
                np.multiply(g, g, out=t1)
                v += t1
                np.sqrt(v, out=t2)
                t2 += eps
                np.divide(m, t2, out=t1)
                t1 *= alpha
                x -= t1
            p.zero_grad()


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Parameter],
    eps: float = 1e-5,
) -> float:
    """Max elementwise relative error between reverse-mode and central
    finite-difference gradients.

    Per entry the error is ``|fd - g| / max(|fd|, |g|)``, with deviations at
    or below the absolute floor 1e-8 counting as zero (they are
    indistinguishable from finite-difference roundoff). A non-finite loss,
    finite difference or analytic entry raises :class:`NumericError`.
    ``loss_fn`` must rebuild its graph on every call and be deterministic.
    """
    if not eps > 0.0:
        raise ArgumentError(f"finite-difference step must be > 0, got {eps}")
    params = collect_parameters(params)
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    if not math.isfinite(loss.item()):
        raise NumericError(f"loss is non-finite: {loss.item()}")
    loss.backward()
    analytic = {p.name: p.grad.copy() for p in params}

    def eval_loss() -> float:
        value = loss_fn().item()
        if not math.isfinite(value):
            raise NumericError(f"perturbed loss is non-finite: {value}")
        return value

    worst = 0.0
    try:  # however the loop exits, each entry is restored and every gradient zeroed
        for p in params:
            grad = analytic[p.name]
            for i in range(p.rows):
                for j in range(p.cols):
                    orig = p.data[i, j]
                    try:
                        p.data[i, j] = orig + eps
                        lo_hi = eval_loss()
                        p.data[i, j] = orig - eps
                        lo_lo = eval_loss()
                    finally:
                        p.data[i, j] = orig
                    fd = (lo_hi - lo_lo) / (2.0 * eps)
                    g = grad[i, j]
                    if not (math.isfinite(fd) and math.isfinite(g)):
                        raise NumericError(
                            f"non-finite gradient at {p.name}[{i}, {j}]: fd {fd}, analytic {g}"
                        )
                    diff = abs(fd - g)
                    rel = 0.0 if diff <= 1e-8 else diff / max(abs(fd), abs(g))
                    if rel > worst:
                        worst = rel
    finally:
        for p in params:
            p.zero_grad()
    return worst


_CKPT_MAGIC = b"ADPK"
_CKPT_VERSION = 1


def save_checkpoint(params: Iterable[Parameter], path) -> None:
    """Binary parameter checkpoint: magic ``ADPK``, u32 version, u32 count,
    then per parameter a length-prefixed UTF-8 name (u32), u32 rows, u32
    cols, and the row-major little-endian float64 payload."""
    params = collect_parameters(params)
    buf = bytearray()
    buf += _CKPT_MAGIC
    buf += struct.pack("<I", _CKPT_VERSION)
    buf += struct.pack("<I", len(params))
    for p in params:
        buf += pack_string(p.name)
        buf += struct.pack("<II", p.rows, p.cols)
        buf += np.ascontiguousarray(p.data).astype("<f8", copy=False).tobytes()
    Path(path).write_bytes(bytes(buf))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back as a name -> matrix mapping (bit-exact)."""
    r = Reader(path)
    if r.take(4, "magic") != _CKPT_MAGIC:
        raise FormatError(f"{path}: bad magic, expected {_CKPT_MAGIC!r}")
    (version,) = r.unpack("<I", "version")
    if version != _CKPT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    (count,) = r.unpack("<I", "count")
    out: dict[str, np.ndarray] = {}
    for i in range(count):
        name = r.string(f"parameter {i} name")
        rows, cols = r.unpack("<II", f"parameter {i} shape")
        payload = r.take(8 * rows * cols, f"parameter {i} payload")
        if name in out:
            raise FormatError(f"{path}: duplicate parameter name {name!r}")
        out[name] = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(rows, cols)
    if r.remaining:
        raise FormatError(f"{path}: {r.remaining} trailing bytes")
    return out
