"""Minimal deterministic reverse-mode autodiff over dense float64 arrays.

The computation graph is implicit: every tensor produced by an operation
keeps references to its parents and a vector-Jacobian closure. ``backward``
topologically sorts that graph once, visits each node exactly once, and
accumulates gradients into leaf tensors that have ``requires_grad`` set.

Storage is always row-major float64. There are no views that alias mutable
data: operations copy, and a tensor's ``data`` is only ever written in place
by an optimizer between forward passes.

The first ``backward`` call sets the C allocator's policy for the process,
once: see ``_keep_freed_memory``.
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ContractError, IndexRangeError, NumericsError, ShapeError

_FREED_MEMORY_KEPT = False

_LN_EPS = 1e-5


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise NumericsError(f"{op} produced non-finite values")


def _keep_freed_memory() -> None:
    """Keep the memory a training step frees mapped in the process, for the next step.

    Under glibc's defaults, the next step faulted the pages of the graph the
    last one freed back in, zero-filled. Now arrays below 16 MiB come from the
    heap, and the heap keeps up to 64 MiB of free top. The setting holds for
    the whole process; without glibc's ``mallopt`` it changes nothing.
    """
    global _FREED_MEMORY_KEPT
    _FREED_MEMORY_KEPT = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: no CDLL(None) on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD in glibc's malloc.h
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


class Tensor:
    """Dense float64 array participating in a reverse-mode graph.

    ``grad`` is None for tensors that do not require gradients; for
    gradient-carrying tensors it reads as zeros until a backward pass
    writes into it. Gradients accumulate additively across backward calls
    until ``zero_grad`` resets them.
    """

    __slots__ = ("data", "requires_grad", "_grad", "_parents", "_vjp", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(())
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._vjp: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def grad(self) -> Optional[np.ndarray]:
        if not self.requires_grad:
            return None
        if self._grad is None:
            return np.zeros_like(self.data)
        return self._grad

    def zero_grad(self) -> None:
        self._grad = None

    def is_leaf(self) -> bool:
        return self._vjp is None

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() requires a single element, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        head = f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}"
        if self.name:
            head += f", name={self.name!r}"
        return head + ")"

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    # -- reverse pass ---------------------------------------------------------

    def backward(self) -> None:
        """Accumulate dL/dleaf for every gradient-carrying leaf below this scalar."""
        if self.data.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            return
        if not _FREED_MEMORY_KEPT:
            _keep_freed_memory()

        order = _toposort(self)
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in order:
            g = grads.pop(id(node))
            if node._vjp is None:
                if node._grad is None:
                    node._grad = g.copy()
                else:
                    node._grad += g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] += pg
                else:
                    grads[key] = pg


def _toposort(root: Tensor) -> list:
    """Deterministic reverse-topological order over gradient-carrying nodes."""
    order: list = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple, vjp, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise ---------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}")

    def vjp(g):
        # a frozen operand (an encoder bias, most often) gets no gradient
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(data, (a, b), vjp, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}")

    def vjp(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _make(data, (a, b), vjp, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return _make(a.data * c, (a,), lambda g: (g * c,), "scale")


def _gelu_gate(z: np.ndarray) -> np.ndarray:
    """QuickGELU's gate of an array, s = sigmoid(1.702 z) = (1 + tanh(0.851 z)) / 2."""
    # the tanh form of the sigmoid cannot overflow, whatever z is
    s = z * 0.851
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def _gelu_slope(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d gelu / dz from the forward's sigmoid: s + 1.702 z s (1 - s)."""
    slope = 1.0 - s
    slope *= s
    slope *= z
    slope *= 1.702
    slope += s
    return slope


def gelu(a: Tensor) -> Tensor:
    """QuickGELU, z sigmoid(1.702 z), the activation of CLIP's text encoder."""
    a = _as_tensor(a)
    s = _gelu_gate(a.data)
    return _make(a.data * s, (a,), lambda g: (g * _gelu_slope(a.data, s),), "gelu")


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    t = np.tanh(a.data)
    return _make(t, (a,), lambda g: (g * (1.0 - t * t),), "tanh")


# -- reductions ----------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g_ = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g_, a.shape).copy(),)

    return _make(data, (a,), vjp, "sum")


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# -- linear algebra --------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for 2D x 2D, 3D x 2D (shared right operand) and 3D x 3D."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim not in (2, 3) or b.ndim not in (2, 3) or (a.ndim == 2 and b.ndim == 3):
        raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    if a.ndim == 3 and b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"matmul: batch extents differ, {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def vjp(g):
        # a frozen operand (an encoder weight, most often) gets no gradient
        ga = g @ b.data.swapaxes(-1, -2) if a.requires_grad else None
        if not b.requires_grad:
            return ga, None
        if a.ndim == 3 and b.ndim == 2:
            return ga, np.einsum("bmk,bmn->kn", a.data, g)
        return ga, a.data.swapaxes(-1, -2) @ g

    return _make(data, (a, b), vjp, "matmul")


def transpose_last(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"transpose_last requires rank >= 2, got {a.shape}")
    return _make(
        np.ascontiguousarray(a.data.swapaxes(-1, -2)),
        (a,),
        lambda g: (g.swapaxes(-1, -2),),
        "transpose_last",
    )


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),), "reshape")


def expand0(a: Tensor, n: int) -> Tensor:
    """Repeat a tensor along a new leading axis; gradient sums back."""
    a = _as_tensor(a)
    data = np.broadcast_to(a.data[None], (n,) + a.shape).copy()
    return _make(data, (a,), lambda g: (g.sum(axis=0),), "expand0")


# -- normalization and similarity -------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtracted)."""
    a = _as_tensor(a)
    if a.shape == () or a.shape[axis] == 0:
        raise ShapeError(f"softmax: empty reduction axis {axis} for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return _make(y, (a,), vjp, "softmax")


def _normalize(x: np.ndarray, eps: float):
    """LayerNorm's normalization over the last axis of an array: (xhat, 1 / std).

    Row sums, here and in the VJP, are products with a ones column: on rows a
    few dozen wide they take a quarter to a half of the time of numpy's sum
    and stay on one thread, and they differ from it in the last bits.
    """
    d, ones = x.shape[-1], np.ones((x.shape[-1], 1))
    xhat = x - (x @ ones) / d
    inv = 1.0 / np.sqrt(((xhat * xhat) @ ones) / d + eps)
    xhat *= inv
    return xhat, inv


def _normalize_vjp(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The input gradient of ``_normalize`` from the gradient of xhat, in place on ``g``.

    inv * (g - mean(g) - xhat * mean(g * xhat))
    """
    d, ones = g.shape[-1], np.ones((g.shape[-1], 1))
    t = g * xhat
    proj = (t @ ones) / d
    g -= (g @ ones) / d
    np.multiply(xhat, proj, out=t)
    g -= t
    g *= inv
    return g


def _sum_lead(g: np.ndarray) -> np.ndarray:
    """Sum over every axis but the last (the gradient of a broadcast bias)."""
    return g.sum(axis=tuple(range(g.ndim - 1)))


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = _LN_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    _check_norm_params("layer_norm", a, gain, bias)
    xhat, inv = _normalize(a.data, eps)
    data = xhat * gain.data
    data += bias.data

    def vjp(g):
        # a frozen parent (the encoder's final norm, most often) gets no gradient
        return (_normalize_vjp(g * gain.data, xhat, inv) if a.requires_grad else None,
                _sum_lead(g * xhat) if gain.requires_grad else None,
                _sum_lead(g) if bias.requires_grad else None)

    return _make(data, (a, gain, bias), vjp, "layer_norm")


def _check_norm_params(op: str, a: Tensor, gain: Tensor, bias: Tensor) -> None:
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"{op}: gain/bias must be ({d},), got {gain.shape}/{bias.shape}")


def l2_normalize(a: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """x / (||x|| + eps) along ``axis``; zero vectors map to zero, not NaN."""
    a = _as_tensor(a)
    n = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True))
    s = 1.0 / (n + eps)
    y = a.data * s

    def vjp(g):
        n_safe = np.where(n > 0.0, n, 1.0)
        inner = (g * a.data).sum(axis=axis, keepdims=True)
        return (g * s - a.data * inner * (s * s) / n_safe,)

    return _make(y, (a,), vjp, "l2_normalize")


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    """cos(a, b) along ``axis``, built from normalize / multiply / sum."""
    return tsum(mul(l2_normalize(a, axis=axis), l2_normalize(b, axis=axis)), axis=axis)


# -- classification loss ------------------------------------------------------------


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2D, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    b, n = logits.shape
    if labels.shape != (b,):
        raise ShapeError(f"cross_entropy: labels must have shape ({b},), got {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= n:
        bad = labels[(labels < 0) | (labels >= n)][0]
        raise IndexRangeError(f"cross_entropy: label {bad} out of range for {n} classes")
    m = logits.data.max(axis=1, keepdims=True)
    e = np.exp(logits.data - m)
    z = e.sum(axis=1, keepdims=True)
    log_probs = logits.data - m - np.log(z)
    data = np.asarray(-log_probs[np.arange(b), labels].mean())

    def vjp(g):
        probs = e / z
        probs[np.arange(b), labels] -= 1.0
        return (g * probs / b,)

    return _make(data, (logits,), vjp, "cross_entropy")


# -- structure ops ---------------------------------------------------------------


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by integer index; gradient scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"embedding: ids must be 1D, got shape {ids.shape}")
    return _gather(_as_tensor(table), ids, "embedding")


def gather_rows(src: Tensor, index) -> Tensor:
    """``src[index]`` for a 2D ``src`` and an integer index array of any shape.

    The result has shape ``index.shape + (src.shape[1],)``; rows may repeat,
    and the gradient scatter-adds back into ``src``.
    """
    # recorded under narrow, an op the benchmark tracer (perfbench/spans.py)
    # already knows: it is a row selection along axis 0 with a zero-fill VJP
    return _gather(_as_tensor(src), np.asarray(index, dtype=np.int64), "narrow", "gather_rows")


def _gather(table: Tensor, ids: np.ndarray, op: str, label: str = None) -> Tensor:
    label = label or op
    if table.ndim != 2:
        raise ShapeError(f"{label}: table must be 2D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexRangeError(f"{label}: id out of range for table of {table.shape[0]} rows")
    data = table.data[ids]

    def vjp(g):
        # one bincount per column sums each row's gradients in index order
        # from zero, as np.add.at does, so the bytes match it, at less cost
        flat, cols = ids.reshape(-1), g.reshape(-1, table.shape[1])
        gt = np.empty_like(table.data)
        for j in range(gt.shape[1]):
            gt[:, j] = np.bincount(flat, weights=cols[:, j], minlength=gt.shape[0])
        return (gt,)

    return _make(data, (table,), vjp, op)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]
    if not parts:
        raise ContractError("concat: need at least one tensor")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: cannot join {[p.shape for p in parts]} along axis {axis}")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        idx = [slice(None)] * g.ndim
        outs = []
        for i in range(len(parts)):
            idx[axis] = slice(offsets[i], offsets[i + 1])
            outs.append(g[tuple(idx)])
        return tuple(outs)

    return _make(data, tuple(parts), vjp, "concat")


def stack(tensors: Iterable[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    parts = [_as_tensor(t) for t in tensors]
    if not parts:
        raise ContractError("stack: need at least one tensor")
    shapes = {p.shape for p in parts}
    if len(shapes) != 1:
        raise ShapeError(f"stack: shapes differ: {sorted(shapes)}")
    data = np.stack([p.data for p in parts], axis=0)

    def vjp(g):
        return tuple(g[i] for i in range(len(parts)))

    return _make(data, tuple(parts), vjp, "stack")


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along ``axis``; gradient zero-pads."""
    a = _as_tensor(a)
    extent = a.shape[axis]
    if not (0 <= start <= stop <= extent):
        raise ShapeError(f"narrow: [{start}, {stop}) outside axis of extent {extent}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[idx] = g
        return (ga,)

    return _make(a.data[idx].copy(), (a,), vjp, "narrow")


# -- fused encoder sub-layers ------------------------------------------------------
#
# Both ops run row-wise over a row stack, the rows of many prompts [R, d].
# They record their ``_make`` under an op name the benchmark tracer
# (perfbench/spans.py) already knows: attention under softmax, the MLP under gelu.

# row-wise products run as a batch of 64-row products: OpenBLAS splits one
# large product over its threads, which costs more wall and CPU time than it
# saves at these sizes; a 64-row product stays on one thread
_ROW_BLOCK = 64


def _row_products(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for ``x`` [..., k], as a batch of 64-row products and the remainder.

    Fewer than two whole blocks of rows (a one-candidate stack in training,
    say) are one product: it stays below OpenBLAS's threading threshold, and
    one call costs less than two.
    """
    # numpy's stacked matmul takes a slow non-BLAS loop for a transposed right
    # operand, such as a weight's transpose in a VJP
    w = np.ascontiguousarray(w)
    k, m = w.shape
    rows = x.reshape(-1, k)
    if rows.shape[0] < 2 * _ROW_BLOCK:
        return x @ w
    out = np.empty((rows.shape[0], m))
    full = rows.shape[0] - rows.shape[0] % _ROW_BLOCK
    np.matmul(rows[:full].reshape(-1, _ROW_BLOCK, k), w, out=out[:full].reshape(-1, _ROW_BLOCK, m))
    np.matmul(rows[full:], w, out=out[full:])
    return out.reshape(x.shape[:-1] + (m,))


def attention_sublayer(h: Tensor, gain: Tensor, bias: Tensor, wqk: Tensor, wv: Tensor,
                       wo: Tensor, num_heads: int, groups, readout: bool) -> Tensor:
    """Pre-norm self-attention with its residual over a row stack ``h`` [R, d].

    ``groups`` lists (count, length) in row order: ``count`` prompts of
    ``length`` rows each, covering the R rows; each prompt attends within
    itself. Everything row-wise runs once over the stack; scores, softmax
    and the weighted sum run per group. Queries and keys share the tied
    projection ``wqk``: one product with ``[wqk | wv]`` gives keys and values,
    and the queries are the keys of the query rows, every row or, with
    ``readout``, the last row of each prompt. Each of ``num_heads`` heads
    scores with scaled dot products of width d / num_heads, each query's
    score against its own row lowered by 1e9. The merged heads go through
    ``wo`` and are added to the query rows of ``h``. Only ``h`` is
    differentiated (the rest must be frozen); the forward keeps xhat, 1 / std,
    the keys and values, and each group's attention weights.
    """
    h, gain, bias, wqk, wv, wo = map(_as_tensor, (h, gain, bias, wqk, wv, wo))
    d = h.shape[-1]
    if (h.ndim != 2 or d % num_heads or min((min(g) for g in groups), default=0) < 1
            or sum(count * length for count, length in groups) != h.shape[0]):
        raise ShapeError(f"attention_sublayer: {num_heads} heads and groups {list(groups)} "
                         f"for a row stack of shape {h.shape}")
    _check_frozen_params("attention_sublayer", h, gain, bias, wqk, wv, wo)
    xhat, inv = _normalize(h.data, _LN_EPS)
    # one product of the normalized rows with [wqk | wv], the LN affine folded in
    wkv = np.concatenate((wqk.data, wv.data), axis=1)
    wkv_g = gain.data[:, None] * wkv
    kv = _row_products(xhat, wkv_g)
    kv += bias.data @ wkv
    query_rows = slice(None)
    if readout:  # the last row of each prompt
        query_rows = np.cumsum(np.repeat([length for _, length in groups],
                                         [count for count, _ in groups])) - 1
    ctx = np.empty((len(query_rows) if readout else h.shape[0], d))
    inv_sqrt = 1.0 / math.sqrt(d // num_heads)
    saved = []  # per group: its rows, its query rows, k, v and the attention weights y
    start = q_start = 0
    for count, length in groups:
        q_len = 1 if readout else length
        rows, q_rows = slice(start, start + count * length), slice(q_start, q_start + count * q_len)
        heads = kv[rows].reshape(count, length, 2, num_heads, -1)
        k = heads[:, :, 0].swapaxes(1, 2)  # [count, H, length, d / H], views of kv
        v = heads[:, :, 1].swapaxes(1, 2)
        # right operands are contiguous (see _row_products): the k-transpose
        # here and the v-transpose in the VJP are copies
        y = k[:, :, length - q_len:] @ np.ascontiguousarray(k.swapaxes(-1, -2))
        y *= inv_sqrt  # the scores, then in place the attention weights
        y[..., np.arange(q_len), np.arange(length - q_len, length)] -= 1e9
        y -= y.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)
        ctx[q_rows].reshape(count, q_len, num_heads, -1)[...] = (y @ v).swapaxes(1, 2)
        saved.append((rows, q_rows, k, v, y))
        start, q_start = rows.stop, q_rows.stop
    data = _row_products(ctx, wo.data)
    data += h.data[query_rows]

    def kv_grad(gc):
        """[gk | gv] for every row, from the gradient of the merged heads at the query rows."""
        gkv = np.empty((h.shape[0], 2 * d))
        for rows, q_rows, k, v, y in saved:
            count, _, q_len, length = y.shape
            gc_heads = np.ascontiguousarray(
                gc[q_rows].reshape(count, q_len, num_heads, -1).swapaxes(1, 2))
            gv = y.swapaxes(-1, -2) @ gc_heads
            gs = gc_heads @ np.ascontiguousarray(v.swapaxes(-1, -2))
            gs -= (gs * y).sum(axis=-1, keepdims=True)
            gs *= y
            gs *= inv_sqrt
            gk = (k[:, :, length - q_len:].swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
            gk[:, :, length - q_len:] += gs @ k  # the tied queries' gradient
            heads = gkv[rows].reshape(count, length, 2, num_heads, -1)
            heads[:, :, 0] = gk.swapaxes(1, 2)
            heads[:, :, 1] = gv.swapaxes(1, 2)
        return gkv

    def vjp(g):
        # the VJPs hold a step's peak memory: nested calls free each
        # temporary as soon as it has been used
        gh = _normalize_vjp(_row_products(kv_grad(_row_products(g, wo.data.T)), wkv_g.T),
                            xhat, inv)
        gh[query_rows] += g
        return (gh,)

    return _make(data, (h,), vjp, "softmax")


def mlp_sublayer(h: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                 b2: Tensor) -> Tensor:
    """``h + gelu(layer_norm(h) @ w1 + b1) @ w2 + b2`` over the last axis of ``h``.

    Only ``h`` is differentiated (the rest must be frozen). The forward keeps
    xhat, 1 / std and the GELU's slope, not the pre-activation and its sigmoid,
    so the VJP recomputes nothing.
    """
    h, gain, bias, w1, b1, w2, b2 = map(_as_tensor, (h, gain, bias, w1, b1, w2, b2))
    _check_frozen_params("mlp_sublayer", h, gain, bias, w1, b1, w2, b2)
    xhat, inv = _normalize(h.data, _LN_EPS)
    w1g = gain.data[:, None] * w1.data  # the LN affine folded into the first product
    z = _row_products(xhat, w1g)
    z += bias.data @ w1.data + b1.data
    s = _gelu_gate(z)
    slope = _gelu_slope(z, s) if h.requires_grad else None
    z *= s  # the activation, in place
    data = _row_products(z, w2.data)
    np.add(h.data, data, out=data)  # (h + mlp) + b2, as the primitive ops add
    data += b2.data

    def vjp(g):
        gz = _row_products(g, w2.data.T)
        gz *= slope
        gh = _row_products(gz, w1g.T)
        del gz  # freed before the norm's VJP: the VJPs hold a step's peak memory
        gh = _normalize_vjp(gh, xhat, inv)
        gh += g
        return (gh,)

    return _make(data, (h,), vjp, "gelu")


def _check_frozen_params(op: str, h: Tensor, gain: Tensor, bias: Tensor, *weights: Tensor) -> None:
    """LN shapes, and no trainable parameter: it would get no gradient from a fused op."""
    _check_norm_params(op, h, gain, bias)
    if any(p.requires_grad for p in (gain, bias, *weights)):
        raise ContractError(f"{op}: LayerNorm parameters and weights must be frozen")
