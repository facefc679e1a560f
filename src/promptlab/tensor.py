"""Minimal deterministic reverse-mode autodiff over dense float64 arrays.

The graph is kept apart from the tensors' data. Every op output that needs a
gradient gets a small node: the op's vector-Jacobian closure and one place per
parent, which is the parent's own node, the parent itself when it is a
gradient-carrying leaf, or None when the parent is frozen. A node never holds
a parent tensor, so the data of interior tensors is freed as soon as the
caller drops them; a closure holds only the arrays, shapes and flags its VJP
reads. ``backward`` topologically sorts the nodes once, visits each exactly
once, and accumulates gradients into the leaves. It drops each node's closure
and places as soon as it has used them, so the graph is freed as backward
walks it, and a second backward through the same graph is refused.

Ops take Tensors and coerce no operand (``embedding``'s ids and
``cross_entropy``'s labels are integer arrays): ``Tensor(...)`` is where an
array enters the engine, and its storage is always row-major float64. There
are no views that alias mutable data: operations copy, and a tensor's ``data``
is only ever written in place by an optimizer between forward passes.

The first ``backward`` call sets the C allocator's policy for the process,
once: see ``_keep_freed_memory``.
"""

from __future__ import annotations

import ctypes
import math
from typing import Iterable, Optional

import numpy as np

from .errors import ContractError, IndexRangeError, NumericsError, ShapeError

_FREED_MEMORY_KEPT = False

_LN_EPS = 1e-5
_L2_EPS = 1e-12


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


class _Node:
    """One op output's place in the graph: its VJP and one place per parent.

    A place is the parent's own node, the parent itself when it is a
    gradient-carrying leaf, or None when the parent is frozen. ``backward``
    sets both fields to None once it has used them.
    """

    __slots__ = ("vjp", "parents")

    def __init__(self, vjp, parents: tuple):
        self.vjp = vjp
        self.parents = parents


class Tensor:
    """Dense float64 array participating in a reverse-mode graph.

    ``grad`` is None for tensors that do not require gradients; for
    gradient-carrying tensors it reads as zeros until a backward pass
    writes into it. Gradients accumulate additively across backward calls
    until ``zero_grad`` resets them.
    """

    __slots__ = ("data", "requires_grad", "_grad", "_node", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._grad: Optional[np.ndarray] = None
        self._node: Optional[_Node] = None

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
        return self._node is None

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
        return add(self, other) if isinstance(other, Tensor) else NotImplemented

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else NotImplemented

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

        root = _place(self)
        order = _toposort(root)
        grads: dict[int, np.ndarray] = {id(root): np.ones_like(self.data)}
        for place in order:
            g = grads.pop(id(place))
            if type(place) is not _Node:  # a gradient-carrying leaf
                if place._grad is None:
                    place._grad = g.copy()
                else:
                    place._grad += g
                continue
            vjp, parents = place.vjp, place.parents
            place.vjp = place.parents = None  # used once: free what the VJP holds
            for parent, pg in zip(parents, vjp(g)):
                if pg is None or parent is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] += pg
                else:
                    grads[key] = pg


def _toposort(root) -> list:
    """Deterministic reverse-topological order over the places below ``root``."""
    order: list = []
    visited: set[int] = set()
    stack: list = [(root, False)]
    while stack:
        place, expanded = stack.pop()
        if expanded:
            order.append(place)
            continue
        if id(place) in visited:
            continue
        visited.add(id(place))
        stack.append((place, True))
        if type(place) is not _Node:
            continue
        if place.parents is None:
            raise ContractError("backward: the graph was freed by an earlier backward; "
                                "run the forward again")
        for parent in place.parents:
            if parent is not None and id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def _make(data: np.ndarray, parents: tuple, vjp, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._node = _Node(vjp, tuple(_place(p) for p in parents))
    return out


def _place(t: Tensor):
    """A parent's place in the graph (see ``_Node``)."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


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
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}")

    a_shape = a.shape if a.requires_grad else None
    b_shape = b.shape if b.requires_grad else None

    def vjp(g):
        # a frozen operand (an encoder bias, most often) gets no gradient
        return (None if a_shape is None else _unbroadcast(g, a_shape),
                None if b_shape is None else _unbroadcast(g, b_shape))

    return _make(data, (a, b), vjp, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}")

    # each operand's gradient reads the other operand's data
    a_shape, a_other = (a.shape, b.data) if a.requires_grad else (None, None)
    b_shape, b_other = (b.shape, a.data) if b.requires_grad else (None, None)

    def vjp(g):
        return (None if a_shape is None else _unbroadcast(g * a_other, a_shape),
                None if b_shape is None else _unbroadcast(g * b_other, b_shape))

    return _make(data, (a, b), vjp, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    return _make(a.data * c, (a,), lambda g: (g * c,), "scale")


def _gelu_gate(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """QuickGELU's gate of an array, s = sigmoid(1.702 z) = (1 + tanh(0.851 z)) / 2."""
    # the tanh form of the sigmoid cannot overflow, whatever z is
    s = np.multiply(z, 0.851, out=out)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def _gelu_slope(z: np.ndarray, s: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """d gelu / dz from the forward's sigmoid: s + 1.702 z s (1 - s)."""
    slope = np.subtract(1.0, s, out=out)
    slope *= s
    slope *= z
    slope *= 1.702
    slope += s
    return slope


def gelu(a: Tensor) -> Tensor:
    """QuickGELU, z sigmoid(1.702 z), the activation of CLIP's text encoder."""
    x = a.data
    s = _gelu_gate(x)
    return _make(x * s, (a,), lambda g: (g * _gelu_slope(x, s),), "gelu")


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    return _make(t, (a,), lambda g: (g * (1.0 - t * t),), "tanh")


# -- reductions ----------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def vjp(g):
        g_ = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g_, shape).copy(),)

    return _make(data, (a,), vjp, "sum")


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else a.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# -- linear algebra --------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for 2D x 2D, 3D x 2D (shared right operand) and 3D x 3D."""
    if a.ndim not in (2, 3) or b.ndim not in (2, 3) or (a.ndim == 2 and b.ndim == 3):
        raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} @ {b.shape}")
    if a.ndim == 3 and b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"matmul: batch extents differ, {a.shape} @ {b.shape}")
    data = a.data @ b.data
    # each operand's gradient reads the other operand's data
    b_for_a = b.data if a.requires_grad else None
    a_for_b = a.data if b.requires_grad else None
    shared_right = a.ndim == 3 and b.ndim == 2

    def vjp(g):
        # a frozen operand (an encoder weight, most often) gets no gradient
        ga = None if b_for_a is None else g @ b_for_a.swapaxes(-1, -2)
        if a_for_b is None:
            return ga, None
        if shared_right:
            return ga, np.einsum("bmk,bmn->kn", a_for_b, g)
        return ga, a_for_b.swapaxes(-1, -2) @ g

    return _make(data, (a, b), vjp, "matmul")


def transpose_last(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.ndim < 2:
        raise ShapeError(f"transpose_last requires rank >= 2, got {a.shape}")
    return _make(
        np.ascontiguousarray(a.data.swapaxes(-1, -2)),
        (a,),
        lambda g: (g.swapaxes(-1, -2),),
        "transpose_last",
    )


def reshape(a: Tensor, shape) -> Tensor:
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    a_shape = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a_shape),), "reshape")


def expand0(a: Tensor, n: int) -> Tensor:
    """Repeat a tensor along a new leading axis: ``n`` gathers of its one flattened row."""
    row = embedding(reshape(a, (1, a.size)), np.zeros(n, dtype=np.int64))
    return reshape(row, (n,) + a.shape)


# -- normalization and similarity -------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtracted)."""
    if a.shape == () or a.shape[axis] == 0:
        raise ShapeError(f"softmax: empty reduction axis {axis} for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return _make(y, (a,), vjp, "softmax")


def _normalize(x: np.ndarray):
    """LayerNorm's normalization over the last axis of an array: (xhat, 1 / std).

    Row sums, here and in the VJP, are products with a ones column: on rows a
    few dozen wide they take a quarter to a half of the time of numpy's sum
    and stay on one thread, and they differ from it in the last bits.
    """
    d, ones = x.shape[-1], np.ones((x.shape[-1], 1))
    xhat = x - (x @ ones) / d
    inv = 1.0 / np.sqrt(((xhat * xhat) @ ones) / d + _LN_EPS)
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


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must be ({d},), got {gain.shape}/{bias.shape}")
    xhat, inv = _normalize(a.data)
    data = xhat * gain.data
    data += bias.data
    a_grad, gain_grad, bias_grad = a.requires_grad, gain.requires_grad, bias.requires_grad
    gain_data = gain.data

    def vjp(g):
        # a frozen parent (the encoder's final norm, most often) gets no gradient
        return (_normalize_vjp(g * gain_data, xhat, inv) if a_grad else None,
                _sum_lead(g * xhat) if gain_grad else None,
                _sum_lead(g) if bias_grad else None)

    return _make(data, (a, gain, bias), vjp, "layer_norm")


def l2_normalize(a: Tensor, axis: int = -1) -> Tensor:
    """x / (||x|| + 1e-12) along ``axis``; zero vectors map to zero, not NaN."""
    x = a.data
    n = np.sqrt((x * x).sum(axis=axis, keepdims=True))
    s = 1.0 / (n + _L2_EPS)
    y = x * s

    def vjp(g):
        n_safe = np.where(n > 0.0, n, 1.0)
        inner = (g * x).sum(axis=axis, keepdims=True)
        return (g * s - x * inner * (s * s) / n_safe,)

    return _make(y, (a,), vjp, "l2_normalize")


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    """cos(a, b) along ``axis``, built from normalize / multiply / sum."""
    return tsum(mul(l2_normalize(a, axis=axis), l2_normalize(b, axis=axis)), axis=axis)


# -- classification loss ------------------------------------------------------------


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
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
    """Gather rows of a 2D ``table`` by a 1D integer index; gradient scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"embedding: ids must be 1D, got shape {ids.shape}")
    if table.ndim != 2:
        raise ShapeError(f"embedding: table must be 2D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexRangeError(f"embedding: id out of range for table of {table.shape[0]} rows")
    data = table.data[ids]
    rows, width = table.shape

    def vjp(g):
        # one bincount over the cells (id, column) sums each cell's gradients
        # in index order from zero, as np.add.at does, so the bytes match it,
        # at less cost
        cells = (ids.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        gt = np.bincount(cells, weights=g.reshape(-1), minlength=rows * width)
        return (gt.reshape(rows, width),)

    return _make(data, (table,), vjp, "embedding")


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = list(tensors)
    if not parts:
        raise ContractError("concat: need at least one tensor")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: cannot join {[p.shape for p in parts]} along axis {axis}")
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def vjp(g):
        idx = [slice(None)] * g.ndim
        outs = []
        for i in range(len(offsets) - 1):
            idx[axis] = slice(offsets[i], offsets[i + 1])
            outs.append(g[tuple(idx)])
        return tuple(outs)

    return _make(data, tuple(parts), vjp, "concat")


def stack(tensors: Iterable[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    parts = list(tensors)
    if not parts:
        raise ContractError("stack: need at least one tensor")
    shapes = {p.shape for p in parts}
    if len(shapes) != 1:
        raise ShapeError(f"stack: shapes differ: {sorted(shapes)}")
    return concat([reshape(p, (1,) + p.shape) for p in parts], axis=0)


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along ``axis``; gradient zero-pads."""
    extent = a.shape[axis]
    if not (0 <= start <= stop <= extent):
        raise ShapeError(f"narrow: [{start}, {stop}) outside axis of extent {extent}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    shape = a.shape

    def vjp(g):
        ga = np.zeros(shape)
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
# saves at these sizes; a 64-row product stays on one thread. OpenBLAS runs on
# one thread by default anyway (promptlab/__init__.py), and the blocks stay:
# on one thread too they take less time than one product on a search's larger stacks
_ROW_BLOCK = 64
_MLP_BLOCK = 512  # rows per block of mlp_sublayer's forward


def _row_products(x: np.ndarray, w: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``x @ w`` for ``x`` [..., k], into ``out`` if given: 64-row products and the remainder.

    Up to seven blocks of rows (448) are one product: on one thread it took
    less time than the blocks up to 448 rows and more from 504 rows on, for
    a search's [R, 32] @ [32, 64] and [R, 64] @ [64, 32].
    """
    # numpy's stacked matmul takes a slow non-BLAS loop for a transposed right
    # operand, such as a weight's transpose in a VJP
    w = np.ascontiguousarray(w)
    k, m = w.shape
    rows = x.reshape(-1, k)
    if rows.shape[0] <= 7 * _ROW_BLOCK:
        return np.matmul(x, w, out=out)
    out = np.empty((rows.shape[0], m)) if out is None else out.reshape(-1, m)
    full = rows.shape[0] - rows.shape[0] % _ROW_BLOCK
    np.matmul(rows[:full].reshape(-1, _ROW_BLOCK, k), w, out=out[:full].reshape(-1, _ROW_BLOCK, m))
    np.matmul(rows[full:], w, out=out[full:])
    return out.reshape(x.shape[:-1] + (m,))


def attention_sublayer(h: Tensor, wkv: Tensor, wo: Tensor, num_heads: int, groups,
                       readout: bool) -> Tensor:
    """Pre-norm self-attention with its residual over a row stack ``h`` [R, d].

    ``groups`` lists (count, length) in row order: ``count`` prompts of
    ``length`` rows each, covering the R rows; each prompt attends within
    itself. Everything row-wise runs once over the stack; keys and values,
    scores, softmax and the weighted sum run per group. ``wkv`` [d, 2d] is
    ``[wqk | wv]``, the tied query/key projection beside the value
    projection: a group's keys and values are one product with it, and its
    queries are the keys of the query rows, every row or, with ``readout``,
    the last row of each prompt. Each of ``num_heads`` heads scores with
    scaled dot products of width d / num_heads, each query's score against
    its own row lowered by 1e9. The merged heads go through ``wo`` and are
    added to the query rows of ``h``. The norm has no affine. Only ``h`` is
    differentiated (the weights must be frozen); the forward keeps xhat,
    1 / std and each group's attention weights, and the VJP recomputes the
    keys and values from xhat.
    """
    d = h.shape[-1]
    if (h.ndim != 2 or d % num_heads or min((min(g) for g in groups), default=0) < 1
            or sum(count * length for count, length in groups) != h.shape[0]):
        raise ShapeError(f"attention_sublayer: {num_heads} heads and groups {list(groups)} "
                         f"for a row stack of shape {h.shape}")
    _check_frozen_params("attention_sublayer", (wkv, wo), ((d, 2 * d), (d, d)))
    xhat, inv = _normalize(h.data)
    query_rows = slice(None)
    if readout:  # the last row of each prompt
        query_rows = np.cumsum(np.repeat([length for _, length in groups],
                                         [count for count, _ in groups])) - 1
    ctx = np.empty((len(query_rows) if readout else h.shape[0], d))
    inv_sqrt = 1.0 / math.sqrt(d // num_heads)
    saved = []  # per group: its rows, its query rows and the attention weights y
    start = q_start = 0
    for count, length in groups:
        q_len = 1 if readout else length
        rows, q_rows = slice(start, start + count * length), slice(q_start, q_start + count * q_len)
        heads = _row_products(xhat[rows], wkv.data).reshape(count, length, 2, num_heads, -1)
        k, v = heads[:, :, 0].swapaxes(1, 2), heads[:, :, 1].swapaxes(1, 2)  # [count, H, L, d/H]
        # right operands are contiguous (see _row_products): the k-transpose
        # here and the v-transpose in the VJP are copies
        y = k[:, :, length - q_len:] @ np.ascontiguousarray(k.swapaxes(-1, -2))
        y *= inv_sqrt  # the scores, then in place the attention weights
        y[..., np.arange(q_len), np.arange(length - q_len, length)] -= 1e9
        y -= y.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)
        ctx[q_rows].reshape(count, q_len, num_heads, -1)[...] = (y @ v).swapaxes(1, 2)
        saved.append((rows, q_rows, y))
        start, q_start = rows.stop, q_rows.stop
    data = _row_products(ctx, wo.data)
    data += h.data[query_rows]
    wkv_data, wo_data = wkv.data, wo.data

    def vjp(g):
        # keys and values are recomputed, and live one group at a time
        gc = _row_products(g, wo_data.T)
        gx = np.empty_like(xhat)
        for rows, q_rows, y in saved:
            count, _, q_len, length = y.shape
            heads = _row_products(xhat[rows], wkv_data).reshape(count, length, 2, num_heads, -1)
            k, v = heads[:, :, 0].swapaxes(1, 2), heads[:, :, 1].swapaxes(1, 2)
            gc_heads = np.ascontiguousarray(
                gc[q_rows].reshape(count, q_len, num_heads, -1).swapaxes(1, 2))
            gv = y.swapaxes(-1, -2) @ gc_heads
            gs = gc_heads @ np.ascontiguousarray(v.swapaxes(-1, -2))
            gs -= (gs * y).sum(axis=-1, keepdims=True)
            gs *= y
            gs *= inv_sqrt
            gk = (k[:, :, length - q_len:].swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
            gk[:, :, length - q_len:] += gs @ k  # the tied queries' gradient
            heads = np.empty((count, length, 2, num_heads, d // num_heads))  # [gk | gv] by row
            heads[:, :, 0] = gk.swapaxes(1, 2)
            heads[:, :, 1] = gv.swapaxes(1, 2)
            _row_products(heads.reshape(-1, 2 * d), wkv_data.T, out=gx[rows])
        gh = _normalize_vjp(gx, xhat, inv)
        gh[query_rows] += g
        return (gh,)

    return _make(data, (h,), vjp, "softmax")


def mlp_sublayer(h: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """``h + gelu(norm(h) @ w1) @ w2`` over the last axis of ``h``; the norm has no affine.

    Only ``h`` is differentiated (the weights must be frozen). The forward
    keeps xhat, 1 / std and the GELU's slope, not the pre-activation and its
    sigmoid, so the VJP recomputes nothing.
    """
    d, hidden = h.shape[-1], w1.shape[-1]
    _check_frozen_params("mlp_sublayer", (w1, w2), ((d, hidden), (hidden, d)))
    xhat, inv = _normalize(h.data)
    data = np.empty(h.shape)
    slope = np.empty(h.shape[:-1] + (hidden,))
    # a block of rows at a time, through two buffers the blocks reuse: neither
    # the pre-activation nor its gate is ever a whole-stack array
    x, y = xhat.reshape(-1, d), data.reshape(-1, d)
    z, s = np.empty((2, min(len(x), _MLP_BLOCK), hidden))
    for start in range(0, len(x), _MLP_BLOCK):
        rows = slice(start, min(start + _MLP_BLOCK, len(x)))
        zb = _row_products(x[rows], w1.data, out=z[:rows.stop - start])
        sb = _gelu_gate(zb, out=s[:len(zb)])
        _gelu_slope(zb, sb, out=slope.reshape(-1, hidden)[rows])
        zb *= sb  # the activation, in place
        _row_products(zb, w2.data, out=y[rows])
    data += h.data
    w1_data, w2_data = w1.data, w2.data

    def vjp(g):
        gz = _row_products(g, w2_data.T)
        gz *= slope
        gh = _row_products(gz, w1_data.T)
        del gz  # freed before the norm's VJP: the VJPs hold a step's peak memory
        gh = _normalize_vjp(gh, xhat, inv)
        gh += g
        return (gh,)

    return _make(data, (h,), vjp, "gelu")


def _check_frozen_params(op: str, weights: tuple, shapes: tuple) -> None:
    """Weights shaped for the rows' width, none trainable: a fused op gives them no gradient."""
    got = tuple(w.shape for w in weights)
    if got != shapes:
        raise ShapeError(f"{op}: weights must have shapes {shapes}, got {got}")
    if any(w.requires_grad for w in weights):
        raise ContractError(f"{op}: weights must be frozen")
