"""Minimal deterministic reverse-mode autodiff over dense float64 arrays.

The computation graph is implicit: every tensor produced by an operation
keeps references to its parents and a vector-Jacobian closure. ``backward``
topologically sorts that graph once, visits each node exactly once, and
accumulates gradients into leaf tensors that have ``requires_grad`` set.

Storage is always row-major float64. There are no views that alias mutable
data: operations copy, and a tensor's ``data`` is only ever written in place
by an optimizer between forward passes.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, IndexRangeError, NumericsError, ShapeError

_FINITE_CHECKS = True

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def set_finite_checks(enabled: bool) -> None:
    """Toggle NaN/Inf detection after every operation (on by default)."""
    global _FINITE_CHECKS
    _FINITE_CHECKS = bool(enabled)


def finite_checks_enabled() -> bool:
    return _FINITE_CHECKS


def _check_finite(data: np.ndarray, op: str) -> None:
    if _FINITE_CHECKS and not np.isfinite(data).all():
        raise NumericsError(f"{op} produced non-finite values")


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

    def detach(self) -> "Tensor":
        """Constant view of this tensor's data, cut out of the graph."""
        return Tensor(self.data, requires_grad=False)

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

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(_as_tensor(other), scale(self, -1.0))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    # -- reverse pass ---------------------------------------------------------

    def backward(self) -> None:
        """Accumulate dL/dleaf for every gradient-carrying leaf below this scalar."""
        if self.data.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            return

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
    return _make(
        data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
        "add",
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}")
    return _make(
        data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
        "mul",
    )


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return _make(a.data * c, (a,), lambda g: (g * c,), "scale")


def gelu(a: Tensor) -> Tensor:
    """Exact erf-based GELU."""
    a = _as_tensor(a)
    e = erf(a.data * _INV_SQRT2)
    data = 0.5 * a.data * (1.0 + e)

    def vjp(g):
        local = 0.5 * (1.0 + e) + a.data * np.exp(-0.5 * a.data * a.data) * _INV_SQRT2PI
        return (g * local,)

    return _make(data, (a,), vjp, "gelu")


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    t = np.tanh(a.data)
    return _make(t, (a,), lambda g: (g * (1.0 - t * t),), "tanh")


# -- reductions ----------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        g_ = g if keepdims else np.expand_dims(g, axis)
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


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must be ({d},), got {gain.shape}/{bias.shape}")
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    data = xhat * gain.data + bias.data

    def vjp(g):
        gx = ggain = gbias = None
        if a.requires_grad:
            gx_hat = g * gain.data
            gx = inv * (
                gx_hat
                - gx_hat.mean(axis=-1, keepdims=True)
                - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
            )
        lead = tuple(range(a.ndim - 1))
        if gain.requires_grad:
            ggain = (g * xhat).sum(axis=lead)
        if bias.requires_grad:
            gbias = g.sum(axis=lead)
        return gx, ggain, gbias

    return _make(data, (a, gain, bias), vjp, "layer_norm")


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
    table = _as_tensor(table)
    if table.ndim != 2:
        raise ShapeError(f"embedding: table must be 2D, got {table.shape}")
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"embedding: ids must be 1D, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexRangeError(f"embedding: id out of range for table of {table.shape[0]} rows")
    data = table.data[ids].copy()

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make(data, (table,), vjp, "embedding")


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]
    if not parts:
        raise ContractError("concat: need at least one tensor")
    data = np.concatenate([p.data for p in parts], axis=axis)
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
