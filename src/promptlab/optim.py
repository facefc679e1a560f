"""First-order optimizers for leaf tensors, plus the cosine learning-rate rule."""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, ParameterError
from .tensor import Tensor


def _check_params(params):
    params = list(params)
    for p in params:
        if not isinstance(p, Tensor) or not p.requires_grad:
            raise ParameterError("optimizers only accept gradient-carrying tensors")
        if not p.is_leaf():
            raise ParameterError("optimizers only accept leaf tensors")
    return params


class SGD:
    """Plain gradient descent: p <- p - lr * grad."""

    def __init__(self, params, lr: float):
        self.params = _check_params(params)
        self.lr = float(lr)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        for p in self.params:
            if p._grad is not None:
                p.data -= self.lr * p._grad


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction (Kingma & Ba defaults)."""

    def __init__(self, params, lr: float):
        self.params = _check_params(params)
        self.lr = float(lr)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p._grad is None:
                continue
            g = p._grad
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def cosine_lr(step: int, total_steps: int, lr_init: float) -> float:
    """Half-cosine decay from lr_init at step 0 to 0 at step == total_steps."""
    if total_steps <= 0:
        raise ParameterError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    return lr_init * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))
