"""The gradient-based optimizer: Adam.

It supports L2 weight decay, which is how the paper's ``l2
regularization factor`` (5e-4 on the citation networks) is applied.

The update rules are written against per-parameter scratch buffers so a
step allocates nothing after the first call.  Every in-place expression
keeps the operand order and associativity of the textbook formulation,
so the trajectories are bitwise identical to the allocating version
(IEEE-754 addition and multiplication are commutative bitwise; only
reassociation would change results, and none is performed).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.nn.module import Parameter


# Adam's moment decay rates and denominator epsilon (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def _check_rates(lr: float, weight_decay: float) -> None:
    """Reject rates that would train without error but diverge or do
    nothing (``lr=nan`` passes a plain ``lr <= 0`` check)."""
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"learning rate must be finite and positive, got {lr}")
    if not (math.isfinite(weight_decay) and weight_decay >= 0):
        raise ValueError(f"weight_decay must be finite and >= 0, got {weight_decay}")


class Adam:
    """Adam optimizer (Kingma & Ba, 2015) with L2 weight decay.

    This matches the paper's training setup: Adam with learning rate 0.01
    and an L2 factor folded into the gradient.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        weight_decay: float = 0.0,
    ):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        _check_rates(lr, weight_decay)
        self.lr = lr
        self.weight_decay = weight_decay
        self._step_count = 0
        self._scratch: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._first_moment: Dict[int, np.ndarray] = {}
        self._second_moment: Dict[int, np.ndarray] = {}

    def _buffers(self, param: Parameter) -> Tuple[np.ndarray, np.ndarray]:
        """Two reusable work arrays shaped like ``param`` (lazily built)."""
        buffers = self._scratch.get(id(param))
        if buffers is None:
            buffers = (np.empty_like(param.data), np.empty_like(param.data))
            self._scratch[id(param)] = buffers
        return buffers

    def zero_grad(self) -> None:
        """Drop the gradients of all managed parameters (see
        :meth:`repro.tensor.tensor.Tensor.zero_grad`)."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - BETA1**t
        bias2 = 1.0 - BETA2**t
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            buf_a, buf_b = self._buffers(param)
            if self.weight_decay:
                # grad + wd*p, written as wd*p + grad (addition commutes bitwise).
                np.multiply(param.data, self.weight_decay, out=buf_a)
                buf_a += grad
                grad = buf_a
            m = self._first_moment.get(id(param))
            if m is None:
                m = self._first_moment[id(param)] = np.zeros_like(param.data)
            v = self._second_moment.get(id(param))
            if v is None:
                v = self._second_moment[id(param)] = np.zeros_like(param.data)
            # m = beta1*m + (1-beta1)*grad
            np.multiply(grad, 1.0 - BETA1, out=buf_b)
            m *= BETA1
            m += buf_b
            # v = beta2*v + ((1-beta2)*grad)*grad  — same left-association
            # as the allocating `(1-beta2) * grad * grad`.
            np.multiply(grad, 1.0 - BETA2, out=buf_b)
            buf_b *= grad
            v *= BETA2
            v += buf_b
            # update = (lr * (m/bias1)) / (sqrt(v/bias2) + eps); grad (an
            # alias of buf_a when decayed) is dead past this point.
            np.divide(m, bias1, out=buf_a)
            np.multiply(buf_a, self.lr, out=buf_a)
            np.divide(v, bias2, out=buf_b)
            np.sqrt(buf_b, out=buf_b)
            buf_b += EPS
            buf_a /= buf_b
            param.data -= buf_a
