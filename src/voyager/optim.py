"""Minimal Adam optimizer over a dict of named parameter arrays."""

from __future__ import annotations

from typing import Dict

import numpy as np


class Adam:
    """Standard Adam (Kingma & Ba) with bias correction.

    The moment buffers live in two *flat* arrays spanning every
    parameter, so one step runs a fixed handful of full-width vector
    ops, then one in-place subtract per parameter from a fixed view of
    a third flat array that holds the update — instead of ~8 small ops
    per parameter tensor.  Per-element arithmetic (and
    therefore every parameter trajectory) is bit-identical to the
    per-parameter formulation: all operations are elementwise, so the
    packing changes no values, only the op count.  The parameter
    arrays are updated in place, so every holder of ``params`` keeps
    seeing the live weights.  ``lr`` may be reassigned between steps
    (train-loop learning-rate schedules).
    """

    def __init__(
        self,
        params: Dict[str, np.ndarray],
        lr: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._order = list(params)
        total = sum(int(params[name].size) for name in self._order)
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        self._num = np.empty(total)  # scaled gradient terms, then the update
        self._updates = []
        offset = 0
        for name in self._order:
            shape = params[name].shape
            size = int(params[name].size)
            self._updates.append(
                (name, self._num[offset : offset + size].reshape(shape))
            )
            offset += size

    def step(self, grads: Dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        g = np.concatenate([grads[name].ravel() for name in self._order])
        m, v, num = self._m, self._v, self._num
        m *= b1
        m += np.multiply(1.0 - b1, g, out=num)
        v *= b2
        g *= g
        v += np.multiply(1.0 - b2, g, out=num)
        # Same association as ``lr * m_hat / (sqrt(v_hat) + eps)``:
        # scale by lr *before* dividing, as the scalar form multiplies
        # first left to right.  ``g`` is done with, so it takes v_hat.
        np.divide(m, bias1, out=num)
        np.divide(v, bias2, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        num *= self.lr
        num /= g
        params = self.params
        for name, update in self._updates:
            params[name] -= update
