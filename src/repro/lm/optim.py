"""Optimizers for the numpy language model."""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.lm.layers import Parameter

#: Adam's moment decay rates and denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
#: Global L2 norm the trainable gradients are clipped to before each step.
MAX_GRAD_NORM = 1.0


class Adam:
    """Adam optimizer over a fixed set of :class:`Parameter` objects.

    Only the parameters that are ``trainable`` when the optimizer is built are
    kept — zeroed, clipped, updated and given moment buffers — which is how
    LoRA fine-tuning freezes the base model while adapting the low-rank
    matrices.
    """

    def __init__(self, parameters: list, *, learning_rate: float = 1e-3):
        if learning_rate <= 0:
            raise TrainingError(f"learning_rate must be positive, got {learning_rate}")
        self.parameters = [p for p in parameters if isinstance(p, Parameter) and p.trainable]
        self.learning_rate = learning_rate
        self.step_count = 0
        self._m = [np.zeros_like(p.value) for p in self.parameters]
        self._v = [np.zeros_like(p.value) for p in self.parameters]

    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def grad_norm(self) -> float:
        """Global L2 norm of the trainable gradients."""
        total = 0.0
        for param in self.parameters:
            total += float((param.grad ** 2).sum())
        return float(np.sqrt(total))

    def clip_gradients(self) -> float:
        """Clip trainable gradients to :data:`MAX_GRAD_NORM`; returns the pre-clip norm."""
        norm = self.grad_norm()
        if norm > MAX_GRAD_NORM:
            scale = MAX_GRAD_NORM / (norm + 1e-12)
            for param in self.parameters:
                param.grad *= scale
        return norm

    def step(self) -> float:
        """Apply one Adam update; returns the (pre-clip) gradient norm."""
        norm = self.clip_gradients()
        self.step_count += 1
        bias1 = 1.0 - BETA1 ** self.step_count
        bias2 = 1.0 - BETA2 ** self.step_count
        for i, param in enumerate(self.parameters):
            grad = param.grad
            self._m[i] = BETA1 * self._m[i] + (1.0 - BETA1) * grad
            self._v[i] = BETA2 * self._v[i] + (1.0 - BETA2) * grad ** 2
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            param.value -= self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
            param.bump()
        return norm
