"""Optimizers for the numpy language model."""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.lm.layers import Parameter


class Adam:
    """Adam optimizer over a fixed set of :class:`Parameter` objects.

    Only the parameters that are ``trainable`` when the optimizer is built are
    kept — zeroed, clipped, updated and given moment buffers — which is how
    LoRA fine-tuning freezes the base model while adapting the low-rank
    matrices.
    """

    def __init__(
        self,
        parameters: list,
        *,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        max_grad_norm: float | None = 1.0,
    ):
        if learning_rate <= 0:
            raise TrainingError(f"learning_rate must be positive, got {learning_rate}")
        self.parameters = [p for p in parameters if isinstance(p, Parameter) and p.trainable]
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
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
        """Clip trainable gradients to ``max_grad_norm``; returns the pre-clip norm."""
        norm = self.grad_norm()
        if self.max_grad_norm is not None and norm > self.max_grad_norm > 0:
            scale = self.max_grad_norm / (norm + 1e-12)
            for param in self.parameters:
                param.grad *= scale
        return norm

    def step(self) -> float:
        """Apply one Adam update; returns the (pre-clip) gradient norm."""
        norm = self.clip_gradients()
        self.step_count += 1
        bias1 = 1.0 - self.beta1 ** self.step_count
        bias2 = 1.0 - self.beta2 ** self.step_count
        for i, param in enumerate(self.parameters):
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.value
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * grad ** 2
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            param.value -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
            param.bump()
        return norm
