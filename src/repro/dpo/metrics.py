"""Training-curve containers and multi-seed aggregation (Figure 8)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class TrainingHistory:
    """Per-descent-step metrics of one DPO run."""

    losses: list = field(default_factory=list)
    accuracies: list = field(default_factory=list)
    marginal_preferences: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    epoch_boundaries: list = field(default_factory=list)  # step index at the end of each epoch

    def record(self, metrics, grad_norm: float = 0.0) -> None:
        self.losses.append(metrics.loss)
        self.accuracies.append(metrics.accuracy)
        self.marginal_preferences.append(metrics.marginal_preference)
        self.grad_norms.append(grad_norm)

    def mark_epoch(self) -> None:
        self.epoch_boundaries.append(len(self.losses))

    @property
    def num_steps(self) -> int:
        return len(self.losses)

    @property
    def num_epochs(self) -> int:
        return len(self.epoch_boundaries)

    def final(self) -> dict:
        """The last recorded value of every metric."""
        return {
            "loss": self.losses[-1] if self.losses else float("nan"),
            "accuracy": self.accuracies[-1] if self.accuracies else float("nan"),
            "marginal_preference": self.marginal_preferences[-1] if self.marginal_preferences else float("nan"),
        }

    def smoothed(self, metric: str, window: int = 10) -> np.ndarray:
        """Moving average of one metric (for readable console tables)."""
        values = np.asarray(getattr(self, metric), dtype=np.float64)
        if values.size == 0 or window <= 1:
            return values
        kernel = np.ones(min(window, values.size)) / min(window, values.size)
        return np.convolve(values, kernel, mode="valid")


@dataclass
class MultiSeedCurves:
    """Aggregate of several seeds' training histories (mean / min / max per step).

    Figure 8 plots the mean over five seeds with shading between the minimum
    and maximum values; this container computes exactly those series.
    """

    histories: list = field(default_factory=list)

    def add(self, history: TrainingHistory) -> None:
        self.histories.append(history)

    def _stack(self, metric: str) -> np.ndarray:
        series = [np.asarray(getattr(h, metric), dtype=np.float64) for h in self.histories]
        if not series:
            return np.zeros((0, 0))
        length = min(len(s) for s in series)
        return np.stack([s[:length] for s in series])

    def mean(self, metric: str) -> np.ndarray:
        stacked = self._stack(metric)
        return stacked.mean(axis=0) if stacked.size else stacked

    def minimum(self, metric: str) -> np.ndarray:
        stacked = self._stack(metric)
        return stacked.min(axis=0) if stacked.size else stacked

    def maximum(self, metric: str) -> np.ndarray:
        stacked = self._stack(metric)
        return stacked.max(axis=0) if stacked.size else stacked

    def summary_table(self, metric: str, *, every: int = 10) -> list:
        """Rows ``(step, mean, min, max)`` sampled every ``every`` steps."""
        mean = self.mean(metric)
        low = self.minimum(metric)
        high = self.maximum(metric)
        rows = []
        for step in range(0, len(mean), every):
            rows.append((step, float(mean[step]), float(low[step]), float(high[step])))
        if len(mean) and (len(mean) - 1) % every != 0:
            step = len(mean) - 1
            rows.append((step, float(mean[step]), float(low[step]), float(high[step])))
        return rows
