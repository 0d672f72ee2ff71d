"""Confidence-accuracy calibration of the detector (Figure 12).

Follows the confidence-calibration procedure the paper cites (Yang et al.,
2023): group detections by confidence, compute the empirical accuracy per
confidence bin, and produce a smoothed estimate of the confidence→accuracy
mapping.  Figure 12 plots that mapping separately for the simulation and the
real-world dataset, per object category and overall.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.perception.scenes import CATEGORIES

#: The confidence levels of Figure 12's x-axis.
DEFAULT_BIN_CENTERS: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


@dataclass
class CalibrationCurve:
    """The confidence→accuracy mapping for one (domain, category) slice."""

    domain: str
    category: str
    bin_centers: np.ndarray
    accuracies: np.ndarray        # empirical accuracy per bin (NaN when empty)
    counts: np.ndarray            # detections per bin
    smoothed: np.ndarray          # kernel-smoothed estimate


def _bin_accuracy(confidences: np.ndarray, correct: np.ndarray, centers: np.ndarray) -> tuple:
    """Empirical accuracy and count per confidence bin (nearest-center binning)."""
    accuracies = np.full(len(centers), np.nan)
    counts = np.zeros(len(centers), dtype=int)
    if confidences.size == 0:
        return accuracies, counts
    assignment = np.argmin(np.abs(confidences[:, None] - centers[None, :]), axis=1)
    for index in range(len(centers)):
        mask = assignment == index
        counts[index] = int(mask.sum())
        if counts[index] > 0:
            accuracies[index] = float(correct[mask].mean())
    return accuracies, counts


def _smooth(confidences: np.ndarray, correct: np.ndarray, centers: np.ndarray, bandwidth: float = 0.12) -> np.ndarray:
    """Nadaraya-Watson (Gaussian-kernel) smoothed accuracy estimate."""
    smoothed = np.full(len(centers), np.nan)
    if confidences.size == 0:
        return smoothed
    for index, center in enumerate(centers):
        weights = np.exp(-0.5 * ((confidences - center) / bandwidth) ** 2)
        total = weights.sum()
        if total > 1e-9:
            smoothed[index] = float((weights * correct).sum() / total)
    return smoothed


def calibration_curve(
    detections,
    *,
    domain: str,
    category: str | None = None,
    bin_centers=DEFAULT_BIN_CENTERS,
) -> CalibrationCurve:
    """Compute the calibration curve of one domain (optionally one category)."""
    centers = np.asarray(bin_centers, dtype=np.float64)
    selected = [d for d in detections if d.domain == domain and (category is None or d.category == category)]
    confidences = np.asarray([d.confidence for d in selected], dtype=np.float64)
    correct = np.asarray([1.0 if d.correct else 0.0 for d in selected], dtype=np.float64)
    accuracies, counts = _bin_accuracy(confidences, correct, centers)
    smoothed = _smooth(confidences, correct, centers)
    return CalibrationCurve(
        domain=domain,
        category=category or "overall",
        bin_centers=centers,
        accuracies=accuracies,
        counts=counts,
        smoothed=smoothed,
    )


@dataclass
class CalibrationComparison:
    """Simulation-vs-real calibration curves for every category plus overall."""

    curves: dict = field(default_factory=dict)   # (domain, category) -> CalibrationCurve

    def curve(self, domain: str, category: str = "overall") -> CalibrationCurve:
        return self.curves[(domain, category)]

    def max_gap(self, category: str = "overall", *, min_count: int = 12) -> float:
        """Largest |sim - real| smoothed-accuracy difference over populated bins.

        Bins with fewer than ``min_count`` detections in either domain are
        ignored — their empirical accuracy is too noisy to compare.
        """
        sim_curve = self.curve("simulation", category)
        real_curve = self.curve("real", category)
        sim, real = sim_curve.smoothed, real_curve.smoothed
        populated = (sim_curve.counts >= min_count) & (real_curve.counts >= min_count)
        valid = populated & ~(np.isnan(sim) | np.isnan(real))
        if not valid.any():
            return float("nan")
        return float(np.max(np.abs(sim[valid] - real[valid])))

    def is_consistent(self, tolerance: float = 0.15, categories=None) -> bool:
        """The paper's Section-5.3 criterion: curves coincide within tolerance."""
        categories = list(categories) if categories is not None else ["overall", *CATEGORIES]
        gaps = [self.max_gap(category) for category in categories]
        return all(np.isnan(gap) or gap <= tolerance for gap in gaps)


def compare_domains(detections, *, bin_centers=DEFAULT_BIN_CENTERS) -> CalibrationComparison:
    """Build the full Figure-12 comparison from a pooled detection list."""
    comparison = CalibrationComparison()
    for domain in ("simulation", "real"):
        comparison.curves[(domain, "overall")] = calibration_curve(detections, domain=domain, bin_centers=bin_centers)
        for category in CATEGORIES:
            comparison.curves[(domain, category)] = calibration_curve(
                detections, domain=domain, category=category, bin_centers=bin_centers
            )
    return comparison
