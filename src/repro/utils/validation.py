"""Small argument-validation helpers used across the library."""

from __future__ import annotations


def check_probability(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")
