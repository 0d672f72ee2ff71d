"""System-modeling helpers (Algorithm 1 applied to the driving domain)."""

from __future__ import annotations

from typing import Iterable

from repro.automata.transition_system import TransitionSystem, build_model_from_system
from repro.driving.propositions import DRIVING_VOCABULARY


def conservative_driving_model(propositions: Iterable[str], *, name: str = "conservative_model") -> TransitionSystem:
    """Algorithm 1's conservative construction over a subset of the driving propositions.

    Builds one state per subset of ``propositions`` and connects every pair of
    states — the variant the paper notes "can avoid potential missing
    transitions but will significantly increase the computation cost".  Used
    by the model-granularity ablation benchmark.
    """
    return build_model_from_system(
        propositions,
        lambda _a, _b: True,
        name=name,
        conservative=True,
        vocabulary=DRIVING_VOCABULARY,
    )
