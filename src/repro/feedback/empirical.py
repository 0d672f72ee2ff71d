"""Empirical-evaluation feedback (Section 4.2, "Empirical Evaluation").

When no world model is available, DPO-AF runs the controller in the system
(for us: the simulator in :mod:`repro.sim`), collects finite traces in
``(2^P × 2^PA)^N`` and computes, per specification Φ, the fraction ``P_Φ`` of
traces that satisfy Φ.  The total number of specifications with ``P_Φ`` above
a threshold plays the same ranking role as the formal-verification count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.logic.finite_trace import evaluate_trace


@dataclass(frozen=True)
class EmpiricalFeedback:
    """Trace-based feedback for one controller."""

    task: str
    satisfaction: dict          # spec name -> P_Φ in [0, 1]
    num_traces: int
    threshold: float = 1.0

    @property
    def num_specifications(self) -> int:
        return len(self.satisfaction)

    @property
    def num_satisfied(self) -> int:
        """Specifications whose ``P_Φ`` meets the threshold."""
        return sum(1 for value in self.satisfaction.values() if value >= self.threshold)

    @property
    def mean_satisfaction(self) -> float:
        if not self.satisfaction:
            return 0.0
        return sum(self.satisfaction.values()) / len(self.satisfaction)

    def describe(self) -> str:
        parts = ", ".join(f"{name}={value:.2f}" for name, value in self.satisfaction.items())
        return f"[{self.task}] P_Φ over {self.num_traces} traces: {parts}"


def trace_satisfaction(specifications: Mapping, traces: Sequence) -> dict:
    """``P_Φ`` for every specification over a collection of finite traces."""
    traces = list(traces)
    if not traces:
        raise ValueError("empirical evaluation requires at least one trace")
    out = {}
    for name, formula in specifications.items():
        satisfied = sum(1 for trace in traces if evaluate_trace(formula, trace))
        out[name] = satisfied / len(traces)
    return out


class EmpiricalEvaluator:
    """Evaluates controllers by executing them and checking the traces.

    Parameters
    ----------
    specifications:
        Mapping ``{name: Formula}``.
    grounding:
        The grounding method ``G``: a callable ``(controller, num_traces,
        seed) -> list[trace]`` where each trace is a sequence of symbols
        (sets of propositions ∪ actions).  :class:`repro.sim.executor.
        SimulationGrounding` provides the Carla-substitute implementation.
    threshold:
        ``P_Φ`` at or above which a specification counts as satisfied when
        collapsing the feedback to a single number for ranking.
    """

    def __init__(self, specifications: Mapping, grounding: Callable, *, threshold: float = 1.0):
        self.specifications = dict(specifications)
        self.grounding = grounding
        self.threshold = threshold

    def evaluate_traces(self, traces: Sequence, *, task: str = "") -> EmpiricalFeedback:
        """Feedback from pre-collected traces."""
        satisfaction = trace_satisfaction(self.specifications, traces)
        return EmpiricalFeedback(task=task, satisfaction=satisfaction, num_traces=len(list(traces)), threshold=self.threshold)

    def evaluate_controller(self, controller, *, num_traces: int = 20, seed: int | None = None, task: str = "") -> EmpiricalFeedback:
        """Run the controller through the grounding method and evaluate its traces."""
        traces = self.grounding(controller, num_traces, seed)
        return self.evaluate_traces(traces, task=task or getattr(controller, "name", ""))
