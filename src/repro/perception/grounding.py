"""Perception-in-the-loop grounding: noisy observation filters for the simulator.

Section 5.3's argument is that the controller's decisions depend only on
visual observations; if the vision model behaves consistently in simulation
and reality the verified controller transfers.  This module closes that loop
inside the reproduction: it turns the perfect observations of the simulator
into *detected* observations with miss / false-positive noise derived from the
simulated detector, and plugs into
:class:`repro.sim.executor.ControllerExecutor` as its ``observation_filter``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.driving.propositions import DRIVING_PROPOSITIONS, PEDESTRIAN_PROPOSITIONS
from repro.utils.validation import check_probability

#: Which detector category each proposition's evidence comes from.
PROPOSITION_CATEGORY: dict = {
    "green_traffic_light": "traffic_light",
    "green_left_turn_light": "traffic_light",
    "flashing_left_turn_light": "traffic_light",
    "opposite_car": "car",
    "car_from_left": "car",
    "car_from_right": "car",
    "pedestrian_at_left": "pedestrian",
    "pedestrian_at_right": "pedestrian",
    "pedestrian_in_front": "pedestrian",
    "stop_sign": "traffic_light",
    "pedestrian": "pedestrian",
}


@dataclass
class PerceptionNoiseModel:
    """Per-category miss and false-positive rates of the perception stack."""

    miss_rate: dict = field(default_factory=lambda: {"car": 0.04, "pedestrian": 0.06, "traffic_light": 0.05})
    false_positive_rate: dict = field(default_factory=lambda: {"car": 0.01, "pedestrian": 0.01, "traffic_light": 0.01})

    def __post_init__(self) -> None:
        for name, table in (("miss_rate", self.miss_rate), ("false_positive_rate", self.false_positive_rate)):
            for category, value in table.items():
                check_probability(f"{name}[{category}]", value)

    def __call__(self, observations: frozenset, rng: np.random.Generator) -> frozenset:
        """Apply misses and false positives to a true observation set."""
        detected = set()
        for proposition in observations:
            category = PROPOSITION_CATEGORY.get(proposition, "car")
            if rng.random() >= self.miss_rate.get(category, 0.0):
                detected.add(proposition)
        for proposition in DRIVING_PROPOSITIONS:
            if proposition in observations or proposition == "pedestrian":
                continue
            category = PROPOSITION_CATEGORY.get(proposition, "car")
            if rng.random() < self.false_positive_rate.get(category, 0.0):
                detected.add(proposition)
        # Keep the derived "any pedestrian" proposition consistent.
        if detected & set(PEDESTRIAN_PROPOSITIONS):
            detected.add("pedestrian")
        else:
            detected.discard("pedestrian")
        return frozenset(detected)
