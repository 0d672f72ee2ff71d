"""The 15 LTL traffic-rule specifications from Appendix C of the paper.

Each specification is a formula over the driving propositions and actions.
``SPECIFICATIONS`` preserves the paper's numbering (Φ1 ... Φ15);
``CORE_SPECIFICATIONS`` is the subset Φ1-Φ5 highlighted in Section 5.1 and
used for the empirical-evaluation figure (Figure 11).
"""

from __future__ import annotations

from repro.logic.ast import Formula
from repro.logic.parser import parse_ltl

#: Φ1 ... Φ15, in the paper's order, as parseable LTL strings.
SPECIFICATION_TEXTS: dict = {
    "phi_1": "G( pedestrian -> F stop )",
    "phi_2": "G( (opposite_car & !green_left_turn_light) -> !turn_left )",
    "phi_3": "G( !green_traffic_light -> !go_straight )",
    "phi_4": "G( stop_sign -> F stop )",
    "phi_5": "G( (car_from_left | pedestrian_at_right) -> !turn_right )",
    "phi_6": "G( stop | go_straight | turn_left | turn_right )",
    "phi_7": "F( green_traffic_light | green_left_turn_light ) -> F !stop",
    "phi_8": "G( !green_traffic_light -> F stop )",
    "phi_9": "G( car_from_left -> !(turn_left | turn_right) )",
    "phi_10": "G( green_traffic_light -> F !stop )",
    "phi_11": "G( (turn_right & !green_traffic_light) -> !car_from_left )",
    "phi_12": "G( (turn_left & !green_left_turn_light) -> (!car_from_right & !car_from_left & !opposite_car) )",
    "phi_13": "G( (stop_sign & !car_from_left & !car_from_right) -> F !stop )",
    "phi_14": "G( go_straight -> !pedestrian_in_front )",
    "phi_15": "G( (turn_right & stop_sign) -> !car_from_left )",
}


def specification(name: str) -> Formula:
    """Parse one named specification (``"phi_1"`` ... ``"phi_15"``)."""
    return parse_ltl(SPECIFICATION_TEXTS[name])


def all_specifications() -> dict:
    """All 15 specifications as ``{name: Formula}`` in paper order."""
    return {name: parse_ltl(text) for name, text in SPECIFICATION_TEXTS.items()}


#: Names of the first five specifications used in Section 5.1 / Figure 11.
CORE_SPECIFICATION_NAMES: tuple = ("phi_1", "phi_2", "phi_3", "phi_4", "phi_5")


def core_specifications() -> dict:
    """Φ1 ... Φ5 as ``{name: Formula}``."""
    return {name: specification(name) for name in CORE_SPECIFICATION_NAMES}
