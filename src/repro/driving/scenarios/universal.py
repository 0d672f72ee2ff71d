"""The scenario registry: every scenario model, built by name."""

from __future__ import annotations

from repro.automata.transition_system import TransitionSystem
from repro.driving.scenarios.highway_merge import highway_merge_model
from repro.driving.scenarios.left_turn_signal import left_turn_signal_model
from repro.driving.scenarios.pedestrian_crossing import pedestrian_crossing_model
from repro.driving.scenarios.roundabout import roundabout_model
from repro.driving.scenarios.traffic_light import traffic_light_intersection_model
from repro.driving.scenarios.two_way_stop import two_way_stop_model
from repro.driving.scenarios.wide_median import wide_median_model

SCENARIO_BUILDERS = {
    "traffic_light_intersection": traffic_light_intersection_model,
    "left_turn_signal_intersection": left_turn_signal_model,
    "wide_median_intersection": wide_median_model,
    "two_way_stop_intersection": two_way_stop_model,
    "roundabout": roundabout_model,
    "pedestrian_crossing": pedestrian_crossing_model,
    "highway_merge": highway_merge_model,
}


def scenario_model(name: str) -> TransitionSystem:
    """Build one scenario model by name."""
    try:
        return SCENARIO_BUILDERS[name]()
    except KeyError as exc:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(SCENARIO_BUILDERS)}") from exc
