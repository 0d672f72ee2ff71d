"""Scenario world models for the autonomous-driving system (Figures 5, 6, 15-17)."""

from repro.driving.scenarios.highway_merge import highway_merge_model
from repro.driving.scenarios.left_turn_signal import left_turn_signal_model
from repro.driving.scenarios.pedestrian_crossing import pedestrian_crossing_model
from repro.driving.scenarios.roundabout import roundabout_model
from repro.driving.scenarios.traffic_light import traffic_light_intersection_model
from repro.driving.scenarios.two_way_stop import two_way_stop_model
from repro.driving.scenarios.universal import SCENARIO_BUILDERS, scenario_model
from repro.driving.scenarios.wide_median import wide_median_model

__all__ = [
    "highway_merge_model",
    "left_turn_signal_model",
    "pedestrian_crossing_model",
    "roundabout_model",
    "traffic_light_intersection_model",
    "two_way_stop_model",
    "SCENARIO_BUILDERS",
    "scenario_model",
    "wide_median_model",
]
