"""Simulated perception: scenes, detector, calibration, noisy grounding."""

from repro.perception.calibration import (
    CalibrationComparison,
    CalibrationCurve,
    DEFAULT_BIN_CENTERS,
    calibration_curve,
    compare_domains,
)
from repro.perception.detector import Detection, SimulatedDetector, detection_accuracy
from repro.perception.grounding import PerceptionNoiseModel
from repro.perception.scenes import (
    CATEGORIES,
    Scene,
    SceneObject,
    WEATHER_CONDITIONS,
    generate_dataset,
    generate_scene,
)

__all__ = [
    "CalibrationComparison",
    "CalibrationCurve",
    "DEFAULT_BIN_CENTERS",
    "calibration_curve",
    "compare_domains",
    "Detection",
    "SimulatedDetector",
    "detection_accuracy",
    "PerceptionNoiseModel",
    "CATEGORIES",
    "Scene",
    "SceneObject",
    "WEATHER_CONDITIONS",
    "generate_dataset",
    "generate_scene",
]
