"""Tests for synthetic scenes, the simulated detector, and calibration."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.perception import (
    CATEGORIES,
    PerceptionNoiseModel,
    SimulatedDetector,
    WEATHER_CONDITIONS,
    calibration_curve,
    compare_domains,
    detection_accuracy,
    generate_dataset,
    generate_scene,
)
from repro.utils.rng import seeded_rng


class TestScenes:
    def test_scene_has_objects(self):
        scene = generate_scene("simulation", seed=0)
        assert len(scene) >= 2
        assert all(obj.category in CATEGORIES for obj in scene.objects)

    def test_weather_selection(self):
        scene = generate_scene("real", weather="rain", seed=0)
        assert scene.weather == "rain"

    def test_invalid_domain_and_weather(self):
        with pytest.raises(SimulationError):
            generate_scene("cartoon", seed=0)
        with pytest.raises(SimulationError):
            generate_scene("real", weather="hurricane", seed=0)

    def test_dataset_size(self):
        assert len(generate_dataset("simulation", 25, seed=0)) == 25
        with pytest.raises(SimulationError):
            generate_dataset("simulation", 0)

    def test_real_domain_is_harder_on_average(self):
        sim = generate_dataset("simulation", 200, seed=0)
        real = generate_dataset("real", 200, seed=0)
        sim_visibility = np.mean([o.visibility() for s in sim for o in s.objects])
        real_visibility = np.mean([o.visibility() for s in real for o in s.objects])
        assert real_visibility < sim_visibility

    def test_weather_conditions_cover_figure13(self):
        assert set(WEATHER_CONDITIONS) == {"sunny", "cloudy", "rain", "night"}


class TestDetector:
    def test_detections_have_confidences_in_range(self):
        detector = SimulatedDetector()
        detections = detector.detect_dataset(generate_dataset("simulation", 30, seed=0), seed=1)
        assert detections
        assert all(0.0 < d.confidence < 1.0 for d in detections)

    def test_higher_confidence_means_higher_accuracy(self):
        detector = SimulatedDetector()
        detections = detector.detect_dataset(generate_dataset("real", 400, seed=0), seed=1)
        high = [d for d in detections if d.confidence > 0.6]
        low = [d for d in detections if d.confidence < 0.3]
        assert detection_accuracy(high) > detection_accuracy(low)

    def test_night_weather_reduces_accuracy(self):
        detector = SimulatedDetector()
        sunny = detector.detect_dataset(generate_dataset("real", 250, weather="sunny", seed=0), seed=1)
        night = detector.detect_dataset(generate_dataset("real", 250, weather="night", seed=0), seed=1)
        assert detection_accuracy(night) < detection_accuracy(sunny)

    def test_detection_accuracy_empty(self):
        assert detection_accuracy([]) == 0.0


class TestCalibration:
    @pytest.fixture(scope="class")
    def detections(self):
        detector = SimulatedDetector()
        scenes = generate_dataset("simulation", 500, seed=0) + generate_dataset("real", 500, seed=1)
        return detector.detect_dataset(scenes, seed=2)

    def test_curve_shape(self, detections):
        curve = calibration_curve(detections, domain="simulation")
        assert len(curve.bin_centers) == 7

    def test_curves_are_increasing_overall(self, detections):
        curve = calibration_curve(detections, domain="real")
        smoothed = curve.smoothed[~np.isnan(curve.smoothed)]
        assert smoothed[-1] > smoothed[0]

    def test_figure12_consistency(self, detections):
        comparison = compare_domains(detections)
        assert comparison.is_consistent(tolerance=0.15)
        assert comparison.max_gap("overall") < 0.15

    def test_all_categories_present(self, detections):
        comparison = compare_domains(detections)
        for domain in ("simulation", "real"):
            for category in ("overall", *CATEGORIES):
                assert (domain, category) in comparison.curves

    def test_inconsistent_detector_is_flagged(self):
        """A detector with a large domain gap must fail the consistency check."""
        detector = SimulatedDetector(domain_gap=4.0)
        scenes = generate_dataset("simulation", 300, seed=0) + generate_dataset("real", 300, seed=1)
        comparison = compare_domains(detector.detect_dataset(scenes, seed=2))
        assert not comparison.is_consistent(tolerance=0.15)


class TestPerceptionNoise:
    def test_noise_model_probabilities_validated(self):
        with pytest.raises(ValueError):
            PerceptionNoiseModel(miss_rate={"car": 1.4})

    def test_misses_and_false_positives(self):
        noise = PerceptionNoiseModel(miss_rate={"car": 1.0, "pedestrian": 0.0, "traffic_light": 0.0},
                                     false_positive_rate={"car": 0.0, "pedestrian": 0.0, "traffic_light": 0.0})
        rng = seeded_rng(0)
        detected = noise(frozenset({"car_from_left", "pedestrian_at_right", "pedestrian"}), rng)
        assert "car_from_left" not in detected          # always missed
        assert "pedestrian_at_right" in detected        # never missed
        assert "pedestrian" in detected                 # derived proposition maintained

    def test_derived_pedestrian_removed_when_no_evidence(self):
        noise = PerceptionNoiseModel(miss_rate={"car": 0.0, "pedestrian": 1.0, "traffic_light": 0.0},
                                     false_positive_rate={"car": 0.0, "pedestrian": 0.0, "traffic_light": 0.0})
        detected = noise(frozenset({"pedestrian_at_right", "pedestrian"}), seeded_rng(0))
        assert "pedestrian" not in detected
