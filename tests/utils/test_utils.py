"""Tests for shared utilities."""

import dataclasses

import numpy as np
import pytest

from repro.utils import check_probability, seeded_rng, spawn_rngs
from repro.utils.serialization import dump_json, load_json, to_jsonable


class TestRng:
    def test_seeded_rng_reproducible(self):
        assert seeded_rng(5).integers(1000) == seeded_rng(5).integers(1000)

    def test_passthrough_generator(self):
        generator = np.random.default_rng(0)
        assert seeded_rng(generator) is generator

    def test_spawn_rngs_independent_and_reproducible(self):
        first = [r.integers(1000) for r in spawn_rngs(7, 3)]
        second = [r.integers(1000) for r in spawn_rngs(7, 3)]
        assert first == second
        assert len(set(first)) > 1

    def test_spawn_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestValidation:
    def test_check_probability(self):
        check_probability("p", 0.5)
        with pytest.raises(ValueError):
            check_probability("p", 1.5)


class TestSerialization:
    def test_to_jsonable_handles_numpy_sets_dataclasses(self):
        @dataclasses.dataclass
        class Point:
            x: int
            values: np.ndarray

        payload = to_jsonable({"point": Point(1, np.array([1.5, 2.5])), "tags": {"b", "a"}, "n": np.int64(3)})
        assert payload["point"]["values"] == [1.5, 2.5]
        assert payload["tags"] == ["a", "b"]
        assert payload["n"] == 3

    def test_dump_and_load_roundtrip(self, tmp_path):
        path = dump_json({"a": np.float64(1.5)}, tmp_path / "sub" / "data.json")
        assert load_json(path) == {"a": 1.5}
