"""Shared utilities: seeded randomness, validation, atomic writes, retries."""

from repro.utils.atomic import write_bytes_atomic, write_text_atomic
from repro.utils.retry import RetryPolicy, call_with_retry
from repro.utils.rng import seeded_rng, spawn_lane_rngs, spawn_rngs
from repro.utils.validation import check_positive, check_probability, check_in_options

__all__ = [
    "seeded_rng",
    "spawn_lane_rngs",
    "spawn_rngs",
    "check_positive",
    "check_probability",
    "check_in_options",
    "write_bytes_atomic",
    "write_text_atomic",
    "RetryPolicy",
    "call_with_retry",
]
