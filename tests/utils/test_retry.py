"""The shared capped-backoff policy and retry loop."""

import pytest

from repro.utils import RetryPolicy, call_with_retry


class TestRetryPolicy:
    def test_delay_progression_caps_at_max(self):
        policy = RetryPolicy(max_attempts=9)
        assert [policy.delay(n) for n in range(1, 9)] == pytest.approx(
            [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


class TestCallWithRetry:
    def test_succeeds_after_transient_failures(self):
        attempts = []

        def flaky():
            attempts.append(len(attempts))
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return "ok"

        slept = []
        result = call_with_retry(
            flaky,
            policy=RetryPolicy(max_attempts=3),
            sleep=slept.append,
        )
        assert result == "ok"
        assert len(attempts) == 3
        assert slept == [pytest.approx(0.05), pytest.approx(0.1)]

    def test_exhaustion_raises_the_last_error(self):
        def always_fails():
            raise RuntimeError("permanent")

        with pytest.raises(RuntimeError, match="permanent"):
            call_with_retry(
                always_fails,
                policy=RetryPolicy(max_attempts=2),
                sleep=lambda _s: None,
            )

    def test_non_matching_exceptions_propagate_immediately(self):
        calls = []

        def raises_type_error():
            calls.append(1)
            raise TypeError("not retryable")

        with pytest.raises(TypeError):
            call_with_retry(
                raises_type_error,
                policy=RetryPolicy(max_attempts=5),
                retry_on=(RuntimeError,),
                sleep=lambda _s: None,
            )
        assert len(calls) == 1

    def test_on_retry_observes_each_failure(self):
        seen = []

        def fail_twice():
            if len(seen) < 2:
                raise RuntimeError(f"boom {len(seen)}")
            return 42

        result = call_with_retry(
            fail_twice,
            policy=RetryPolicy(max_attempts=3),
            sleep=lambda _s: None,
            on_retry=lambda failures, exc, wait: seen.append((failures, str(exc), wait)),
        )
        assert result == 42
        assert seen == [
            (1, "boom 0", pytest.approx(0.05)),
            (2, "boom 1", pytest.approx(0.1)),
        ]
