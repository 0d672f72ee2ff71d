"""Per-client admission: all-or-nothing caps, explicit rejections."""

import pytest

from repro.jobs import QuotaExceeded, QuotaLedger


class TestQuotaLedger:
    def test_counts_per_client(self):
        ledger = QuotaLedger()
        ledger.admit("a", 2)
        ledger.admit("b")
        assert ledger.snapshot() == {"a": 2, "b": 1}  # no entry for unknown clients
        ledger.release("a")
        assert ledger.snapshot() == {"a": 1, "b": 1}
        ledger.release("a")
        ledger.release("b")
        assert ledger.snapshot() == {}

    def test_cap_rejects_whole_batch(self):
        ledger = QuotaLedger(max_inflight=3)
        ledger.admit("a", 2)
        with pytest.raises(QuotaExceeded) as excinfo:
            ledger.admit("a", 2)  # 2 + 2 > 3: nothing is reserved
        assert ledger.snapshot() == {"a": 2}
        exc = excinfo.value
        assert (exc.client_id, exc.inflight, exc.requested, exc.limit) == ("a", 2, 2, 3)
        ledger.admit("a")  # exactly at the cap is fine
        assert ledger.snapshot() == {"a": 3}

    def test_caps_are_per_client(self):
        ledger = QuotaLedger(max_inflight=1)
        ledger.admit("a")
        ledger.admit("b")  # a's full quota does not consume b's
        with pytest.raises(QuotaExceeded):
            ledger.admit("a")

    def test_force_bypasses_cap(self):
        # The restart path re-admits already-accepted jobs even when the new
        # daemon was started with a lower cap.
        ledger = QuotaLedger(max_inflight=1)
        ledger.admit("a", 5, force=True)
        assert ledger.snapshot() == {"a": 5}
        with pytest.raises(QuotaExceeded):
            ledger.admit("a")  # new submissions still respect the cap

    def test_uncapped_ledger_still_counts(self):
        ledger = QuotaLedger(max_inflight=None)
        ledger.admit("a", 10_000)
        assert ledger.snapshot() == {"a": 10_000}

    def test_validation(self):
        with pytest.raises(ValueError):
            QuotaLedger(max_inflight=0)
        ledger = QuotaLedger()
        with pytest.raises(ValueError):
            ledger.admit("a", 0)
        with pytest.raises(ValueError):
            ledger.release("a", 1)  # nothing inflight to release
        ledger.admit("a")
        with pytest.raises(ValueError):
            ledger.release("a", 2)
