"""Tier-1 gate: the linter runs clean on the codebase's own source.

This is the point of the whole subsystem — the rules encode invariants this
repo has already paid for in real bugs, so a finding here is a regression (or
a new rule that needs either a fix or a reasoned suppression).  The lock-order
graph over serving/ + jobs/ must stay cycle-free for the same reason.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analysis import run_analysis

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def test_repro_source_is_lint_clean():
    report = run_analysis([PACKAGE_ROOT], relative_to=PACKAGE_ROOT.parent)
    formatted = "\n".join(finding.format() for finding in report.findings)
    assert report.clean, f"repro-lint findings on src/repro:\n{formatted}"
    # The gate must actually have analyzed the tree, not an empty directory.
    assert report.files_checked > 50


def test_lock_order_graph_is_cycle_free():
    report = run_analysis([PACKAGE_ROOT], relative_to=PACKAGE_ROOT.parent)
    assert report.lock_cycles == []
    # serving/ and jobs/ both contribute acquisitions to the graph.
    files = {acq.file for acq in report.lock_acquisitions}
    assert any("serving" in f for f in files)
    assert any("jobs" in f for f in files)
