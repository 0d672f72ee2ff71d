"""The fast examples run to completion.

Each example runs as its own process, the way a reader runs it
(``PYTHONPATH=src python examples/<name>.py``), from a scratch working
directory so nothing it writes lands in the checkout.  The slow or
process-killing examples stay out: ``finetune_driving`` trains at paper scale,
``jobs_demo`` kills a daemon (``make jobs-demo`` runs it) and ``trace_demo``
is ``make trace-demo``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

FAST_EXAMPLES = (
    "quickstart",
    "right_turn_verification",
    "serve_feedback",
    "simulator_rollout",
    "sim2real_perception",
)


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_exits_cleanly(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "TMPDIR": str(tmp_path)}
    completed = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / f"{name}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, f"{name} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
