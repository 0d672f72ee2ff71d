"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_e2e --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same work twice, untraced and then traced (the
program's own spans plus the wrappers of :mod:`probe`), and reports the
per-layer metrics.  Every run checks its workload's correctness gates.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the host,
the gates and every metric with its unit and sample count.
"""

from __future__ import annotations

import os
import sys

#: Pinned before NumPy is imported, so runs on one host compare.  BLAS
#: threading changes the arithmetic's summation order, and with it the
#: results.  String hashing orders the sets that LTL→Büchi translation walks:
#: with a random hash seed per process, set-up alone varied from 6 to 11 ms
#: between processes on one host.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    # The hash seed is read at interpreter start-up: restart this process
    # (same PID, no child) with the pinned environment.
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from probe import LayerProbe  # noqa: E402
from workloads import CORE_STAGES, PROPERTIES, WORKLOADS, cpu_count  # noqa: E402
from repro.modelcheck.fastpath import automata_memo  # noqa: E402

#: Set-ups timed before the measured phase, after it, and after the repeat check.
SETUP_GROUPS = (5, 5, 5)


def host_fingerprint() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "env": {name: os.environ.get(name) for name in PINNED_ENV},
        "machine": platform.machine(),
    }


def end_to_end_metrics(setup_times: list, outcome) -> dict:
    """``{name: (value, unit, samples)}`` for every end-to-end metric."""
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "run_s": (outcome.run_s, "s", 1),
        "responses_per_s": (outcome.responses / outcome.run_s, "1/s", outcome.responses),
        "batch_p50_ms": (float(np.percentile(outcome.batch_ms, 50)), "ms", len(outcome.batch_ms)),
        "batch_p90_ms": (float(np.percentile(outcome.batch_ms, 90)), "ms", len(outcome.batch_ms)),
        "spec_satisfaction": (outcome.spec_satisfaction, "ratio", 1),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def per_layer_metrics(workload, probe: LayerProbe, base, traced) -> dict:
    """``{name: (value, unit, samples)}`` for every per-layer metric."""
    metrics = {name: (value, unit, 1) for name, (value, unit) in probe.layer_metrics().items()}
    for stage in CORE_STAGES:
        metrics[f"core.{stage}_s"] = (traced.core.get(stage, 0.0), "s", 1)
    unattributed = traced.run_s - sum(traced.core.values()) if traced.core else 0.0
    metrics["core.unattributed_s"] = (unattributed, "s", 1)
    metrics["obs.trace_overhead_frac"] = (traced.run_s / base.run_s - 1.0, "ratio", 1)
    properties = workload.properties()
    for name, unit in PROPERTIES.items():
        metrics[name] = (properties.get(name, 0.0), unit, 1)
    return metrics


def run(args, workdir: Path) -> tuple:
    """Set up, measure and check one workload; returns ``(gates, metrics, attempted, failed)``."""
    workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    probe = LayerProbe() if args.trace else None
    setup_times = []

    def set_up():
        automata_memo().clear()  # every set-up starts from a cold Büchi memo
        start = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - start)
        return state

    def set_up_and_close(count: int) -> None:
        for _ in range(count):
            workload.close(set_up())

    # Set-ups are timed in groups spread over the run (before the measured
    # phase, after it, after the repeat check): the host's speed drifts over
    # seconds, and back-to-back set-ups would all time one moment.
    before, after_measure, after_repeat = SETUP_GROUPS
    set_up_and_close(before - 1)
    state = set_up()
    try:
        base = workload.measure(state)
        gates = workload.gates(state, base)
    finally:
        workload.close(state)
    set_up_and_close(after_measure)
    gates["seeded_slice_repeats"] = workload.repeats(base)
    set_up_and_close(after_repeat)
    attempted, failed = base.responses, base.failed
    if not args.trace:
        return gates, end_to_end_metrics(setup_times, base), attempted, failed

    state = workload.setup(tracing=True)
    try:
        with probe.active():
            traced = workload.measure(state)
    finally:
        workload.close(state)
    gates["traced_matches_untraced"] = (traced.spec_satisfaction, traced.pairs, traced.digest) == (
        base.spec_satisfaction,
        base.pairs,
        base.digest,
    )
    gates["wrappers_restored"] = probe.restored()
    return gates, per_layer_metrics(workload, probe, base, traced), attempted + traced.responses, failed + traced.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("host", json.dumps(host_fingerprint(), sort_keys=True), flush=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".run-") as workdir:
        gates, metrics, attempted, failed = run(args, Path(workdir))
    print("gates", json.dumps(gates, sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit:6s} n={samples}")
    print(
        json.dumps(
            {
                "correct": all(gates.values()),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
