"""The benchmark's harness still runs against this source tree.

``perfbench/`` (the benchmark ``BENCHMARK.json`` declares) reaches the
program by name: ``ModelChecker(result_cache_size=0)``,
``ModelChecker.verify_controller`` and ``ResultCache.get`` (which its probe
wraps), ``BuchiMemo.stats()["hits_disk"]`` and more.  A change under
``src/`` that drops one fails every benchmark run, and nothing else in
tier-1 imports ``perfbench/``.  These tests load its workloads and probe
in-process, run the first batches of ``feedback_serve`` under the probe with
its correctness gates, and build the pipeline ``paper_e2e`` measures.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: ``feedback_serve`` batches scored: enough for the gates' 24-response
#: sample and the repeat check's 4 batches.
BATCHES = 4


def load(name: str):
    """``perfbench/<name>.py`` as a module, under a name no test shares."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_feedback_serve_runs_under_the_probe_and_passes_its_gates(tmp_path):
    workloads, probe = load("workloads"), load("probe")
    workload = workloads.FeedbackServe(0, 0.0, tmp_path)
    workload.batches = workload.batches[:BATCHES]
    layer_probe = probe.LayerProbe()
    service = workload.setup()
    try:
        with layer_probe.active():
            outcome = workload.measure(service)
        gates = workload.gates(service, outcome)
    finally:
        workload.close(service)
    assert layer_probe.restored()
    assert (outcome.responses, outcome.failed) == (BATCHES * workload.BATCH, 0)
    assert gates and all(gates.values()), gates
    assert workload.repeats(outcome)
    metrics = layer_probe.layer_metrics()
    assert layer_probe.calls["glm2fsa.parse"] > 0
    assert set(metrics) >= {"modelcheck.memo_hit_frac", "modelcheck.result_cache_hit_frac"}


def test_the_paper_pipeline_builds():
    pipeline = load("workloads").build_pipeline(0, None)
    pipeline.close()
