# Convenience targets matching the ROADMAP's canonical commands.
#
#   make tier1            repro-lint + fast unit/integration suite (what CI
#                         gates on), under `python -X dev` (debug-mode
#                         warnings, unclosed-file checks); tier1, slow and
#                         the bench targets pin BLAS threads and the hash
#                         seed (PINNED below)
#   make slow             the slow-marked tests tier-1 deselects: long fuzz
#                         sweeps and the paper-scale headline claim on seeds
#                         0-2 (~20 s per seed)
#   make lint             AST lint + lock-order analysis of src/repro
#                         (repro-lint; also runs as a tier-1 test)
#   make bench            paper-figure + serving benchmarks (CPU-minutes);
#                         the multicore-marked jobs-daemon overhead ratio is
#                         excluded — it also auto-skips on single-core hosts
#                         via benchmarks/conftest.py
#   make bench-multicore  only the multicore-marked jobs-daemon overhead
#                         ratio (needs >= 2 CPU cores; it skips itself
#                         otherwise)
#   make bench-modelcheck cold verification throughput: optimized checker vs
#                         the naive reference; asserts the >= 5x floor and
#                         verdict equality (see docs/modelcheck.md)
#   make bench-lm         LM decoding tokens/s (serial vs KV-cached vs
#                         batched; asserts the >= 3x floor on bitwise-
#                         identical sampled tokens) + DPO pairs/s, written
#                         to runs/bench_lm.json (see docs/lm.md)
#   make perfbench        the end-to-end + per-layer benchmark: every
#                         workload, untraced then traced, with its
#                         correctness gates (see perfbench/README.md)
#   make trace-demo       traced quick-pipeline run -> runs/quick.trace.json
#                         (load it in https://ui.perfetto.dev) plus the
#                         terminal report (stage breakdown with the model
#                         checker's spans, serving and process summaries)
#   make jobs-demo        durable-jobs daemon demo: submit a batch, kill -9
#                         the daemon mid-batch, restart, verify every job
#                         finished exactly once with one-shot-identical
#                         scores (see docs/jobs.md)

PYTHON ?= python
PYTEST := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON) -m pytest
# Tier-1 runs in development mode (debug warnings, unclosed-file checks);
# benchmarks never do, since it slows them.
PYTEST_DEV := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON) -X dev -m pytest
PYRUN := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON)
# One BLAS thread and a fixed hash seed, set before NumPy loads, as
# perfbench/run.py sets them: paper-scale outputs depend on the BLAS thread
# count (seed 0's pretraining digest is af8445a8ba99366f at 2 threads and
# 2fc96f261274be38 at 1), so unpinned suites check a different program on
# hosts with more cores.
PINNED := OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
	VECLIB_MAXIMUM_THREADS=1 NUMEXPR_NUM_THREADS=1 PYTHONHASHSEED=0

.PHONY: tier1 slow lint bench bench-multicore bench-modelcheck bench-lm perfbench trace-demo jobs-demo

lint:
	$(PYRUN) -m repro.analysis.cli src/repro

tier1: lint
	$(PINNED) $(PYTEST_DEV) -x -q

slow:
	$(PINNED) $(PYTEST) tests -q -m slow

bench:
	$(PINNED) $(PYTEST) benchmarks -q -s -m "not multicore"

bench-multicore:
	$(PINNED) $(PYTEST) benchmarks -q -s -m multicore

bench-modelcheck:
	$(PINNED) $(PYTEST) benchmarks/test_bench_modelcheck.py -q -s

bench-lm:
	$(PINNED) $(PYTEST) benchmarks/test_bench_lm.py -q -s

perfbench:
	$(PYTHON) perfbench/all.py --seed 0 --seconds 20 --trace 1

trace-demo:
	$(PYRUN) examples/trace_demo.py runs/quick.trace.json

jobs-demo:
	$(PYRUN) examples/jobs_demo.py runs/jobs-demo
