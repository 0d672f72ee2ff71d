# Convenience targets matching the ROADMAP's canonical commands.
#
#   make tier1            repro-lint + fast unit/integration suite (what CI
#                         gates on)
#   make slow             the slow-marked tests tier-1 deselects: long fuzz
#                         sweeps and the paper-scale headline claim on seeds
#                         0-2 (~20 s per seed)
#   make lint             AST lint + lock-order analysis of src/repro
#                         (repro-lint; also runs as a tier-1 test)
#   make bench            paper-figure + serving benchmarks (CPU-minutes);
#                         multicore-marked speedup assertions are excluded —
#                         they also auto-skip on single-core hosts via
#                         benchmarks/conftest.py
#   make bench-multicore  only the multicore speedup assertions (needs >= 2
#                         CPU cores; they skip themselves otherwise)
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
#                         terminal report (hottest specs, stage breakdown)
#   make jobs-demo        durable-jobs daemon demo: submit a batch, kill -9
#                         the daemon mid-batch, restart, verify every job
#                         finished exactly once with one-shot-identical
#                         scores (see docs/jobs.md)

PYTHON ?= python
PYTEST := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON) -m pytest
PYRUN := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON)

.PHONY: tier1 slow lint bench bench-multicore bench-modelcheck bench-lm perfbench trace-demo jobs-demo

lint:
	$(PYRUN) -m repro.analysis.cli src/repro

tier1: lint
	$(PYTEST) -x -q

slow:
	$(PYTEST) tests -q -m slow

bench:
	$(PYTEST) benchmarks -q -s -m "not multicore"

bench-multicore:
	$(PYTEST) benchmarks -q -s -m multicore

bench-modelcheck:
	$(PYTEST) benchmarks/test_bench_modelcheck.py -q -s

bench-lm:
	$(PYTEST) benchmarks/test_bench_lm.py -q -s

perfbench:
	$(PYTHON) perfbench/all.py --seed 0 --seconds 20 --trace 1

trace-demo:
	$(PYRUN) examples/trace_demo.py runs/quick.trace.json

jobs-demo:
	$(PYRUN) examples/jobs_demo.py runs/jobs-demo
