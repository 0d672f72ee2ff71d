"""Two-process training steps against the one-process loop.

``repro.lm.shards.TrainingShards`` splits each step's length groups between
the caller and one forked worker.  The one-process path is reached through
the core-count check (``os.sched_getaffinity``), so every comparison here is
the same code on one process and on two.  Losses, weights and checkpoints
must agree bitwise, the worker must never outlive its training call, and a
worker that dies must raise ``TrainingError`` rather than hang.  The heap
policy the loop fixes on entry must keep steady-state steps from faulting
their memory in again, in both processes.
"""

import ctypes
import itertools
import os
import resource
import signal
import subprocess
import sys
import textwrap
import time
import types
from pathlib import Path

import numpy as np
import pytest

from repro.core import DPOAFPipeline
from repro.core.config import quick_pipeline_config
from repro.dpo import run_dpo
from repro.driving import core_specifications, training_tasks
from repro.errors import TrainingError
from repro.lm import apply_lora, pretrain, shards
from repro.lm.corpus import build_corpus
from repro.lm.optim import Adam
from repro.lm.pretrain import PretrainConfig, encode_documents
from repro.lm.shards import TrainingShards, fix_heap_policy, split_groups, worker_available
from repro.lm.transformer import _GROUP_COST_CELLS, plan_length_groups, target_widths
from repro.obs import tracer as obs
from repro.obs.tracer import Tracer

REPO = Path(__file__).resolve().parents[2]

needs_two_cores = pytest.mark.skipif(not worker_available(), reason="the worker needs fork and two usable cores")


def one_core(monkeypatch) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not worker_available()


def counting_forks(monkeypatch) -> list:
    """Record the pid of every worker a TrainingShards forks."""
    pids = []
    fork = TrainingShards._fork

    def recording(self):
        fork(self)
        pids.append(self._pid)

    monkeypatch.setattr(TrainingShards, "_fork", recording)
    return pids


def assert_reaped(pid: int) -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def quick_corpus(seed: int = 0):
    config = quick_pipeline_config(seed)
    corpus = build_corpus(samples_per_task=config.corpus_samples_per_task, seed=seed, tasks=training_tasks())
    return corpus, config.pretrain


def assert_states_equal(ours: dict, theirs: dict) -> None:
    assert ours.keys() == theirs.keys()
    for name, value in ours.items():
        assert np.array_equal(value, theirs[name]), name


@pytest.fixture(scope="module")
def dpo_inputs():
    """A quick pretrained model, its tokenizer and template pairs."""
    with DPOAFPipeline(
        quick_pipeline_config(seed=0), specifications=core_specifications(), tasks=training_tasks()[:3], validation=()
    ) as pipeline:
        pretrained = pipeline.pretrain_model()
        pairs = pipeline.augment_with_templates([])
    return pretrained.model, pretrained.tokenizer, pairs, quick_pipeline_config(seed=0).dpo


class TestSplit:
    def test_every_group_lands_on_one_shard_nearest_an_even_split(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            widths = rng.integers(1, 96, size=rng.integers(1, 9))
            groups = [(np.arange(rng.integers(1, 6)), int(w)) for w in sorted(widths)]
            shard_of = split_groups(groups)
            assert len(shard_of) == len(groups) and set(shard_of) <= {0, 1}
            costs = [len(rows) * width + _GROUP_COST_CELLS for rows, width in groups]
            worker = sum(c for c, s in zip(costs, shard_of) if s == 1)
            best = max(
                sum(c for c, pick in zip(costs, picks) if pick)
                for picks in itertools.product((0, 1), repeat=len(costs))
                if 2 * sum(c for c, pick in zip(costs, picks) if pick) <= sum(costs)
            )
            assert worker == best and 2 * worker <= sum(costs)

    def test_a_lone_group_stays_in_the_caller(self):
        assert split_groups([(np.arange(4), 30)]) == [0]
        assert split_groups([]) == []


@needs_two_cores
class TestBitwiseAcrossProcessCounts:
    def test_pretraining_losses_and_weights_match_one_process(self, monkeypatch):
        corpus, config = quick_corpus()
        forks = counting_forks(monkeypatch)
        two = pretrain(corpus, config)
        assert len(forks) == 1
        one_core(monkeypatch)
        one = pretrain(corpus, config)
        assert len(forks) == 1
        assert two.losses == one.losses
        assert_states_equal(two.model.state_dict(), one.model.state_dict())

    def test_dpo_losses_policy_and_checkpoints_match_one_process(self, dpo_inputs, monkeypatch):
        model, tokenizer, pairs, config = dpo_inputs
        forks = counting_forks(monkeypatch)
        two = run_dpo(model.clone(), tokenizer, pairs, config)
        assert len(forks) == 1
        one_core(monkeypatch)
        one = run_dpo(model.clone(), tokenizer, pairs, config)
        assert len(forks) == 1
        assert two.history.losses == one.history.losses
        assert_states_equal(two.policy.state_dict(), one.policy.state_dict())
        assert two.checkpoint_epochs() == one.checkpoint_epochs()
        for epoch in one.checkpoint_epochs():
            assert_states_equal(two.checkpoints[epoch], one.checkpoints[epoch])


@needs_two_cores
class TestWorkerLifetime:
    def test_the_worker_is_reaped_before_training_returns(self, monkeypatch):
        corpus, config = quick_corpus()
        forks = counting_forks(monkeypatch)
        pretrain(corpus, config)
        (pid,) = forks
        assert_reaped(pid)

    @staticmethod
    def kill_the_worker_in_step_3(monkeypatch) -> None:
        """Pretrain, killing the worker in the third optimizer step: the
        next step must raise ``TrainingError`` naming the signal, within
        seconds, with the worker reaped."""
        corpus, config = quick_corpus()
        forks = counting_forks(monkeypatch)
        step = Adam.step

        def killing(self):
            if self.step_count == 2:
                os.kill(forks[0], signal.SIGKILL)
            return step(self)

        monkeypatch.setattr(Adam, "step", killing)
        started = time.perf_counter()
        with pytest.raises(TrainingError, match=r"exit status -9 \(SIGKILL\)"):
            pretrain(corpus, config)
        assert time.perf_counter() - started < 30
        assert_reaped(forks[0])

    def test_a_killed_worker_raises_training_error_naming_its_status(self, monkeypatch):
        self.kill_the_worker_in_step_3(monkeypatch)

    def test_a_killed_worker_raises_training_error_while_tracing(self, monkeypatch):
        """A traced step waits for the worker only where an untraced one
        does, on its reply, so the death surfaces the same way."""
        tracer = obs.install_tracer(Tracer())
        try:
            self.kill_the_worker_in_step_3(monkeypatch)
        finally:
            obs.uninstall_tracer()
        # The steps before the death were traced in both processes.
        assert {s.attributes["shard"] for s in tracer.spans() if s.name == "train.forward"} == {0, 1}

    def test_an_error_in_the_training_loop_still_reaps_the_worker(self, dpo_inputs, monkeypatch):
        model, tokenizer, pairs, config = dpo_inputs
        forks = counting_forks(monkeypatch)
        step = Adam.step

        def failing(self):
            if self.step_count == 2:
                raise RuntimeError("optimizer failed at step 3")
            return step(self)

        monkeypatch.setattr(Adam, "step", failing)
        with pytest.raises(RuntimeError, match="step 3"):
            run_dpo(model.clone(), tokenizer, pairs, config)
        (pid,) = forks
        assert_reaped(pid)

    def test_buffered_output_is_written_once(self, tmp_path):
        """The caller flushes stdio before it forks, and the worker leaves
        with ``os._exit``, so nothing buffered is written twice."""
        script = textwrap.dedent(
            """
            from repro.core.config import quick_pipeline_config
            from repro.driving import training_tasks
            from repro.lm import pretrain
            from repro.lm.corpus import build_corpus

            config = quick_pipeline_config(0)
            corpus = build_corpus(samples_per_task=2, seed=0, tasks=training_tasks()[:2])
            print("before training")
            pretrain(corpus, config.pretrain)
            print("after training")
            """
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["before training", "after training"]


def test_one_process_is_used_below_two_cores(monkeypatch):
    one_core(monkeypatch)
    forks = counting_forks(monkeypatch)
    corpus, config = quick_corpus()
    result = pretrain(corpus, config)
    assert forks == [] and len(result.losses) == config.num_steps


def test_one_process_runs_each_group_forward_then_backward_in_plan_order(monkeypatch):
    """Below two cores the caller runs every group of a step, narrowest
    first, each backward straight after its forward, so one group's
    activations are held at a time; every span names shard 0."""
    one_core(monkeypatch)
    corpus, config = quick_corpus()
    tracer = obs.install_tracer(Tracer())
    try:
        pretrain(corpus, config)
    finally:
        obs.uninstall_tracer()
    spans = sorted(tracer.spans(), key=lambda span: span.start_ns)
    steps = [span for span in spans if span.name == "pretrain.step"]
    assert len(steps) == config.num_steps
    for step in steps:
        inner = [span for span in spans if span.parent_id == step.span_id]
        groups = (len(inner) - 2) // 2
        assert groups >= 1
        assert [span.name for span in inner] == ["train.forward", "train.backward"] * groups + [
            "train.reduce",
            "optim.step",
        ]
        forwards, backwards = inner[:-2:2], inner[1:-2:2]
        assert [span.attributes for span in forwards] == [span.attributes for span in backwards]
        assert {span.attributes["shard"] for span in forwards} == {0}
        widths = [span.attributes["width"] for span in forwards]
        assert widths == sorted(widths)
        assert sum(span.attributes["rows"] for span in forwards) == config.batch_size
        assert inner[-2].attributes == {"groups": groups}


@needs_two_cores
def test_the_worker_follows_adapter_values_changed_between_steps(monkeypatch):
    """The optimizer writes the shared values in place and bumps their
    versions in the caller alone.  The worker advances its own on every
    forward message, so its memoised ``W + A @ B`` follows: losses of steps
    with an in-place adapter change between them match the one-process
    loop's."""
    corpus, config = quick_corpus()
    base = pretrain(corpus, config).model
    data = encode_documents(corpus, base.config.max_seq_len)[: config.batch_size]
    pad_id = corpus.tokenizer.pad_id
    assert 1 in split_groups(plan_length_groups(target_widths(data[:, 1:] != pad_id)))

    def losses() -> list:
        model = base.clone()
        apply_lora(model)
        adapters = [param for param in model.parameters() if param.trainable]
        steps = []
        with TrainingShards(model, max_groups=len(data)) as training:
            for _ in range(3):
                steps.append(model.cross_entropy(data, pad_id=pad_id, shards=training))
                for param in adapters:
                    param.value += 0.05  # in place, as the optimizer writes
                    param.bump()
        return steps

    forks = counting_forks(monkeypatch)
    two = losses()
    assert len(forks) == 1
    one_core(monkeypatch)
    one = losses()
    assert len(forks) == 1
    assert two == one and len(set(one)) == 3


def test_shared_values_are_written_in_place(monkeypatch):
    """``load_state_dict`` writes into the arrays a worker would read."""
    one_core(monkeypatch)
    corpus, config = quick_corpus()
    model = pretrain(corpus, config).model
    before = {p.name: p.value for p in model.parameters()}
    state = {name: value + 1.0 for name, value in model.state_dict().items()}
    model.load_state_dict(state)
    for param in model.parameters():
        assert param.value is before[param.name]
        assert np.array_equal(param.value, state[param.name])


def libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


@pytest.mark.skipif(not libc_has_mallopt(), reason="the heap policy needs glibc's mallopt")
def test_steady_state_steps_do_not_fault_their_memory_in_again():
    """A pretraining step at the default model dims reuses the pages the
    step before it used: the caller (``RUSAGE_SELF``) and the reaped worker
    (``RUSAGE_CHILDREN``) each take fewer than 100 minor faults a step.  With
    glibc's dynamic thresholds each took about 1,000, mapping a step's
    arrays afresh or trimming the heap between steps.  The difference
    between a 10-step and a 30-step run cancels the fork and each page's
    first touch."""
    corpus, _ = quick_corpus()

    def faults(steps: int) -> tuple:
        before = [resource.getrusage(who).ru_minflt for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        pretrain(corpus, PretrainConfig(num_steps=steps))
        after = [resource.getrusage(who).ru_minflt for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        return tuple(b - a for a, b in zip(before, after))

    short, long = faults(10), faults(30)
    caller, worker = ((b - a) / 20 for a, b in zip(short, long))
    assert caller < 100, f"the caller took {caller:.0f} minor faults a step"
    if worker_available():
        assert worker < 100, f"the worker took {worker:.0f} minor faults a step"


def fake_libc(monkeypatch, answer) -> list:
    """Stand a libc whose ``mallopt`` returns ``answer`` (None: no mallopt)
    in for the real one; returns the calls it receives."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return answer

    libc = types.SimpleNamespace() if answer is None else types.SimpleNamespace(mallopt=mallopt)
    monkeypatch.setattr(shards.ctypes, "CDLL", lambda name: libc)
    return calls


class TestHeapPolicy:
    def test_both_thresholds_are_set(self, monkeypatch, recwarn):
        calls = fake_libc(monkeypatch, 1)
        fix_heap_policy()
        assert calls == [(-3, shards.MMAP_THRESHOLD), (-1, shards.TRIM_THRESHOLD)]
        assert shards.MMAP_THRESHOLD > 24 * 4 * 96 * 96 * 4  # a paper-scale DPO group's attention
        assert len(recwarn) == 0

    def test_a_refused_setting_warns_naming_it(self, monkeypatch):
        fake_libc(monkeypatch, 0)
        with pytest.warns(RuntimeWarning) as caught:
            fix_heap_policy()
        assert [str(w.message) for w in caught] == [
            f"libc refused mallopt(M_MMAP_THRESHOLD, {shards.MMAP_THRESHOLD})",
            f"libc refused mallopt(M_TRIM_THRESHOLD, {shards.TRIM_THRESHOLD})",
        ]

    def test_a_libc_without_mallopt_is_left_alone(self, monkeypatch, recwarn):
        fake_libc(monkeypatch, None)
        fix_heap_policy()
        assert len(recwarn) == 0
