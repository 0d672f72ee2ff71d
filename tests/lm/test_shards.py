"""Two-process training steps against the one-process loop.

``repro.lm.shards.TrainingShards`` splits each step's length groups between
the caller and one forked worker.  The one-process path is reached through
the core-count check (``os.sched_getaffinity``), so every comparison here is
the same code on one process and on two.  Losses, weights and checkpoints
must agree bitwise, the worker must never outlive its training call, and a
worker that dies must raise ``TrainingError`` rather than hang.
"""

import itertools
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import DPOAFPipeline
from repro.core.config import quick_pipeline_config
from repro.dpo import run_dpo
from repro.driving import core_specifications, training_tasks
from repro.errors import TrainingError
from repro.lm import pretrain
from repro.lm.corpus import build_corpus
from repro.lm.optim import Adam
from repro.lm.shards import TrainingShards, split_groups, worker_available
from repro.lm.transformer import _GROUP_COST_CELLS

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
            shard_of, turn_of = split_groups(groups)
            costs = [len(rows) * width + _GROUP_COST_CELLS for rows, width in groups]
            worker = sum(c for c, s in zip(costs, shard_of) if s == 1)
            best = max(
                sum(c for c, pick in zip(costs, picks) if pick)
                for picks in itertools.product((0, 1), repeat=len(costs))
                if 2 * sum(c for c, pick in zip(costs, picks) if pick) <= sum(costs)
            )
            assert worker == best and 2 * worker <= sum(costs)
            assert sorted(turn_of) == list(range(len(groups)))
            for shard in (0, 1):
                turns = [turn for turn, s in zip(turn_of, shard_of) if s == shard]
                assert turns == sorted(turns)  # each shard takes its turns in plan order

    def test_a_lone_group_stays_in_the_caller(self):
        assert split_groups([(np.arange(4), 30)]) == ([0], [0])
        assert split_groups([]) == ([], [])


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

    def test_a_killed_worker_raises_training_error_naming_its_status(self, monkeypatch):
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

