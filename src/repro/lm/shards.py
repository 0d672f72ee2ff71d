"""Two-process training steps: a step's length groups split between two processes.

A training loop (:func:`repro.lm.pretrain.pretrain`,
:meth:`repro.dpo.trainer.DPOTrainer.train`) runs inside a
:class:`TrainingShards`.  On entry it moves every parameter value of the
model into one anonymous shared mapping, allocates a shared gradient slab
and forks one worker; on exit it reaps the worker.  Each step's length-group
plan is computed once, over the whole batch, and whole groups are split
between the caller (shard 0) and the worker (shard 1), balanced by cells.

Every group adds its gradient into its own zeroed row of the slab.  The
caller then adds the rows into ``Parameter.grad``, and replays the token
embedding's ``np.add.at`` scatters, in plan order: the same float additions,
in the same order, as one process running every group, so losses, weights
and checkpoints stay bitwise.  Adam runs in the caller and updates the shared
values in place, which the worker reads on the next step.

While tracing, span starts follow one fixed order per phase (the groups'
predicted start times under the cell-cost model), handed between the
processes through a shared counter, so a trace lists a step's forwards and
backwards in the same order; untraced, neither process waits mid-step.

The worker is used only where ``os.fork`` exists and the process may run on
at least two cores; otherwise the caller takes every group through the same
loop.  A worker that dies raises :class:`TrainingError`.
"""

from __future__ import annotations

import mmap
import os
import signal
import sys
import traceback
from multiprocessing.connection import Pipe

import numpy as np

from repro.errors import TrainingError
from repro.lm.layers import DTYPE
from repro.lm.transformer import _GROUP_COST_CELLS, backward_groups, forward_groups
from repro.obs import tracer as obs

_STOP, _FORWARD, _BACKWARD = "stop", "forward", "backward"


def worker_available() -> bool:
    """True where a worker can be forked and run beside the caller."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return False
    return hasattr(os, "fork") and cores >= 2


def _shared_array(shape, dtype) -> np.ndarray:
    """A zeroed array in a fresh anonymous ``MAP_SHARED`` mapping: a forked
    child writes to the same memory its parent reads."""
    count = int(np.prod(shape))
    mapping = mmap.mmap(-1, max(count, 1) * np.dtype(dtype).itemsize)
    return np.frombuffer(mapping, dtype=dtype, count=count).reshape(shape)


def _views(flat: np.ndarray, params) -> list:
    views, offset = [], 0
    for param in params:
        views.append(flat[offset : offset + param.size].reshape(param.shape))
        offset += param.size
    return views


def split_groups(groups) -> tuple:
    """``(shard_of, turn_of)`` for a plan's ``(rows, width)`` groups.

    Groups go whole to the two shards.  A subset-sum over their costs
    (``rows × width +`` :data:`_GROUP_COST_CELLS`) gives shard 1 the subset
    whose cost is nearest half the total without passing it; shard 0 takes
    the rest, so a lone group stays in the caller.  Each shard runs its
    groups in plan order; a group's turn is its rank by predicted start time
    under that cost, shard 0 first on ties.
    """
    costs = [len(rows) * width + _GROUP_COST_CELLS for rows, width in groups]
    # reachable[k]: bit c is set when some subset of the first k groups costs c.
    reachable = [1]
    for cost in costs:
        reachable.append(reachable[-1] | reachable[-1] << cost)
    target = (reachable[-1] & ((2 << (sum(costs) // 2)) - 1)).bit_length() - 1
    shard_of = [0] * len(groups)
    for slot in reversed(range(len(groups))):
        if not reachable[slot] >> target & 1:
            shard_of[slot] = 1
            target -= costs[slot]
    clock, starts = [0, 0], []
    for slot, cost in enumerate(costs):
        starts.append(clock[shard_of[slot]])
        clock[shard_of[slot]] += cost
    turn_of = [0] * len(groups)
    for turn, slot in enumerate(sorted(range(len(groups)), key=lambda s: (starts[s], shard_of[s]))):
        turn_of[slot] = turn
    return shard_of, turn_of


class TrainingShards:
    """The two processes of a training loop; a context manager.

    ``max_groups`` bounds a step's length groups (a batch's row count does).
    :meth:`run` runs one step's forwards — and, given ``denom``, the
    cross-entropy backwards and the reduction — and :meth:`run_backward`
    runs a DPO step's backwards and the reduction.
    """

    def __init__(self, model, max_groups: int):
        self.model = model
        self.shard = 0
        self._params = [p for p in model.parameters() if p.trainable]
        everything = model.parameters()
        shared = _shared_array((sum(p.size for p in everything),), DTYPE)
        for param, view in zip(everything, _views(shared, everything)):
            view[...] = param.value
            param.value = view
        size = sum(p.size for p in self._params)
        self._slab = _shared_array((max_groups, size), DTYPE)
        self._rows = [_views(row, self._params) for row in self._slab]
        self._grad = np.zeros(size, dtype=DTYPE)
        self._home = _views(self._grad, self._params)
        for param, view in zip(self._params, self._home):
            view[...] = param.grad
            param.grad = view
        self._scatters_tokens = model.token_embedding.weight.trainable
        self._turns = _shared_array((2,), np.int64)
        self._turn_of: list = []
        self._tracing = False
        self._scatters: list = []
        self._kept: list = []
        self._worker_groups = False
        self._slots = 0
        self._step = 0
        self._seen_step = 0
        self._conn = None
        self._pid = None

    # ------------------------------------------------------------------ #
    # Lifetime
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "TrainingShards":
        if worker_available():
            self._fork()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._restore_grads()
        if self._pid is None:
            return
        pid, conn = self._pid, self._conn
        self._pid = self._conn = None
        try:
            if exc_type is None:
                conn.send((_STOP,))
            else:
                os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
        finally:
            conn.close()
            _, status = os.waitpid(pid, 0)
        if exc_type is None and status != 0:
            raise TrainingError(f"training worker {pid} exited with status {os.waitstatus_to_exitcode(status)}")

    def _fork(self) -> None:
        parent, child = Pipe()
        # Buffered output would otherwise be written twice, once by each process.
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        try:
            pid = os.fork()
        except OSError:
            parent.close()
            child.close()
            raise
        if pid == 0:
            # The worker.  Anything escaping here would unwind into the
            # caller's stack and run the rest of its program in this
            # process, so every way out goes through os._exit.
            status = 0
            try:
                parent.close()
                self.shard, self._conn = 1, child
                self._serve()
            except BaseException:
                status = 1
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(status)
        child.close()
        self._conn, self._pid = parent, pid

    def _worker_died(self):
        """Reap the dead worker; the :class:`TrainingError` to raise."""
        pid, conn = self._pid, self._conn
        self._pid = self._conn = None
        conn.close()
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        name = f" ({signal.Signals(-code).name})" if code < 0 else ""
        return TrainingError(f"training worker {pid} died with exit status {code}{name}")

    def _receive(self):
        try:
            return self._conn.recv()
        except (EOFError, OSError):
            raise self._worker_died() from None

    # ------------------------------------------------------------------ #
    # Turns: one span-start order per phase across both processes
    # ------------------------------------------------------------------ #
    def wait_turn(self, phase: int, slot: int) -> None:
        """While tracing, block until every group before ``slot`` in the turn
        order has opened its ``phase`` span (0: forward, 1: backward).
        Untraced, the processes never wait for each other mid-step."""
        if self._conn is None or not self._tracing:
            return
        while self._turns[phase] < self._turn_of[slot]:
            # The other process writes to the pipe only after taking all its
            # turns, so a readable pipe with the turn still not come means it
            # went away.
            if self._conn.poll() and self._turns[phase] < self._turn_of[slot]:
                if self.shard == 1:
                    raise TrainingError("the training loop went away")
                raise self._worker_died()

    def take_turn(self, phase: int, slot: int) -> None:
        """Record that ``slot``'s ``phase`` span has opened."""
        self._turns[phase] = self._turn_of[slot] + 1

    # ------------------------------------------------------------------ #
    # Gradients
    # ------------------------------------------------------------------ #
    def backward_into_slab(self, slot: int, cache: tuple, dlogits: np.ndarray) -> None:
        """Backpropagate one group into its own zeroed slab row; keep its
        token-embedding scatter for the reduction."""
        self._slab[slot].fill(0.0)
        for param, row in zip(self._params, self._rows[slot]):
            param.grad = row
        scatter = self.model.backward_dense(cache, dlogits)
        if self._scatters_tokens:
            self._scatters[slot] = scatter

    def _restore_grads(self) -> None:
        for param, home in zip(self._params, self._home):
            param.grad = home

    def _reduce(self) -> None:
        """Add every group's row into ``Parameter.grad`` and replay the token
        scatters, both in plan order."""
        with obs.span("train.reduce", category="train", groups=self._slots):
            self._restore_grads()
            for slot in range(self._slots):
                self._grad += self._slab[slot]
            for scatter in self._scatters[: self._slots]:
                if scatter is not None:
                    self.model.token_embedding.backward(*scatter)

    # ------------------------------------------------------------------ #
    # One step
    # ------------------------------------------------------------------ #
    def run(self, tokens: np.ndarray, mask: np.ndarray, groups, *, negate: bool, denom=None) -> list:
        """One step's forwards; returns every group's values in plan order.

        With ``denom`` (cross-entropy) each process goes on to its groups'
        backwards, and the gradients are reduced before this returns.
        """
        if len(groups) > len(self._slab):
            raise TrainingError(f"a step of {len(groups)} length groups exceeds the {len(self._slab)} planned for")
        self._step += 1
        self._slots = len(groups)
        self._scatters = [None] * len(groups)
        if self._conn is None:
            shard_of, self._turn_of = [0] * len(groups), list(range(len(groups)))
        else:
            shard_of, self._turn_of = split_groups(groups)
        plan = [[], []]
        for slot, (rows, width) in enumerate(groups):
            plan[shard_of[slot]].append((slot, rows, width))
        self._turns[:] = 0
        self._tracing = obs.tracing_enabled()
        values = [None] * len(groups)
        if plan[1]:
            message = (_FORWARD, self._step, tokens, mask, plan[1], self._turn_of, negate, denom, self._tracing)
            self._conn.send(message)
        own, self._kept = forward_groups(self.model, tokens, mask, plan[0], negate=negate, denom=denom, shards=self)
        for (slot, _, _), group_values in zip(plan[0], own):
            values[slot] = group_values
        self._worker_groups = bool(plan[1])
        if plan[1]:
            reply_values, scatters, spans = self._receive()
            self._adopt(scatters, spans)
            for slot, group_values in reply_values:
                values[slot] = group_values
        if denom is not None:
            self._reduce()
        return values

    def run_backward(self, coefficients: np.ndarray) -> None:
        """A DPO step's backwards, each process over the groups it ran
        forward, then the reduction."""
        if self._worker_groups:
            self._conn.send((_BACKWARD, coefficients))
        kept, self._kept = self._kept, []
        backward_groups(self.model, kept, coefficients=coefficients, shards=self)
        del kept
        if self._worker_groups:
            _, scatters, spans = self._receive()
            self._adopt(scatters, spans)
        self._reduce()

    def _adopt(self, scatters, spans) -> None:
        for slot, scatter in scatters:
            self._scatters[slot] = scatter
        if spans:
            obs.current_tracer().adopt(spans)

    # ------------------------------------------------------------------ #
    # The worker
    # ------------------------------------------------------------------ #
    def _serve(self) -> None:
        """The worker's loop: run the groups each message names, reply with
        their values, scatters and (when tracing) spans."""
        conn = self._conn
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            if message[0] == _STOP:
                return
            if message[0] == _FORWARD:
                step, tokens, mask, groups, self._turn_of, negate, denom, self._tracing = message[1:]
                if step != self._seen_step:
                    # The caller's optimizer changed the shared values in
                    # place; advance the versions its bumps left behind in
                    # the caller, so Linear's LoRA weight memo recomputes.
                    for param in self._params:
                        param.bump()
                    self._seen_step = step
                tracer = obs.install_tracer(obs.Tracer() if self._tracing else obs.NullTracer())
                self._scatters = [None] * len(self._turn_of)
                values, self._kept = forward_groups(
                    self.model, tokens, mask, groups, negate=negate, denom=denom, shards=self
                )
                values = [(slot, v) for (slot, _, _), v in zip(groups, values)]
                conn.send((values, self._own_scatters(), tracer.spans() if self._tracing else []))
            else:
                (coefficients,) = message[1:]
                tracer = obs.install_tracer(obs.Tracer() if self._tracing else obs.NullTracer())
                kept, self._kept = self._kept, []
                backward_groups(self.model, kept, coefficients=coefficients, shards=self)
                del kept
                conn.send(([], self._own_scatters(), tracer.spans() if self._tracing else []))

    def _own_scatters(self) -> list:
        return [(slot, scatter) for slot, scatter in enumerate(self._scatters) if scatter is not None]
