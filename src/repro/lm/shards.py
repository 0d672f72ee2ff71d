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

Tracing changes neither process's schedule: the worker records its group
spans in a fresh tracer and sends them back with its reply, and neither
process waits for the other mid-step.

The worker is used only where ``os.fork`` exists and the process may run on
at least two cores; otherwise the caller takes every group through the same
loop.  A worker that dies raises :class:`TrainingError`.

On entry the caller also fixes glibc's heap policy (:func:`fix_heap_policy`)
before it forks, so both processes keep a step's activations on the heap
rather than mapping them afresh, and faulting them in again, every step.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import signal
import sys
import traceback
import warnings
from multiprocessing.connection import Pipe

import numpy as np

from repro.errors import TrainingError
from repro.lm.layers import DTYPE
from repro.lm.transformer import _GROUP_COST_CELLS, backward_groups, forward_groups
from repro.obs import tracer as obs

_STOP, _FORWARD, _BACKWARD = "stop", "forward", "backward"

#: ``mallopt`` parameter numbers, from glibc's ``<malloc.h>``.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: glibc serves an allocation this large or larger with its own ``mmap`` and
#: unmaps it on free, so every step would fault it in again.  It must exceed
#: the largest array a step allocates: at paper scale, the widest DPO
#: group's attention tensor, 24 rows × 4 heads × 96² × 4 B ≈ 3.5 MiB.  Some
#: glibc versions refuse more than 32 MiB on a 64-bit host.
MMAP_THRESHOLD = 16 << 20

#: glibc returns free memory at the top of the heap to the kernel once it
#: passes this, and the next step faults it back in.  It must exceed the heap
#: one step frees: in a paper-scale seed-0 run, up to 15.8 MiB lay free at the
#: top of the caller's heap when a step ended (glibc's ``keepcost``).
TRIM_THRESHOLD = 32 << 20


def fix_heap_policy() -> None:
    """Set glibc's mmap and trim thresholds to the constants above, for the
    rest of this process and every process it forks afterwards.

    Both are set.  Left alone, glibc raises its mmap threshold to the largest
    block freed so far and its trim threshold to twice that, so where the
    allocation history happens to stop (it moves with the size of the
    environment, or the length of a path) decides whether a step's arrays
    are mapped afresh or its heap trimmed between steps; and setting either
    one alone freezes the other wherever it stands.  Does nothing where libc
    has no ``mallopt`` (macOS's has none); warns when libc refuses a value,
    since training then still runs, and gives the same results, but faults
    its arrays in again every step.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for name, param, value in (
        ("M_MMAP_THRESHOLD", _M_MMAP_THRESHOLD, MMAP_THRESHOLD),
        ("M_TRIM_THRESHOLD", _M_TRIM_THRESHOLD, TRIM_THRESHOLD),
    ):
        if mallopt(param, value) != 1:
            warnings.warn(f"libc refused mallopt({name}, {value})", RuntimeWarning, stacklevel=3)


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


def split_groups(groups) -> list:
    """Each of a plan's ``(rows, width)`` groups' shard, 0 or 1.

    Groups go whole to the two shards.  A subset-sum over their costs
    (``rows × width +`` :data:`_GROUP_COST_CELLS`) gives shard 1 the subset
    whose cost is nearest half the total without passing it; shard 0 takes
    the rest, so a lone group stays in the caller.  Each shard runs its
    groups in plan order.
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
    return shard_of


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
        self._tracing = False
        self._scatters: list = []
        self._kept: list = []
        self._worker_groups = False
        self._slots = 0
        self._conn = None
        self._pid = None

    # ------------------------------------------------------------------ #
    # Lifetime
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "TrainingShards":
        fix_heap_policy()
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

    def _send(self, message) -> None:
        try:
            self._conn.send(message)
        except OSError:
            raise self._worker_died() from None

    def _receive(self):
        try:
            return self._conn.recv()
        except (EOFError, OSError):
            raise self._worker_died() from None

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
        self._slots = len(groups)
        self._scatters = [None] * len(groups)
        shard_of = [0] * len(groups) if self._conn is None else split_groups(groups)
        plan = [[], []]
        for slot, (rows, width) in enumerate(groups):
            plan[shard_of[slot]].append((slot, rows, width))
        values = [None] * len(groups)
        if plan[1]:
            self._send((_FORWARD, tokens, mask, plan[1], negate, denom, obs.tracing_enabled()))
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
            self._send((_BACKWARD, coefficients))
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
                tokens, mask, groups, negate, denom, self._tracing = message[1:]
                # The caller's optimizer may have changed the shared values
                # in place since the last forward; advance the versions its
                # bumps left behind in the caller, so Linear's LoRA weight
                # memo recomputes.
                for param in self._params:
                    param.bump()
                tracer = obs.install_tracer(obs.Tracer() if self._tracing else obs.NullTracer())
                self._scatters = [None] * len(self._slab)
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
