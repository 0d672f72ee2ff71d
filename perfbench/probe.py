"""Per-layer timing and counting by wrapping the program's public functions.

:class:`LayerProbe` replaces a fixed set of public functions and methods of
``repro.lm``, ``repro.dpo``, ``repro.glm2fsa``, ``repro.modelcheck``,
``repro.serving`` and ``repro.feedback`` with thin wrappers that time and
count each call, then puts every original back.  A function imported by name
into another module (``from repro.lm.pretrain import pretrain``) is replaced
in every ``repro`` module that holds it, so call sites see the wrapper however
they reached the function.  Nothing under ``src/`` changes.

Usage::

    probe = LayerProbe()
    with probe.active():
        ...                      # the traced work
    metrics = probe.layer_metrics()
    assert probe.restored()
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager

#: ``(module, attribute, key)``: each call is timed under ``key``.
#: ``Class.method`` names a method, wrapped on its class; a bare name is a
#: module function, replaced in every ``repro`` module that imported it.
TIMED = (
    ("repro.lm.pretrain", "pretrain", "lm.pretrain"),
    ("repro.lm.decode", "sample_response_frontier", "lm.decode"),
    ("repro.lm.decode", "sample_tokens_batched", "lm.tokens_batched"),
    ("repro.lm.transformer", "TransformerLM.cross_entropy", "lm.cross_entropy"),
    ("repro.lm.transformer", "TransformerLM.forward_step", "lm.forward_step"),
    ("repro.lm.transformer", "TransformerLM.sequence_log_probs", "dpo.reference_logprob"),
    ("repro.lm.transformer", "TransformerLM.sequence_log_probs_with_grad", "dpo.policy_forward"),
    ("repro.lm.optim", "Adam.step", "adam_step"),
    ("repro.dpo.trainer", "DPOTrainer.train", "dpo.train"),
    ("repro.dpo.dataset", "DPODataset.from_preference_pairs", "dpo.encode"),
    ("repro.dpo.loss", "dpo_step", "dpo.step"),
    ("repro.glm2fsa.semantic_parser", "parse_response", "glm2fsa.parse"),
    ("repro.glm2fsa.builder", "build_controller", "glm2fsa.build"),
    ("repro.modelcheck.checker", "ModelChecker.verify_controller", "modelcheck.verify"),
    ("repro.modelcheck.fastpath", "ResultCache.get", "modelcheck.result_lookup"),
    ("repro.serving.scheduler", "FeedbackService.submit_batch", "serving.submit"),
    ("repro.serving.scheduler", "FeedbackService.score_batch", "serving.score_batch"),
    ("repro.feedback.ranker", "rank_to_pairs", "feedback.rank"),
)

#: Counters read off a call's arguments and result, by key.
COUNTS = {
    "lm.tokens_batched": lambda args, result: {"lm.decode_tokens": sum(len(lane) for lane in result)},
    "dpo.step": lambda args, result: {"dpo.pairs": len(args[2]["indices"])},
    "glm2fsa.parse": lambda args, result: {"glm2fsa.parse_fail": int(len(result) == 0)},
    "modelcheck.result_lookup": lambda args, result: {"modelcheck.result_hits": int(result is not None)},
    "feedback.rank": lambda args, result: {"feedback.pairs": len(result)},
}

#: Calls that set the phase the calls inside them belong to: ``Adam.step``
#: is ``lm.adam_step`` under pre-training and ``dpo.adam_step`` under DPO.
PHASES = {"lm.pretrain": "lm", "dpo.train": "dpo"}


def _repro_modules() -> list:
    return [module for key, module in list(sys.modules.items()) if key == "repro" or key.startswith("repro.")]


def _owner_and_name(module_name: str, attribute: str) -> tuple:
    owner = importlib.import_module(module_name)
    *classes, name = attribute.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    return owner, name


def _ms(seconds: float, calls: int) -> float:
    return 1000.0 * seconds / calls if calls else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerProbe:
    """Times and counts calls into each layer while :meth:`active`.

    Counters accumulate over every ``active()`` block, so a run can measure
    set-up and a measured phase while leaving another phase unwrapped.
    Updates take a lock: scoring runs on the dispatcher thread and the
    thread backend's workers at once.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.seconds: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)
        self.services: list = []
        self._phase = None
        self._submitted: dict = defaultdict(deque)  # id(service) -> submit times, FIFO
        self._patches: list = []
        self._memo: dict = defaultdict(int)

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    @contextmanager
    def active(self):
        """Install every wrapper for the ``with`` block, then restore."""
        from repro.modelcheck.fastpath import automata_memo

        before = automata_memo().stats()
        try:
            for module_name, attribute, key in TIMED:
                self._install(module_name, attribute, key)
            yield self
        finally:
            while self._patches:
                owner, name, original = self._patches.pop()
                setattr(owner, name, original)
            after = automata_memo().stats()
            for key in ("hits_memory", "hits_disk", "misses"):
                self._memo[key] += after[key] - before[key]

    def _install(self, module_name: str, attribute: str, key: str) -> None:
        owner, name = _owner_and_name(module_name, attribute)
        if isinstance(owner, type):
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(key, raw.__func__))
            else:
                wrapper = self._wrap(key, raw)
            self._patches.append((owner, name, raw))
            setattr(owner, name, wrapper)
            return
        original = getattr(owner, name)
        wrapper = self._wrap(key, original)
        for module in _repro_modules():
            if vars(module).get(name) is original:
                self._patches.append((module, name, original))
                setattr(module, name, wrapper)

    @staticmethod
    def restored() -> bool:
        """True when no ``repro`` module or class still holds a wrapper."""
        for module_name, attribute, _ in TIMED:
            owner, name = _owner_and_name(module_name, attribute)
            holders = [owner] if isinstance(owner, type) else _repro_modules()
            for holder in holders:
                current = vars(holder).get(name)
                if getattr(getattr(current, "__func__", current), "__wrapped_by_probe__", False):
                    return False
        return True

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def _wrap(self, key: str, original):
        def wrapper(*args, **kwargs):
            phase = PHASES.get(key)
            previous = self._phase
            if phase is not None:
                self._phase = phase
            extra = self._before(key, args)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if key in COUNTS:
                    extra.update(COUNTS[key](args, result))
                if key == "dpo.policy_forward":
                    log_probs, backward_fn = result
                    result = log_probs, self._wrap("dpo.policy_backward", backward_fn)
                return result
            finally:
                if phase is not None:
                    self._phase = previous
                recorded = f"{self._phase or 'lm'}.adam_step" if key == "adam_step" else key
                self._record(recorded, time.perf_counter() - start, extra)

        wrapper.__wrapped_by_probe__ = True
        return wrapper

    def _before(self, key: str, args) -> dict:
        """Serving bookkeeping taken as a call starts; returns extra counters."""
        if key == "serving.submit":
            # Stamped before submitting: the dispatcher may start the batch
            # before submit_batch returns.
            with self._lock:
                self._submitted[id(args[0])].append(time.perf_counter())
        if key != "serving.score_batch":
            return {}
        service = args[0]
        with self._lock:
            if not any(seen is service for seen in self.services):
                self.services.append(service)
            queue = self._submitted[id(service)]
            # Submitted batches run on the dispatcher thread in submission
            # order; a direct call from the main thread carries no stamp.
            if not queue or threading.current_thread() is threading.main_thread():
                return {}
            return {"serving.wait_s": time.perf_counter() - queue.popleft(), "serving.waited": 1}

    def _record(self, key: str, seconds: float, counts: dict) -> None:
        with self._lock:
            self.seconds[key] += seconds
            self.calls[key] += 1
            for name, value in counts.items():
                self.counts[name] += value

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    def layer_metrics(self) -> dict:
        """Every per-layer metric as ``{name: (value, unit)}``; 0 for layers not exercised."""
        s, n, c = self.seconds, self.calls, self.counts
        memo_hits = self._memo["hits_memory"] + self._memo["hits_disk"]
        totals: dict = defaultdict(int)
        for service in self.services:
            snapshot = service.metrics.snapshot()
            for key in ("jobs", "unique_jobs", "cache_hits", "cache_misses"):
                totals[key] += snapshot[key]
        return {
            "lm.pretrain_s": (s["lm.pretrain"], "s"),
            "lm.pretrain_steps_per_s": (_ratio(n["lm.cross_entropy"], s["lm.pretrain"]), "1/s"),
            "lm.cross_entropy_ms": (_ms(s["lm.cross_entropy"], n["lm.cross_entropy"]), "ms"),
            "lm.adam_step_ms": (_ms(s["lm.adam_step"], n["lm.adam_step"]), "ms"),
            "lm.decode_s": (s["lm.decode"], "s"),
            "lm.decode_tokens": (c["lm.decode_tokens"], "count"),
            "lm.decode_tokens_per_s": (_ratio(c["lm.decode_tokens"], s["lm.decode"]), "1/s"),
            "lm.forward_step_ms": (_ms(s["lm.forward_step"], n["lm.forward_step"]), "ms"),
            "lm.forward_step_calls": (n["lm.forward_step"], "count"),
            "dpo.train_s": (s["dpo.train"], "s"),
            "dpo.encode_s": (s["dpo.encode"], "s"),
            "dpo.step_ms": (_ms(s["dpo.step"] + s["dpo.adam_step"], n["dpo.step"]), "ms"),
            "dpo.steps": (n["dpo.step"], "count"),
            "dpo.pairs_per_s": (_ratio(c["dpo.pairs"], s["dpo.train"]), "1/s"),
            "dpo.reference_logprob_ms": (_ms(s["dpo.reference_logprob"], n["dpo.reference_logprob"]), "ms"),
            "dpo.policy_forward_ms": (_ms(s["dpo.policy_forward"], n["dpo.policy_forward"]), "ms"),
            "dpo.policy_backward_ms": (_ms(s["dpo.policy_backward"], n["dpo.policy_backward"]), "ms"),
            "dpo.adam_step_ms": (_ms(s["dpo.adam_step"], n["dpo.adam_step"]), "ms"),
            "glm2fsa.parse_ms": (_ms(s["glm2fsa.parse"], n["glm2fsa.parse"]), "ms"),
            "glm2fsa.build_ms": (_ms(s["glm2fsa.build"], n["glm2fsa.build"]), "ms"),
            "glm2fsa.calls": (n["glm2fsa.parse"], "count"),
            "glm2fsa.parse_fail_frac": (_ratio(c["glm2fsa.parse_fail"], n["glm2fsa.parse"]), "ratio"),
            "modelcheck.verify_ms": (_ms(s["modelcheck.verify"], n["modelcheck.verify"]), "ms"),
            "modelcheck.verifications": (n["modelcheck.verify"], "count"),
            "modelcheck.memo_hit_frac": (_ratio(memo_hits, memo_hits + self._memo["misses"]), "ratio"),
            "modelcheck.result_cache_hit_frac": (
                _ratio(c["modelcheck.result_hits"], n["modelcheck.result_lookup"]), "ratio"
            ),
            "serving.score_batch_s": (s["serving.score_batch"], "s"),
            "serving.hit_rate": (_ratio(totals["cache_hits"], totals["cache_hits"] + totals["cache_misses"]), "ratio"),
            "serving.dedup_rate": (1.0 - _ratio(totals["unique_jobs"], totals["jobs"]) if totals["jobs"] else 0.0, "ratio"),
            "serving.wait_ms": (1000.0 * _ratio(c["serving.wait_s"], c["serving.waited"]), "ms"),
            "feedback.rank_s": (s["feedback.rank"], "s"),
            "feedback.pairs": (c["feedback.pairs"], "count"),
        }
