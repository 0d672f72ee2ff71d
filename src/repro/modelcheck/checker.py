"""Automata-theoretic LTL model checker (the NuSMV substitute).

Checks ``M ⊗ C |= Φ`` (Eq. 1 of the paper) for an explicit-state Kripke
structure: build a Büchi automaton for ``¬Φ``, form the synchronous product
with the Kripke structure, and search for a reachable accepting cycle
(a *lasso*).  If one exists the specification is violated and the lasso is
returned as a counter-example; otherwise the specification holds for every
possible initial state, exactly the verdict NuSMV would report.

Two implementations of that algorithm live here:

* the **naive path** (:class:`NaiveModelChecker`) — the original
  object-graph BFS, kept frozen as the differential-testing reference;
* the **fast path** (:class:`ModelChecker`) — memoized Büchi construction,
  automaton pruning, integer-compiled products and a verification-result
  cache, built from :mod:`repro.modelcheck.fastpath`.
  Verdicts are identical (``tests/modelcheck/test_differential.py`` holds the
  two paths to the same ``holds`` on every catalogue task and a fuzz corpus);
  counterexamples may differ in the particular lasso chosen but are always
  genuine violations.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.obs import tracer as obs
from repro.automata.buchi import BuchiAutomaton
from repro.automata.fsa import FSAController
from repro.automata.kripke import KripkeStructure
from repro.automata.product import build_product
from repro.automata.transition_system import TransitionSystem
from repro.errors import VerificationError
from repro.logic.ast import Formula, Not
from repro.logic.ltl2buchi import formula_key, ltl_to_buchi
from repro.logic.parser import parse_ltl
from repro.modelcheck import fastpath
from repro.modelcheck.counterexample import Counterexample, make_counterexample


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of checking one specification against one structure."""

    specification: Formula
    holds: bool
    counterexample: Counterexample | None = None
    statistics: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.holds

    def describe(self) -> str:
        verdict = "satisfied" if self.holds else "VIOLATED"
        text = f"[{verdict}] {self.specification}"
        if self.counterexample is not None:
            text += "\n" + self.counterexample.describe()
        return text


@dataclass(frozen=True)
class VerificationReport:
    """Results for a batch of specifications (one controller / one structure)."""

    results: tuple

    @property
    def num_specifications(self) -> int:
        return len(self.results)

    @property
    def num_satisfied(self) -> int:
        return sum(1 for r in self.results if r.holds)

    @property
    def satisfaction_ratio(self) -> float:
        """Fraction of specifications satisfied; 1.0 for an empty report.

        The empty case is *vacuously true*: the report answers "do all checked
        specifications hold?", and a universal quantification over nothing
        holds (an empty rule book rejects nothing).  Earlier versions returned
        0.0 here, which made a controller verified against zero specs look
        maximally non-compliant; :attr:`FormalFeedback.satisfaction_ratio
        <repro.feedback.formal.FormalFeedback.satisfaction_ratio>` follows the
        same convention.
        """
        if not self.results:
            return 1.0
        return self.num_satisfied / self.num_specifications

    @property
    def violated(self) -> list:
        return [r for r in self.results if not r.holds]

    def describe(self) -> str:
        lines = [f"{self.num_satisfied}/{self.num_specifications} specifications satisfied"]
        lines.extend(r.describe().splitlines()[0] for r in self.results)
        return "\n".join(lines)


class ModelChecker:
    """Explicit-state LTL model checker over Kripke structures.

    Parameters
    ----------
    max_product_states:
        Safety limit on the size of the Kripke × Büchi product; exceeded sizes
        raise :class:`~repro.errors.VerificationError` rather than hanging.
    result_cache_size:
        Bound on the per-checker :class:`~repro.modelcheck.fastpath.ResultCache`
        of ``(model, controller, spec) → VerificationResult`` entries;
        ``0`` disables result caching.  It serves callers that build a
        checker themselves: :class:`~repro.feedback.formal.FormalVerifier`
        reuses whole verdicts one level up and builds its default checker
        with ``0``.
    memo:
        The :class:`~repro.modelcheck.fastpath.BuchiMemo` construction memo to
        use; defaults to the process-wide one
        (:func:`~repro.modelcheck.fastpath.automata_memo`).  Pass a private
        instance to isolate benchmarks and tests from earlier translations.
    """

    def __init__(
        self,
        max_product_states: int = 200_000,
        *,
        result_cache_size: int = 512,
        memo: fastpath.BuchiMemo | None = None,
    ):
        self.max_product_states = max_product_states
        self._memo = memo if memo is not None else fastpath.automata_memo()
        self._results = fastpath.ResultCache(result_cache_size) if result_cache_size > 0 else None
        # Memoized model fingerprints and formula keys, keyed by object
        # identity; the stored strong reference keeps an id from being reused
        # while its entry lives.  Rendering str(formula) dominates memo-hit
        # cost otherwise — the rule book's 15 formulas are the same objects
        # on every verify_controller call.
        self._model_fingerprints: dict = {}
        self._formula_keys: dict = {}
        self._fingerprint_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def check(
        self, kripke: KripkeStructure, specification: Formula | str, *, name: str | None = None
    ) -> VerificationResult:
        """Check one LTL specification against a Kripke structure.

        ``name`` optionally labels the specification in trace spans (the
        rule-book name Φ1…Φ15); it defaults to the formula's text when
        tracing is enabled and is never computed otherwise.
        """
        formula = parse_ltl(specification) if isinstance(specification, str) else specification
        spec_label = self._spec_label(formula, name)
        kripke.validate()
        compiled = fastpath.compile_kripke(kripke)
        return self._check_compiled(lambda: compiled, formula, spec_label, None)

    def check_all(
        self, kripke: KripkeStructure, specifications: Iterable, *, spec_names: Iterable | None = None
    ) -> VerificationReport:
        """Check a batch of specifications and return a combined report.

        ``spec_names`` optionally supplies one trace label per specification
        (same order); unnamed specs are labelled by their formula text when
        tracing is enabled.  The structure is compiled to integers once and
        reused for every specification in the batch.
        """
        specs = list(specifications)
        names = list(spec_names) if spec_names is not None else [None] * len(specs)
        kripke.validate()
        compiled = fastpath.compile_kripke(kripke)
        return self._report_for(lambda: compiled, specs, names, None)

    def verify_controller(
        self,
        model: TransitionSystem,
        controller: FSAController,
        specifications: Iterable,
        *,
        spec_names: Iterable | None = None,
    ) -> VerificationReport:
        """``M ⊗ C |= Φ_i`` for every Φ_i: the feedback primitive of DPO-AF.

        The controller restarts from ``q0`` after its final step, which keeps
        the transition relation total (the paper's SMV default case); see
        :func:`repro.automata.product.build_product`.  ``spec_names``
        optionally labels each specification's trace spans.

        The product is compiled directly into integer space (never
        materializing the intermediate Kripke structure), results are cached
        under the (model, controller, spec) fingerprint, and — when every
        specification hits that cache — the product is not rebuilt at all.
        """
        specs = list(specifications)
        names = list(spec_names) if spec_names is not None else [None] * len(specs)
        scope = None
        if self._results is not None:
            scope = (
                self.model_fingerprint(model),
                fastpath.controller_fingerprint(controller),
            )

        compiled_box: list = []

        def compiled():
            if not compiled_box:
                with obs.span(
                    "mc.build_model", category="modelcheck", controller=controller.name
                ):
                    compiled_box.append(
                        fastpath.compile_product(model, controller, restart_on_termination=True)
                    )
            return compiled_box[0]

        return self._report_for(compiled, specs, names, scope)

    # ------------------------------------------------------------------ #
    # Fast path internals
    # ------------------------------------------------------------------ #
    def _spec_label(self, formula: Formula, name: str | None) -> str:
        return name if name is not None else (str(formula) if obs.tracing_enabled() else "")

    def _report_for(self, compiled, specs, names, scope) -> VerificationReport:
        results = []
        for spec, name in zip(specs, names):
            formula = parse_ltl(spec) if isinstance(spec, str) else spec
            results.append(
                self._check_compiled(compiled, formula, self._spec_label(formula, name), scope)
            )
        return VerificationReport(tuple(results))

    def _formula_entry(self, formula: Formula) -> tuple:
        """``(negated, memo_key, spec_key)`` for a formula, interned by identity."""
        with self._fingerprint_lock:
            entry = self._formula_keys.get(id(formula))
            if entry is not None and entry[0] is formula:
                return entry[1]
        negated = Not(formula)
        keys = (negated, formula_key(negated), formula_key(formula))
        with self._fingerprint_lock:
            self._formula_keys[id(formula)] = (formula, keys)
        return keys

    def _check_compiled(self, compiled, formula, spec_label, scope) -> VerificationResult:
        """One fast-path check; ``compiled`` is a thunk so full cache hits skip it."""
        spec_key = self._formula_entry(formula)[2]
        if scope is not None:
            hit = self._results.get(scope + (spec_key,))
            if hit is not None:
                with obs.span("mc.check_cached", category="modelcheck", spec=spec_label):
                    pass
                self._emit_cache_counters()
                return hit
        automaton = self._construct_automaton(formula, spec_label)
        structure = compiled()
        if automaton.is_empty:
            # ¬Φ has an empty language, so no behaviour can violate Φ: the
            # product would be empty and the spec holds for any structure.
            result = VerificationResult(
                formula,
                True,
                None,
                {"product_states": 0, "nba_states": 0, "kripke_states": structure.num_states},
            )
        else:
            lasso, stats = fastpath.find_accepting_lasso(
                structure,
                automaton,
                spec_label=spec_label,
                max_product_states=self.max_product_states,
            )
            if lasso is None:
                result = VerificationResult(formula, True, None, stats)
            else:
                prefix_states, cycle_states = lasso
                result = VerificationResult(
                    formula,
                    False,
                    make_counterexample(prefix_states, cycle_states, structure.label_of),
                    stats,
                )
        if scope is not None:
            self._results.put(scope + (spec_key,), result)
        return result

    def _construct_automaton(self, formula: Formula, spec_label: str):
        """The memoized pruned NBA for ``¬formula``, with distinct hit/miss spans."""
        negated, key, _ = self._formula_entry(formula)
        memo = self._memo
        cached = memo.lookup(key)
        if cached is not None:
            with obs.span("mc.construct_cached", category="modelcheck", spec=spec_label):
                pass
            self._emit_memo_counters()
            return cached
        with obs.span("mc.construct", category="modelcheck", spec=spec_label):
            cached = memo.translate_and_store(key, negated, name=f"neg({formula})")
        self._emit_memo_counters()
        return cached

    def _emit_memo_counters(self) -> None:
        if obs.tracing_enabled():
            stats = self._memo.stats()
            obs.counter("mc.memo.hits", stats["hits_memory"])
            obs.counter("mc.memo.misses", stats["misses"])

    def _emit_cache_counters(self) -> None:
        if obs.tracing_enabled() and self._results is not None:
            stats = self._results.stats()
            obs.counter("mc.result_cache.hits", stats["hits"])
            obs.counter("mc.result_cache.misses", stats["misses"])

    def model_fingerprint(self, model: TransitionSystem) -> str:
        """:func:`~repro.modelcheck.fastpath.model_fingerprint` of ``model``,
        memoized; computed under the lock, so concurrent callers compute it once."""
        with self._fingerprint_lock:
            entry = self._model_fingerprints.get(id(model))
            if entry is None or entry[0] is not model:
                entry = (model, fastpath.model_fingerprint(model))
                self._model_fingerprints[id(model)] = entry
            return entry[1]


class NaiveModelChecker(ModelChecker):
    """The unoptimized reference checker: no memo, no pruning, no caches.

    Exactly the pre-fastpath algorithm — an object-graph product, a BFS over
    it, then one cycle search per reachable accepting state — kept frozen so
    the differential suite, and anyone debugging a suspected fast-path
    divergence, can reach for it explicitly.  It overrides every public
    method of :class:`ModelChecker`, so none of the fast path runs here.
    Every optimization in :mod:`repro.modelcheck.fastpath` is held to this
    checker's verdicts.
    """

    def __init__(self, max_product_states: int = 200_000):
        super().__init__(max_product_states, result_cache_size=0)

    def check(
        self, kripke: KripkeStructure, specification: Formula | str, *, name: str | None = None
    ) -> VerificationResult:
        """Check one LTL specification against a Kripke structure."""
        formula = parse_ltl(specification) if isinstance(specification, str) else specification
        spec_label = self._spec_label(formula, name)
        with obs.span("mc.construct", category="modelcheck", spec=spec_label):
            negated_automaton = ltl_to_buchi(Not(formula), name=f"neg({formula})")
        lasso, stats = self._find_accepting_lasso(kripke, negated_automaton, spec_label=spec_label)
        if lasso is None:
            return VerificationResult(formula, True, None, stats)
        prefix_states, cycle_states = lasso
        counterexample = make_counterexample(
            [s for s, _ in prefix_states],
            [s for s, _ in cycle_states],
            kripke.label,
        )
        return VerificationResult(formula, False, counterexample, stats)

    def check_all(
        self, kripke: KripkeStructure, specifications: Iterable, *, spec_names: Iterable | None = None
    ) -> VerificationReport:
        """Check each specification in turn and return a combined report."""
        specs = list(specifications)
        names = list(spec_names) if spec_names is not None else [None] * len(specs)
        return VerificationReport(
            tuple(self.check(kripke, spec, name=name) for spec, name in zip(specs, names))
        )

    def verify_controller(
        self,
        model: TransitionSystem,
        controller: FSAController,
        specifications: Iterable,
        *,
        spec_names: Iterable | None = None,
    ) -> VerificationReport:
        """``M ⊗ C |= Φ_i`` for every Φ_i, over the materialized product."""
        with obs.span("mc.build_model", category="modelcheck", controller=controller.name):
            product = build_product(model, controller, restart_on_termination=True)
        return self.check_all(product, specifications, spec_names=spec_names)

    # ------------------------------------------------------------------ #
    # Emptiness check of KS × NBA
    # ------------------------------------------------------------------ #
    def _find_accepting_lasso(
        self, kripke: KripkeStructure, nba: BuchiAutomaton, *, spec_label: str = ""
    ):
        """Search the synchronous product for a reachable accepting cycle.

        Returns ``((prefix, cycle), stats)`` where prefix/cycle are lists of
        product states ``(kripke_state, nba_state)``; ``(None, stats)`` when the
        product language is empty (the specification holds).  ``spec_label``
        names the specification in the ``mc.product`` / ``mc.check`` spans.
        """
        kripke.validate()
        nba.validate()

        # Pre-index NBA transitions by source for fast lookup.
        nba_out: dict = {}
        for t in nba.transitions:
            nba_out.setdefault(t.source, []).append(t)

        def nba_successors(b, symbol):
            return [t.target for t in nba_out.get(b, ()) if t.constraint.satisfied_by(symbol)]

        # Initial product states: (s0, b) with b reachable from an NBA initial
        # state by reading L(s0).
        initial_product: list = []
        for s0 in kripke.initial_states:
            label = kripke.label(s0)
            for b0 in nba.initial_states:
                for b in nba_successors(b0, label):
                    initial_product.append((s0, b))

        successors_cache: dict = {}

        def product_successors(state):
            if state in successors_cache:
                return successors_cache[state]
            s, b = state
            out = []
            for s_next in kripke.successors(s):
                label_next = kripke.label(s_next)
                for b_next in nba_successors(b, label_next):
                    out.append((s_next, b_next))
            successors_cache[state] = out
            return out

        # Forward reachability (BFS) from initial product states.
        with obs.span("mc.product", category="modelcheck", spec=spec_label):
            parents: dict = {}
            order: list = []
            queue = deque()
            for init in initial_product:
                if init not in parents:
                    parents[init] = None
                    queue.append(init)
            while queue:
                state = queue.popleft()
                order.append(state)
                if len(order) > self.max_product_states:
                    raise VerificationError(
                        f"product exceeded {self.max_product_states} states; "
                        "increase max_product_states or simplify the specification"
                    )
                for succ in product_successors(state):
                    if succ not in parents:
                        parents[succ] = state
                        queue.append(succ)

        stats = {
            "product_states": len(order),
            "nba_states": nba.num_states,
            "kripke_states": kripke.num_states,
        }

        with obs.span("mc.check", category="modelcheck", spec=spec_label):
            accepting = [state for state in order if state[1] in nba.accepting_states]

            # For each reachable accepting state, look for a cycle back to it.
            for target in accepting:
                cycle = self._find_cycle(target, product_successors)
                if cycle is not None:
                    prefix = self._path_from_parents(parents, target)
                    prefix_pairs = prefix[:-1]  # the target itself starts the cycle
                    return (prefix_pairs, cycle), stats
            return None, stats

    @staticmethod
    def _find_cycle(target, product_successors):
        """BFS from the successors of ``target`` back to ``target``; returns the cycle."""
        parents: dict = {}
        queue = deque()
        for succ in product_successors(target):
            if succ == target:
                return [target]
            if succ not in parents:
                parents[succ] = None
                queue.append(succ)
        while queue:
            state = queue.popleft()
            for succ in product_successors(state):
                if succ == target:
                    # Reconstruct target -> ... -> state -> target as a cycle.
                    path = [state]
                    while parents[path[-1]] is not None:
                        path.append(parents[path[-1]])
                    return [target] + list(reversed(path))
                if succ not in parents:
                    parents[succ] = state
                    queue.append(succ)
        return None

    @staticmethod
    def _path_from_parents(parents: Mapping, target) -> list:
        path = [target]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])
        return list(reversed(path))
