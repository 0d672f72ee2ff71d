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
  automaton pruning, integer-compiled products, every weak rule decided in
  one bit-parallel pass and a verdict cache, built from
  :mod:`repro.modelcheck.fastpath`.
  Verdicts are identical (``tests/modelcheck/test_differential.py`` holds the
  two paths to the same ``holds`` on every catalogue task and a fuzz corpus);
  counterexamples may differ in the particular lasso chosen but are always
  genuine violations.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
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


#: Bound on each checker's verdict cache (``result_cache_size``'s default).
#: perfbench's ``feedback_serve`` stream holds 2,876 distinct (world model,
#: controller structure) pairs at seed 0; an entry (two fingerprints, the
#: rule book's text and a tuple of verdicts) is ~500 B, so a full cache is
#: ~2 MB.
VERDICT_CACHE_SIZE = 4096

#: Model fingerprints each checker memoizes by model identity.  A verifier
#: passes one model per scenario on every call, far fewer than this; a
#: caller passing a fresh model each time evicts old entries instead of
#: keeping every model it ever passed alive.
IDENTITY_MEMO_SIZE = 64

#: Compiled batches (:class:`_Batch`) each checker keeps: one per distinct
#: set of specification objects it is asked to decide at once.
BATCH_MEMO_SIZE = 8


class _BoundedMemo:
    """A thread-safe LRU of computed values; the value is computed under the lock.

    Not a :class:`~repro.modelcheck.fastpath.ResultCache`: perfbench counts
    every ``ResultCache.get`` as a verdict lookup.
    """

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, compute, *args):
        """The value memoized under ``key``, or ``compute(*args)`` stored there."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                value = self._entries[key] = compute(*args)
                if len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
            else:
                self._entries.move_to_end(key)
            return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


@dataclass(frozen=True)
class _Batch:
    """A batch of specifications compiled once per checker.

    ``specs`` are the objects the caller passed (formulas, or their text),
    which the checker's memo keys by identity: the batch holds them, so
    their ids cannot be reused while it lives.  ``key`` is each formula's
    canonical text (:func:`~repro.logic.ltl2buchi.formula_key`), which keys
    the verdict cache without holding a formula.  ``weak`` indexes the weak,
    non-empty automata that ``book`` decides in one pass.
    """

    specs: tuple
    formulas: tuple
    key: tuple
    automata: tuple
    weak: tuple
    book: fastpath.RuleBook | None


class ModelChecker:
    """Explicit-state LTL model checker over Kripke structures.

    Every method decides its specifications in one pass over the structure:
    the weak automata (every rule of the paper's book) together, through
    :func:`~repro.modelcheck.fastpath.check_rule_book`, any other one by its
    own :func:`~repro.modelcheck.fastpath.find_accepting_lasso`.
    :meth:`verdicts` stops there and caches what it decided; the report
    methods then search each violated rule again for its counterexample.
    A batch of specifications is translated and laid out once per checker,
    memoized on the identities of the specification objects.

    Parameters
    ----------
    max_product_states:
        Safety limit on the size of the Kripke × Büchi product; exceeded sizes
        raise :class:`~repro.errors.VerificationError` rather than hanging.
    result_cache_size:
        Bound on the verdict cache, a
        :class:`~repro.modelcheck.fastpath.ResultCache` of :meth:`verdicts`
        keyed on the world model's and the controller's structure
        fingerprints and the specifications' text; ``0`` disables it.
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
        result_cache_size: int = VERDICT_CACHE_SIZE,
        memo: fastpath.BuchiMemo | None = None,
    ):
        self.max_product_states = max_product_states
        self._memo = memo if memo is not None else fastpath.automata_memo()
        self._verdicts = fastpath.ResultCache(result_cache_size) if result_cache_size > 0 else None
        self._model_fingerprints = _BoundedMemo(IDENTITY_MEMO_SIZE)
        self._batches = _BoundedMemo(BATCH_MEMO_SIZE)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def check(
        self, kripke: KripkeStructure, specification: Formula | str, *, name: str | None = None
    ) -> VerificationResult:
        """Check one LTL specification against a Kripke structure.

        ``name`` optionally labels the specification in trace spans (the
        rule-book name Φ1…Φ15); it defaults to the formula's text when
        tracing is enabled.
        """
        return self.check_all(kripke, [specification], spec_names=[name]).results[0]

    def check_all(
        self, kripke: KripkeStructure, specifications: Iterable, *, spec_names: Iterable | None = None
    ) -> VerificationReport:
        """Check a batch of specifications and return a combined report.

        ``spec_names`` optionally supplies one trace label per specification
        (same order); unnamed specs are labelled by their formula text when
        tracing is enabled.  The structure is compiled to integers once and
        every specification is decided in one pass over it.
        """
        kripke.validate()
        compiled = fastpath.compile_kripke(kripke)
        batch, labels = self._batch(specifications, spec_names)
        return self._report(compiled, batch, labels)

    def verify_controller(
        self,
        model: TransitionSystem,
        controller: FSAController,
        specifications: Iterable,
        *,
        spec_names: Iterable | None = None,
    ) -> VerificationReport:
        """``M ⊗ C |= Φ_i`` for every Φ_i, with counterexamples and statistics.

        The controller restarts from ``q0`` after its final step, which keeps
        the transition relation total (the paper's SMV default case); see
        :func:`repro.automata.product.build_product`.  ``spec_names``
        optionally labels each specification's trace spans.

        The product is compiled directly into integer space, never
        materializing the intermediate Kripke structure.  Reports are not
        cached: their counterexamples and statistics are ~8 KB a controller,
        and the scoring path reads only :meth:`verdicts`.
        """
        batch, labels = self._batch(specifications, spec_names)
        if not batch.formulas:
            return VerificationReport(())  # an empty rule book builds no product
        return self._report(self._compile_product(model, controller), batch, labels)

    def verdicts(
        self,
        model: TransitionSystem,
        controller: FSAController,
        specifications: Iterable,
        *,
        spec_names: Iterable | None = None,
    ) -> tuple:
        """Whether each specification holds of ``M ⊗ C``: the scoring primitive.

        The same verdicts as :meth:`verify_controller`, from the same pass,
        without building a counterexample or counting statistics.  They are
        cached under the world model's and the controller's structure
        fingerprints and the specifications' text, so every later controller
        with an already-checked structure skips the product; a hit records
        no span.
        """
        batch, labels = self._batch(specifications, spec_names)
        if not batch.formulas:
            return ()  # as verify_controller, an empty rule book builds no product
        key = None
        if self._verdicts is not None:
            key = (self.model_fingerprint(model), fastpath.controller_fingerprint(controller), batch.key)
            holds = self._verdicts.get(key)
            if holds is not None:
                return holds
        holds = self._decide(self._compile_product(model, controller), batch, labels, explained=False)[0]
        if key is not None:
            self._verdicts.put(key, holds)
        return holds

    # ------------------------------------------------------------------ #
    # Fast path internals
    # ------------------------------------------------------------------ #
    def _batch(self, specifications: Iterable, spec_names: Iterable | None) -> tuple:
        """``(batch, labels)``: the compiled batch and this call's span labels."""
        specs = tuple(specifications)
        names = list(spec_names) if spec_names is not None else [None] * len(specs)
        batch = self._batches.get(tuple(map(id, specs)), self._compile_batch, specs, names)
        return batch, _labels(names, batch.key)

    def _compile_batch(self, specs: tuple, names: list) -> _Batch:
        formulas = tuple(parse_ltl(s) if isinstance(s, str) else s for s in specs)
        key = tuple(formula_key(formula) for formula in formulas)
        automata = tuple(map(self._construct_automaton, formulas, _labels(names, key)))
        weak = tuple(i for i, automaton in enumerate(automata) if automaton.weak and not automaton.is_empty)
        book = fastpath.RuleBook([automata[i] for i in weak]) if weak else None
        return _Batch(specs, formulas, key, automata, weak, book)

    def _compile_product(self, model: TransitionSystem, controller: FSAController):
        with obs.span("mc.build_model", category="modelcheck", controller=controller.name):
            return fastpath.compile_product(model, controller, restart_on_termination=True)

    def _report(self, structure, batch: _Batch, labels: list) -> VerificationReport:
        """The batch's results on ``structure``, with counterexamples and statistics."""
        holds, searches, counts = self._decide(structure, batch, labels, explained=True)
        results = []
        for i, (formula, automaton) in enumerate(zip(batch.formulas, batch.automata)):
            if i in searches:
                lasso, stats = searches[i]
            elif holds[i]:
                lasso, stats = None, {
                    "product_states": counts.get(i, 0),
                    "nba_states": automaton.num_states,
                    "kripke_states": structure.num_states,
                }
            else:
                # The shared pass found the violation; search for its lasso.
                lasso, stats = fastpath.find_accepting_lasso(
                    structure,
                    automaton,
                    spec_label=labels[i],
                    max_product_states=self.max_product_states,
                )
                if lasso is None:
                    raise VerificationError(
                        "internal error: the lasso search missed a violation the shared pass found"
                    )  # pragma: no cover - both decide the same product exactly
            counterexample = None if lasso is None else make_counterexample(*lasso, structure.label_of)
            results.append(VerificationResult(formula, lasso is None, counterexample, stats))
        return VerificationReport(tuple(results))

    def _decide(self, structure, batch: _Batch, labels: list, *, explained: bool) -> tuple:
        """Every rule's verdict on ``structure``: ``(holds, searches, counts)``.

        The batch's weak non-empty automata are decided together by one
        :func:`~repro.modelcheck.fastpath.check_rule_book` pass under one
        ``mc.product`` span; every other non-empty automaton by its own
        :func:`~repro.modelcheck.fastpath.find_accepting_lasso`, whose
        ``(lasso, stats)`` ``searches`` keeps by index.  An empty automaton
        holds.  With ``explained``, ``counts`` maps each rule of the shared
        pass to its product-state count.
        """
        holds = [True] * len(batch.automata)
        searches: dict = {}
        counts: dict = {}
        if batch.book is not None:
            with obs.span("mc.product", category="modelcheck", rules=len(batch.weak)):
                book_holds, reach = fastpath.check_rule_book(
                    structure, batch.book, max_product_states=self.max_product_states
                )
            for i, rule_holds in zip(batch.weak, book_holds):
                holds[i] = rule_holds
            if explained:
                counts = dict(zip(batch.weak, batch.book.product_states(reach)))
        for i, automaton in enumerate(batch.automata):
            if not automaton.weak and not automaton.is_empty:
                searches[i] = fastpath.find_accepting_lasso(
                    structure,
                    automaton,
                    spec_label=labels[i],
                    max_product_states=self.max_product_states,
                )
                holds[i] = searches[i][0] is None
        return tuple(holds), searches, counts

    def _construct_automaton(self, formula: Formula, spec_label: str):
        """The memoized pruned NBA for ``¬formula``; only a translation records a span."""
        negated = Not(formula)
        key = formula_key(negated)
        cached = self._memo.lookup(key)
        if cached is not None:
            return cached
        with obs.span("mc.construct", category="modelcheck", spec=spec_label):
            return self._memo.translate_and_store(key, negated, name=f"neg({formula})")

    def model_fingerprint(self, model: TransitionSystem) -> str:
        """:func:`~repro.modelcheck.fastpath.model_fingerprint` of ``model``,
        memoized by identity; computed under the lock, so concurrent callers
        compute it once.  The entry holds ``model``, so its id cannot be
        reused by another model while the entry lives."""
        return self._model_fingerprints.get(id(model), _with_fingerprint, model)[1]


def _with_fingerprint(model: TransitionSystem) -> tuple:
    return model, fastpath.model_fingerprint(model)


def _labels(names: list, texts: tuple) -> list:
    """Span labels: each name, else the formula's text while tracing, else ``""``."""
    tracing = obs.tracing_enabled()
    return [name if name is not None else (text if tracing else "") for name, text in zip(names, texts, strict=True)]


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
        spec_label = name if name is not None else (str(formula) if obs.tracing_enabled() else "")
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
        """Check each specification in turn and return a combined report.

        Raises ``ValueError`` when ``spec_names`` does not name every
        specification, as :meth:`ModelChecker.check_all` does.
        """
        specs = list(specifications)
        names = list(spec_names) if spec_names is not None else [None] * len(specs)
        return VerificationReport(
            tuple(self.check(kripke, spec, name=name) for spec, name in zip(specs, names, strict=True))
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

    def verdicts(
        self,
        model: TransitionSystem,
        controller: FSAController,
        specifications: Iterable,
        *,
        spec_names: Iterable | None = None,
    ) -> tuple:
        """Whether each specification holds, read off :meth:`verify_controller`'s report."""
        report = self.verify_controller(model, controller, specifications, spec_names=spec_names)
        return tuple(result.holds for result in report.results)

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
