"""Model checking: the NuSMV-substitute LTL checker.

Two checker classes share one verdict semantics: :class:`ModelChecker` (the
optimized default — memoized Büchi construction, automaton pruning, compiled
products, result caching; see :mod:`repro.modelcheck.fastpath` and
``docs/modelcheck.md``) and :class:`NaiveModelChecker` (the frozen reference
implementation the differential test suite compares against).
"""

from repro.modelcheck.checker import (
    ModelChecker,
    NaiveModelChecker,
    VerificationReport,
    VerificationResult,
)
from repro.modelcheck.counterexample import Counterexample, CounterexampleStep, make_counterexample
from repro.modelcheck.fastpath import (
    BuchiMemo,
    CachedAutomaton,
    ResultCache,
    automata_memo,
    automaton_accepts_lasso,
    controller_fingerprint,
    model_fingerprint,
    prune_automaton,
)

__all__ = [
    "ModelChecker",
    "NaiveModelChecker",
    "VerificationReport",
    "VerificationResult",
    "Counterexample",
    "CounterexampleStep",
    "make_counterexample",
    "BuchiMemo",
    "CachedAutomaton",
    "ResultCache",
    "automata_memo",
    "automaton_accepts_lasso",
    "controller_fingerprint",
    "model_fingerprint",
    "prune_automaton",
]
