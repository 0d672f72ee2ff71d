"""Formal-verification feedback (Section 4.2, "Formal Verification").

Given a controller induced by a language-model response, a world model and a
set of specifications, the feedback is the number (and set) of specifications
the product automaton satisfies.  This is the quantity DPO-AF uses to rank
responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.automata.fsa import FSAController
from repro.automata.transition_system import TransitionSystem
from repro.errors import AlignmentError
from repro.glm2fsa.builder import build_controller_from_text
from repro.modelcheck.checker import ModelChecker


@dataclass(frozen=True)
class FormalFeedback:
    """Verification feedback for one response/controller."""

    task: str
    num_satisfied: int
    num_specifications: int
    satisfied: tuple = ()
    violated: tuple = ()
    controller_states: int = 0
    parse_failed: bool = False

    @property
    def satisfaction_ratio(self) -> float:
        """Fraction of specifications satisfied; 1.0 when there are none.

        Vacuous truth, matching
        :attr:`~repro.modelcheck.checker.VerificationReport.satisfaction_ratio`:
        with an empty rule book nothing can be violated, so a controller is
        (trivially) fully compliant rather than maximally non-compliant.
        ``parse_failed`` feedback always carries the full rule book as
        ``violated``, so an unparseable response still scores 0.0.
        """
        if self.num_specifications == 0:
            return 1.0
        return self.num_satisfied / self.num_specifications

    def describe(self) -> str:
        status = "unparseable response" if self.parse_failed else f"{self.num_satisfied}/{self.num_specifications}"
        return f"[{self.task}] {status} specifications satisfied"


class FormalVerifier:
    """Computes :class:`FormalFeedback` for responses or controllers.

    A controller built from a response emits ``stop`` while it waits or
    observes (:func:`repro.glm2fsa.builder.build_controller`'s default), and
    the checker restarts it after its last step.

    Scoring is parse → :meth:`~repro.modelcheck.checker.ModelChecker.verdicts`
    → feedback, and the verifier keeps no state of its own.  The checker
    decides every weak rule in one pass over the product, builds no
    counterexample or statistics (nothing on the scoring path reads them),
    and caches the verdicts under the world model's and the controller's
    structure fingerprints and the rule book's text: every later controller
    with an already-checked structure reuses them under its own task.

    Parameters
    ----------
    specifications:
        Mapping ``{name: Formula}`` (e.g. the paper's Φ1 ... Φ15).
    checker:
        Optional shared :class:`ModelChecker` instance, used as given;
        verifiers sharing one also share its verdict cache, each under its
        own rule book's text.
    """

    def __init__(self, specifications: Mapping, *, checker: ModelChecker | None = None):
        self.specifications = dict(specifications)
        self.checker = checker or ModelChecker()

    # ------------------------------------------------------------------ #
    def verify_controller(self, model: TransitionSystem, controller: FSAController, *, task: str = "") -> FormalFeedback:
        """Feedback for an already-constructed controller."""
        names = list(self.specifications)
        holds = self.checker.verdicts(model, controller, self.specifications.values(), spec_names=names)
        satisfied = tuple(name for name, rule_holds in zip(names, holds) if rule_holds)
        return FormalFeedback(
            task=task or controller.name,
            num_satisfied=len(satisfied),
            num_specifications=len(names),
            satisfied=satisfied,
            violated=tuple(name for name, rule_holds in zip(names, holds) if not rule_holds),
            controller_states=controller.num_states,
        )

    def verify_response(self, model: TransitionSystem, response_text: str, *, task: str = "") -> FormalFeedback:
        """Feedback for a raw language-model response (parse → build → verify).

        An unparseable response (no alignable steps) satisfies zero
        specifications: it cannot be compiled into a controller at all, which
        is exactly the behaviour DPO-AF penalises.
        """
        try:
            controller = build_controller_from_text(
                response_text,
                task=task,
                name=task or "response_controller",
            )
        except AlignmentError:
            return FormalFeedback(
                task=task,
                num_satisfied=0,
                num_specifications=len(self.specifications),
                violated=tuple(self.specifications),
                parse_failed=True,
            )
        return self.verify_controller(model, controller, task=task)
