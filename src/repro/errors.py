"""Exception hierarchy for the repro library.

Every library-specific failure raises a subclass of :class:`ReproError` so
callers can distinguish library errors from programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific exceptions."""


class LTLSyntaxError(ReproError):
    """Raised when an LTL formula string cannot be parsed."""


class AutomatonError(ReproError):
    """Raised for malformed automata (unknown states, bad symbols, ...)."""


class AlignmentError(ReproError):
    """Raised when a textual step cannot be aligned to propositions/actions."""


class VerificationError(ReproError):
    """Raised when model checking cannot be carried out (not a spec violation)."""


class SimulationError(ReproError):
    """Raised when a simulator rollout is configured inconsistently."""


class TrainingError(ReproError):
    """Raised for invalid language-model or DPO training configurations."""
