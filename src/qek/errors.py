"""Exception types shared across the package.

A vanishing denominator product in ``qcore.q_power_alpha`` raises the
builtin ``ZeroDivisionError``; everything else derives from
:class:`QekError` so callers can catch library failures in one clause.
"""

from __future__ import annotations


class QekError(Exception):
    """Base class for all qek errors."""


class NotConvergedError(QekError):
    """A truncated series or product hit its term budget before the stop
    rule fired.

    Carries the partial result (``converged=False``) so diagnostics can
    report how far the evaluation got.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class PoleError(QekError):
    """Evaluation requested at a pole of a special function."""


class DomainError(QekError):
    """A function was evaluated outside its admissible domain."""


class NotLipschitzError(QekError):
    """No finite Lipschitz constant exists for the requested expression."""


class HypothesisViolatedError(QekError):
    """A theorem evaluator found its stated hypotheses violated."""
