"""Jackson q-integration over (0, b].

Integrands may be plain callables or DSL expression trees (nodes of
:class:`~qek.functions.FunctionSpec`, which are callable). Functions are
never evaluated at 0: every node set {b * q^j} stays strictly positive,
so integrands only need to be defined on (0, b]. Convergence of the node
series requires the integrand to behave like t^p near 0 with p > -1;
integrands carrying a ``c_lambda_exponent`` attribute p are checked
against that bound, and those without it are taken as bounded near 0.
The operator's integral form (``ekoperator.ek_integral``) shares the
rule at its (eta, beta).
"""

from __future__ import annotations

from .errors import DomainError
from .functions import as_callable
from .qcore import (
    DEFAULT_POLICY,
    DeformationParam,
    SeriesResult,
    TruncationPolicy,
    as_deformation,
    sum_series,
)

__all__ = ["jackson_integral"]


def _check_exponent(f, eta: float = 0.0, beta: float = 1.0) -> float:
    """eta + 1 + min(p, 0)/beta, p the integrand's ``c_lambda_exponent``
    (0 without it): the exponent of q in the eventual ratio of the terms
    q^(j(eta+1)) f(b q^(j/beta)), which must fall: DomainError unless
    eta + 1 + p/beta > 0. The Jackson integral is (eta, beta) = (0, 1)."""
    p = getattr(f, "c_lambda_exponent", 0.0)
    if eta + 1.0 + p / beta <= 0.0:
        raise DomainError(
            f"series not summable: eta+1+p/beta = {eta + 1.0 + p / beta}")
    return eta + 1.0 + min(p, 0.0) / beta


def jackson_integral(f, b: float, q: DeformationParam | float,
                     policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """Jackson integral of f over (0, b]: (1-q) b sum_j q^j f(q^j b)."""
    if not b > 0.0:
        raise ValueError(f"upper limit must be positive, got {b}")
    qv = as_deformation(q).q
    ratio = qv ** _check_exponent(f)
    fn = as_callable(f)

    def terms():
        qj = 1.0
        while True:
            node = b * qj
            if not node > 0.0:  # underflow ends the node stream
                return
            yield qj * fn(node)
            qj *= qv

    return sum_series(terms(), policy, ratio, what=f"jackson_integral(b={b})",
                      scale=(1.0 - qv) * b)
