"""q-differentiation and Jackson q-integration.

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

from dataclasses import dataclass
from functools import partial
from itertools import accumulate, repeat, takewhile
from operator import le, mul

from .errors import DomainError, NotConvergedError
from .functions import as_callable
from .qcore import (
    DEFAULT_POLICY,
    DeformationParam,
    SeriesResult,
    TruncationPolicy,
    _STREAK,
    as_deformation,
    sum_series,
)

__all__ = [
    "QGridSample",
    "q_derivative",
    "jackson_integral",
    "jackson_integral_ab",
    "jackson_stieltjes",
]


@dataclass(frozen=True)
class QGridSample:
    """Geometric sample of a function on the node set {base^j * b}.

    ``values`` holds (node, f(node)) pairs with nodes strictly decreasing
    toward 0; the node count follows the policy that produced the sample.
    """

    base_point: float
    base: DeformationParam
    values: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.base_point > 0.0:
            raise ValueError("base_point must be positive")
        nodes = [node for node, _ in self.values]
        if any(n2 >= n1 for n1, n2 in zip(nodes, nodes[1:])):
            raise ValueError("nodes must be strictly decreasing")
        if nodes and nodes[-1] <= 0.0:
            raise ValueError("nodes must stay strictly positive")

    @classmethod
    def sample(cls, f, base_point: float, base: DeformationParam | float,
               policy: TruncationPolicy = DEFAULT_POLICY) -> "QGridSample":
        """Sample f on {base^j * base_point}, j < n, with n the first j
        with base^j < rel_tol plus 3, the streak of the stop rule for
        sums. Raises NotConvergedError carrying the ``max_terms``-node
        sample when n does not stay below ``max_terms``."""
        b = as_deformation(base)
        large = takewhile(partial(le, policy.rel_tol), accumulate(
            repeat(b.q, policy.max_terms - 1), mul, initial=1.0))
        count = sum(1 for _ in large) + _STREAK
        scales = accumulate(repeat(b.q, min(count, policy.max_terms) - 1),
                            mul, initial=1.0)
        nodes = [base_point * scale for scale in scales]
        sample = cls(float(base_point), b, tuple((x, f(x)) for x in nodes))
        if count >= policy.max_terms:
            raise NotConvergedError(
                f"QGridSample: no convergence within {policy.max_terms} nodes",
                partial=sample)
        return sample


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


def q_derivative(f, t: float, q: DeformationParam | float) -> float:
    """q-difference quotient (f(qt) - f(t)) / ((q - 1) t)."""
    if t == 0.0:
        raise DomainError("q_derivative undefined at t = 0")
    qv = as_deformation(q).q
    try:
        num = f(qv * t) - f(t)
    except DomainError:
        raise
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"function not evaluable near t={t}: {exc}") from exc
    return num / ((qv - 1.0) * t)


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


def jackson_integral_ab(f, a: float, b: float, q: DeformationParam | float,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """Definite Jackson integral over [a, b] as the difference of the two
    integrals from 0; tails of both halves add."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("limits must be positive")
    q = as_deformation(q)
    if a == b:
        return SeriesResult(0.0, 0, 0.0, True)
    # a > b handled by antisymmetry (plumbing convenience).
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    upper = jackson_integral(f, b, q, policy)
    lower = jackson_integral(f, a, q, policy)
    return SeriesResult(
        sign * (upper.value - lower.value),
        upper.terms_used + lower.terms_used,
        upper.tail_estimate + lower.tail_estimate,
        upper.converged and lower.converged,
    )


def jackson_stieltjes(f, g, b: float, q: DeformationParam | float,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """Stieltjes-form Jackson integral sum_j f(q^j b)(g(q^j b) - g(q^(j+1) b)).

    Reduces to the plain Jackson integral when g is the identity. The
    tail estimate takes the terms' ratio as q, whatever g and f are.
    """
    if not b > 0.0:
        raise ValueError(f"upper limit must be positive, got {b}")
    qv = as_deformation(q).q
    _check_exponent(f)

    def terms():
        qj = 1.0
        g_here = g(b)
        while True:
            qj_next = qj * qv
            node_next = b * qj_next
            if not node_next > 0.0:  # term j needs node j + 1
                return
            g_next = g(node_next)
            yield f(b * qj) * (g_here - g_next)
            qj = qj_next
            g_here = g_next

    return sum_series(terms(), policy, qv, what=f"jackson_stieltjes(b={b})")
