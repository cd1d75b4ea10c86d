"""q-arithmetic primitives: shifted factorials, q-Gamma, q-factorial, q-powers.

All infinite sums and products are truncated under an explicit
:class:`TruncationPolicy` and return a :class:`SeriesResult` carrying the
value together with a tail estimate under a geometric-tail assumption
(not yet a certified bound; see ROADMAP item 3).

The policy's stop rule is written out twice, here and nowhere else:

* sums, :func:`truncated_sum`: stop after ``consecutive_small`` terms in a
  row below ``rel_tol * |running total| + abs_tol``, reading at most
  ``max_terms`` terms;
* products, :func:`product_length`: a factor 1 - x_k with |x_k| <= dev q^k
  is negligible once dev q^k < rel_tol. Those deviations only fall, so the
  streak never resets and the number of factors kept is the first such k
  plus ``consecutive_small``, computed directly instead of factor by factor.

Either rule converges only if it stops short of ``max_terms``.

Conventions: the deformation base q always lies strictly inside (0, 1);
all parameters are real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import mul

from .errors import NotConvergedError, PoleError

__all__ = [
    "DeformationParam",
    "TruncationPolicy",
    "SeriesResult",
    "DEFAULT_POLICY",
    "as_deformation",
    "truncated_sum",
    "product_length",
    "q_pochhammer_n",
    "q_pochhammer_inf",
    "q_pochhammer_alpha",
    "q_gamma",
    "q_factorial",
    "q_power",
    "q_power_alpha",
]

# |a - round(a)| below this counts as "a is that integer" for pole detection
_POLE_TOL = 1e-12


@dataclass(frozen=True)
class DeformationParam:
    """Deformation base q, restricted to the open interval (0, 1)."""

    q: float

    def __post_init__(self):
        q = float(self.q)
        if not (0.0 < q < 1.0) or q != q:
            raise ValueError(f"q must lie in (0,1), got {self.q!r}")
        object.__setattr__(self, "q", q)


def as_deformation(q: DeformationParam | float) -> DeformationParam:
    """Coerce a float to a validated :class:`DeformationParam`."""
    if isinstance(q, DeformationParam):
        return q
    return DeformationParam(float(q))


@dataclass(frozen=True)
class TruncationPolicy:
    """Stop rule and budget for every truncated infinite sum or product.

    A term (or factor deviation) is negligible when it falls below
    ``rel_tol`` relative to the running value plus the ``abs_tol``
    underflow guard; truncation happens only after ``consecutive_small``
    negligible terms in a row, which guards against accidental small
    terms in sign-alternating regimes.
    """

    rel_tol: float = 1e-14
    abs_tol: float = 1e-300
    max_terms: int = 100_000
    consecutive_small: int = 3

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.max_terms <= 0 or self.consecutive_small <= 0:
            raise ValueError("term counts must be positive")
        if self.max_terms <= self.consecutive_small:
            # a sum or product stops only with a full streak short of max_terms
            raise ValueError("max_terms must exceed consecutive_small")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series/product plus truncation bookkeeping.

    ``tail_estimate`` is an upper bound on the absolute truncation error
    under the geometric-tail assumption recorded by the producing
    operation; ``converged`` is False only on results recovered from a
    :class:`NotConvergedError`.
    """

    value: float
    terms_used: int
    tail_estimate: float
    converged: bool


def truncated_sum(terms, policy: TruncationPolicy):
    """Sum ``terms`` under the policy's stop rule for sums.

    Reads at most ``max_terms`` terms and returns ``(total, used, last,
    smallest, stopped)``: the running total, the number of terms read, the
    last and the smallest of them, and whether the rule stopped the sum
    (False when ``max_terms`` ran out first, or when ``terms`` ended first:
    a node sum ends its stream at the first node that underflows to 0).
    """
    rel_tol = policy.rel_tol
    abs_tol = policy.abs_tol
    needed = policy.consecutive_small
    max_terms = policy.max_terms
    total = 0.0
    streak = 0
    used = 0
    term = 0.0
    smallest = math.inf
    for used, term in enumerate(islice(terms, max_terms), 1):
        total += term
        if term < smallest:
            smallest = term
        if abs(term) < rel_tol * abs(total) + abs_tol:
            streak += 1
            if streak >= needed and used < max_terms:
                return total, used, term, smallest, True
        else:
            streak = 0
    return total, used, term, smallest, False


def _unstopped(what: str, used: int, policy: TruncationPolicy,
               unit: str = "terms") -> str:
    """Why a node sum's stop rule did not fire after ``used`` terms: its
    nodes underflowed to 0 first, or ``max_terms`` ran out."""
    if used < policy.max_terms:
        return f"{what}: nodes underflow to 0 after {used} terms"
    return f"{what}: no convergence within {policy.max_terms} {unit}"


def sum_series(terms, policy: TruncationPolicy, tail_ratio: float,
               what: str = "series", scale: float = 1.0) -> SeriesResult:
    """``scale`` times an infinite sum of terms under the policy's stop rule.

    ``tail_ratio`` in (0, 1) is the eventual geometric ratio of the
    summand; the tail estimate is scale * |last term| * r / (1 - r). The
    partial result of a sum that does not converge is scaled too, and its
    tail is its own |value|, as for the operator sums: a sum cut short has
    no geometric tail estimate.
    """
    total, used, last, _, stopped = truncated_sum(terms, policy)
    value = total * scale
    if not stopped:
        partial = SeriesResult(value, used, abs(value), False)
        raise NotConvergedError(_unstopped(what, used, policy), partial=partial)
    tail = abs(last) * tail_ratio / (1.0 - tail_ratio)
    return SeriesResult(value, used, tail * scale, True)


def product_length(dev: float, q: float,
                   policy: TruncationPolicy) -> tuple[int, float, bool]:
    """Stop rule for an infinite product prod_k (1 - x_k), |x_k| <= dev q^k.

    Returns ``(kept, log_tail, converged)``. Factor k is negligible once
    dev q^k < rel_tol; the deviations only fall, so from the first such k
    on every factor is negligible and the product keeps that k plus
    ``consecutive_small`` factors. That count comes from a log estimate
    and a short correcting loop. ``log_tail`` bounds the log of the dropped
    factors by sum_{k>=K} d q^(k-K+1) / (1 - min(d, 1/2)), d the last kept
    deviation. Without convergence, kept is ``max_terms`` and the tail inf.
    """
    rel_tol = policy.rel_tol
    limit = policy.max_terms - policy.consecutive_small
    first = 0
    if not dev < rel_tol:
        # an inf or nan deviation estimates to inf or nan and never converges
        estimate = (math.log(rel_tol) - math.log(dev)) / math.log(q)
        first = math.ceil(estimate) if estimate < limit else limit
        while first > 0 and dev * q ** (first - 1) < rel_tol:
            first -= 1
        while first < limit and not dev * q ** first < rel_tol:
            first += 1
    if first >= limit:
        return policy.max_terms, math.inf, False
    kept = first + policy.consecutive_small
    last = dev * q ** (kept - 1)
    return kept, last * q / ((1.0 - q) * (1.0 - min(last, 0.5))), True


def q_pochhammer_n(a: float, q: DeformationParam | float, n: int) -> float:
    """q-shifted factorial (a; q)_n for integer n of either sign.

    For n >= 0 this is the finite product prod_{k=0..n-1} (1 - a q^k)
    (empty product 1); for n < 0 it is 1 / prod_{k=1..|n|} (1 - a q^-k).

    Raises ZeroDivisionError when a negative-subscript factor vanishes,
    i.e. a equals q^m for some needed m >= 1.
    """
    qv = as_deformation(q).q
    n = int(n)
    if n >= 0:
        prod = 1.0
        qk = 1.0
        for _ in range(n):
            prod *= 1.0 - a * qk
            qk *= qv
        return prod
    denom = 1.0
    qmk = 1.0
    for _ in range(-n):
        qmk /= qv
        factor = 1.0 - a * qmk
        if factor == 0.0:
            raise ZeroDivisionError(
                f"(a;q)_{n} undefined: factor 1 - a*q^-k vanishes for a={a}, q={qv}"
            )
        denom *= factor
    return 1.0 / denom


def _pochhammer_inf_parts(a: float, qv: float,
                          policy: TruncationPolicy) -> tuple[float, int, int, float]:
    """(log|value|, sign, factors used, log-space tail bound) of (a;q)_inf.

    Working with log magnitude plus sign keeps products well defined far
    outside the double-precision range, which matters for ratios like the
    q-Gamma function near q -> 1 where both products underflow. A factor
    that is exactly zero yields log|value| = -inf.

    ``product_length(|a|, q)`` sets the number of factors. The few leading
    factors with a q^k >= 1 set the sign; the rest add log1p(-a q^k).
    """
    kept, log_tail, converged = product_length(abs(a), qv, policy)
    qks = accumulate(repeat(qv, kept - 1), mul, initial=1.0)  # q^k, k < kept
    log_abs = 0.0
    sign = 1
    for used, qk in enumerate(qks, 1):
        x = a * qk
        if x < 1.0:
            log_abs += math.log1p(-x)
            break
        if x == 1.0:
            return (-math.inf, 1, used, 0.0)
        sign = -sign
        log_abs += math.log(x - 1.0)
    for qk in qks:  # left to right; sum() compensates rounding from 3.12 on
        log_abs += math.log1p(-a * qk)
    if not converged:
        raise NotConvergedError(
            f"(a;q)_inf: no convergence within {policy.max_terms} factors "
            f"(a={a}, q={qv})",
            partial=SeriesResult(sign * _safe_exp(log_abs), kept, math.inf, False),
        )
    return (log_abs, sign, kept, log_tail)


def _safe_exp(log_abs: float) -> float:
    try:
        return math.exp(log_abs)
    except OverflowError:
        return math.inf


def q_pochhammer_inf(a: float, q: DeformationParam | float,
                     policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """Infinite q-shifted factorial (a; q)_inf = prod_{k>=0} (1 - a q^k)."""
    qv = as_deformation(q).q
    log_abs, sign, used, log_tail = _pochhammer_inf_parts(a, qv, policy)
    value = sign * _safe_exp(log_abs)
    tail = abs(value) * math.expm1(log_tail) if math.isfinite(value) else math.inf
    return SeriesResult(value, used, tail, True)


def q_pochhammer_alpha(a: float, q: DeformationParam | float, alpha: float,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """q-shifted factorial with arbitrary real exponent.

    (a; q)_alpha = (a; q)_inf / (a q^alpha; q)_inf, formed in log space so
    a pair of individually underflowing products still has a well-defined
    ratio. Agrees with q_pochhammer_n for integer alpha.
    """
    dq = as_deformation(q)
    num = _pochhammer_inf_parts(a, dq.q, policy)
    den = _pochhammer_inf_parts(a * dq.q ** alpha, dq.q, policy)
    return _combine_parts(num, den, 0.0, f"(a;q)_alpha a={a} alpha={alpha}")


def _combine_parts(num, den, log_scale: float, what: str) -> SeriesResult:
    log_num, sign_num, used_num, tail_num = num
    log_den, sign_den, used_den, tail_den = den
    if log_den == -math.inf:
        raise ZeroDivisionError(f"{what}: denominator product vanishes")
    value = sign_num * sign_den * _safe_exp(log_num - log_den + log_scale)
    rel = math.expm1(tail_num) + math.expm1(tail_den)
    tail = abs(value) * rel if math.isfinite(value) else math.inf
    return SeriesResult(value, used_num + used_den, tail, True)


def q_gamma(a: float, q: DeformationParam | float,
            policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """q-Gamma function (q; q)_inf / (q^a; q)_inf * (1-q)^(1-a).

    Satisfies the functional equation G(x+1) = (1-q^x)/(1-q) * G(x) and
    tends to the classical Gamma function as q -> 1-.
    """
    dq = as_deformation(q)
    qv = dq.q
    ra = round(a)
    if abs(a - ra) < _POLE_TOL and ra <= 0:
        raise PoleError(f"q_gamma pole at nonpositive integer a={a}")
    num = _pochhammer_inf_parts(qv, qv, policy)
    den = _pochhammer_inf_parts(qv ** a, qv, policy)
    return _combine_parts(num, den, (1.0 - a) * math.log1p(-qv), f"q_gamma({a})")


def q_factorial(n: int, q: DeformationParam | float) -> float:
    """q-factorial: product of q-integers (1-q^k)/(1-q), k = 1..n."""
    qv = as_deformation(q).q
    n = int(n)
    if n < 0:
        raise ValueError(f"q_factorial requires n >= 0, got {n}")
    prod = 1.0
    for k in range(1, n + 1):
        prod *= (1.0 - qv ** k) / (1.0 - qv)
    return prod


def q_power(t: float, a: float, q: DeformationParam | float, n: int) -> float:
    """q-analogue of (t - a)^n: prod_{k=0..n-1} (t - q^k a)."""
    qv = as_deformation(q).q
    n = int(n)
    if n < 0:
        raise ValueError(f"q_power requires n >= 0, got {n}")
    prod = 1.0
    qk = 1.0
    for _ in range(n):
        prod *= t - qk * a
        qk *= qv
    return prod


def q_power_alpha(t: float, a: float, q: DeformationParam | float, alpha: float,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """q-analogue of (t - a)^alpha for real alpha and t > 0.

    Evaluates t^alpha * (a/t; q)_alpha. This is the kernel of the
    integral representation of the fractional operators; ek_integral
    reads it from one table of log factors per call, and this per-node
    form is that table's reference.
    """
    if not t > 0.0:
        raise ValueError(f"q_power_alpha requires t > 0, got {t}")
    poch = q_pochhammer_alpha(a / t, q, alpha, policy)
    scale = t ** alpha
    return SeriesResult(
        poch.value * scale,
        poch.terms_used,
        poch.tail_estimate * abs(scale),
        poch.converged,
    )
