"""q-arithmetic primitives: q-products, q-Gamma, q-factorial, the q-power kernel.

All infinite sums and products are truncated under an explicit
:class:`TruncationPolicy` and return a :class:`SeriesResult` carrying the
value together with a tail estimate. Each rule is written once:

* Sums, :func:`sum_series`: stop after 3 terms in a row below
  ``rel_tol * |running total| + 1e-300``, reading at most ``max_terms``
  terms. The tail estimate assumes a geometric tail.
* Infinite products (a; q)_inf of a general a, :func:`log_q_product`,
  behind the q-power kernel :func:`q_power_alpha`: the few leading
  factors with |a q^k| > 1/2 in log space, then Euler's series
  log (x; q)_inf = -sum_(n>=1) x^n / (n (1 - q^n)), |x| <= 1/2, until its
  certified tail falls below ``rel_tol``.
* Ratios (q^(e+d); q)_inf / (q^e; q)_inf, :func:`log_q_ratio`, behind
  q-Gamma and the operators' closed forms, weights and kernel: the same
  route with the two products' common factors cancelled, so that the
  rounding does not grow like 1/(1 - q).

For both products, factors plus series terms are at most ``max_terms``
and the error bound covers the tail and the rounding. Each rule
converges only if it stops short of ``max_terms``.

Conventions: the deformation base q always lies strictly inside (0, 1);
all parameters are real.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate, islice, repeat
from operator import add, mul, neg, sub, truediv

from .errors import NotConvergedError, PoleError

__all__ = [
    "DeformationParam",
    "TruncationPolicy",
    "SeriesResult",
    "DEFAULT_POLICY",
    "as_deformation",
    "LogQProduct",
    "log_q_product",
    "log_q_ratio",
    "q_gamma",
    "q_factorial",
    "q_power_alpha",
]

# |a - round(a)| below this counts as "a is that integer" for pole detection
_POLE_TOL = 1e-12
# unit roundoff of IEEE double precision
_U = 2.0 ** -53
_LN2 = math.log(2.0)
# the stop rule for sums: _STREAK terms in a row below
# rel_tol * |total| + _ABS_TOL, the constant a guard for tiny totals
_ABS_TOL = 1e-300
_STREAK = 3


class _Validated:
    """Base of a namedtuple record whose ``__new__`` validates: the
    namedtuple ``_replace`` builds through ``_make``, which would skip
    ``__new__``, so ``_make`` calls the class."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class DeformationParam(_Validated, namedtuple("DeformationParam", "q")):
    """Deformation base q, restricted to the open interval (0, 1)."""

    __slots__ = ()

    def __new__(cls, q):
        value = float(q)
        if not (0.0 < value < 1.0) or value != value:
            raise ValueError(f"q must lie in (0,1), got {q!r}")
        return super().__new__(cls, value)


def as_deformation(q: DeformationParam | float) -> DeformationParam:
    """Coerce a float to a validated :class:`DeformationParam`."""
    if isinstance(q, DeformationParam):
        return q
    return DeformationParam(float(q))


class TruncationPolicy(_Validated, namedtuple(
        "TruncationPolicy", "rel_tol max_terms", defaults=(1e-14, 100_000))):
    """Tolerance and budget for every truncated infinite sum or product.

    ``rel_tol`` is the relative size below which a sum's term or a
    product's series tail is negligible; ``max_terms`` bounds the terms,
    factors or nodes one sum or product reads.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be strictly positive and finite")
        if self.max_terms <= _STREAK:
            # a sum stops only with a full streak short of max_terms
            raise ValueError(f"max_terms must exceed {_STREAK}")
        return self


DEFAULT_POLICY = TruncationPolicy()


class SeriesResult(namedtuple("SeriesResult",
                              "value terms_used tail_estimate converged")):
    """Value of a truncated series/product plus truncation bookkeeping.

    ``tail_estimate`` is an upper bound on the absolute error: for a
    stop-rule sum, of its truncation under the geometric-tail assumption
    recorded by the producing operation; for a q-product, of its series
    tail and rounding. ``converged`` is False only on results recovered
    from a :class:`NotConvergedError`.
    """

    __slots__ = ()


def sum_series(terms, policy: TruncationPolicy, tail_ratio: float,
               what: str = "series", scale: float = 1.0) -> SeriesResult:
    """``scale`` times an infinite sum of ``terms`` under the stop rule for
    sums, which every node sum in the package uses.

    ``tail_ratio`` in (0, 1) is the eventual geometric ratio of the
    summand; the tail estimate is |scale| * |last term| * r / (1 - r). A
    sum that does not stop short of ``max_terms``, or whose node stream
    ends first at a node that underflows to 0, raises NotConvergedError
    with its scaled partial result, whose tail is its own |value|: a sum
    cut short has no geometric tail estimate.
    """
    rel_tol = policy.rel_tol
    max_terms = policy.max_terms
    total = 0.0
    streak = 0
    used = 0
    for used, term in enumerate(islice(terms, max_terms), 1):
        total += term
        if abs(term) < rel_tol * abs(total) + _ABS_TOL:
            streak += 1
            if streak >= _STREAK and used < max_terms:
                tail = abs(term) * tail_ratio / (1.0 - tail_ratio)
                return SeriesResult(total * scale, used, tail * abs(scale),
                                    True)
        else:
            streak = 0
    value = total * scale
    if used < max_terms:
        why = f"{what}: nodes underflow to 0 after {used} terms"
    else:
        why = f"{what}: no convergence within {max_terms} terms"
    raise NotConvergedError(why, partial=SeriesResult(value, used, abs(value),
                                                      False))


class LogQProduct(namedtuple("LogQProduct",
                             "value sign terms_used error converged")):
    """log|(a; q)_inf| with its sign, the factors plus series terms read,
    an absolute error bound on the log and whether it converged."""

    __slots__ = ()


def log_q_product(a: float, q: float,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> LogQProduct:
    """log|(a; q)_inf| as a few leading factors plus Euler's log series.

    The N leading factors 1 - x_k, x_k = a q^k, with |x_k| > 1/2 are
    summed in log space: a factor with x_k >= 1 flips the sign, and one
    with x_k = 1 makes the product exactly 0 (log -inf). The rest is
    log (x; q)_inf = -sum_(n>=1) x^n / (n (1 - q^n)), x = x_N, |x| <= 1/2
    (Euler; Gasper & Rahman, *Basic Hypergeometric Series*, ch. 1). Its
    terms shrink by more than |x| each, so after term n the tail is at
    most |term_n| |x| / (1 - |x|), and the series stops at the first n
    where that is at most ``rel_tol``, a relative error of the product:
    about 50 terms at |x| = 1/2.

    ``terms_used`` counts the factors plus the series terms, at most
    ``max_terms``; when that budget runs out first, ``converged`` is False
    and ``value`` is the log of the factors and terms read. ``error``
    bounds the series tail plus, to first order in the unit roundoff u,
    the rounding of every factor, term and sum, taking a and q as exact.
    """
    lq = math.log(q)
    size = abs(a)
    lead = math.ceil((math.log(size) + _LN2) / -lq) if size > 0.5 else 0
    cut = min(lead, policy.max_terms)
    xs = list(map(mul, repeat(a), map(pow, repeat(q), range(cut))))
    # exact for 1/2 <= x_k <= 2 (Sterbenz), and no cancellation beyond
    gaps = list(map(sub, repeat(1.0), xs))
    x = a * q ** cut
    flips = 0
    while flips < cut and gaps[flips] <= 0.0:
        flips += 1
    if flips and gaps[flips - 1] == 0.0:
        return LogQProduct(-math.inf, 1, flips, 0.0, True)
    logs = list(map(math.log, map(abs, gaps) if flips else gaps))
    # each x_k is off by 3u relative, which moves log|1 - x_k| by
    # 3u |x_k / (1 - x_k)|
    moved = 3.0 * math.fsum(map(abs, map(truediv, xs, gaps)))
    sign = -1 if flips % 2 else 1
    lead_sum = math.fsum(logs)
    if cut < lead:
        return LogQProduct(lead_sum, sign, cut, math.inf, False)
    # the logs after the sign flips share one sign
    spread = (math.fsum(map(abs, logs[:flips])) + abs(math.fsum(logs[flips:]))
              if flips else abs(lead_sum))

    ax = abs(x)
    ratio = ax / (1.0 - ax)
    gap = -math.expm1(lq)  # 1 - q
    # |term_n| <= |x|^n / (1 - q), so the n with |x|^n ratio / (1 - q) <=
    # rel_tol is enough terms
    limit = policy.rel_tol / ratio if ratio else math.inf
    need = (math.ceil(math.log(limit * gap) / math.log(ax))
            if limit * gap < 1.0 else 1)
    count = max(1, min(need, policy.max_terms - cut))
    # term_n = x^n / (n (1 - q^n)), kept as -term_n = x^n / (n expm1(n log q))
    ns = range(1, count + 1)
    terms = list(map(truediv, accumulate(repeat(x, count), mul),
                     map(mul, ns, map(math.expm1, map(mul, repeat(lq), ns)))))
    # their sizes fall, so bisection finds the first n with
    # |term_n| ratio <= rel_tol
    count = bisect_left(terms, -limit, key=_minus_abs) + 1
    if count > len(terms):
        return LogQProduct(lead_sum + math.fsum(terms), sign, cut + len(terms),
                           math.inf, False)
    del terms[count:]
    series = math.fsum(terms)
    value = lead_sum + series
    tail = abs(terms[-1]) * ratio
    # a factor's 1 - x_k and its log round by u + 2u |log|; term n
    # is off by (n + 5)u relative and |term_n| <= |term_1| |x|^(n-1), so
    # their sum is off by at most 8u |term_1| / (1 - |x|) for |x| <= 1/2;
    # x = a q^N off by 3u relative moves the series by
    # 3u |x| / ((1 - q) (1 - |x|))
    first = ax / (gap * (1.0 - ax))
    err = ((moved + cut + 2.0 * spread + 11.0 * first
            + abs(series) + abs(value)) * _U + tail)
    return LogQProduct(value, sign, cut + count, err, True)


def _minus_abs(x: float) -> float:
    return -abs(x)


@functools.lru_cache(maxsize=2048)
def log_q_ratio(q: float, e: float, d: float,
                policy: TruncationPolicy = DEFAULT_POLICY) -> tuple:
    """``(L, error bound, terms, converged)`` with
    L = log (q^(e+d); q)_inf / (q^e; q)_inf, e > 0 and e + d > 0, summed
    with the two products' common factors cancelled, so that its rounding
    does not grow like 1/(1 - q) as a difference of two
    :func:`log_q_product` values does.

    The leading factors while q^(e+i+min(0, d)) > 1/2, if that is fewer
    terms than the series alone, are log1p(r_i),
    r_i = q^(e+i) (1 - q^d) / (1 - q^(e+i)) the ratio of the factors
    minus 1, whose rounding is relative to r_i; while r_i < -1/2 (d < 0),
    where 1 + r_i cancels, they are the logs of the factors' ratios
    themselves. The rest is Euler's series of the difference at
    x = q^(e+L): sum_n x^n (1 - q^(dn)) / (n (1 - q^n)), a term at most
    max(1, |d|) m^n / n with m = x q^min(0, d) < 1, which bounds the rest;
    the leading factors bring m to 1/2, so for any e and d the terms read
    stay about ln 2 / (1 - q) plus the series at m = 1/2.
    ``error`` bounds that rest plus, to first order in the unit roundoff
    u, the rounding, taking q, e and d as exact; ``converged`` is False
    when the rest is above ``rel_tol`` after ``max_terms`` terms.
    """
    if d == 0.0:
        return 0.0, 0.0, 0, True
    lq = math.log(q)
    low = e + min(0.0, d)
    lead = max(0, math.ceil(_LN2 / -lq - low))
    log_tol = math.log(policy.rel_tol)
    if lead and lead + log_tol / -_LN2 > log_tol / (low * lq):
        lead = 0
    lead = min(lead, policy.max_terms)
    g_d = math.expm1(d * lq)
    args = [(e + i) * lq for i in range(lead)]
    ratios = list(map(mul, map(math.exp, args),
                      map(truediv, repeat(g_d), map(math.expm1, args))))
    # for d < 0 the ratios rise with i; while one is below -1/2, 1 + r_i
    # would cancel, so the log is taken of the factors' ratio itself,
    # expm1((e + d + i) log q) / expm1((e + i) log q), each off by 5u
    # relative: 11u plus the log's rounding
    close = bisect_left(ratios, -0.5)
    logs = [math.log(math.expm1((e + d + i) * lq) / math.expm1(args[i]))
            for i in range(close)]
    err = math.fsum(map(abs, logs)) + 11.0 * close
    del args[:close], ratios[:close]
    logs += map(math.log1p, ratios)
    # r_i off by (11 + 3 |a_i|) u relative moves log1p(r_i) by at most that
    # times |log1p(r_i)| / min(1, 1 + r_i)
    err += math.fsum(map(truediv,
                         map(mul, map(abs, logs[close:]),
                             map(add, repeat(12.0), map(mul, repeat(-3.0), args))),
                         map(min, repeat(1.0), map(add, repeat(1.0), ratios))))
    total = math.fsum(logs)
    arg = (low + lead) * lq
    m = math.exp(arg)
    gap = -math.expm1(arg)
    scale = max(1.0, abs(d))
    # a term is at most scale m^n / n, so the rest after n terms is at
    # most scale m^(n+1) / ((n+1) (1 - m)): stop where that is <= rel_tol
    want = (math.ceil(math.log(policy.rel_tol * gap / scale) / math.log(m)) - 1
            if m else 1)
    # at least one term, but none past the budget the leading factors left
    n = min(max(1, want), policy.max_terms - lead)
    ns = range(1, n + 1)
    # x^n (1 - q^(dn)) = sign(d) m^n (1 - q^(|d| n)), which does not
    # overflow for a large -d
    terms = list(map(truediv,
                     map(mul, map(math.exp, map(mul, repeat(arg), ns)),
                         map(math.expm1, map(mul, repeat(abs(d) * lq), ns))),
                     map(mul, ns, map(math.expm1, map(mul, repeat(lq), ns)))))
    series = math.copysign(math.fsum(terms), d)
    size = math.fsum(map(abs, terms))
    rest = scale * m ** (n + 1) / ((n + 1) * gap)
    # m^n = exp(n arg), n arg off by at most 4u n (e + lead) |log q|,
    # above 4u n |arg| for d < 0; the two expm1 and the three operations
    # of each term
    err += size * (4.0 * n * (e + lead) * -lq + 12.0) + abs(total + series)
    return (total + series, err * _U + rest, lead + n,
            rest <= policy.rel_tol)


def _safe_exp(log_abs: float) -> float:
    try:
        return math.exp(log_abs)
    except OverflowError:
        return math.inf


def q_gamma(a: float, q: DeformationParam | float,
            policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """q-Gamma function (q; q)_inf / (q^a; q)_inf * (1-q)^(1-a).

    Satisfies G(x+1) = [x]_q G(x), [x]_q = (1-q^x)/(1-q), and tends to the
    classical Gamma function as q -> 1-. At an integer n <= ``max_terms``
    it is the q-factorial [n-1]_q!, exact where the products' ratio loses
    digits near q = 1; its tail bounds the rounding to first order, at
    most 8u for each of the n - 1 factors. At any other b > 0 it is one
    :func:`log_q_ratio` with e = b, d = 1 - b; a negative a is first
    shifted to b = a + n in (0, 1) by G(a) = G(b) / prod_(k<n) [a + k]_q.
    """
    qv = as_deformation(q).q
    ra = round(a)
    if abs(a - ra) < _POLE_TOL and ra <= 0:
        raise PoleError(f"q_gamma pole at nonpositive integer a={a}")
    if a == ra and ra <= policy.max_terms:
        value = q_factorial(ra - 1, qv)
        return SeriesResult(value, ra - 1, 8.0 * (ra - 1) * _U * value, True)
    lq = math.log(qv)
    shift = max(0, math.ceil(-a))
    cut = min(shift, policy.max_terms)
    # log |[a + k]_q| = y + log(1 - e^-y) - log(1 - q), y = (a + k) log q
    # > 0, which neither cancels nor overflows; y off by 3u relative moves
    # it by 3u y / (1 - e^-y) <= 3u (1 + y), so with the other roundings
    # each is off by at most (6 + 4y) u plus 2u times its size
    ys = [(a + k) * lq for k in range(cut)]
    logs = list(map(add, ys, map(math.log, map(neg, map(math.expm1, map(neg, ys))))))
    log_ints = math.fsum(logs) - cut * math.log1p(-qv)
    sign = -1 if cut % 2 else 1
    if cut < shift:
        raise NotConvergedError(
            f"q_gamma({a}): the shift into (0, 1) takes {shift} q-integers, "
            f"more than {policy.max_terms}",
            partial=SeriesResult(sign * _safe_exp(-log_ints), cut, math.inf, False))
    rel = (6.0 * shift + 4.0 * math.fsum(ys) + 2.0 * math.fsum(map(abs, logs))
           - 2.0 * shift * math.log1p(-qv) + abs(log_ints))
    b = a + shift
    log_ratio, log_err, terms, done = log_q_ratio(qv, b, 1.0 - b, policy)
    log_scale = (1.0 - b) * math.log1p(-qv)
    log_value = log_ratio + log_scale - log_ints
    value = sign * _safe_exp(log_value)
    if not done:
        raise NotConvergedError(
            f"q_gamma({a}): no convergence within {policy.max_terms} terms",
            partial=SeriesResult(value, terms, math.inf, False))
    # b = a + n rounds only for -1/2 < a < 0, and 1 - b only for b < 1/2,
    # by u/2 at most, which moves log G by less than (2 - log(1 - q)) u
    err = log_err + (abs(log_ratio) + 3.0 * abs(log_scale) + abs(log_value)
                     + rel + 2.0 - math.log1p(-qv)) * _U
    tail = (abs(value) * (math.expm1(err) + 2.0 * _U)
            if math.isfinite(value) else math.inf)
    return SeriesResult(value, terms + shift, tail, True)


def q_factorial(n: int, q: DeformationParam | float) -> float:
    """q-factorial: product of q-integers (1-q^k)/(1-q), k = 1..n, each
    formed as expm1(k log q) / expm1(log q), which does not cancel near
    q = 1."""
    lq = math.log(as_deformation(q).q)
    n = int(n)
    if n < 0:
        raise ValueError(f"q_factorial requires n >= 0, got {n}")
    den = math.expm1(lq)
    prod = 1.0
    for k in range(1, n + 1):
        prod *= math.expm1(k * lq) / den
    return prod


def q_power_alpha(t: float, a: float, q: DeformationParam | float, alpha: float,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """q-analogue of (t - a)^alpha for real alpha and t > 0.

    Evaluates t^alpha (x; q)_alpha, x = a/t, the ratio
    (x; q)_inf / (x q^alpha; q)_inf of two :func:`log_q_product` calls in
    log space, so that two underflowing products still have a ratio; at
    an integer alpha it is the finite product. This is the kernel of the
    integral form of the operators; ek_integral reads it from one table
    of log factors per call, and this per-node form is that table's
    reference. The first product that does not converge raises
    NotConvergedError with its partial; a vanishing denominator raises
    ZeroDivisionError.
    """
    if not t > 0.0:
        raise ValueError(f"q_power_alpha requires t > 0, got {t}")
    qv = as_deformation(q).q
    x = a / t

    def product(b: float) -> LogQProduct:
        parts = log_q_product(b, qv, policy)
        if not parts.converged:
            raise NotConvergedError(
                f"(a;q)_inf: no convergence within {policy.max_terms} terms "
                f"(a={b}, q={qv})",
                partial=SeriesResult(parts.sign * _safe_exp(parts.value),
                                     parts.terms_used, math.inf, False))
        return parts

    num = product(x)
    den = product(x * qv ** alpha)
    used = num.terms_used + den.terms_used
    if den.value == -math.inf:
        raise ZeroDivisionError(
            f"(a;q)_alpha a={x} alpha={alpha}: denominator product vanishes")
    if num.value == -math.inf:  # a factor of the numerator is exactly 0
        value = tail = 0.0
    else:
        value = num.sign * den.sign * _safe_exp(num.value - den.value)
        err = num.error + den.error + (abs(num.value) + abs(den.value)) * _U
        tail = (abs(value) * math.expm1(err + _U) if math.isfinite(value)
                else math.inf)
    scale = t ** alpha
    return SeriesResult(value * scale, used, tail * abs(scale), True)
