"""Generalized Erdelyi-Kober fractional q-integral operators.

The operator with parameters (eta, mu, beta) at deformation base q has two
equivalent representations:

* series (normative):
    beta (1 - q^(1/beta)) (1-q)^(mu-1)
        * sum_k [(q^mu; q)_k / (q; q)_k] q^(k(eta+1)) f(t q^(k/beta))
* integral (kept as an independent oracle):
    beta t^(-beta(eta+mu)) / GammaQ(mu)
        * int_0^t (t^beta - tau^beta q)_(mu-1) tau^(beta(eta+1)-1) f(tau) d_q tau
  with the Jackson integration in tau running on base q^(1/beta), the
  unique base whose node set t q^(k/beta) matches the series.

The series is a quadrature rule: weights times integrand values at the
geometric nodes t q^(k/beta). ``OperatorRule`` holds the nodes, weights
and factor values of one (t, p, q) and sums any product of its factors;
``ek_series`` is its one-factor case. Both take DSL expressions
(:class:`qek.functions.FunctionSpec`) only. A product of them is a
monomial sum below its first knot x_b, so its series is the fsum over the
side's head, the few nodes >= the smallest first knot among the rule's
factors, plus a closed-form tail from the q-binomial theorem, with
nothing truncated but the q-products of that closed form; at q = 0.99
that is tens to hundreds of nodes. Two caches serve the closed form:
one bounded table of its values S per process, keyed by (q, eta, mu, c,
policy), and one factor table (first pieces, interval enclosures,
product polynomials) per set of factors and t, which ``OperatorRule.at``
shares with the rule at another (p, q). The integral form and the Kober
operator, its beta = 1 member, take any callable.

``ek_integral`` evaluates the integral form on the same nodes but by its
own route: at node j the kernel is t^(beta(mu-1)) (q^(j+1); q)_inf /
(q^(j+mu); q)_inf, read from one table of log kernels built once per
call: a ``qcore.log_q_product`` pair at its last entry, and the log
factors log(1 - q^(k+1)) - log(1 - q^(k+mu)) added to it backward. The
result is normalised by GammaQ(mu). It never uses the series weight
recurrence or its (1-q)^(mu-1) prefactor, so it checks them; the table
makes the cost O(nodes) instead of two infinite products per node.

All series weights are positive for mu > 0, so each term keeps the sign
of f at its node; results report the smallest scaled term so
nonnegativity of the operator can be checked term by term (for a closed-
form tail, by the interval enclosure of the integrand below x_b).
"""

from __future__ import annotations

from array import array
from copy import copy
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import accumulate, chain, count, islice, repeat, takewhile, tee
from math import ceil, exp, expm1, fsum, inf, log, log1p, prod
from operator import add, le, lt, mul, neg, sub, truediv

from .errors import DomainError, NotConvergedError
from .functions import FunctionSpec, _range, as_callable, first_piece, poly_product
from .qcore import (
    DEFAULT_POLICY,
    DeformationParam,
    SeriesResult,
    TruncationPolicy,
    as_deformation,
    log_q_product,
    q_gamma,
    sum_series,
)
# Not called here; kept so tracing harnesses (qekbench/child.py) that wrap
# qek.ekoperator.q_power_alpha by attribute still find it.
from .qcore import q_power_alpha  # noqa: F401

# unit roundoff of IEEE double precision
_U = 2.0 ** -53
_LN2 = log(2.0)

__all__ = [
    "OperatorParams",
    "OperatorResult",
    "ek_series",
    "ek_integral",
    "kober",
]


@dataclass(frozen=True)
class OperatorParams:
    """Order-shift eta, fractional order mu, deformation exponent beta.

    eta > -1 makes the series term ratio q^(eta+1) < 1 (convergence);
    mu > 0 and beta > 0 keep every series weight positive.
    """

    eta: float
    mu: float
    beta: float = 1.0

    def __post_init__(self):
        if not self.eta > -1.0:
            raise ValueError(
                f"eta must exceed -1 (series diverges otherwise), got {self.eta}"
            )
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")


@dataclass(frozen=True)
class OperatorResult(SeriesResult):
    """SeriesResult extended with the smallest (scaled) term.

    ``min_term`` >= 0 certifies that every term of the evaluation was
    nonnegative, which for nonnegative inputs is exact, not a tolerance
    statement. A closed-form tail enters as the least value of its
    integrand's interval enclosure below x_b, or 0 when that is >= 0.
    """

    min_term: float = 0.0


def _check_exponent(f, p: OperatorParams) -> float:
    """eta + 1 + min(pf, 0)/beta, pf the ``c_lambda_exponent`` of f (0
    without it): the exponent of q in the eventual ratio of the terms."""
    pf = getattr(f, "c_lambda_exponent", 0.0)
    if p.eta + 1.0 + pf / p.beta <= 0.0:
        raise DomainError(
            f"series not summable: eta+1+p/beta = {p.eta + 1.0 + pf / p.beta}"
        )
    return p.eta + 1.0 + min(pf, 0.0) / p.beta


class OperatorRule:
    """The series quadrature rule of one operator side at one (t, p, q).

    Nodes x_k = t q^(k/beta) and weights w_k = (q^mu;q)_k / (q;q)_k
    q^(k(eta+1)). The factors are FunctionSpecs, and ``apply`` sums a
    product of them as a head plus a closed-form tail: below its first
    knot x_b the product is a monomial sum sum_p c_p x^p
    (``first_piece``), and by the q-binomial theorem
    sum_k w_k x_k^p = t^p S(q^(eta+1+p/beta)) with
    S(z) = (q^mu z; q)_inf / (z; q)_inf = 1 / (z; q)_mu. The side's head
    is the K nodes >= the smallest first knot among its factors; a
    product with x_b <= t sums them with ``math.fsum`` and adds
    sum_p c_p (t^p S(z_p) - sum_(k<K) w_k x_k^p), which is exact because
    the head nodes below x_b lie where the product equals its first
    piece. A product with no knot in [0, t] is the closed form alone. S
    is a finite product for integer mu; otherwise one pair of
    ``qcore.log_q_product`` values per class of p/beta mod 1 gives one S,
    and the finite ratio S(zq) = S(z) (1 - z) / (1 - q^mu z) gives the
    rest of its class. Every rule of the process reads S from one bounded
    table (``_s_record``). The weights use (1 - q^a) = -expm1(a log q),
    so none cancels. Each factor is evaluated once per head node however
    many products use it, and ``at`` gives the rule of the same factors
    at another (p, q), sharing the factor table that depends on the
    factors and t only.
    """

    def __init__(self, t: float, p: OperatorParams,
                 q: DeformationParam | float, specs: dict,
                 policy: TruncationPolicy = DEFAULT_POLICY):
        if not t > 0.0:
            raise ValueError(f"evaluation point must be positive, got {t}")
        for name, spec in specs.items():
            if not isinstance(spec, FunctionSpec):
                raise TypeError(
                    f"factor {name!r} is {spec!r}, not a FunctionSpec; build"
                    f" one with qek.functions.parse_function_spec")
        self.policy = policy
        self._specs = dict(specs)
        self._t = t
        # the factor table: it depends on the factors and t only
        self._pieces = {name: first_piece(spec.expr)
                        for name, spec in specs.items()}
        self._ranges: dict[tuple, tuple[float, float]] = {}
        self._products: dict[tuple, tuple] = {}
        self._quadrature(p, q)

    def at(self, p: OperatorParams,
           q: DeformationParam | float) -> OperatorRule:
        """The rule of the same factors, t and policy at (p, q). It builds
        its own nodes, weights and columns and shares this rule's factor
        table: first pieces, interval enclosures and product polynomials."""
        rule = copy(self)
        rule._quadrature(p, q)
        return rule

    def _quadrature(self, p: OperatorParams,
                    q: DeformationParam | float) -> None:
        """Set the prefactor, the head nodes and weights at (p, q), and
        empty the caches that depend on them."""
        t, policy = self._t, self.policy
        qv = as_deformation(q).q
        lq, mu = log(qv), p.mu
        self._q = qv
        self._p, self._lq = p, lq
        # 1 - q^(1/beta) formed by expm1, which does not cancel
        self._prefactor = (p.beta * -expm1(self._lq / p.beta)
                           * (1.0 - qv) ** (p.mu - 1.0))
        # the head: node k is t exp(k log(q) / beta), down to the smallest
        # first knot, read to max_terms + 1 nodes so that an overrun shows
        x_min = min((knot for knot, _ in self._pieces.values()), default=inf)
        nodes = map(mul, repeat(t), map(exp, map(mul, repeat(lq / p.beta),
                                                 count())))
        nodes = array("d", islice(takewhile(partial(le, x_min), nodes),
                                  policy.max_terms + 1))
        self._overrun = len(nodes) > policy.max_terms
        del nodes[policy.max_terms:]
        # weight k+1 is weight k times q^(eta+1) (1 - q^(mu+k)) / (1 - q^(k+1)),
        # each 1 - q^a formed as -expm1(a log q)
        size = len(nodes)
        nums = map(expm1, map(mul, repeat(lq),
                              map(add, repeat(mu), range(size - 1))))
        dens = map(expm1, map(mul, repeat(lq), range(1, size)))
        ratios = map(mul, map(truediv, nums, dens),
                     repeat(qv ** (p.eta + 1.0)))
        self._head_nodes = nodes
        self._head_weights = array(
            "d", islice(accumulate(ratios, mul, initial=1.0), size))
        self._head_values: dict[str, array] = {}
        self._head_moments: dict[float, float] = {}
        self._full_moments: dict[float, tuple] = {}

    def apply(self, names, moment: int = 0) -> OperatorResult:
        """Operator applied to s^moment times the product of the named
        factors: fsum over the side's head plus
        sum_p c_p (t^p S_p - head_p), or the closed form alone for a
        product with no knot in [0, t].

        ``tail_estimate`` bounds S's truncation plus, to first order in the
        unit roundoff u, the rounding of the nodes, the weight recurrence,
        the log sums and the cancellation in t^p S_p - head_p. It takes each
        factor's value at a computed node as exact up to a few u of its
        largest |value| on [0, t], and ``first_piece``'s coefficients as
        exact up to a few u each.
        """
        if moment < 0:
            raise ValueError(f"moment must be >= 0, got {moment}")
        p, t, lq = self._p, self._t, self._lq
        names = tuple(names)
        x_b, poly, lo, hi = self._product(moment, names, t)
        terms = array("d")
        if x_b <= t:
            terms = self._head_weights
            for name in names:
                terms = map(mul, terms, self._column(name))
            if moment:
                terms = map(mul, terms,
                            map(pow, self._head_nodes, repeat(float(moment))))
            terms = array("d", terms)
        used = len(terms)
        head = fsum(terms)
        pre = self._prefactor
        if used and self._overrun:  # more head nodes than max_terms
            raise NotConvergedError(
                f"operator series: no convergence within "
                f"{self.policy.max_terms} terms",
                partial=OperatorResult(pre * head, used, pre * abs(head),
                                       False, pre * min(terms)))

        # relative errors in units of u: a head node t exp(k log(q)/beta),
        # and a weight after k steps of w_(k+1) = w_k r_k
        node_err = 3.0 * used * -lq / p.beta + 2.0
        weight_err = used * (12.0 + 2.0 * (p.eta + 1.0) * -lq)
        width = len(names) + 1
        parts = []
        err = 0.0
        done = True
        sums = {}
        full_moments = self._full_moments
        for power, coef in poly.items():
            full, full_rel, counts, s_done = (full_moments.get(power)
                                              or self._full_moment(power))
            done = done and s_done
            sums.update(counts)
            part = self._head_moment(power) if used else 0.0
            parts.append(coef * (full - part))
            err += abs(coef) * (full * (full_rel + 4.0 * width * _U)
                                + part * (weight_err + power * node_err + 3.0)
                                * _U)
        tail = fsum(parts)
        mass = self._head_moment(0.0) if used else 0.0
        err += ((weight_err + 6.0 * width + moment * node_err)
                * max(-lo, hi) * mass
                + 2.0 * (abs(head) + abs(tail))) * _U
        # every tail node lies below the head, so below min(x_b, t), where
        # the enclosure gives the tail's sign
        if lo < 0.0 and x_b < t:
            lo = self._product(moment, names, x_b)[2]

        value = pre * (head + tail)
        estimate = pre * err + abs(value) * (10.0 + abs(p.mu - 1.0)) * _U
        smallest = pre * min(min(terms, default=inf), lo, 0.0)
        factors = used + sum(sums.values())
        if not done:  # the value with its q-products cut at max_terms
            raise NotConvergedError(
                f"operator series: no convergence within "
                f"{self.policy.max_terms} product factors",
                partial=OperatorResult(value, factors, abs(value), False,
                                       smallest))
        return OperatorResult(value, factors, estimate, True, smallest)

    def _product(self, moment: int, names: tuple, end: float) -> tuple:
        """``(x_b, {p: c}, lo, hi)`` of s^moment times the named factors:
        ``first_piece`` of the product and its interval enclosure on
        [0, end], built on the cached entry of ``names[:-1]``."""
        key = (moment, end, *names)
        hit = self._products.get(key)
        if hit is None:
            if names:
                x_b, poly, lo, hi = self._product(moment, names[:-1], end)
                name = names[-1]
                knot, piece = self._pieces[name]
                bounds = self._ranges.get((name, end))
                if bounds is None:
                    bounds = self._ranges[name, end] = _range(
                        self._specs[name].expr, end)
                a, b = bounds
                ends = (lo * a, lo * b, hi * a, hi * b)
                hit = (min(x_b, knot), poly_product(poly, piece),
                       min(ends), max(ends))
            elif moment:
                hit = (inf, {float(moment): 1.0}, 0.0, end ** moment)
            else:
                hit = (inf, {0.0: 1.0}, 1.0, 1.0)
            self._products[key] = hit
        return hit

    def _column(self, name: str) -> array:
        """The named factor at every head node, evaluated once."""
        col = self._head_values.get(name)
        if col is None:
            col = self._head_values[name] = array(
                "d", map(self._specs[name].fn, self._head_nodes))
        return col

    def _head_moment(self, power: float) -> float:
        """fsum of w_k x_k^power over the head nodes."""
        hit = self._head_moments.get(power)
        if hit is None:
            vals = self._head_weights
            if power:
                vals = map(mul, vals, map(pow, self._head_nodes, repeat(power)))
            hit = self._head_moments[power] = fsum(vals)
        return hit

    def _full_moment(self, power: float) -> tuple:
        """``(t^power S(q^c), relative error bound, counts, converged)``
        with c = eta + 1 + power/beta: the sum of w_k x_k^power over every
        node (q-binomial theorem). ``counts`` maps the c of each S record
        it reads to the factors formed for that record alone."""
        p, qv = self._p, self._q
        c = p.eta + 1.0 + power / p.beta
        s, s_rel, factors, base, done = _s_record(qv, p.eta, p.mu, c,
                                                  self.policy)
        counts = {c: factors}
        if base is not None:
            counts[base] = _s_record(qv, p.eta, p.mu, base, self.policy)[2]
        hit = self._full_moments[power] = (
            self._t ** power * s, s_rel + 8.0 * _U, counts, done)
        return hit


# Bounded like compile_expr: a sweep over q meets new keys at every step.
# T1-T6 on the default grid meet about 770 keys in 1200 cases and under
# 1000 in 6000.
@lru_cache(maxsize=2048)
def _s_record(q: float, eta: float, mu: float, c: float,
              policy: TruncationPolicy) -> tuple:
    """``(S(q^c), relative error bound, factors, base, converged)`` with
    S(z) = 1/(z; q)_mu, for the rules at (q, eta, mu) under ``policy``.

    ``factors`` counts the factors of the products formed for this S
    alone; ``base`` is the c whose S it was reached from, or None. S is
    a finite product for integer mu. Otherwise it is one log-space pair
    of ``log_q_product`` values per class c mod 1, at the class's member
    in [1, 2), and the finite ratio S(zq) = S(z) (1 - z) / (1 - q^mu z)
    from there; so no record depends on the order it is asked for in,
    and one table serves every rule of the process.
    """
    lq = log(q)
    # relative error of a factor 1 - q^(c + j), c carrying the rounding
    # of eta + 1 + power / beta
    factor_err = (5.0 + 3.0 * (c + mu + 2.0 * abs(eta)) * -lq) * _U
    if float(mu).is_integer():
        n = int(mu)
        den = prod(map(neg, map(expm1, map(mul, repeat(lq),
                                            map(add, repeat(c), range(n))))))
        return 1.0 / den, n * (factor_err + _U) + _U, n, None, True
    base = c % 1.0 + 1.0
    if base == c:
        # exp of log (q^(c+mu); q)_inf - log (q^c; q)_inf. Each bound of
        # log_q_product takes its e as exact, but e carries the rounding
        # of eta + 1 + p/beta (+ mu): a relative shift of every
        # x_k = q^(e+k) that moves log(1 - x_k) by shift x_k / (1 - x_k),
        # and the sum of x_k / (1 - x_k) over k is at most
        # x_0 / (1 - x_0) - log(1 - x_0) / |log q|.
        num, den = (log_q_product(None, q, policy, e) for e in (c + mu, c))
        log_s = num.value - den.value
        err = 0.0
        for e, part in ((c + mu, num), (c, den)):
            gap = -expm1(e * lq)
            err += part.error + (3.0 * (e + 2.0 * abs(eta)) * -lq * _U
                                 * ((1.0 - gap) / gap + log(gap) / lq))
        err += abs(log_s) * _U
        return (exp(log_s), expm1(err) + _U,
                num.terms_used + den.terms_used, None,
                num.converged and den.converged)
    s0, rel0, _, _, done = _s_record(q, eta, mu, base, policy)
    n = round(c - base)
    if n > 0:
        nums = [base + j for j in range(n)]
        dens = [base + mu + j for j in range(n)]
    else:
        nums = [base + mu - j for j in range(1, 1 - n)]
        dens = [base - j for j in range(1, 1 - n)]
    ratio = (prod(map(expm1, map(mul, repeat(lq), nums)))
             / prod(map(expm1, map(mul, repeat(lq), dens))))
    steps = 2 * abs(n)
    return (s0 * ratio, rel0 + steps * (factor_err + _U) + 2.0 * _U,
            steps, base, done)


def ek_series(f, t: float, p: OperatorParams, q: DeformationParam | float,
              policy: TruncationPolicy = DEFAULT_POLICY) -> OperatorResult:
    """Series representation of the generalized Erdelyi-Kober q-operator
    of the FunctionSpec f; any other f raises TypeError."""
    rule = OperatorRule(t, p, q, {"f": f}, policy)
    _check_exponent(f, p)
    return rule.apply(("f",))


def _log_kernel_table(qv: float, mu: float, policy: TruncationPolicy):
    """Log kernel factors of the integral form at base q and order mu.

    Returns ``(table, log_tail, converged)`` with
    table[j] = log((q^(j+1); q)_inf / (q^(j+mu); q)_inf) for j below the
    first index where q^(j + min(1, mu)) < rel_tol, or below ``max_terms``
    when that comes first (``converged`` False). The last entry is one
    pair of ``log_q_product`` values; the others add the factors
    log(1 - q^(j+1)) - log(1 - q^(j+mu)) to it backward, toward j = 0, so
    that the cost is O(entries). A factor 1 - q^c is formed by log1p while
    q^c <= 1/2 and by expm1(c log q) above that, where it would cancel.
    ``log_tail`` bounds |table[j]| for every j >= len(table), whose entry
    the integral takes as 0:
    |q^(j+1) - q^(j+mu)| / ((1 - q) (1 - max(q^(j+1), q^(j+mu)))).
    """
    lq = log(qv)
    want = max(1, ceil(log(policy.rel_tol) / lq - min(1.0, mu)))
    size = min(want, policy.max_terms)
    last = (log_q_product(None, qv, policy, size).value
            - log_q_product(None, qv, policy, size - 1.0 + mu).value)
    # factors j = size-2, ..., near by log1p, then j = near-1, ..., 0,
    # where q^(j + min(1, mu)) > 1/2, by expm1
    near = min(size - 1, max(0, ceil(_LN2 / -lq - min(1.0, mu))))
    xs_one = map(pow, repeat(qv), range(size - 1, near, -1))
    xs_mu = map(pow, repeat(qv), map(add, repeat(mu), range(size - 2, near - 1, -1)))
    far = map(sub, map(log1p, map(neg, xs_one)), map(log1p, map(neg, xs_mu)))
    args_one = map(mul, repeat(lq), range(near, 0, -1))
    args_mu = map(mul, repeat(lq), map(add, repeat(mu), range(near - 1, -1, -1)))
    close = map(sub, map(log, map(neg, map(expm1, args_one))),
                map(log, map(neg, map(expm1, args_mu))))
    table = array("d", accumulate(far, initial=last))
    table.extend(islice(accumulate(close, initial=table[-1]), 1, None))
    table.reverse()
    x_one, x_mu = exp((size + 1.0) * lq), exp((size + mu) * lq)
    log_tail = abs(x_one - x_mu) / (-expm1(lq) * (1.0 - max(x_one, x_mu)))
    return table, log_tail, want <= policy.max_terms


def ek_integral(f, t: float, p: OperatorParams, q: DeformationParam | float,
                policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """Integral representation; an independent oracle for ek_series.

    The Jackson node tau_j = t q^(j/beta) carries the kernel
    (t^beta - tau_j^beta q)_(mu-1)
    = t^(beta(mu-1)) (q^(j+1); q)_inf / (q^(j+mu); q)_inf, read from one
    table of log kernels built backward from its last entry
    (``_log_kernel_table``), and the result is normalised by q_gamma(mu).
    The series form instead builds its weights by the forward ratio
    recurrence (1 - q^(mu+k)) / (1 - q^(k+1)) from 1 and scales by
    (1-q)^(mu-1); the two routes share no arithmetic beyond the nodes, so
    a fault in either shows as a gap between them. Cost is O(nodes). The
    terms fall by about r = q^(eta+1+min(pf,0)/beta) a node, pf the
    ``c_lambda_exponent`` of f, and the node sum (``qcore.sum_series``)
    stops at terms below rel_tol (1 - r) times its running total, so that
    its geometric tail stays below rel_tol of the value and the oracle is
    as close to the exact operator as the series of DSL inputs.

    A node sum, kernel table or q_gamma(mu) that needs more than
    ``max_terms`` raises this operator's NotConvergedError, whose partial
    result is the truncated integral (``converged=False``).
    """
    if not t > 0.0:
        raise ValueError(f"evaluation point must be positive, got {t}")
    qv = as_deformation(q).q
    ratio = qv ** _check_exponent(f, p)
    fn = as_callable(f)
    beta, eta, mu = p.beta, p.eta, p.mu

    root = qv ** (1.0 / beta)
    table, log_tail, table_done = _log_kernel_table(qv, mu, policy)
    try:
        gam = q_gamma(mu, qv, policy)
    except NotConvergedError:
        # the partial result is normalised by the table's own
        # (q;q)_inf/(q^mu;q)_inf (1-q)^(1-mu), which is GammaQ(mu) too
        gam = SeriesResult(exp(table[0]) * (1.0 - qv) ** (1.0 - mu),
                           len(table), inf, False)
    # t^(-beta(eta+mu)) times the kernel's t^(beta(mu-1))
    front = beta * t ** (-beta * (eta + 1.0)) / gam.value
    tau_exp = beta * (eta + 1.0) - 1.0

    # term j = root^j * kernel_j * tau_j^tau_exp * f(tau_j), tau_j = t root^j;
    # the nodes end at the first one that underflows to 0
    rjs, rjs_tau = tee(accumulate(repeat(root), mul, initial=1.0))
    positive = partial(lt, 0.0)
    taus, taus_f = tee(takewhile(positive, map(mul, repeat(t), rjs_tau)))
    kernels = chain(map(exp, table), repeat(1.0))
    terms = map(mul, map(mul, map(mul, rjs, kernels),
                         map(pow, taus, repeat(tau_exp))), map(fn, taus_f))
    node_policy = replace(policy, rel_tol=policy.rel_tol * (1.0 - ratio))
    res = sum_series(terms, node_policy, ratio, "operator integral",
                     front * (1.0 - root) * t)
    if not (table_done and gam.converged):
        raise NotConvergedError(
            f"operator integral: no convergence within {policy.max_terms} "
            f"kernel factors",
            partial=replace(res, tail_estimate=abs(res.value), converged=False))
    rel = gam.tail_estimate / abs(gam.value) + expm1(log_tail)
    return replace(res, tail_estimate=res.tail_estimate + abs(res.value) * rel)


def kober(f, t: float, eta: float, mu: float, q: DeformationParam | float,
          policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """Kober fractional q-integral operator: the integral form at beta = 1,
    t^(-eta-mu) / GammaQ(mu) * int_0^t (t - tau q)_(mu-1) tau^eta f(tau) d_q tau."""
    return ek_integral(f, t, OperatorParams(eta, mu, 1.0), q, policy)
