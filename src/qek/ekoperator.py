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
geometric nodes t q^(k/beta). ``OperatorRule`` holds the rule of one
(t, p, q) and sums any product of its factors; ``ek_series`` is its
one-factor case. Both take DSL expression trees (whose nodes subclass
:class:`qek.functions.FunctionSpec`) only, and neither calls one: every
DSL expression is piecewise a monomial sum (``functions.pieces``), so the
series of a product is a sum over its pieces of closed forms from the
q-binomial theorem and its difference equation, with nothing truncated
but q-products and geometrically falling series. Its error does not
grow like 1/(1 - q), nor do its node sums: a knot adds at most about
sqrt(2 log(rel_tol) / log q) terms, and a knot well below t a few. Its
closed forms do: each reads about ln 2 / (1 - q) leading factors of
``qcore.log_q_ratio``, 63,289 terms in all for a piecewise-linear f at
q = 0.9999 and 624,736 at 0.99999. Two caches serve the closed forms:
one bounded table of the values S per process, keyed by (q, eta, mu, c,
policy), and one factor table (the factors' pieces and the pieces of
their products) per set of factors and t, which ``OperatorRule.at``
shares with the rule at another (p, q). The integral form and the Kober
operator, its beta = 1 member, take any callable.

``ek_integral`` evaluates the integral form on the same nodes but by its
own route: at node j the kernel is t^(beta(mu-1)) (q^(j+1); q)_inf /
(q^(j+mu); q)_inf, read from one table of kernels: their logs are one
``qcore.log_q_ratio`` at the last entry and the log factors
log(1 - q^(k+1)) - log(1 - q^(k+mu)) added to it backward. The result
is normalised by GammaQ(mu). It never uses the series weight recurrence
or its (1-q)^(mu-1) prefactor, so it checks them; the table makes the
cost O(nodes) instead of two infinite products per node. The kernels
and GammaQ(mu) depend on (q, mu) only, so they are built once per
(q, mu, policy) per process and kept in a bounded table of records
(``_kernel_record``) that every ``ek_integral`` and ``kober`` call reads.

All series weights are positive for mu > 0, so each term keeps the sign
of f at its node; results report the smallest scaled term, a node's or
the lower end of a summed piece's interval enclosure, so that
nonnegativity of the operator can be checked.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import namedtuple
from copy import copy
from functools import lru_cache, partial, reduce
from itertools import accumulate, chain, islice, repeat, takewhile, tee
from math import ceil, exp, expm1, floor, fsum, inf, isfinite, log, log1p, prod
from operator import add, lt, mul, neg, sub, truediv

from .errors import NotConvergedError
from .functions import FunctionSpec, Piece, as_callable, piece_product, pieces
from .jackson import _check_exponent
from .qcore import (
    DEFAULT_POLICY,
    DeformationParam,
    SeriesResult,
    TruncationPolicy,
    _Validated,
    as_deformation,
    log_q_ratio,
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


class OperatorParams(_Validated, namedtuple("OperatorParams", "eta mu beta",
                                            defaults=(1.0,))):
    """Order-shift eta, fractional order mu, deformation exponent beta.

    eta > -1 makes the series term ratio q^(eta+1) < 1 (convergence);
    mu > 0 and beta > 0 keep every series weight positive.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (isfinite(self.eta) and isfinite(self.mu)
                and isfinite(self.beta)):
            raise ValueError(f"eta, mu and beta must be finite, got eta="
                             f"{self.eta}, mu={self.mu}, beta={self.beta}")
        if not self.eta > -1.0:
            raise ValueError(
                f"eta must exceed -1 (series diverges otherwise), got {self.eta}"
            )
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        return self


class OperatorResult(namedtuple(
        "OperatorResult", "value terms_used tail_estimate converged min_term",
        defaults=(0.0,))):
    """A SeriesResult's four fields, then the smallest (scaled) term.

    ``min_term`` >= 0 certifies that every term of the evaluation was
    nonnegative, which for nonnegative inputs is exact, not a tolerance
    statement. A closed-form tail enters as the least value of its
    integrand's interval enclosure below x_b, or 0 when that is >= 0.
    """

    __slots__ = ()


class OperatorRule:
    """The series quadrature rule of one operator side at one (t, p, q).

    Nodes x_k = t q^(k/beta) and weights W_k = w_k q^(k(eta+1)),
    w_k = (q^mu;q)_k / (q;q)_k. The factors are FunctionSpecs, and every
    DSL expression is piecewise a monomial sum sum_p c x^p
    (``functions.pieces``), so ``apply`` sums a product of them piece by
    piece and calls no factor. A piece holds the nodes K_lo <= k < K_hi,
    K(b) the first node below its breakpoint b, and sum_k W_k x_k^p over
    them is t^p (G(K_lo, c) - G(K_hi, c)) with c = eta + 1 + p/beta and
    G(K, c) = sum_(k>=K) w_k q^(kc).

    * G(0, c) is S(q^c), S(z) = (q^mu z; q)_inf / (z; q)_inf = 1/(z; q)_mu
      by the q-binomial theorem: a finite product for integer mu, else one
      ``qcore.log_q_ratio`` per class of p/beta mod 1 and the finite ratio
      S(zq) = S(z) (1 - z) / (1 - q^mu z) for the rest of the class. Every
      rule of the process reads S from one bounded table (``_s_record``).
    * The breakpoints take, from the top, the route with fewer terms
      (``_quadrature``). Down to the deepest direct one the nodes are
      summed one by one, each factor's value read from its piece's
      polynomial (``_column``), and G(K, c) there is S minus the fsum of
      the first K terms. Below it, G(K, c) is the tail series of the
      q-binomial difference equation (Gasper and Rahman, Basic
      Hypergeometric Series, 1.3): with z = q^c and a = q^mu,
      G(K) = w_K (1 - q^K) z^K sum_n q^(nK) prod_(i<n) (1 - a z q^i)
      / prod_(i<=n) (1 - z q^i), whose terms are positive and fall by
      about q^K a term, so it needs about log(rel_tol) / (K log q) of them
      (``_series``). w_K is (1 - q^mu) S(q) exp(-D_K), D_K =
      log (q^(K+mu); q)_inf / (q^(K+1); q)_inf by ``qcore.log_q_ratio``,
      which cancels the two products' common factors and converges as
      fast.

    The weights use (1 - q^a) = -expm1(a log q), so none cancels. ``at``
    gives the rule of the same factors at another (p, q), sharing the
    factor table that depends on the factors and t only.
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
        self._t = t
        self._specs = dict(specs)
        # the factor table: it depends on the factors and t only. A factor
        # has its pieces, their ends and its breakpoints below t; the
        # products' pieces are made when first used
        self._pieces, self._ends, self._inner = {}, {}, {}
        for name, spec in specs.items():
            row = self._pieces[name] = pieces(spec, t)
            ends = self._ends[name] = [pc.end for pc in row]
            self._inner[name] = ends[:-1]
        self._breakpoints = sorted(set().union(*self._inner.values()))
        self._products: dict[tuple, Piece] = {}
        self._quadrature(p, q)

    def at(self, p: OperatorParams,
           q: DeformationParam | float) -> OperatorRule:
        """The rule of the same factors, t and policy at (p, q). It builds
        its own node indices, weights and sums and shares this rule's
        factor table."""
        rule = copy(self)
        rule._quadrature(p, q)
        return rule

    def _quadrature(self, p: OperatorParams,
                    q: DeformationParam | float) -> None:
        """Set the prefactor, the node index of every breakpoint and the
        direct nodes and weights at (p, q), and empty the caches that
        depend on them."""
        t, policy = self._t, self.policy
        qv = as_deformation(q).q
        lq = log(qv)
        self._q, self._p, self._lq = qv, p, lq
        # every number apply reads, the head of each value key
        self._inputs = (float(t), qv, float(p.eta), float(p.mu),
                        float(p.beta), float(policy.rel_tol),
                        int(policy.max_terms))
        # 1 - q^(1/beta) formed by expm1, which does not cancel
        self._prefactor = (p.beta * -expm1(lq / p.beta)
                           * (1.0 - qv) ** (p.mu - 1.0))
        # node k is t exp(k log(q) / beta); K(b) is the first node below b
        step = lq / p.beta
        index = {}
        for b in self._breakpoints:
            k = floor(log(b / t) / step) + 1
            if t * exp(step * k) >= b:
                k += 1
            elif k > 1 and t * exp(step * (k - 1)) < b:
                k -= 1
            index[b] = k
        self._index = index
        # the boundaries from the top take the route with fewer terms: the
        # k - size nodes a boundary adds to the direct ones above it, or
        # its tail series and the series of its weight w_k, about
        # log(rel_tol) / (k log q) terms each; the rest are deep
        size = 0
        for b in reversed(self._breakpoints):
            k = index[b]
            if (k > policy.max_terms
                    or k - size > 2.0 * log(policy.rel_tol) / (k * lq)):
                break
            size = k
        self._direct = size
        self._deep_breaks = {}
        if index and size < index[self._breakpoints[0]]:
            for name, ends in self._ends.items():
                self._deep_breaks[name] = [b for b in ends[:-1]
                                           if index[b] > size]
        self._nodes = array("d", map(mul, repeat(t), map(
            exp, map(mul, repeat(step), range(size)))))
        # weight k+1 is weight k times q^(eta+1) (1 - q^(mu+k)) / (1 - q^(k+1)),
        # each 1 - q^a formed as -expm1(a log q)
        nums = map(expm1, map(mul, repeat(lq),
                              map(add, repeat(p.mu), range(size - 1))))
        dens = map(expm1, map(mul, repeat(lq), range(1, size)))
        ratios = map(mul, map(truediv, nums, dens),
                     repeat(qv ** (p.eta + 1.0)))
        self._weights = array(
            "d", islice(accumulate(ratios, mul, initial=1.0), size))
        # a weight's relative error gains at most step_rel u a step; their
        # sum, with a bound on its rounding
        self._step_rel = 12.0 + 2.0 * (p.eta + 1.0) * -lq
        # and a node k, t exp(k log(q) / beta), node_step u relative a step
        self._node_step = 3.0 * -step
        self._mass = fsum(self._weights) * (1.0 + size * self._step_rel * _U)
        self._columns: dict = {}
        self._tails: dict[tuple, tuple] = {}
        self._deep: dict[int, tuple] = {}
        self._ratio_rows: dict[float, array] = {}
        self._q_powers: dict[int, array] = {}

    def value_key(self, names, moment: int = 0) -> tuple:
        """Everything ``apply(names, moment)`` reads: (t, q, eta, mu, beta,
        rel_tol, max_terms), the direct size the product sums, the moment
        and the named specs in order. Requests with equal keys, to this
        rule or to any other, give the same result bit for bit, or the
        same NotConvergedError.

        A rule's direct size moves with the knots of every factor it
        holds, so the key carries it, not the other factors: their knots
        change a value only through it."""
        names = tuple(names)
        return (self._inputs, self._direct_size(names), moment,
                *map(self._specs.__getitem__, names))

    def _direct_size(self, names: tuple) -> int:
        """The direct nodes a product of ``names`` sums one by one: the
        rule's, if a named factor has a knot in (0, t), else none."""
        return (self._direct if any(map(self._inner.__getitem__, names))
                else 0)

    def apply(self, names, moment: int = 0) -> OperatorResult:
        """Operator applied to s^moment times the product of the named
        factors.

        A product with a knot in [0, t] sums the side's direct nodes one
        by one, each factor's value read from its piece's polynomial
        (``_column``); every piece of it below them adds
        sum_p c_p (G(K_lo, c_p) - G(K_hi, c_p)), each G one ``_tail``; the
        piece that holds 0 has K_hi = inf and G(K_hi) = 0, and every other
        adds the rounding of the difference. ``tail_estimate`` bounds
        the truncation of every series and q-product read plus, to first
        order in the unit roundoff u, the rounding: of the pieces'
        coefficients (their ``err``, which keeps any cancellation among
        them), of the node sums, of the differences G(K_lo) - G(K_hi), of
        w_K at a deep K, and of the sum over pieces and powers.
        ``min_term`` is the least node term or lower end of a summed
        piece's enclosure, or 0. ``terms_used`` counts the nodes, factors
        and series terms of every sum the value reads.
        """
        if moment < 0:
            raise ValueError(f"moment must be >= 0, got {moment}")
        names = tuple(names)
        # a product with a knot in [0, t] sums the direct nodes one by one:
        # those below one of its knots lie where it equals the piece that
        # holds them
        direct = self._direct_size(names)
        deep = ()
        if self._deep_breaks:
            deep = sorted({b for n in names for b in self._deep_breaks.get(n, ())})
        parts = []
        err = smallest = 0.0
        factors = 0
        why = ""
        if direct:
            terms = self._weights  # direct is its length
            # sum_f E_f prod_(g != f) M_g and prod_f M_g, E_f (in units of
            # u) and M_f bounding each column's rounding and size
            lead, size = 0.0, 1.0
            for name in (*names, moment) if moment else names:
                column, col_err, col_mag = self._column(name)
                terms = map(mul, terms, column)
                lead, size = lead * col_mag + size * col_err, size * col_mag
            terms = array("d", terms)
            parts.append(fsum(terms))
            smallest = min(terms)
            err += (self._mass * _U * (lead + size * (
                direct * self._step_rel + len(names) + 3.0)))
            factors = direct
        # the pieces below the direct nodes, from the bottom one: each
        # starts at 0 or at a deep knot, and holds the nodes from K at the
        # next knot above, or the direct limit, to K at its start
        bounds = (inf, *map(self._index.__getitem__, deep), direct)
        for j, start in enumerate((0.0, *deep)):
            k_lo, k_hi = bounds[j + 1], bounds[j]
            if k_lo == k_hi:
                continue
            piece = self._piece(moment, names, start)
            if piece.lo < smallest:
                smallest = piece.lo
            if piece.err:
                # the coefficients' rounding, sum_p |dc| b^p <= err u, times
                # sum W_k x_k^p <= b^p sum W_k over the piece
                mass, mass_err = self._tail(0.0, k_lo)[:2]
                if k_hi != inf:
                    high, high_err = self._tail(0.0, k_hi)[:2]
                    mass, mass_err = mass - high, mass_err + high_err
                err += piece.err * (mass + 2.0 * mass_err) * _U
            for power, coef in piece.poly.items():
                value, value_err, terms_read, fail = self._tail(power, k_lo)
                if k_hi != inf:
                    high, high_err, more, fail_hi = self._tail(power, k_hi)
                    value -= high
                    value_err += high_err + abs(value) * _U
                    terms_read += more
                    fail = fail or fail_hi
                factors += terms_read
                why = why or fail
                parts.append(coef * value)
                err += abs(coef) * value_err
        total = fsum(parts)
        pre = self._prefactor
        value = pre * total
        smallest *= pre
        if why:  # the value with a q-product or series cut at max_terms
            raise NotConvergedError(
                f"operator series: no convergence within "
                f"{self.policy.max_terms} {why}",
                partial=OperatorResult(value, factors, abs(value), False,
                                       smallest))
        # each part rounds once, and so does their sum; the parts' sizes
        # are added left to right, as the builtin sum() does not from 3.12 on
        err += (2.0 * reduce(add, map(abs, parts), 0.0) + abs(total)) * _U
        estimate = (pre * err
                    + abs(value) * (10.0 + abs(self._p.mu - 1.0)) * _U)
        return OperatorResult(value, factors, estimate, True, smallest)

    def _piece(self, moment: int, names: tuple, point: float) -> Piece:
        """The piece of s^moment times the named factors that holds
        ``point``, built on the cached piece of ``names[:-1]`` there."""
        key = (moment, names, point)
        hit = self._products.get(key)
        if hit is None:
            if names:
                name = names[-1]
                hit = piece_product(
                    self._piece(moment, names[:-1], point),
                    self._pieces[name][bisect_right(self._ends[name], point)])
            elif moment:
                top = self._t ** moment
                hit = Piece(inf, {float(moment): 1.0}, 0.0, top, top, 0.0)
            else:
                hit = Piece(inf, {0.0: 1.0}, 1.0, 1.0, 1.0, 0.0)
            self._products[key] = hit
        return hit

    def _column(self, name) -> tuple:
        """``(values, error, size)``: the named factor, or s^name for an
        integer name, at every direct node, each value read from the
        polynomial of the factor's piece that holds the node: c0 + c1 x,
        c x^p, or else its terms added left to right. ``error`` (in units
        of u) and ``size`` bound each value's rounding, its coefficients'
        included, and its magnitude. Kept in ``_columns``."""
        hit = self._columns.get(name)
        if hit is not None:
            return hit
        nodes = self._nodes
        count = len(nodes)
        # a node t exp(k log(q) / beta) is off by node_rel u relative
        node_rel = count * self._node_step + 2.0
        if isinstance(name, int):
            size = self._t ** name
            hit = (list(map(pow, nodes, repeat(float(name)))),
                   size * (name * node_rel + 1.0), size)
        else:
            index = self._index
            ends = self._ends[name]
            row = self._pieces[name]
            column = []
            error = size = 0.0
            k_top = 0
            j = len(ends) - 1
            while k_top < count:  # the factor's pieces from the top down
                k_bottom = index[ends[j - 1]] if j else count
                if k_bottom > k_top:
                    piece = row[j]
                    poly, mag = piece.poly, piece.mag
                    xs = nodes[k_top:k_bottom]
                    if len(poly) == 2 and 0.0 in poly and 1.0 in poly:
                        c0, c1 = poly[0.0], poly[1.0]
                        column += [c0 + c1 * x for x in xs]
                    elif len(poly) == 1:
                        (power, coef), = poly.items()
                        column += ([coef * x ** power for x in xs] if power
                                   else [coef] * len(xs))
                    else:  # added left to right, not by the builtin sum()
                        column += [reduce(add, [c * x ** e for e, c
                                                in poly.items()], 0.0)
                                   for x in xs]
                    error = max(error, piece.err + mag * (len(poly) + 2.0)
                                + mag * max(poly, default=0.0) * node_rel)
                    size = max(size, mag)
                    k_top = k_bottom
                j -= 1
            hit = (column, error, size)
        self._columns[name] = hit
        return hit

    def _tail(self, power: float, k: int) -> tuple:
        """``(G, error bound, terms, failure)`` for the sum of
        W_j x_j^power over every node j >= k, k finite: for k = 0,
        t^power S(q^c) with c = eta + 1 + power/beta (q-binomial theorem),
        its terms the factors of the S record and of the record its class
        is reached from; t^power S minus the fsum of the first k terms when
        k is a direct boundary; else the tail series (``_series``).
        ``terms`` counts the factors and series terms of the records and
        series it reads; ``failure`` names what did not converge, or is
        empty. Kept in ``_tails`` under (k, power)."""
        hit = self._tails.get((k, power))
        if hit is not None:
            return hit
        if not k:
            p, qv = self._p, self._q
            c = p.eta + 1.0 + power / p.beta
            s, s_rel, factors, base, done = _s_record(qv, p.eta, p.mu, c,
                                                      self.policy)
            if base is not None:
                factors += _s_record(qv, p.eta, p.mu, base, self.policy)[2]
            value = self._t ** power * s
            hit = (value, value * (s_rel + 8.0 * _U), factors,
                   "" if done else "product factors")
        elif k <= self._direct:
            value, value_err, terms, why = self._tail(power, 0)
            moments = self._weights
            if power:
                moments = map(mul, moments, map(pow, self._nodes, repeat(power)))
            prefix = fsum(islice(moments, k))
            value -= prefix
            # a term after k steps of the weight recurrence and of the node:
            # relative error at most k (step_rel + power node_step) + 2 power
            # + 3 units of u
            rel = k * (self._step_rel + power * self._node_step) + 2.0 * power + 3.0
            hit = (value, value_err + (prefix * rel + abs(value)) * _U, terms, why)
        else:
            hit = self._series(power, k)
        self._tails[k, power] = hit
        return hit

    def _series(self, power: float, k: int) -> tuple:
        """G at a deep boundary k by its tail series (class docstring):
        term n is term n-1 times q^k (1 - q^(mu+c+n-1)) / (1 - q^(c+n)),
        that is q^(kn) P(j+n) / P(j) times the first term, with P the
        products of those ratios over q^k along the class of c
        (``_ratio_products``) and c = base + j. For mu >= 1 the ratios fall
        toward q^k, for mu < 1 they rise to it, so the larger of q^k and the
        last ratio bounds every later one."""
        p, lq, policy = self._p, self._lq, self.policy
        c = p.eta + 1.0 + power / p.beta
        weight, weight_rel, read, why = self._deep_weight(k)
        q_k = exp(k * lq)
        base = c % 1.0
        skip = int(c - base)
        # terms fall by about q^k, times about n^(mu-1) while n (1 - q) is
        # small: start from the count that takes them below rel_tol (1 - q^k)
        # and double it until the last term bounds the rest below rel_tol
        # of the sum
        size = (log(policy.rel_tol) + log(-expm1(k * lq))) / (k * lq)
        size = ceil(size + max(0.0, p.mu - 1.0) * log(size + c + p.mu)
                    / (k * -lq)) + 2
        while True:
            size = min(size, policy.max_terms - 1)
            products = self._ratio_products(base, skip + size)
            powers = self._powers(k, size)
            total = fsum(map(mul, islice(powers, size + 1),
                             islice(products, skip, skip + size + 1)))
            # the last term and ratio, over the first term
            last = products[skip + size]
            term = powers[size] * last
            rho = max(q_k, q_k * last / products[skip + size - 1])
            n = size
            if rho < 1.0 and term * rho <= policy.rel_tol * (1.0 - rho) * total:
                break
            if size == policy.max_terms - 1:
                why = why or "terms"
                rho = 0.0
                break
            size *= 2
        first = -1.0 / expm1(c * lq) / products[skip]
        lead = (first * weight * -expm1(k * lq) * exp(c * k * lq)
                * self._t ** power)
        # a ratio: two factors 1 - q^e, e carrying the rounding of
        # eta + 1 + power/beta, and two operations; the products of up to
        # skip + n of them, q^(kn) by n products, and the sum; the lead:
        # w_k, 1 - q^c, 1 - q^k, q^(ck) and t^power
        spread = c + 2.0 * abs(p.eta) + 1.0
        factor = 5.0 + 3.0 * (c + p.mu + n + 2.0 * abs(p.eta)) * -lq
        rel = (weight_rel + (16.0 + 5.0 * spread * k * -lq
                             + (skip + n) * (2.0 * factor + 2.0)
                             + n * (k * -lq + 3.0)) * _U)
        value = lead * total
        trunc = lead * term * rho / (1.0 - rho) if rho else 0.0
        return value, value * rel + trunc, read + n, why

    def _ratio_products(self, base: float, size: int) -> array:
        """P(m), m = 0..size at least: the products of the ratios
        (1 - q^(mu+base+i-1)) / (1 - q^(base+i)), i = 1..m, base in [0, 1),
        shared by every c = base + j of the class at every deep k."""
        row = self._ratio_rows.get(base)
        if row is None:
            row = self._ratio_rows[base] = array("d", [1.0])
        if len(row) <= size:
            lq, mu = self._lq, self._p.mu
            ms = range(len(row), max(size, 2 * len(row)) + 1)
            row.extend(islice(accumulate(map(truediv, map(expm1, map(
                mul, repeat(lq), map(add, repeat(mu + base - 1.0), ms))), map(
                expm1, map(mul, repeat(lq), map(add, repeat(base), ms)))),
                mul, initial=row[-1]), 1, None))
        return row

    def _powers(self, k: int, size: int) -> array:
        """q^(kn), n = 0..size at least, by products of q^k."""
        row = self._q_powers.get(k)
        if row is None or len(row) <= size:
            q_k = exp(k * self._lq)
            row = self._q_powers[k] = array("d", accumulate(
                repeat(q_k, max(size, 2 * len(row) if row else 0)), mul,
                initial=1.0))
        return row

    def _deep_weight(self, k: int) -> tuple:
        """``(w_k, relative error bound, terms, failure)`` for a deep k:
        (1 - q^mu) S(q) exp(-D_k), S(q) = (q^(mu+1); q)_inf / (q; q)_inf the
        closed-form record at c = 1 and D_k = log (q^(k+mu); q)_inf /
        (q^(k+1); q)_inf by ``qcore.log_q_ratio``."""
        hit = self._deep.get(k)
        if hit is None:
            p, lq, qv, policy = self._p, self._lq, self._q, self.policy
            s1, s_rel, factors, _, done = _s_record(qv, p.eta, p.mu, 1.0,
                                                    policy)
            log_ratio, log_err, terms, series_done = log_q_ratio(
                qv, k + 1.0, p.mu - 1.0, policy)
            weight = -expm1(p.mu * lq) * s1 * exp(-log_ratio)
            rel = s_rel + _exp_rel(log_err + abs(log_ratio) * _U) + 4.0 * _U
            why = ("" if series_done else "terms") if done else "product factors"
            hit = self._deep[k] = (weight, rel, factors + terms, why)
        return hit


def _exp_rel(log_err: float) -> float:
    """expm1(log_err), the relative error of exp(x) for x off by at most
    log_err, or inf where that overflows, as after a budget that cut a
    ``log_q_ratio`` short: a bound never raises; the caller's flag does."""
    try:
        return expm1(log_err)
    except OverflowError:
        return inf


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
    a finite product for integer mu. Otherwise it is exp of one
    ``qcore.log_q_ratio`` per class c mod 1, at the class's member in
    [1, 2), and the finite ratio S(zq) = S(z) (1 - z) / (1 - q^mu z)
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
        # exp of log (q^(c+mu); q)_inf / (q^c; q)_inf. ``log_q_ratio``
        # takes c as exact, but c carries the rounding of eta + 1 + p/beta: a
        # relative shift of every x_k = q^(e+k), e = c + mu or c, that moves
        # log(1 - x_k) by shift x_k / (1 - x_k), and the sum of
        # x_k / (1 - x_k) over k is at most
        # x_0 / (1 - x_0) - log(1 - x_0) / |log q|.
        log_s, err, terms, done = log_q_ratio(q, c, mu, policy)
        for e in (c + mu, c):
            gap = -expm1(e * lq)
            err += (3.0 * (e + 2.0 * abs(eta)) * -lq * _U
                    * ((1.0 - gap) / gap + log(gap) / lq))
        err += abs(log_s) * _U
        return exp(log_s), _exp_rel(err) + _U, terms, None, done
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
    return OperatorRule(t, p, q, {"f": f}, policy).apply(("f",))


# One record per (q, mu, policy): the integral form's kernels and
# GammaQ(mu) do not depend on f, t, eta or beta. A record holds
# min(log(rel_tol) / log q, max_terms) doubles, about 3.2e3 at q = 0.99 and
# at most 1e5 (0.8 MB) under the default policy, so 16 records stay under
# 13 MB; the oracle workload meets 13 keys a run.
@lru_cache(maxsize=16)
def _kernel_record(qv: float, mu: float, policy: TruncationPolicy) -> tuple:
    """Kernel factors of the integral form at base q and order mu.

    Returns ``(kernels, log_tail, gamma, converged)`` with
    kernels[j] = (q^(j+1); q)_inf / (q^(j+mu); q)_inf for j below the
    first index where q^(j + min(1, mu)) < rel_tol, or below ``max_terms``
    when that comes first, in a read-only view of an array, since every
    caller shares the record. The logs of the kernels are built backward:
    the last is minus one ``qcore.log_q_ratio`` with e = size and
    d = mu - 1, which cancels the two products' common factors, and the
    factors log(1 - q^(j+1)) - log(1 - q^(j+mu)) are added to it toward
    j = 0, so that the cost is O(entries). A factor 1 - q^c is formed by
    log1p while q^c <= 1/2 and by expm1(c log q) above that, where it
    would cancel.
    ``log_tail`` bounds the log of every kernel j >= len(kernels), which
    the integral takes as 1:
    |q^(j+1) - q^(j+mu)| / ((1 - q) (1 - max(q^(j+1), q^(j+mu)))).
    ``gamma`` is ``q_gamma(mu)``, or its NotConvergedError's partial, and
    ``converged`` is False when the kernels, their last ratio or GammaQ(mu)
    needed more than ``max_terms``.
    """
    lq = log(qv)
    want = max(1, ceil(log(policy.rel_tol) / lq - min(1.0, mu)))
    size = min(want, policy.max_terms)
    last, _, _, last_done = log_q_ratio(qv, size, mu - 1.0, policy)
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
    table = array("d", accumulate(far, initial=-last))
    table.extend(islice(accumulate(close, initial=table[-1]), 1, None))
    table.reverse()
    x_one, x_mu = exp((size + 1.0) * lq), exp((size + mu) * lq)
    log_tail = abs(x_one - x_mu) / (-expm1(lq) * (1.0 - max(x_one, x_mu)))
    try:
        gam = q_gamma(mu, qv, policy)
    except NotConvergedError as exc:  # its partial serves the partial result
        gam = exc.partial
    kernels = memoryview(array("d", map(exp, table))).toreadonly()
    return (kernels, log_tail, gam,
            want <= policy.max_terms and last_done and gam.converged)


def ek_integral(f, t: float, p: OperatorParams, q: DeformationParam | float,
                policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """Integral representation; an independent oracle for ek_series.

    The Jackson node tau_j = t q^(j/beta) carries the kernel
    (t^beta - tau_j^beta q)_(mu-1)
    = t^(beta(mu-1)) (q^(j+1); q)_inf / (q^(j+mu); q)_inf, read from one
    table of kernels built backward from its last entry, and the result
    is normalised by q_gamma(mu). Both are built once per (q, mu, policy)
    per process (``_kernel_record``), so a call at a (q, mu) met before
    only walks its nodes.
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
    ratio = qv ** _check_exponent(f, p.eta, p.beta)
    fn = as_callable(f)
    beta, eta, mu = p.beta, p.eta, p.mu

    root = qv ** (1.0 / beta)
    kernels, log_tail, gam, done = _kernel_record(qv, mu, policy)
    # t^(-beta(eta+mu)) times the kernel's t^(beta(mu-1))
    front = beta * t ** (-beta * (eta + 1.0)) / gam.value
    tau_exp = beta * (eta + 1.0) - 1.0

    # term j = root^j * kernel_j * tau_j^tau_exp * f(tau_j), tau_j = t root^j;
    # the nodes end at the first one that underflows to 0
    rjs, rjs_tau = tee(accumulate(repeat(root), mul, initial=1.0))
    positive = partial(lt, 0.0)
    taus, taus_f = tee(takewhile(positive, map(mul, repeat(t), rjs_tau)))
    terms = map(mul, map(mul, map(mul, rjs, chain(kernels, repeat(1.0))),
                         map(pow, taus, repeat(tau_exp))), map(fn, taus_f))
    node_policy = policy._replace(rel_tol=policy.rel_tol * (1.0 - ratio))
    res = sum_series(terms, node_policy, ratio, "operator integral",
                     front * (1.0 - root) * t)
    if not done:
        raise NotConvergedError(
            f"operator integral: no convergence within {policy.max_terms} "
            f"kernel factors",
            partial=res._replace(tail_estimate=abs(res.value),
                                 converged=False))
    rel = gam.tail_estimate / abs(gam.value) + expm1(log_tail)
    return res._replace(tail_estimate=res.tail_estimate + abs(res.value) * rel)


def kober(f, t: float, eta: float, mu: float, q: DeformationParam | float,
          policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """Kober fractional q-integral operator: the integral form at beta = 1,
    t^(-eta-mu) / GammaQ(mu) * int_0^t (t - tau q)_(mu-1) tau^eta f(tau) d_q tau."""
    return ek_integral(f, t, OperatorParams(eta, mu, 1.0), q, policy)
