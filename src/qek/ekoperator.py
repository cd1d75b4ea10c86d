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
and factor values of one (t, p, q) and sums any product of its factors
under one stop rule; ``ek_series`` is its one-factor case. The Kober
operator is the beta = 1 member of the integral form.

``ek_integral`` evaluates the integral form on the same nodes but by its
own route: at node j the kernel is t^(beta(mu-1)) (q^(j+1); q)_inf /
(q^(j+mu); q)_inf, read from one table of suffix sums of log factors
log1p(-q^(k+1)) - log1p(-q^(k+mu)) built once per call, and the result
is normalised by GammaQ(mu). It never uses the series weight recurrence
or its (1-q)^(mu-1) prefactor, so it checks them; the table makes the
cost O(nodes + factors) instead of two infinite products per node.

All series weights are positive for mu > 0, so each retained term keeps
the sign of f at its node; results report the smallest scaled term so
nonnegativity of the operator can be checked term by term.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, repeat, takewhile, tee
from math import exp, expm1, inf, log1p
from operator import add, lt, mul, neg, sub

from .errors import DomainError, NotConvergedError
from .functions import as_callable
from .qcore import (
    DEFAULT_POLICY,
    DeformationParam,
    SeriesResult,
    TruncationPolicy,
    _unstopped,
    as_deformation,
    product_length,
    q_gamma,
    truncated_sum,
)
# Not called here; kept so tracing harnesses (qekbench/child.py) that wrap
# qek.ekoperator.q_power_alpha by attribute still find it.
from .qcore import q_power_alpha  # noqa: F401

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
    """SeriesResult extended with the smallest retained (scaled) term.

    ``min_term`` >= 0 certifies that every term of the evaluation was
    nonnegative, which for nonnegative inputs is exact, not a tolerance
    statement.
    """

    min_term: float = 0.0


def _check_exponent(f, p: OperatorParams) -> None:
    pf = getattr(f, "c_lambda_exponent", None)
    if pf is not None and p.eta + 1.0 + pf / p.beta <= 0.0:
        raise DomainError(
            f"series not summable: eta+1+p/beta = {p.eta + 1.0 + pf / p.beta}"
        )


class OperatorRule:
    """The series quadrature rule of one operator side at one (t, p, q).

    Nodes x_k = t q^(k/beta), weights (q^mu;q)_k / (q;q)_k q^(k(eta+1))
    and the value of every named factor of ``fns`` at every node are
    generated on demand and kept, so each factor is evaluated once per
    node however many products of factors are summed over the rule.
    """

    def __init__(self, t: float, p: OperatorParams,
                 q: DeformationParam | float, fns: dict,
                 policy: TruncationPolicy = DEFAULT_POLICY):
        if not t > 0.0:
            raise ValueError(f"evaluation point must be positive, got {t}")
        qv = as_deformation(q).q
        self.policy = policy
        self.nodes = array("d")
        self.weights = array("d")
        self.values = {name: array("d") for name in fns}
        self._fns = {name: as_callable(fn) for name, fn in fns.items()}
        self._q = qv
        self._root = qv ** (1.0 / p.beta)
        self._ratio_eta = qv ** (p.eta + 1.0)
        self._prefactor = (p.beta * (1.0 - self._root)
                           * (1.0 - qv) ** (p.mu - 1.0))
        # (x_k, w_k, q^k, q^(mu+k)) of the next node to generate
        self._next = (t, 1.0, 1.0, qv ** p.mu)

    def _terms(self, names, moment: int):
        """Iterator over w_k * (x_k^moment * v_1(x_k) * v_2(x_k) * ...),
        k = 0, 1, ...: stored nodes first, then one new node per term."""
        nodes = self.nodes
        cols = [self.values[name] for name in names]
        fns = [self._fns[name] for name in names]
        for col, fn in zip(cols, fns):
            col.extend(map(fn, nodes[len(col):]))
        products = map(pow, nodes, repeat(moment))
        for col in cols:
            products = map(mul, products, col)
        stored = map(mul, self.weights, products)
        return chain(stored, self._fresh_terms(cols, fns, moment))

    def _fresh_terms(self, cols, fns, moment: int):
        nodes, weights = self.nodes, self.weights
        qv, root, ratio_eta = self._q, self._root, self._ratio_eta
        pairs = list(zip(cols, fns))
        while True:
            node, coef, qk, qmu_k = self._next
            if not node > 0.0:  # underflow ends the node stream
                return
            nodes.append(node)
            weights.append(coef)
            self._next = (node * root,
                          coef * ((1.0 - qmu_k) / (1.0 - qk * qv) * ratio_eta),
                          qk * qv, qmu_k * qv)
            term = node ** moment
            for col, fn in pairs:
                val = fn(node)
                col.append(val)
                term *= val
            yield coef * term

    def apply(self, names, moment: int = 0) -> OperatorResult:
        """Operator applied to s^moment times the product of the named
        factors, summed under the policy's stop rule."""
        if moment < 0:
            raise ValueError(f"moment must be >= 0, got {moment}")
        total, used, last, smallest, stopped = truncated_sum(
            self._terms(names, moment), self.policy)
        pre = self._prefactor
        if not stopped:
            raise NotConvergedError(
                _unstopped("operator series", used, self.policy),
                partial=OperatorResult(pre * total, used, pre * abs(total),
                                       False, pre * smallest),
            )
        ratio_eta = self._ratio_eta
        tail = abs(last) * ratio_eta / (1.0 - ratio_eta)
        return OperatorResult(pre * total, used, pre * tail, True,
                              pre * smallest)


def ek_series(f, t: float, p: OperatorParams, q: DeformationParam | float,
              policy: TruncationPolicy = DEFAULT_POLICY) -> OperatorResult:
    """Series representation of the generalized Erdelyi-Kober q-operator."""
    rule = OperatorRule(t, p, q, {"f": f}, policy)
    _check_exponent(f, p)
    return rule.apply(("f",))


def _log_kernel_table(qv: float, mu: float, policy: TruncationPolicy):
    """Log kernel factors of the integral form at base q and order mu.

    Returns ``(table, log_tail, converged)`` with
    table[j] = sum_{k>=j} [log1p(-q^(k+1)) - log1p(-q^(k+mu))]
    = log((q^(j+1); q)_inf / (q^(j+mu); q)_inf), truncated at the first
    ``len(table)`` factors: the longer of the two products' lengths under
    ``product_length``. ``log_tail`` bounds |log-factor sum dropped| for
    every j, including j >= len(table), whose truncated table entry is 0.
    The suffix sums are accumulated from the small end.
    """
    size_num, tail_num, num_done = product_length(qv, qv, policy)
    size_den, tail_den, den_done = product_length(qv ** mu, qv, policy)
    size = max(size_num, size_den)
    # factors k = size-1, ..., 0: suffix sums accumulate from the small end
    nums = map(pow, repeat(qv), range(size, 0, -1))
    dens = map(pow, repeat(qv), map(add, range(size - 1, -1, -1), repeat(mu)))
    factors = map(sub, map(log1p, map(neg, nums)), map(log1p, map(neg, dens)))
    table = array("d", accumulate(factors))
    table.reverse()
    return table, tail_num + tail_den, num_done and den_done


def ek_integral(f, t: float, p: OperatorParams, q: DeformationParam | float,
                policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """Integral representation; an independent oracle for ek_series.

    The Jackson node tau_j = t q^(j/beta) carries the kernel
    (t^beta - tau_j^beta q)_(mu-1)
    = t^(beta(mu-1)) (q^(j+1); q)_inf / (q^(j+mu); q)_inf, read from one
    table of log factors summed from the small end (``_log_kernel_table``),
    and the result is normalised by q_gamma(mu). The series form instead
    builds its weights by the forward ratio recurrence
    (1 - q^(mu+k)) / (1 - q^(k+1)) from 1 and scales by (1-q)^(mu-1); the
    two routes share no arithmetic beyond the nodes, so a fault in either
    shows as a gap between them. Cost is O(nodes + factors).

    A node loop or kernel table that needs more than ``max_terms`` raises
    this operator's NotConvergedError, whose partial result is the
    truncated integral (``converged=False``).
    """
    if not t > 0.0:
        raise ValueError(f"evaluation point must be positive, got {t}")
    qv = as_deformation(q).q
    _check_exponent(f, p)
    fn = as_callable(f)
    beta, eta, mu = p.beta, p.eta, p.mu

    root = qv ** (1.0 / beta)
    table, log_tail, table_done = _log_kernel_table(qv, mu, policy)
    if table_done:
        gam = q_gamma(mu, qv, policy)
    else:
        # q_gamma truncates its two products under the table's stop rule,
        # so it would raise its own error; the partial result is normalised
        # by the truncated table's (q;q)_inf/(q^mu;q)_inf (1-q)^(1-mu).
        gam = SeriesResult(exp(table[0]) * (1.0 - qv) ** (1.0 - mu),
                           len(table), inf, False)
    # t^(-beta(eta+mu)) times the kernel's t^(beta(mu-1))
    front = beta * t ** (-beta * (eta + 1.0)) / gam.value
    tau_exp = beta * (eta + 1.0) - 1.0
    ratio_eta = qv ** (eta + 1.0)

    # term j = root^j * kernel_j * tau_j^tau_exp * f(tau_j), tau_j = t root^j;
    # the nodes end at the first one that underflows to 0
    rjs, rjs_tau = tee(accumulate(repeat(root), mul, initial=1.0))
    positive = partial(lt, 0.0)
    taus, taus_f = tee(takewhile(positive, map(mul, repeat(t), rjs_tau)))
    kernels = chain(map(exp, table), repeat(1.0))
    terms = map(mul, map(mul, map(mul, rjs, kernels),
                         map(pow, taus, repeat(tau_exp))), map(fn, taus_f))
    total, used, last, _, stopped = truncated_sum(terms, policy)
    scale = front * (1.0 - root) * t
    value = scale * total
    if not (stopped and table_done):
        if stopped:
            why = (f"operator integral: no convergence within "
                   f"{policy.max_terms} kernel factors")
        else:
            why = _unstopped("operator integral", used, policy, "nodes")
        raise NotConvergedError(
            why, partial=SeriesResult(value, used, abs(value), False))
    sum_tail = abs(last) * ratio_eta / (1.0 - ratio_eta)
    gam_rel = gam.tail_estimate / abs(gam.value)
    tail = abs(scale) * sum_tail + abs(value) * (gam_rel + expm1(log_tail))
    return SeriesResult(value, used, tail, True)


def kober(f, t: float, eta: float, mu: float, q: DeformationParam | float,
          policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """Kober fractional q-integral operator: the integral form at beta = 1,
    t^(-eta-mu) / GammaQ(mu) * int_0^t (t - tau q)_(mu-1) tau^eta f(tau) d_q tau."""
    return ek_integral(f, t, OperatorParams(eta, mu, 1.0), q, policy)
