"""The evaluator of the six Chebyshev-type operator inequalities.

The six are three shapes, Chebyshev (T1/T2), bounded (T3/T4) and
Lipschitz (T5/T6), each with one weight u on both sides or with u at
(q1, p1) and v at (q2, p2). :func:`evaluate_case` evaluates every theorem
from a table that maps its id to a sides function, a q2 weight, a
hypothesis check and the family kind campaigns draw from, and returns an
:class:`InequalityReport` with the oriented margin and a verdict; a side
that does not converge makes it inconclusive.
Every eight-product sum is one ``_pair_sum`` over a table of
(q1-subset, q2-subset) pairs; it adds the products left to right, so
reports are the same bytes on every supported Python.

Every hypothesis is decided from the expressions on [0, t], where every
operator node lies: nonnegativity, the T3/T4 bounds and the T5/T6
Lipschitz constants by the interval enclosure of :mod:`qek.functions`,
and the T1/T2 synchrony by the monotone directions it certifies. Nothing
is sampled, and a hypothesis that cannot be certified is rejected even if
it is true.

Margins are oriented so that margin >= 0 means the inequality holds as
printed; a verdict is "inconclusive" whenever |margin| is within
SAFETY_FACTOR times the worst tail of the contributing operator
evaluations. Every case factor is a DSL expression, so each evaluation is
a sum of closed forms over the pieces of its product, and of a few nodes
read from those pieces' polynomials, whose tail estimate bounds the
truncation of its series and q-products and, to first order, its
rounding (see :class:`qek.ekoperator.OperatorRule`). That guards against
numerical noise but does not rule it out: the worst single tail is not
propagated through the products of the margin (ROADMAP item 2).

Within one report the eight products per side reuse repeated operator
evaluations through the report's memo (e.g. the plain weight operator
appears in several products), and all operators of one side share one
quadrature rule, so each closed form and each factor's values at the
nodes summed one by one are formed once per side however many products
use them; no factor's closure is called. The two sides share one factor
table (``OperatorRule.at``): each factor's pieces and each piece of a
product are built once per case. The cases of one campaign index share
through ``evaluate_case``'s ``shared`` dict one store of rules per set of
equal rule inputs, and one table of operator values keyed by what each
value reads (``OperatorRule.value_key``): a T2 side-1 u-product is T1's,
and a side-2 value at (q2, p2) = (q1, p1) is side 1's. Each report still
counts its own evaluations and worst tail.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .ekoperator import OperatorRule
# Not called here; kept so tracing harnesses (qekbench/child.py) that wrap
# qek.inequalities.ek_series by attribute still find it.
from .ekoperator import ek_series  # noqa: F401
from .errors import HypothesisViolatedError, NotConvergedError, NotLipschitzError
from .functions import (
    FunctionSpec,
    check_synchronous,
    extract_bounds,
    extract_lipschitz,
    nonnegative_on,
)
from .qcore import DEFAULT_POLICY, TruncationPolicy, _Validated

__all__ = [
    "TheoremCase",
    "InequalityReport",
    "SAFETY_FACTOR",
    "evaluate_case",
    "proof_kernel_A",
]

# Multiplier on the worst operator tail below which a margin is treated
# as numerically indistinguishable from zero.
SAFETY_FACTOR = 10.0


class TheoremCase(_Validated, namedtuple(
        "TheoremCase", "theorem_id t q1 q2 p1 p2 u f g h v bounds lipschitz"
        " reversed", defaults=(None, None, None, False))):
    """One inequality instance: evaluation point, bases, parameters,
    functions and (where required) certificates.

    ``reversed`` asks a T1/T2 case for the reversed inequality: its
    hypotheses become f, g asynchronous and h >= 0, under which the
    inequality flips; the margin is computed identically either way. Any
    other theorem raises ValueError for it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        theorem = _THEOREMS.get(self.theorem_id)
        if theorem is None:
            raise ValueError(f"unknown theorem id {self.theorem_id!r}")
        if not self.t > 0.0:
            raise ValueError("evaluation point t must be positive")
        if theorem.weight2 == "v" and self.v is None:
            raise ValueError(f"{self.theorem_id} needs a second weight v")
        if theorem.family == "bounded_triple" and self.bounds is None:
            raise ValueError(f"{self.theorem_id} needs a BoundsTriple")
        if theorem.family == "lipschitz_triple" and self.lipschitz is None:
            raise ValueError(f"{self.theorem_id} needs a LipschitzTriple")
        if self.reversed and theorem.require is not _require_chebyshev:
            raise ValueError(f"{self.theorem_id} has no reversed form; only"
                             f" T1/T2 cases can be reversed")
        return self


class InequalityReport:
    """LHS/RHS record for one case; margin >= 0 means the inequality
    holds as printed; worst_tail is the largest truncation tail among the
    operator evaluations feeding both sides.

    Immutable, with a namedtuple's ``_fields`` and ``_replace``, but not a
    tuple: a report can be weakly referenced.
    """

    _fields = ("case", "lhs", "rhs", "margin", "verdict", "worst_tail",
               "operator_evals", "bracket", "notes")
    __slots__ = _fields + ("__weakref__",)

    def __init__(self, case: TheoremCase, lhs: float, rhs: float,
                 margin: float, verdict: str, worst_tail: float,
                 operator_evals: int, bracket: Optional[float] = None,
                 notes: tuple[str, ...] = ()):
        for name, value in zip(self._fields, (
                case, lhs, rhs, margin, verdict, worst_tail,
                operator_evals, bracket, notes)):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes) -> InequalityReport:
        return InequalityReport(**dict(zip(self._fields, self._astuple()),
                                       **changes))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (InequalityReport, self._astuple())

    def __eq__(self, other):
        if type(other) is not InequalityReport:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return "InequalityReport(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"


def _verdict(margin: float, worst_tail: float) -> str:
    tol_effective = worst_tail * SAFETY_FACTOR
    if math.isnan(margin) or abs(margin) <= tol_effective:
        return "inconclusive"
    return "holds" if margin > 0.0 else "violated"


class _CaseStore:
    """The two operator rules of one set of case inputs, and the results
    they read from and add to.

    ``rules[1]`` is the rule at (q1, p1), ``rules[2]`` the same factors'
    rule at (q2, p2). The rules get the specs, which are expression trees,
    not their closures: they read each tree's pieces and never call it.
    ``results`` maps a value key (``OperatorRule.value_key``) to the
    OperatorResult, or to the NotConvergedError the evaluation raised; the
    :class:`_CaseOps` views fill it. Stores made through one ``shared``
    dict hold one ``results`` (``_store_of``), so a value any of their
    rules gave is not evaluated again by any other.
    """

    def __init__(self, case: TheoremCase, policy: TruncationPolicy,
                 results: dict):
        fns = {"f": case.f, "g": case.g, "h": case.h, "u": case.u}
        if case.v is not None:
            fns["v"] = case.v
        rule = OperatorRule(case.t, case.p1, case.q1, fns, policy)
        self.rules = {1: rule, 2: rule.at(case.p2, case.q2)}
        self.results = results


def _store_of(case: TheoremCase, policy: TruncationPolicy,
              shared: Optional[dict]) -> _CaseStore:
    """The store of ``case``'s rule inputs: a new one with its own
    results, or with ``shared`` the one kept there for equal inputs, whose
    results are the one dict kept under ``"values"``. The rule-input key
    holds v, whose knots move the rules' direct size; a value key holds
    only the direct size, so a T2 store reads every side-1 u-product T1's
    store gave."""
    if shared is None:
        return _CaseStore(case, policy, {})
    key = (case.t, case.q1, case.p1, case.q2, case.p2, policy,
           case.u, case.f, case.g, case.h, case.v)
    store = shared.get(key)
    if store is None:
        store = shared[key] = _CaseStore(case, policy,
                                         shared.setdefault("values", {}))
    return store


class _CaseOps:
    """One report's memo over the operator values of a :class:`_CaseStore`.

    ``evals`` counts the report's distinct requests and ``worst_tail`` is
    the largest tail among them, whichever rule or report first evaluated
    their values. A request is looked up in the store's results by its
    value key, so requests of equal values share one evaluation. A request
    that did not converge counts in ``evals`` too, and raises
    NotConvergedError naming its own side, weight, subset and moment, its
    partial value and its terms.
    """

    def __init__(self, store: _CaseStore):
        self._rules, self._results = store.rules, store.results
        self._memo: dict[tuple, float] = {}
        self.worst_tail = 0.0
        self.evals = 0

    def value(self, side: int, subset: str, weight: str = "u",
              moment: int = 0) -> float:
        key = (side, weight, subset, moment)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self.evals += 1
        rule, names = self._rules[side], (weight, *subset)
        value_key = rule.value_key(names, moment)
        res = self._results.get(value_key)
        if res is None:  # the first request of this value
            try:
                res = rule.apply(names, moment)
            except NotConvergedError as exc:
                res = exc
            self._results[value_key] = res
        if isinstance(res, NotConvergedError):
            part = res.partial
            raise NotConvergedError(
                f"side {side} operator of {weight}*{subset or '1'}"
                f" (moment {moment}): partial value {part.value!r} from"
                f" {part.terms_used} terms; {res}", partial=part) from res
        if res.tail_estimate > self.worst_tail:
            self.worst_tail = res.tail_estimate
        self._memo[key] = res.value
        return res.value


# (q1-subset, q2-subset) product pairs of the synchronous inequality:
# the first four products dominate the last four.
_CHEBYSHEV_UPPER = (("", "fgh"), ("h", "fg"), ("fg", "h"), ("fgh", ""))
_CHEBYSHEV_LOWER = (("f", "gh"), ("g", "fh"), ("gh", "f"), ("fh", "g"))

# (q1-subset, q2-subset) terms of the antisymmetric two-point-kernel
# combination shared by the bounded and Lipschitz inequalities; it is the
# double q-integral of weight(tau) weight(rho) times the product of the
# three pairwise differences.
_KERNEL_PLUS = (("fgh", ""), ("h", "fg"), ("g", "fh"), ("f", "gh"))
_KERNEL_MINUS = (("gh", "f"), ("fh", "g"), ("fg", "h"), ("", "fgh"))


def _require_nonnegative(spec: FunctionSpec, t: float, name: str) -> None:
    if not nonnegative_on(spec, t):
        raise HypothesisViolatedError(
            f"{name} must map [0,inf) into [0,inf); the interval enclosure"
            f" cannot certify it on [0, {t}]")


def _require_chebyshev(case: TheoremCase) -> None:
    """T1/T2: f, g, h pairwise synchronous, or f, g asynchronous for a
    reversed case; h >= 0 either way."""
    if case.reversed:
        want, pairs = "asynchronous", (("f", "g"),)
    else:
        want, pairs = "synchronous", (("f", "g"), ("f", "h"), ("g", "h"))
    for na, nb in pairs:
        kind = check_synchronous(getattr(case, na), getattr(case, nb), case.t)
        if kind == "none":
            raise HypothesisViolatedError(
                f"{na} and {nb} must be {want}; the monotone direction of"
                f" {na} or {nb} cannot be certified on [0, {case.t}]")
        if kind not in (want, "both"):
            raise HypothesisViolatedError(
                f"{na} and {nb} must be {want}; on [0, {case.t}] they are"
                f" {kind}")
    _require_nonnegative(case.h, case.t, "h")


def _require_bounds_hold(case: TheoremCase) -> None:
    b = case.bounds
    for spec, lo, hi, name in ((case.f, b.psi, b.Psi, "f"),
                               (case.g, b.phi, b.Phi, "g"),
                               (case.h, b.omega, b.Omega, "h")):
        elo, ehi = extract_bounds(spec, case.t)
        if elo < lo or ehi > hi:
            raise HypothesisViolatedError(
                f"the interval enclosure cannot certify {name} within"
                f" [{lo}, {hi}] on [0, {case.t}]; it gives [{elo}, {ehi}]")


def _require_lipschitz_holds(case: TheoremCase) -> None:
    trip = case.lipschitz
    for spec, const, name in ((case.f, trip.L1, "f"),
                              (case.g, trip.L2, "g"),
                              (case.h, trip.L3, "h")):
        try:
            certified = extract_lipschitz(spec, case.t)
        except NotLipschitzError:
            certified = math.inf  # no finite constant exists
        if certified > const:
            raise HypothesisViolatedError(
                f"the interval enclosure cannot certify {name} Lipschitz with"
                f" L={const} on [0, {case.t}]; it certifies L={certified}")


def _pair_sum(ops: _CaseOps, pairs: tuple[tuple[str, str], ...],
              weight2: str) -> float:
    """Sum over (q1-subset, q2-subset) pairs of the side-1 operator value
    times the side-2 one with q2 weight ``weight2``.

    Added left to right with ``+=``: the builtin sum() compensates float
    rounding from Python 3.12 on, which would make report bytes depend on
    the interpreter version.
    """
    total = 0.0
    for s1, s2 in pairs:
        total += ops.value(1, s1) * ops.value(2, s2, weight2)
    return total


def _kernel_combo(ops: _CaseOps, weight2: str) -> float:
    return (_pair_sum(ops, _KERNEL_PLUS, weight2)
            - _pair_sum(ops, _KERNEL_MINUS, weight2))


def _chebyshev_sides(case: TheoremCase, ops: _CaseOps, weight2: str):
    lhs = _pair_sum(ops, _CHEBYSHEV_UPPER, weight2)
    rhs = _pair_sum(ops, _CHEBYSHEV_LOWER, weight2)
    return lhs, rhs, lhs - rhs, {}


def _bounded_sides(case: TheoremCase, ops: _CaseOps, weight2: str):
    b = case.bounds
    lhs = abs(_kernel_combo(ops, weight2))
    rhs = (ops.value(1, "") * ops.value(2, "", weight2)
           * (b.Psi - b.psi) * (b.Phi - b.phi) * (b.Omega - b.omega))
    return lhs, rhs, rhs - lhs, {}


def _lipschitz_sides(case: TheoremCase, ops: _CaseOps, weight2: str):
    trip = case.lipschitz
    lhs = abs(_kernel_combo(ops, weight2))
    notes = ()
    if weight2 == "v":
        # The q2 weight of the (f | gh) product is printed as u in the
        # two-weight display; it is evaluated with v for consistency with
        # its siblings, and flagged when it dominates. The eight products
        # are read back through the memo.
        products = [abs(ops.value(1, s1) * ops.value(2, s2, "v"))
                    for s1, s2 in _KERNEL_PLUS + _KERNEL_MINUS]
        if abs(ops.value(1, "f") * ops.value(2, "gh", "v")) >= max(products):
            notes = ("corrected q2-weight term dominates combination",)
    # Moment bracket: double integral of u(tau) w(rho) (tau - rho)^3,
    # expanded into four moment products. The first product carries
    # weight u on the q2 side even in the two-weight version.
    # Grouped into the two antisymmetric differences, so that with equal
    # sides each is exactly 0.
    bracket = ((ops.value(1, "", moment=3) * ops.value(2, "", "u")
                - ops.value(1, "") * ops.value(2, "", weight2, moment=3))
               + 3.0 * (ops.value(1, "", moment=1)
                        * ops.value(2, "", weight2, moment=2)
                        - ops.value(1, "", moment=2)
                        * ops.value(2, "", weight2, moment=1)))
    rhs = trip.L1 * trip.L2 * trip.L3 * bracket
    return lhs, rhs, rhs - lhs, {"bracket": bracket, "notes": notes}


class _Theorem(namedtuple("_Theorem", "sides weight2 require family")):
    """One row of the theorem table, the one place per-theorem facts live.

    ``sides`` returns (lhs, rhs, margin, extra report fields), margin >= 0
    meaning the inequality holds as printed; ``weight2`` is the q2 weight
    ("v" for the two-weight versions); ``require(case)`` checks the
    hypotheses; ``family`` is the generated family kind a
    campaign draws f, g, h and their certificates from.
    """

    __slots__ = ()


_THEOREMS = {
    "T1": _Theorem(_chebyshev_sides, "u", _require_chebyshev, "synchronous_triple"),
    "T2": _Theorem(_chebyshev_sides, "v", _require_chebyshev, "synchronous_triple"),
    "T3": _Theorem(_bounded_sides, "u", _require_bounds_hold, "bounded_triple"),
    "T4": _Theorem(_bounded_sides, "v", _require_bounds_hold, "bounded_triple"),
    "T5": _Theorem(_lipschitz_sides, "u", _require_lipschitz_holds, "lipschitz_triple"),
    "T6": _Theorem(_lipschitz_sides, "v", _require_lipschitz_holds, "lipschitz_triple"),
}


def evaluate_case(case: TheoremCase, policy: TruncationPolicy = DEFAULT_POLICY,
                  shared: Optional[dict] = None) -> InequalityReport:
    """Evaluate a case under its own theorem id, the one theorem evaluator.

    * T2, T4 and T6 put v inside every q2 operator and reduce to T1, T3
      and T5 when v = u.
    * T5/T6 record the sign of the moment bracket and do not assert it.
    * A reversed case (T1/T2 only, ``TheoremCase.reversed``) is checked
      for f, g asynchronous and h >= 0, under which the inequality flips;
      the margin is computed identically either way.

    ``shared`` is a dict the caller keeps across cases whose operator
    values may coincide, as those of one campaign index do. Cases with
    equal rule inputs (t, q1, p1, q2, p2, the policy and the specs u, f,
    g, h and v) share one pair of rules, and every case evaluates each
    distinct value once: requests whose value keys
    (``OperatorRule.value_key``) are equal share one evaluation, whichever
    case, side or weight asks. Each case gets the same report as without
    ``shared``. The dict holds every store and value made for it, so the
    caller drops it when those cases are done.
    """
    sides, weight2, require, _ = _THEOREMS[case.theorem_id]
    _require_nonnegative(case.u, case.t, "u")
    if weight2 == "v":
        _require_nonnegative(case.v, case.t, "v")
    require(case)
    ops = _CaseOps(_store_of(case, policy, shared))
    try:
        lhs, rhs, margin, extra = sides(case, ops, weight2)
        worst_tail = ops.worst_tail
    except NotConvergedError as exc:
        lhs = rhs = margin = float("nan")  # a nan margin is inconclusive
        worst_tail = math.inf  # and no side has an error bound
        extra = {"notes": (f"not converged: {exc}",)}
    return InequalityReport(case, lhs, rhs, margin,
                            _verdict(margin, worst_tail),
                            worst_tail, ops.evals, **extra)


def proof_kernel_A(f, g, h, tau: float, rho: float) -> float:
    """Eight-term two-point kernel used by the bounded and Lipschitz
    inequalities; equals the product of the three pairwise differences
    (f(tau)-f(rho))(g(tau)-g(rho))(h(tau)-h(rho)) and is antisymmetric
    under tau <-> rho."""
    ft, fr = f(tau), f(rho)
    gt, gr = g(tau), g(rho)
    ht, hr = h(tau), h(rho)
    return (ft * gt * ht + fr * gr * ht + ft * gr * hr + fr * gt * hr
            - ft * gr * ht - fr * gr * hr - ft * gt * hr - fr * gt * ht)
