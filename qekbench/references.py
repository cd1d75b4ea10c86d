"""High-precision references for the oracle checks, evaluated with mpmath.

Computed in the orchestrator before a run starts, so they are neither
timed nor counted in any child's memory. Every float input is taken at its
exact binary value, which is what the program under test receives.
"""

from __future__ import annotations

import functools

import mpmath as mp

from workloads import MONOMIAL_POWER

mp.mp.dps = 30
_EPS = mp.mpf(10) ** -(mp.mp.dps + 2)


@functools.lru_cache(maxsize=None)
def _qinf(a: mp.mpf, q: mp.mpf) -> mp.mpf:
    """(a; q)_inf, multiplied out until the factors reach working precision."""
    prod = mp.mpf(1)
    term = a
    while abs(term) > _EPS:
        prod *= 1 - term
        term *= q
    return prod


@functools.lru_cache(maxsize=None)
def _monomial_factor(q: float, eta: float, mu: float, beta: float, p: int) -> mp.mpf:
    """Operator of t^p divided by t^p, from the q-binomial theorem:
    beta (1 - q^(1/beta)) (1 - q)^(mu - 1) (q^mu x; q)_inf / (x; q)_inf
    with x = q^(eta + 1 + p/beta)."""
    Q, B = mp.mpf(q), mp.mpf(beta)
    x = Q ** (mp.mpf(eta) + 1 + p / B)
    return (B * (1 - Q ** (1 / B)) * (1 - Q) ** (mp.mpf(mu) - 1)
            * _qinf(Q ** mp.mpf(mu) * x, Q) / _qinf(x, Q))


@functools.lru_cache(maxsize=None)
def _q_gamma(a: float, q: float) -> mp.mpf:
    Q, A = mp.mpf(q), mp.mpf(a)
    return _qinf(Q, Q) / _qinf(Q ** A, Q) * (1 - Q) ** (1 - A)


def reference(item: dict) -> float | None:
    """Exact value the checked quantity of ``item`` must match, or None
    when the item has no closed form (it is then checked against the
    integral form only)."""
    kind = item["kind"]
    if kind == "qgamma":
        return float(_q_gamma(item["a"], item["q"]))
    p = MONOMIAL_POWER.get(item["shape"])
    if p is None:
        return None
    t = mp.mpf(item["t"])
    if kind == "jackson":
        Q = mp.mpf(item["q"])
        return float((1 - Q) * t ** (p + 1) / (1 - Q ** (p + 1)))
    factor = _monomial_factor(item["q"], item["eta"], item["mu"], item["beta"], p)
    return float(t ** p * factor)
