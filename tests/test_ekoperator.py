"""Fractional operator tests.

The power-function closed form is confirmed by brute-force series
summation (coefficients via finite shifted factorials, independent of the
evaluator's recurrence) before being relied on; the integral form serves
as the cross-representation oracle for the series form.
"""

import functools
import math
import random
from bisect import bisect_right

import pytest

from qek.ekoperator import (
    OperatorParams,
    OperatorResult,
    OperatorRule,
    _kernel_record,
    _s_record,
    ek_integral,
    ek_series,
    kober,
)
from qek.errors import DomainError, NotConvergedError
from qek.functions import (
    Affine,
    Const,
    PiecewiseLinear,
    Power,
    Product,
    Scale,
    generate_family,
    generate_weight,
    parse_function_spec,
)
from qek.jackson import jackson_integral
from qek.qcore import (
    DEFAULT_POLICY,
    TruncationPolicy,
    q_gamma,
    q_power_alpha,
)


def power(sigma):
    return parse_function_spec(f"(power {sigma:g})")


def finite_pochhammer(a, q, n):
    """(a; q)_n = prod_(i<n) (1 - a q^i), formed factor by factor."""
    prod = 1.0
    for i in range(n):
        prod *= 1.0 - a * q ** i
    return prod


def brute_series(f, t, eta, mu, beta, q, terms=900):
    """Direct summation with coefficients built from finite products."""
    total = 0.0
    for k in range(terms):
        coef = finite_pochhammer(q ** mu, q, k) / finite_pochhammer(q, q, k)
        total += coef * q ** (k * (eta + 1.0)) * f(t * q ** (k / beta))
    return beta * (1.0 - q ** (1.0 / beta)) * (1.0 - q) ** (mu - 1.0) * total


def power_closed_form(sigma, t, eta, mu, beta, q):
    c = eta + 1.0 + sigma / beta
    ratio = q_gamma(c, q).value / q_gamma(c + mu, q).value
    return beta * (1.0 - q ** (1.0 / beta)) / (1.0 - q) * ratio * t ** sigma


ONE = parse_function_spec("(const 1)")

SHAPES = [
    ONE,
    parse_function_spec("(power 1)"),
    parse_function_spec("(power 2)"),
    PiecewiseLinear(((0.0, 0.0), (0.5, 0.3), (1.0, 0.5), (2.0, 1.2))),
]


class TestOperatorParams:
    def test_rejects_eta_at_minus_one(self):
        with pytest.raises(ValueError, match="diverges"):
            OperatorParams(-1.0, 1.0, 1.0)

    @pytest.mark.parametrize("kwargs", [
        {"eta": -1.5, "mu": 1.0, "beta": 1.0},
        {"eta": 0.0, "mu": 0.0, "beta": 1.0},
        {"eta": 0.0, "mu": 1.0, "beta": 0.0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            OperatorParams(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["eta", "mu", "beta"])
    def test_rejects_non_finite_fields(self, name, value):
        kwargs = {"eta": 0.0, "mu": 1.0, "beta": 1.0, name: value}
        with pytest.raises(ValueError, match=f"must be finite, .*{name}="):
            OperatorParams(**kwargs)


class TestSeriesForm:
    def test_unit_function_unit_order(self):
        res = ek_series(ONE, 1.0, OperatorParams(0.0, 1.0, 1.0), 0.5)
        assert res.value == pytest.approx(1.0, rel=1e-13)
        assert isinstance(res, OperatorResult)

    def test_zero_function(self):
        zero = parse_function_spec("(const 0)")
        res = ek_series(zero, 1.0, OperatorParams(0.5, 0.7, 2.0), 0.5)
        assert res.value == 0.0
        assert res.min_term == 0.0

    @pytest.mark.parametrize("sigma", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("eta,mu,beta,q", [
        (0.0, 1.0, 1.0, 0.5),
        (0.5, 0.7, 2.0, 0.3),
        (-0.5, 2.0, 0.5, 0.6),
    ])
    def test_power_function_closed_form(self, sigma, eta, mu, beta, q):
        t = 1.7
        p = OperatorParams(eta, mu, beta)
        f = power(sigma)
        res = ek_series(f, t, p, q)
        oracle = brute_series(f.fn, t, eta, mu, beta, q)
        closed = power_closed_form(sigma, t, eta, mu, beta, q)
        # brute force confirms the closed form, then both check the evaluator
        assert oracle == pytest.approx(closed, rel=1e-11)
        assert res.value == pytest.approx(oracle, rel=1e-11)
        assert res.value == pytest.approx(closed, rel=1e-10)

    def test_nonnegative_input_tags_nonnegative_terms(self):
        p = OperatorParams(-0.5, 0.7, 1.5)
        res = ek_series(SHAPES[3], 1.5, p, 0.8)
        assert res.min_term >= 0.0
        assert res.value >= 0.0

    def test_sign_tag_sees_negative_terms(self):
        p = OperatorParams(0.0, 1.0, 1.0)
        res = ek_series(parse_function_spec("(affine 1 -0.5)"), 1.0, p, 0.5)
        assert res.min_term < 0.0

    def test_linearity(self):
        p = OperatorParams(0.3, 1.2, 2.0)
        q = 0.6
        f = SHAPES[1]
        g = SHAPES[2]
        both = parse_function_spec("(sum (scale 2 (power 1)) (scale 0.7 (power 2)))")
        lhs = ek_series(both, 1.3, p, q).value
        rhs = 2.0 * ek_series(f, 1.3, p, q).value + 0.7 * ek_series(g, 1.3, p, q).value
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_monotone_in_argument(self):
        p = OperatorParams(0.0, 0.8, 1.0)
        small = ek_series(power(1), 1.0, p, 0.7).value
        large = ek_series(parse_function_spec("(affine 1 0.25)"), 1.0, p, 0.7).value
        assert small <= large + 1e-12

    def test_order_zero_limit(self):
        # as mu -> 0+ the power closed form's Gamma ratio tends to 1
        sigma, t, eta, beta, q = 1.0, 1.2, 0.5, 2.0, 0.6
        limit = beta * (1.0 - q ** (1.0 / beta)) / (1.0 - q) * t ** sigma
        gaps = []
        for mu in (0.1, 0.01, 0.001):
            p = OperatorParams(eta, mu, beta)
            val = ek_series(power(sigma), t, p, q).value
            gaps.append(abs(val - limit))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2 * max(1.0, limit)

    @pytest.mark.parametrize("sigma,t,eta,mu,beta,q", [
        (1.0, 1.7, 0.5, 0.7, 2.0, 0.3),
        (2.5, 1.2, -0.5, 2.0, 0.5, 0.6),
        (1.0, 2.0, 1.0, 0.5, 2.0, 0.9),
    ])
    def test_cross_check_mpmath(self, sigma, t, eta, mu, beta, q):
        import mpmath as mp

        with mp.workdps(40):
            c = eta + 1.0 + sigma / beta
            ref = float(beta * (1 - mp.mpf(q) ** (mp.mpf(1) / beta)) / (1 - q)
                        * mp.qgamma(c, q) / mp.qgamma(c + mu, q)
                        * mp.mpf(t) ** sigma)
        val = ek_series(power(sigma), t, OperatorParams(eta, mu, beta), q).value
        assert val == pytest.approx(ref, rel=1e-12)

    def test_not_converged(self):
        # at mu = 1.5 the tail's log-space product needs more than 5 factors
        with pytest.raises(NotConvergedError):
            ek_series(ONE, 1.0, OperatorParams(0.0, 1.5, 1.0), 0.9,
                      TruncationPolicy(max_terms=5))

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            ek_series(ONE, 0.0, OperatorParams(0.0, 1.0, 1.0), 0.5)


class TestIntegralForm:
    def test_unit_case_matches_series(self):
        p = OperatorParams(0.0, 1.0, 1.0)
        s = ek_series(ONE, 1.0, p, 0.5)
        i = ek_integral(lambda t: 1.0, 1.0, p, 0.5)
        assert i.value == pytest.approx(s.value, rel=1e-12)

    def test_cross_representation_case(self):
        p = OperatorParams(0.5, 0.7, 2.0)
        s = ek_series(power(1), 2.0, p, 0.3)
        i = ek_integral(lambda t: t, 2.0, p, 0.3)
        assert abs(s.value - i.value) <= 1e-8 * max(1.0, abs(s.value))

    def test_zero_function(self):
        p = OperatorParams(0.5, 0.7, 2.0)
        assert ek_integral(lambda t: 0.0, 2.0, p, 0.3).value == 0.0

    def test_rejects_non_summable_exponent(self):
        # t^-0.9 at eta = -0.5: eta + 1 + p/beta = -0.4, the terms grow
        def f(t):
            return t ** -0.9

        f.c_lambda_exponent = -0.9
        with pytest.raises(DomainError, match="= -0.4"):
            ek_integral(f, 1.0, OperatorParams(-0.5, 1.0, 1.0), 0.5)

    def test_underflowed_node_ends_the_sum(self):
        # the fourth node underflows to 0.0, where tau^(-1/2) has no value
        seen = []
        with pytest.raises(NotConvergedError, match="underflow") as info:
            ek_integral(lambda s: seen.append(s) or 1.0, 1.0,
                        OperatorParams(-0.5, 1.0, 1.0), 1e-120)
        assert min(seen) > 0.0
        assert info.value.partial.terms_used == 3
        assert info.value.partial.converged is False

    @pytest.mark.parametrize("q", [0.3, 0.9])
    @pytest.mark.parametrize("eta", [-0.5, 1.0])
    @pytest.mark.parametrize("mu", [0.5, 2.0])
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_equivalence_subgrid(self, q, eta, mu, beta):
        p = OperatorParams(eta, mu, beta)
        for shape in SHAPES:
            s = ek_series(shape, 1.0, p, q)
            i = ek_integral(shape, 1.0, p, q)
            assert abs(s.value - i.value) <= 1e-8 * max(1.0, abs(s.value))


class TestIntegralKernel:
    """The kernel table behind ek_integral against the per-node
    reference kernel q_power_alpha(t^beta, tau^beta q, q, mu - 1)."""

    @pytest.mark.parametrize("q", [0.3, 0.9, 0.99])
    @pytest.mark.parametrize("mu", [0.5, 1.5, 2.0])
    def test_table_matches_q_power_alpha(self, q, mu):
        kernels, log_tail, gam, converged = _kernel_record(q, mu, DEFAULT_POLICY)
        size = len(kernels)
        assert converged
        assert gam == q_gamma(mu, q)
        assert 0.0 < log_tail < 2.0 * DEFAULT_POLICY.rel_tol / (1.0 - q)
        # sampled nodes, the last table entry and a node past the table
        nodes = sorted({*range(0, size, max(1, size // 6)), size - 1, size + 5})
        for beta in (0.5, 2.0):
            for t in (0.5, 2.0):
                for j in nodes:
                    kern = t ** (beta * (mu - 1.0)) * (kernels[j] if j < size
                                                       else 1.0)
                    tau = t * q ** (j / beta)
                    ref = q_power_alpha(t ** beta, tau ** beta * q, q, mu - 1.0)
                    assert abs(kern - ref.value) <= 1e-12 * abs(ref.value)

    def test_table_over_budget_is_flagged(self):
        kernels, log_tail, gam, converged = _kernel_record(
            0.9, 1.5, TruncationPolicy(max_terms=20))
        assert not converged
        assert len(kernels) == 20
        assert log_tail > 1e-3
        # q_gamma(1.5)'s products need more than 20 factors too: its partial
        assert not gam.converged and gam.terms_used == 20
        # every caller shares the record, so none can write to it
        with pytest.raises(TypeError):
            kernels[0] = 1.0


@functools.lru_cache(maxsize=None)
def _mp_qinf_power(q, e):
    """(q^e; q)_inf in 40-digit mpmath, multiplied out until the factors
    drop below 1e-42; q and e are taken at their exact binary values."""
    import mpmath as mp

    with mp.workdps(40):
        Q = mp.mpf(q)
        prod, term = mp.mpf(1), Q ** mp.mpf(e)
        while term > mp.mpf(10) ** -42:
            prod *= 1 - term
            term *= Q
        return prod


def _q_binomial_exact(sigma, t, eta, mu, beta, q):
    """Operator of s^sigma at t in closed form (q-binomial theorem):
    t^sigma beta (1 - q^(1/beta)) (1-q)^(mu-1) (q^mu x; q)_inf / (x; q)_inf
    with x = q^c, c = eta + 1 + sigma/beta (exact for the dyadic grids
    used here)."""
    import mpmath as mp

    c = eta + 1.0 + sigma / beta
    with mp.workdps(40):
        Q, B, M = mp.mpf(q), mp.mpf(beta), mp.mpf(mu)
        return float(mp.mpf(t) ** sigma * B * (1 - Q ** (1 / B))
                     * (1 - Q) ** (M - 1)
                     * _mp_qinf_power(q, c + mu) / _mp_qinf_power(q, c))


class TestIntegralOracle:
    @pytest.mark.parametrize("q", [0.9, 0.97, 0.99])
    @pytest.mark.parametrize("eta", [-0.5, 0.0, 1.0])
    @pytest.mark.parametrize("mu", [0.5, 1.5, 2.0])
    def test_monomials_match_q_binomial_closed_form(self, q, eta, mu):
        t = 1.3
        for beta in (0.5, 1.0, 2.0):
            p = OperatorParams(eta, mu, beta)
            for sigma in (0, 1, 2):
                res = ek_integral(lambda s: s ** sigma, t, p, q)
                exact = _q_binomial_exact(sigma, t, eta, mu, beta, q)
                rounding = 8 * res.terms_used * 2.0 ** -53 * abs(res.value)
                assert abs(res.value - exact) <= res.tail_estimate + rounding
                # measured: at most 2.7e-14 |exact|, at q = 0.99
                assert abs(res.value - exact) <= 5e-14 * abs(exact)

    @pytest.mark.parametrize("q", [0.5, 0.9])
    @pytest.mark.parametrize("sigma", [-0.5, -0.9])
    def test_singular_integrand_within_tail_estimate(self, q, sigma):
        # t^sigma, sigma < 0, decays like q^(1+sigma) a node in the Jackson
        # integral and like q^(eta+1+sigma/beta) in the integral form: a
        # tail taken at ratio q or q^(eta+1) undercounts the error
        import mpmath as mp

        def f(s):
            return s ** sigma

        f.c_lambda_exponent = sigma
        res = jackson_integral(f, 1.0, q)
        with mp.workdps(40):
            Q = mp.mpf(q)
            exact = float((1 - Q) / (1 - Q ** (1 + mp.mpf(sigma))))
        rounding = 2 * res.terms_used * 2.0 ** -53 * abs(exact)
        assert abs(res.value - exact) <= res.tail_estimate + rounding
        for eta, beta in ((0.0, 1.0), (-0.5, 2.0)):
            res = ek_integral(f, 1.0, OperatorParams(eta, 1.5, beta), q)
            exact = _q_binomial_exact(sigma, 1.0, eta, 1.5, beta, q)
            assert abs(res.value - exact) <= res.tail_estimate

    def test_not_converged_carries_partial(self):
        # q_gamma and the kernel table fit in 300 factors, the nodes do not
        p = OperatorParams(-0.5, 1.5, 2.0)
        full = ek_integral(lambda s: 1.0, 1.0, p, 0.9)
        assert full.terms_used > 300
        with pytest.raises(NotConvergedError) as info:
            ek_integral(lambda s: 1.0, 1.0, p, 0.9, TruncationPolicy(max_terms=300))
        partial = info.value.partial
        assert partial.converged is False
        assert partial.terms_used == 300
        assert 0.0 < partial.value < full.value

    def test_kernel_overrun_raises_operator_error(self):
        # q_gamma(1.5) and the kernel table need more than 10 factors: the
        # caller gets the operator's error and partial, not a q-product's
        p = OperatorParams(0.0, 1.5, 1.0)
        one = parse_function_spec("(const 1)")
        full = ek_integral(one, 1.0, p, 0.9)
        with pytest.raises(NotConvergedError) as info:
            ek_integral(one, 1.0, p, 0.9, TruncationPolicy(max_terms=10))
        assert "operator integral" in str(info.value)
        partial = info.value.partial
        assert partial.converged is False
        assert partial.terms_used == 10
        assert 0.0 < partial.value < full.value


@functools.lru_cache(maxsize=None)
def _mp_qinf(q, e):
    """(q^e; q)_inf in 40-digit mpmath: the factors 1 - x down to
    x = q^(e+n) < 1/2 multiplied out, the rest as
    exp(-sum_m x^m / (m (1 - q^m))) to 1e-45."""
    import mpmath as mp

    with mp.workdps(45):
        Q = mp.mpf(q)
        x, prod = Q ** mp.mpf(e), mp.mpf(1)
        while x >= 0.5:
            prod *= 1 - x
            x *= Q
        log_rest, power, m = mp.mpf(0), x, 1
        while power > mp.mpf(10) ** -45:
            log_rest += power / (m * (1 - Q ** m))
            power *= x
            m += 1
        return prod * mp.exp(-log_rest)


def _mp_eval(expr, x):
    """expr at the mpmath number x, every operation in mpmath."""
    import mpmath as mp

    if isinstance(expr, Const):
        return mp.mpf(expr.value)
    if isinstance(expr, Power):
        return x ** mp.mpf(expr.exponent)
    if isinstance(expr, Affine):
        return mp.mpf(expr.slope) * x + expr.intercept
    if isinstance(expr, PiecewiseLinear):
        for (x0, y0), (x1, y1) in zip(expr.knots, expr.knots[1:]):
            if x < x1:
                return y0 + (mp.mpf(y1) - y0) * (x - x0) / (mp.mpf(x1) - x0)
        return mp.mpf(expr.knots[-1][1])
    if isinstance(expr, Scale):
        return expr.factor * _mp_eval(expr.inner, x)
    left, right = _mp_eval(expr.left, x), _mp_eval(expr.right, x)
    return left * right if isinstance(expr, Product) else left + right


def _mp_first_piece(expr):
    """(x_b, {p: c}) of expr with the coefficients in mpmath."""
    import mpmath as mp

    if isinstance(expr, Const):
        return math.inf, {0.0: mp.mpf(expr.value)}
    if isinstance(expr, Power):
        return math.inf, {expr.exponent: mp.mpf(1)}
    if isinstance(expr, Affine):
        return math.inf, {0.0: mp.mpf(expr.intercept), 1.0: mp.mpf(expr.slope)}
    if isinstance(expr, PiecewiseLinear):
        (_, y0), (x1, y1) = expr.knots[:2]
        return x1, {0.0: mp.mpf(y0), 1.0: (mp.mpf(y1) - y0) / x1}
    if isinstance(expr, Scale):
        x_b, poly = _mp_first_piece(expr.inner)
        return x_b, {p: expr.factor * c for p, c in poly.items()}
    (x_l, left), (x_r, right) = (_mp_first_piece(expr.left),
                                 _mp_first_piece(expr.right))
    out = {}
    if isinstance(expr, Product):
        for pl, cl in left.items():
            for pr, cr in right.items():
                out[pl + pr] = out.get(pl + pr, 0) + cl * cr
    else:
        for p, c in list(left.items()) + list(right.items()):
            out[p] = out.get(p, 0) + c
    return min(x_l, x_r), out


def _mp_series(expr, t, eta, mu, beta, q):
    """The series operator of expr at t in 40-digit mpmath: the nodes down
    to the first knot x_b and five more summed one by one, the rest in
    closed form from expr's first piece by the q-binomial theorem. Exact
    for the dyadic parameters used here."""
    import mpmath as mp

    x_b, poly = _mp_first_piece(expr)
    with mp.workdps(40):
        Q, T, B = mp.mpf(q), mp.mpf(t), mp.mpf(beta)
        root, ratio = Q ** (1 / B), Q ** (mp.mpf(eta) + 1)
        total, weight, moments = mp.mpf(0), mp.mpf(1), dict.fromkeys(poly, 0)
        x, q_k, q_mu_k = T, mp.mpf(1), Q ** mp.mpf(mu)  # node k, q^k, q^(mu+k)
        powers = {p: (lambda s: 1) if p == 0 else (lambda s: s) if p == 1
                  else (lambda s, e=mp.mpf(p): s ** e) for p in poly}
        k, end = 0, None
        while end is None or k < end:
            if end is None and not x >= x_b:
                end = k + 5
            total += weight * _mp_eval(expr, x)
            for p, power_of in powers.items():
                moments[p] += weight * power_of(x)
            q_k *= Q
            weight *= (1 - q_mu_k) / (1 - q_k) * ratio
            x, q_mu_k, k = x * root, q_mu_k * Q, k + 1
        for p, c in poly.items():
            e = eta + 1.0 + p / beta
            tail = T ** mp.mpf(p) * _mp_qinf(q, e + mu) / _mp_qinf(q, e)
            total += c * (tail - moments[p])
        return B * (1 - root) * (1 - Q) ** (mp.mpf(mu) - 1) * total


# piecewise-linear, sum, product and a sign-changing shape
HEAD_TAIL_SHAPES = [parse_function_spec(text) for text in (
    "(piecewise_linear (0 0.2) (0.85 0.5) (0.95 1.1) (1 1.3))",
    "(sum (piecewise_linear (0 0.1) (0.8 0.3) (1 1)) (power 1.5))",
    "(product (affine 0.5 0.2) (piecewise_linear (0 0.3) (0.9 0.8) (1 0.9)))",
    "(sum (piecewise_linear (0 -0.5) (0.8 0.4) (1 0.6)) (scale -0.3 (power 2)))",
)]

STEEP = parse_function_spec("(piecewise_linear (0 0) (0.01 1) (1 2))")
LIN = parse_function_spec("(affine 1 0.5)")


class TestHeadAndTail:
    """DSL inputs, summed piece by piece in closed form and over a few
    nodes, against 40-digit references that sum the nodes down to the
    first knot one by one."""

    @pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
    @pytest.mark.parametrize("eta", [-0.5, 0.0, 1.0])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_error_within_tail_estimate(self, q, eta, mu, beta):
        p = OperatorParams(eta, mu, beta)
        for shape in HEAD_TAIL_SHAPES:
            res = ek_series(shape, 1.0, p, q)
            ref = _mp_series(shape, 1.0, eta, mu, beta, q)
            assert abs(res.value - ref) <= res.tail_estimate
            # and not a vacuous one: measured at most 6.5e-15 / (1 - q) |ref|,
            # and 6.8e-13 / (1 - q) |ref| for the sign-changing shape,
            # whose terms cancel
            scale = 1e-12 if shape is HEAD_TAIL_SHAPES[-1] else 1e-14
            assert res.tail_estimate <= scale / (1.0 - q) * abs(ref)

    @pytest.mark.parametrize("eta, mu", [(-0.5, 0.5), (1.0, 1.5)])
    def test_error_within_tail_estimate_near_one(self, eta, mu):
        # q = 0.9999: about 7000 leading factors per closed-form record
        q = 0.9999
        for beta in (0.5, 1.0, 2.0):
            p = OperatorParams(eta, mu, beta)
            for shape in HEAD_TAIL_SHAPES:
                res = ek_series(shape, 1.0, p, q)
                ref = _mp_series(shape, 1.0, eta, mu, beta, q)
                assert abs(res.value - ref) <= res.tail_estimate
                scale = 1e-12 if shape is HEAD_TAIL_SHAPES[-1] else 1e-14
                assert res.tail_estimate <= scale / (1.0 - q) * abs(ref)

    @pytest.mark.parametrize("q", [0.3, 0.9, 0.99])
    @pytest.mark.parametrize("mu", [1.0, 2.0, 3.0])
    def test_integer_mu_agrees_with_its_neighbours(self, q, mu):
        # integer mu takes the finite product 1/(z;q)_mu, its float
        # neighbours the log-space product pair
        for shape in HEAD_TAIL_SHAPES:
            at = ek_series(shape, 1.0, OperatorParams(0.0, mu, 2.0), q)
            for toward in (0.0, math.inf):
                near = ek_series(shape, 1.0,
                                 OperatorParams(0.0, math.nextafter(mu, toward), 2.0), q)
                assert near.terms_used > at.terms_used
                gap = abs(near.value - at.value)
                assert gap <= near.tail_estimate + at.tail_estimate

    def test_not_converged_carries_partial(self):
        # integer mu keeps the closed-form records out of the budget; the
        # knot 0.9 is node 11 at q = 0.99, below max_terms = 4, so its tail
        # series, about 300 terms, runs out of the budget
        p = OperatorParams(0.0, 1.0, 1.0)
        policy = TruncationPolicy(max_terms=4)
        knotted = parse_function_spec("(piecewise_linear (0 1) (0.9 1.2) (1 1.3))")
        full = ek_series(knotted, 1.0, p, 0.99)
        with pytest.raises(NotConvergedError, match="within 4 terms") as info:
            ek_series(knotted, 1.0, p, 0.99, policy)
        partial = info.value.partial
        assert partial.converged is False
        assert partial.tail_estimate == abs(partial.value)
        assert 0.0 < partial.value
        assert abs(partial.value - full.value) < 0.5 * full.value
        # no knot, but the tail's q-products need more than 100 factors
        p = OperatorParams(0.0, 0.5, 1.0)
        policy = TruncationPolicy(max_terms=100)
        affine = parse_function_spec("(affine 1 0.5)")
        full = ek_series(affine, 1.0, p, 0.99)
        with pytest.raises(NotConvergedError, match="product factors") as info:
            ek_series(affine, 1.0, p, 0.99, policy)
        partial = info.value.partial
        assert partial.converged is False
        assert partial.tail_estimate == abs(partial.value)
        assert abs(partial.value - full.value) < 0.5 * full.value

    @pytest.mark.parametrize("q", [0.9, 0.99])
    @pytest.mark.parametrize("eta, mu, beta", [(-0.5, 0.5, 1.0), (0.0, 1.5, 2.0)])
    def test_shared_head_is_exact(self, q, eta, mu, beta):
        # the other factors of the rule, the steep one's knot 0.01 among
        # them, change neither the value nor the terms of a product
        p = OperatorParams(eta, mu, beta)
        for shape in HEAD_TAIL_SHAPES:
            rule = OperatorRule(1.0, p, q, {"a": shape, "steep": STEEP,
                                            "lin": LIN})
            res = rule.apply(("a",))
            assert res == ek_series(shape, 1.0, p, q)
            ref = _mp_series(shape, 1.0, eta, mu, beta, q)
            assert abs(res.value - ref) <= res.tail_estimate
            assert rule.apply(("lin",)) == ek_series(LIN, 1.0, p, q)

    def test_overrun_stays_with_its_product(self):
        # at q = 0.9 the steep knot 0.01 is node 44, past max_terms = 5, and
        # its tail series needs about 8 terms: only products with that knot
        # run out of the budget. The shape's knots are nodes 2 and 1, summed
        # directly. Integer mu keeps the q-products out of the budget.
        p = OperatorParams(0.0, 1.0, 1.0)
        policy = TruncationPolicy(max_terms=5)
        shape = HEAD_TAIL_SHAPES[0]
        specs = {"a": shape, "steep": STEEP, "lin": LIN}
        full = OperatorRule(1.0, p, 0.9, specs).apply(("a", "steep"))
        rule = OperatorRule(1.0, p, 0.9, specs, policy)
        with pytest.raises(NotConvergedError, match="within 5 terms") as info:
            rule.apply(("a", "steep"))
        partial = info.value.partial
        assert partial.converged is False
        assert 0.0 < partial.value
        assert abs(partial.value - full.value) < 0.5 * full.value
        alone = rule.apply(("a",))
        assert alone.converged
        assert alone == ek_series(shape, 1.0, p, 0.9, policy)
        assert alone.value == pytest.approx(ek_series(shape, 1.0, p, 0.9).value,
                                            rel=1e-14)
        assert rule.apply(("lin",)) == ek_series(LIN, 1.0, p, 0.9)

    def test_steep_knot_near_one(self):
        # the knot 0.01 is node 46,052 at q = 0.9999, which a node-by-node
        # sum cannot reach under max_terms = 20,000; the closed form reads
        # a few tail-series terms
        p = OperatorParams(0.0, 2.0, 1.0)
        res = ek_series(STEEP, 1.0, p, 0.9999, TruncationPolicy(max_terms=20_000))
        ref = _mp_series(STEEP, 1.0, 0.0, 2.0, 1.0, 0.9999)
        assert res.converged
        assert abs(res.value - ref) <= res.tail_estimate

    @pytest.mark.parametrize("eta", [-0.5, 0.0, 1.0])
    def test_steep_cost_and_error_do_not_grow_near_one(self, eta):
        # from q = 0.99 to 0.9999 the knot moves from node 459 to 46,052
        p = OperatorParams(eta, 2.0, 1.0)
        near, nearer = (ek_series(STEEP, 1.0, p, q) for q in (0.99, 0.9999))
        assert (nearer.tail_estimate / abs(nearer.value)
                <= 3.0 * near.tail_estimate / abs(near.value))
        assert nearer.terms_used <= 10 * near.terms_used


class TestClassicalLimit:
    """As q -> 1 the operator of t^p tends to the classical Erdelyi-Kober
    value t^p Gamma(c) / Gamma(c + mu), c = eta + 1 + p/beta, and the gap
    shrinks like O(1 - q): a third oracle, from the standard library."""

    @pytest.mark.parametrize("sigma", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("eta, mu, beta", [(-0.5, 0.5, 1.0), (1.0, 1.5, 2.0)])
    def test_gap_shrinks_like_one_minus_q(self, sigma, eta, mu, beta):
        t = 1.3
        c = eta + 1.0 + sigma / beta
        limit = t ** sigma * math.exp(math.lgamma(c) - math.lgamma(c + mu))
        p = OperatorParams(eta, mu, beta)
        ratios = [abs(ek_series(power(sigma), t, p, q).value - limit) / (1.0 - q)
                  for q in (0.99, 0.999, 0.9999)]
        # measured 0.072-0.64, moving by under 0.2% from 0.999 to 0.9999
        assert max(ratios) < 1.0
        assert ratios[2] == pytest.approx(ratios[1], rel=0.02)


class TestKober:
    def test_unit_case(self):
        res = kober(lambda t: 1.0, 1.0, 0.0, 1.0, 0.5)
        assert res.value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, 1.0, 2.0])
    def test_power_closed_form(self, sigma):
        eta, mu, q, t = 0.5, 0.8, 0.6, 1.4
        res = kober(lambda s: s ** sigma, t, eta, mu, q)
        closed = (q_gamma(eta + 1.0 + sigma, q).value
                  / q_gamma(eta + mu + 1.0 + sigma, q).value * t ** sigma)
        oracle = brute_series(lambda s: s ** sigma, t, eta, mu, 1.0, q)
        assert oracle == pytest.approx(closed, rel=1e-11)
        assert res.value == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("seed", range(12))
    def test_nonnegative_inputs_give_nonnegative_values(self, seed):
        from qek.functions import generate_weight

        w = generate_weight(seed, 1.0)
        res = kober(w, 1.0, -0.25, 0.7, 0.55)
        assert res.value >= 0.0

    @pytest.mark.parametrize("q", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("eta", [-0.5, 0.0, 1.0])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_beta_one_reduction(self, q, eta, mu):
        p = OperatorParams(eta, mu, 1.0)
        for shape in SHAPES:
            s = ek_series(shape, 1.0, p, q)
            k = kober(shape, 1.0, eta, mu, q)
            assert k.value == pytest.approx(s.value, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            kober(lambda t: 1.0, 1.0, -1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            kober(lambda t: 1.0, 1.0, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            kober(lambda t: 1.0, 0.0, 0.0, 1.0, 0.5)


class TestOperatorRule:
    def test_identity_weight(self):
        p = OperatorParams(0.2, 1.1, 1.0)
        u = SHAPES[2]
        direct = ek_series(u, 1.0, p, 0.5)
        rule = OperatorRule(1.0, p, 0.5, {"one": ONE, "u": u})
        assert rule.apply(("u",)) == direct
        mixed = rule.apply(("one", "u"))
        assert abs(mixed.value - direct.value) <= (mixed.tail_estimate
                                                   + direct.tail_estimate)

    def test_cubic_moment_matches_power_closed_form(self):
        p = OperatorParams(0.0, 1.0, 1.0)
        q = 0.5
        rule = OperatorRule(1.0, p, q, {"one": ONE})
        res = rule.apply(("one",), moment=3)
        assert res.value == pytest.approx(power_closed_form(3.0, 1.0, 0.0, 1.0, 1.0, q),
                                          rel=1e-11)

    def test_moment_association(self):
        p = OperatorParams(0.4, 0.9, 1.5)
        q = 0.6
        rule = OperatorRule(1.0, p, q, {"one": ONE, "s": power(1)})
        a = rule.apply(("s",), moment=1)
        b = rule.apply(("one",), moment=2)
        assert a.value == pytest.approx(b.value, rel=1e-13)

    def test_rejects_negative_moment(self):
        rule = OperatorRule(1.0, OperatorParams(0.0, 1.0, 1.0), 0.5, {"one": ONE})
        with pytest.raises(ValueError):
            rule.apply(("one",), moment=-1)

    def test_apply_never_calls_a_factor(self):
        # every product is summed from its pieces' polynomials, knots in
        # [0, t] or not, at direct and deep boundaries alike
        t, q, beta = 1.0, 0.9, 2.0
        seen = []

        def counted(text):
            spec = parse_function_spec(text)
            fn = spec.fn
            object.__setattr__(spec, "fn", lambda s: seen.append(s) or fn(s))
            return spec

        specs = {"a": counted("(piecewise_linear (0 0.2) (0.83 0.5) (1 1.3))"),
                 "b": counted("(product (affine 0.5 0.2)"
                              " (piecewise_linear (0 0.3) (0.88 0.8) (1 0.9)))"),
                 "steep": counted(STEEP.to_sexpr()), "lin": counted("(affine 1 0.5)")}
        rule = OperatorRule(t, OperatorParams(0.5, 1.5, beta), q, specs)
        products = ((("a",), 0), (("a", "b"), 0), (("b",), 2), (("b", "a"), 1),
                    (("steep", "a"), 0), (("lin",), 3))
        first = [rule.apply(names, m) for names, m in products]
        assert [rule.apply(names, m) for names, m in products] == first
        assert seen == []

    def test_column_adds_monomials_left_to_right(self):
        # a piece of several monomials is valued by adding c x^p in its
        # polynomial's order, as floats add in any Python; the builtin
        # sum() compensates from 3.12 on and differs at 13 of these nodes
        f = parse_function_spec("(product (piecewise_linear (0 0.1) (0.3 0.9)"
                                " (1 0.2)) (sum (sum (const -0.7) (power 0.5))"
                                " (power 2.5)))")
        rule = OperatorRule(1.0, OperatorParams(-0.5, 1.5, 2.0), 0.9, {"f": f})
        column = rule._column("f")[0]
        assert len(column) == len(rule._nodes) == 23
        for x, value in zip(rule._nodes, column):
            poly = rule._pieces["f"][bisect_right(rule._inner["f"], x)].poly
            assert len(poly) > 2
            total = 0.0
            for p, c in poly.items():
                total += c * x ** p
            assert value.hex() == total.hex()

    def test_plain_callable_is_rejected(self):
        p = OperatorParams(0.0, 1.0, 1.0)
        with pytest.raises(TypeError, match="'f'.*parse_function_spec"):
            ek_series(lambda s: 1.0, 1.0, p, 0.5)
        with pytest.raises(TypeError, match="'u'.*parse_function_spec"):
            OperatorRule(1.0, p, 0.5, {"one": ONE, "u": lambda s: s})
        # the integral forms, the independent oracle, take any callable
        assert ek_integral(lambda s: 1.0, 1.0, p, 0.5).value == pytest.approx(1.0)
        assert kober(lambda s: 1.0, 1.0, 0.0, 1.0, 0.5).value == pytest.approx(1.0)


def _bits(res):
    """Every field of a result, floats by their exact hex digits."""
    return tuple(x.hex() if isinstance(x, float) else x
                 for x in res)


CACHE_SPECS = {name: parse_function_spec(text) for name, text in (
    ("u", "(affine 0.5 1)"),
    ("f", "(piecewise_linear (0 0.2) (0.6 0.5) (1 1.3))"),
    ("g", "(power 1.5)"),
    ("h", "(sum (const 0.3) (power 0.5))"),
)}
# powers 0 to 6 at beta = 2: c = eta + 1 + power/2 runs below, inside and
# above each class's anchor in [1, 2)
CACHE_PRODUCTS = ((("u",), 0), (("u", "f"), 0), (("u", "g", "h"), 0),
                  (("u", "f", "g"), 1), (("u",), 3), (("u", "g", "h"), 3),
                  (("h",), 2))


def _outcome(rule, names, moment):
    """What apply gives: its result, or its error's message and partial,
    floats by their exact hex digits."""
    try:
        return _bits(rule.apply(names, moment))
    except NotConvergedError as exc:
        return str(exc), _bits(exc.partial)


# products a case asks a side for, with "w" a second name of u's spec
KEY_PRODUCTS = ((("u",), 0), (("u", "f"), 0), (("w", "f"), 0),
                (("u", "f", "g"), 0), (("f", "u"), 0), (("u",), 3),
                (("u", "g"), 1))


class TestValueKey:
    """Requests with equal value keys give the same result bit for bit, or
    the same error and partial, whichever rule, factor set, side or order
    of evaluation they come from; a factor outside the product changes a
    value only through the direct size the key holds."""

    def test_equal_keys_give_equal_outcomes(self):
        rng = random.Random(27)
        seen = {}  # value key -> (outcome, factor set of the first rule)
        across = 0
        qs = (0.3, 0.6, 0.9, 0.97, 0.99, 0.9999)
        budgets = (5, 40, DEFAULT_POLICY.max_terms)
        for trial in range(60):
            t = rng.choice((0.7, 1.0, 1.6))
            # (t, q, eta, mu, beta, rel_tol, max_terms)
            inputs = [t, qs[trial % 6], rng.choice((-0.5, 0.0, 0.7)),
                      rng.choice((0.5, 1.0, 1.5)), rng.choice((0.5, 1.0, 2.0)),
                      1e-14, budgets[trial // 6 % 3]]
            # the same inputs but one, which the keys must tell apart
            other = list(inputs)
            j = trial % 7
            other[j] = (1.25 * t, qs[(trial + 1) % 6], other[2] + 0.25,
                        other[3] + 0.25, 2.0 * other[4], 1e-12,
                        budgets[(trial // 6 + 1) % 3])[j]
            fam = generate_family("lipschitz_triple", rng.getrandbits(63), t)
            u = generate_weight(rng.getrandbits(63), t)
            base = {"u": u, "w": u, "f": fam.f, "g": fam.g}
            # an extra factor whose knot just below t the direct nodes
            # reach, one whose knot lies far below them, and another f
            near = {"x": PiecewiseLinear(((0.0, 1.0), (0.93 * t, 2.0),
                                          (t, 3.0)))}
            deep = {"x": PiecewiseLinear(((0.0, 1.0), (1e-4 * t, 2.0),
                                          (t, 3.0)))}
            for (t_, q, eta, mu, beta, rel_tol, max_terms), extra in (
                    (inputs, {}), (inputs, near), (inputs, deep),
                    (inputs, {"f": fam.h}), (other, {})):
                p = OperatorParams(eta, mu, beta)
                rule = OperatorRule(t_, p, q, {**base, **extra},
                                    TruncationPolicy(rel_tol, max_terms))
                factors = frozenset(rule._specs.items())
                # the same (p, q) through at, which shares the factor table
                for r in (rule, rule.at(p, q)) if extra else (rule,):
                    for names, moment in KEY_PRODUCTS:
                        key = r.value_key(names, moment)
                        got = _outcome(r, names, moment)
                        if key in seen:
                            want, first = seen[key]
                            assert got == want, (key, names, moment)
                            across += first != factors
                        else:
                            seen[key] = (got, factors)
        # keys that differ in their direct size only
        sizes = {}
        for key in seen:
            sizes.setdefault((key[0], *key[2:]), set()).add(key[1])
        by_direct = sum(len(s) > 1 for s in sizes.values())
        assert across > 0 and by_direct > 0

    def test_key_is_what_apply_reads(self):
        # a knot the direct nodes reach enlarges the direct size of every
        # product with a knot; a knot-free product's key has size 0
        t, p, q = 1.0, OperatorParams(0.0, 1.5, 1.0), 0.99
        f = PiecewiseLinear(((0.0, 0.2), (0.8, 0.4), (1.0, 1.0)))
        near = PiecewiseLinear(((0.0, 1.0), (0.5, 2.0), (1.0, 3.0)))
        alone = OperatorRule(t, p, q, {"f": f, "g": power(2)})
        more = OperatorRule(t, p, q, {"f": f, "g": power(2), "x": near})
        assert alone._direct < more._direct
        assert alone.value_key(("g",)) == more.value_key(("g",))
        assert alone.value_key(("g",))[1] == 0
        assert alone.value_key(("f", "g"), 2) == (
            (1.0, 0.99, 0.0, 1.5, 1.0, 1e-14, 100_000), alone._direct, 2,
            f, power(2))
        assert more.value_key(("f", "g"), 2)[1] == more._direct


class TestClosedFormTable:
    """The S records are shared by every rule of the process."""

    @pytest.mark.parametrize("mu", [0.7, 2.0])
    # at q = 0.99 the knot at 1 is a direct boundary and the knot at 0.6
    # deep, so every route of OperatorRule._tail is met in both orders
    @pytest.mark.parametrize("q", [0.6, 0.97, 0.99])
    def test_records_do_not_depend_on_what_came_before(self, q, mu):
        p = OperatorParams(-0.3, mu, 2.0)
        _s_record.cache_clear()
        rule = OperatorRule(1.3, p, q, CACHE_SPECS)
        cold = [_bits(rule.apply(names, m)) for names, m in CACHE_PRODUCTS]

        _s_record.cache_clear()
        # other (q, eta, mu) keys, then this rule's keys in reversed order
        # from a rule at another t, which asks for the same c
        for other in (OperatorParams(-0.3, mu + 0.25, 2.0),
                      OperatorParams(0.4, mu, 2.0)):
            for shape in (ONE, power(1.5), power(3)):
                ek_series(shape, 0.8, other, q)
        ek_series(power(2), 1.0, p, 0.5)
        other_t = OperatorRule(0.8, p, q, CACHE_SPECS)
        for names, m in reversed(CACHE_PRODUCTS):
            other_t.apply(names, m)
        hits = _s_record.cache_info().hits
        rule = OperatorRule(1.3, p, q, CACHE_SPECS)
        warm = [_bits(rule.apply(names, m))
                for names, m in reversed(CACHE_PRODUCTS)]
        assert _s_record.cache_info().hits > hits
        assert warm[::-1] == cold

    def test_policy_is_part_of_the_key(self):
        p, q = OperatorParams(0.0, 1.5, 1.0), 0.9
        _s_record.cache_clear()
        fresh = _bits(ek_series(ONE, 1.0, p, q))
        _s_record.cache_clear()
        with pytest.raises(NotConvergedError):
            ek_series(ONE, 1.0, p, q, TruncationPolicy(max_terms=5))
        res = ek_series(ONE, 1.0, p, q)
        assert res.converged and _bits(res) == fresh

    @pytest.mark.parametrize("c", [1.0, 2.5])
    def test_budget_cut_record_bound_is_inf(self, c):
        # log_q_ratio cut at 5 of its about 6,900 leading factors bounds
        # its log by about 768, whose exp overflows: the record's relative
        # bound is inf and its flag says it did not converge; c = 2.5 is
        # reached from its class's anchor 1.5
        s, rel, _, _, done = _s_record(0.9999, 0.0, 0.7, c,
                                       TruncationPolicy(max_terms=5))
        assert (rel, done) == (math.inf, False)
        assert math.isfinite(s)

    def test_budget_cut_record_reads_no_factor_past_the_budget(self):
        # the anchor record's one log_q_ratio stops at the budget
        factors, done = _s_record(0.9999, 0.0, 0.7, 1.0,
                                  TruncationPolicy(max_terms=5))[2::2]
        assert (factors, done) == (5, False)

    def test_table_is_bounded(self):
        bound = _s_record.cache_info().maxsize
        assert bound is not None
        _s_record.cache_clear()
        # (const 1) at eta = 0 reads the one record c = 1 per (q, mu)
        for k in range(bound + 50):
            p = OperatorParams(0.0, 0.25 + k / (4.0 * bound), 1.0)
            ek_series(ONE, 1.0, p, 0.3 + k / (10.0 * bound))
        info = _s_record.cache_info()
        assert info.misses >= bound + 50
        assert info.currsize == info.maxsize == bound


KERNEL_F = parse_function_spec(
    "(sum (piecewise_linear (0 0.1) (0.8 0.3) (1 1)) (power 1.5))")


class TestKernelRecord:
    """The integral form's kernels and GammaQ(mu) are built once per
    (q, mu, policy) and read by every ek_integral and kober call."""

    @pytest.mark.parametrize("q", [0.6, 0.99])
    def test_results_do_not_depend_on_what_came_before(self, q):
        calls = [(OperatorParams(eta, 1.5, beta), t)
                 for eta in (-0.5, 0.5) for beta in (0.5, 2.0) for t in (0.7, 1.3)]
        cold = []
        for p, t in calls:
            _kernel_record.cache_clear()
            cold.append(_bits(ek_integral(KERNEL_F, t, p, q)))
        warm = [_bits(ek_integral(KERNEL_F, t, p, q)) for p, t in calls]
        # other (q, mu) keys, then this key in reversed order
        for mu in (0.5, 2.0):
            ek_integral(KERNEL_F, 1.0, OperatorParams(0.0, mu, 1.0), q)
        kober(KERNEL_F, 1.0, 0.0, 1.5, 0.9)
        after = [_bits(ek_integral(KERNEL_F, t, p, q)) for p, t in reversed(calls)]
        assert warm == cold
        assert after[::-1] == cold

    def test_policy_is_part_of_the_key(self):
        # at eta = 20 the nodes fit in 20 terms and the kernels do not, so
        # only a record built under max_terms = 20 makes the call raise
        p, q = OperatorParams(20.0, 1.5, 1.0), 0.9
        _kernel_record.cache_clear()
        full = ek_integral(ONE, 1.0, p, q)
        with pytest.raises(NotConvergedError, match="kernel factors") as info:
            ek_integral(ONE, 1.0, p, q, TruncationPolicy(max_terms=20))
        partial = info.value.partial
        assert partial.converged is False
        assert 0.0 < partial.value < full.value
        res = ek_integral(ONE, 1.0, p, q)
        assert res.converged and _bits(res) == _bits(full)

    def test_table_is_bounded(self):
        bound = _kernel_record.cache_info().maxsize
        assert bound == 16
        _kernel_record.cache_clear()
        for k in range(bound + 10):
            kober(ONE, 1.0, 0.0, 0.5 + k / 8.0, 0.3)
        info = _kernel_record.cache_info()
        assert info.misses == bound + 10
        assert info.currsize == info.maxsize == bound

    def test_one_record_per_q_and_mu(self):
        q, mu = 0.9, 1.5
        _kernel_record.cache_clear()
        for eta in (-0.5, 0.0, 1.0):
            for beta in (0.5, 1.0, 2.0):
                for t in (0.7, 1.3):
                    ek_integral(KERNEL_F, t, OperatorParams(eta, mu, beta), q)
        kober(KERNEL_F, 1.3, 0.0, mu, q)
        info = _kernel_record.cache_info()
        assert (info.misses, info.hits) == (1, 18)
