"""Fractional operator tests.

The power-function closed form is confirmed by brute-force series
summation (coefficients via finite shifted factorials, independent of the
evaluator's recurrence) before being relied on; the integral form serves
as the cross-representation oracle for the series form.
"""

import functools
import math

import pytest

from qek.ekoperator import (
    OperatorParams,
    OperatorResult,
    OperatorRule,
    _log_kernel_table,
    ek_integral,
    ek_series,
    kober,
)
from qek.errors import DomainError, NotConvergedError
from qek.functions import PiecewiseLinear, function_spec, parse_function_spec
from qek.qcore import (
    DEFAULT_POLICY,
    TruncationPolicy,
    q_gamma,
    q_pochhammer_n,
    q_power_alpha,
)


def brute_series(f, t, eta, mu, beta, q, terms=900):
    """Direct summation with coefficients built from finite products."""
    total = 0.0
    for k in range(terms):
        coef = q_pochhammer_n(q ** mu, q, k) / q_pochhammer_n(q, q, k)
        total += coef * q ** (k * (eta + 1.0)) * f(t * q ** (k / beta))
    return beta * (1.0 - q ** (1.0 / beta)) * (1.0 - q) ** (mu - 1.0) * total


def power_closed_form(sigma, t, eta, mu, beta, q):
    c = eta + 1.0 + sigma / beta
    ratio = q_gamma(c, q).value / q_gamma(c + mu, q).value
    return beta * (1.0 - q ** (1.0 / beta)) / (1.0 - q) * ratio * t ** sigma


SHAPES = [
    parse_function_spec("(const 1)"),
    parse_function_spec("(power 1)"),
    parse_function_spec("(power 2)"),
    function_spec(PiecewiseLinear(((0.0, 0.0), (0.5, 0.3), (1.0, 0.5), (2.0, 1.2)))),
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


class TestSeriesForm:
    def test_unit_function_unit_order(self):
        res = ek_series(lambda t: 1.0, 1.0, OperatorParams(0.0, 1.0, 1.0), 0.5)
        assert res.value == pytest.approx(1.0, rel=1e-13)
        assert isinstance(res, OperatorResult)

    def test_zero_function(self):
        res = ek_series(lambda t: 0.0, 1.0, OperatorParams(0.5, 0.7, 2.0), 0.5)
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
        res = ek_series(lambda s: s ** sigma, t, p, q)
        oracle = brute_series(lambda s: s ** sigma, t, eta, mu, beta, q)
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
        res = ek_series(lambda s: s - 0.5, 1.0, p, 0.5)
        assert res.min_term < 0.0

    def test_linearity(self):
        p = OperatorParams(0.3, 1.2, 2.0)
        q = 0.6
        f = SHAPES[1]
        g = SHAPES[2]
        lhs = ek_series(lambda s: 2.0 * f(s) + 0.7 * g(s), 1.3, p, q).value
        rhs = 2.0 * ek_series(f, 1.3, p, q).value + 0.7 * ek_series(g, 1.3, p, q).value
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_monotone_in_argument(self):
        p = OperatorParams(0.0, 0.8, 1.0)
        small = ek_series(lambda s: s, 1.0, p, 0.7).value
        large = ek_series(lambda s: s + 0.25, 1.0, p, 0.7).value
        assert small <= large + 1e-12

    def test_order_zero_limit(self):
        # as mu -> 0+ the power closed form's Gamma ratio tends to 1
        sigma, t, eta, beta, q = 1.0, 1.2, 0.5, 2.0, 0.6
        limit = beta * (1.0 - q ** (1.0 / beta)) / (1.0 - q) * t ** sigma
        gaps = []
        for mu in (0.1, 0.01, 0.001):
            p = OperatorParams(eta, mu, beta)
            val = ek_series(lambda s: s ** sigma, t, p, q).value
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
        val = ek_series(lambda s: s ** sigma, t,
                        OperatorParams(eta, mu, beta), q).value
        assert val == pytest.approx(ref, rel=1e-12)

    def test_not_converged(self):
        with pytest.raises(NotConvergedError):
            ek_series(lambda s: 1.0, 1.0, OperatorParams(0.0, 1.0, 1.0), 0.9,
                      TruncationPolicy(max_terms=5))

    def test_underflowed_node_ends_the_sum(self):
        # at q = 1e-120 the fourth node t q^3 underflows to 0.0
        seen = []
        with pytest.raises(NotConvergedError, match="underflow") as info:
            ek_series(lambda s: seen.append(s) or 1.0, 1.0,
                      OperatorParams(-0.5, 1.0, 1.0), 1e-120)
        assert min(seen) > 0.0
        assert info.value.partial.terms_used == 3
        assert info.value.partial.converged is False

    def test_rejects_non_summable_exponent(self):
        def f(s):
            return s ** -0.9

        f.c_lambda_exponent = -0.9
        with pytest.raises(DomainError):
            ek_series(f, 1.0, OperatorParams(-0.5, 1.0, 1.0), 0.5)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            ek_series(lambda s: 1.0, 0.0, OperatorParams(0.0, 1.0, 1.0), 0.5)


class TestIntegralForm:
    def test_unit_case_matches_series(self):
        p = OperatorParams(0.0, 1.0, 1.0)
        s = ek_series(lambda t: 1.0, 1.0, p, 0.5)
        i = ek_integral(lambda t: 1.0, 1.0, p, 0.5)
        assert i.value == pytest.approx(s.value, rel=1e-12)

    def test_cross_representation_case(self):
        p = OperatorParams(0.5, 0.7, 2.0)
        s = ek_series(lambda t: t, 2.0, p, 0.3)
        i = ek_integral(lambda t: t, 2.0, p, 0.3)
        assert abs(s.value - i.value) <= 1e-8 * max(1.0, abs(s.value))

    def test_zero_function(self):
        p = OperatorParams(0.5, 0.7, 2.0)
        assert ek_integral(lambda t: 0.0, 2.0, p, 0.3).value == 0.0

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
    """The log-factor table behind ek_integral against the per-node
    reference kernel q_power_alpha(t^beta, tau^beta q, q, mu - 1)."""

    @pytest.mark.parametrize("q", [0.3, 0.9, 0.99])
    @pytest.mark.parametrize("mu", [0.5, 1.5, 2.0])
    def test_table_matches_q_power_alpha(self, q, mu):
        table, log_tail, converged = _log_kernel_table(q, mu, DEFAULT_POLICY)
        size = len(table)
        assert converged
        assert 0.0 < log_tail < 2.0 * DEFAULT_POLICY.rel_tol / (1.0 - q)
        # sampled nodes, the last table entry and a node past the table
        nodes = sorted({*range(0, size, max(1, size // 6)), size - 1, size + 5})
        for beta in (0.5, 2.0):
            for t in (0.5, 2.0):
                for j in nodes:
                    log_kern = table[j] if j < size else 0.0
                    kern = t ** (beta * (mu - 1.0)) * math.exp(log_kern)
                    tau = t * q ** (j / beta)
                    ref = q_power_alpha(t ** beta, tau ** beta * q, q, mu - 1.0)
                    assert abs(kern - ref.value) <= 1e-12 * abs(ref.value)

    def test_table_over_budget_is_flagged(self):
        table, log_tail, converged = _log_kernel_table(
            0.9, 1.5, TruncationPolicy(max_terms=20))
        assert not converged
        assert len(table) == 20
        assert log_tail > 1e-3


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
        rule = OperatorRule(1.0, p, 0.5, {"one": lambda s: 1.0, "u": u})
        assert rule.apply(("u",)) == direct
        assert rule.apply(("one", "u")).value == direct.value

    def test_cubic_moment_matches_power_closed_form(self):
        p = OperatorParams(0.0, 1.0, 1.0)
        q = 0.5
        rule = OperatorRule(1.0, p, q, {"one": lambda s: 1.0})
        res = rule.apply(("one",), moment=3)
        assert res.value == pytest.approx(power_closed_form(3.0, 1.0, 0.0, 1.0, 1.0, q),
                                          rel=1e-11)

    def test_moment_association(self):
        p = OperatorParams(0.4, 0.9, 1.5)
        q = 0.6
        rule = OperatorRule(1.0, p, q, {"one": lambda s: 1.0, "s": lambda s: s})
        a = rule.apply(("s",), moment=1)
        b = rule.apply(("one",), moment=2)
        assert a.value == pytest.approx(b.value, rel=1e-13)

    def test_rejects_negative_moment(self):
        rule = OperatorRule(1.0, OperatorParams(0.0, 1.0, 1.0), 0.5,
                            {"one": lambda s: 1.0})
        with pytest.raises(ValueError):
            rule.apply(("one",), moment=-1)

    def test_each_factor_evaluated_once_per_node(self):
        calls = {"a": 0, "b": 0}

        def counted(name, fn):
            def wrapped(s):
                calls[name] += 1
                return fn(s)
            return wrapped

        fns = {"a": counted("a", lambda s: 1.0 + s),
               "b": counted("b", lambda s: s * s)}
        rule = OperatorRule(1.3, OperatorParams(0.5, 1.5, 2.0), 0.9, fns)
        results = [rule.apply(names, m) for names, m in
                   ((("a",), 0), (("a", "b"), 0), (("b",), 2), (("b", "a"), 1))]
        assert calls["a"] == len(rule.values["a"]) <= len(rule.nodes)
        assert calls["b"] == len(rule.values["b"]) <= len(rule.nodes)
        assert len(rule.nodes) == max(r.terms_used for r in results)

    def test_not_converged_carries_partial(self):
        rule = OperatorRule(1.0, OperatorParams(0.0, 1.0, 1.0), 0.9,
                            {"one": lambda s: 1.0},
                            TruncationPolicy(max_terms=10))
        with pytest.raises(NotConvergedError) as info:
            rule.apply(("one",))
        assert info.value.partial.terms_used == 10
        assert len(rule.nodes) == 10
