"""Jackson calculus: geometric closed forms as oracles, plus the
q-antiderivative and q -> 1 consistency properties."""

import pytest

from qek.errors import DomainError, NotConvergedError
from qek.jackson import (
    QGridSample,
    jackson_integral,
    jackson_integral_ab,
    jackson_stieltjes,
    q_derivative,
)
from qek.qcore import DeformationParam, TruncationPolicy


def monomial_integral(k, b, q):
    # closed form of the node series for t^k on (0, b]
    return b ** (k + 1) * (1.0 - q) / (1.0 - q ** (k + 1))


def first_small_node(q, rel_tol):
    """(j, q^j) for the first j with q^j < rel_tol, q^j formed by the same
    running product as QGridSample's nodes."""
    j, scale = 0, 1.0
    while not scale < rel_tol:
        j, scale = j + 1, scale * q
    return j, scale


class TestQDerivative:
    def test_identity(self):
        assert q_derivative(lambda t: t, 3.0, 0.5) == pytest.approx(1.0, rel=1e-15)

    def test_square(self):
        # difference quotient of t^2 collapses to (1 + q) t
        assert q_derivative(lambda t: t * t, 2.0, 0.5) == pytest.approx(3.0, rel=1e-14)

    def test_constant(self):
        assert q_derivative(lambda t: 7.0, 1.0, 0.9) == 0.0

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            q_derivative(lambda t: t, 0.0, 0.5)

    def test_unevaluable_function(self):
        import math

        with pytest.raises(DomainError):
            q_derivative(lambda t: math.sqrt(t - 10.0), 2.0, 0.5)


class TestJacksonIntegral:
    def test_constant(self):
        res = jackson_integral(lambda t: 1.0, 1.0, 0.5)
        assert res.value == pytest.approx(1.0, rel=1e-14)
        assert res.converged

    def test_linear(self):
        res = jackson_integral(lambda t: t, 1.0, 0.5)
        assert res.value == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_square_on_zero_two(self):
        res = jackson_integral(lambda t: t * t, 2.0, 0.5)
        assert res.value == pytest.approx(8.0 * 4.0 / 7.0, rel=1e-14)

    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("q", [0.3, 0.6, 0.9])
    def test_monomials_closed_form(self, k, b, q):
        res = jackson_integral(lambda t: t ** k, b, q)
        assert res.value == pytest.approx(monomial_integral(k, b, q), rel=1e-12)

    def test_q_to_one_limit_error_shrinks(self):
        # k = 0 is exact at every q (geometric sum telescopes to b), so the
        # strict decrease is tested from k = 1 up
        for k in range(1, 5):
            errors = [
                abs(jackson_integral(lambda t: t ** k, 1.0, q).value - 1.0 / (k + 1))
                for q in (0.9, 0.99, 0.999)
            ]
            assert errors[0] > errors[1] > errors[2]
        # k = 0 carries truncation noise only; the stop rule is relative to
        # the partial sum (~1/(1-q)), so the residue scales like q^J ~ rel_tol/(1-q)
        flat = [
            abs(jackson_integral(lambda t: 1.0, 1.0, q).value - 1.0)
            for q in (0.9, 0.99, 0.999)
        ]
        assert max(flat) < 1e-10

    def test_linearity(self):
        q, b = 0.6, 1.5
        f = lambda t: t * t  # noqa: E731
        g = lambda t: 1.0 + t  # noqa: E731
        lhs = jackson_integral(lambda t: 2.5 * f(t) - 1.25 * g(t), b, q).value
        rhs = (2.5 * jackson_integral(f, b, q).value
               - 1.25 * jackson_integral(g, b, q).value)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_nonnegative_integrand_gives_nonnegative_value(self):
        res = jackson_integral(lambda t: t ** 0.5 + 0.1, 2.0, 0.8)
        assert res.value >= 0.0

    def test_tail_estimate_bounds_truncation(self):
        q, b = 0.7, 1.0
        res = jackson_integral(lambda t: t, b, q)
        exact = monomial_integral(1, b, q)
        assert abs(res.value - exact) <= res.tail_estimate + 1e-16

    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("q", [0.3, 0.6, 0.9])
    def test_tail_estimate_bounds_truncation_on_the_grid(self, k, b, q):
        # against the 40-digit closed form: the tail estimate bounds the
        # truncation, and the rounding is a few units per term
        import mpmath as mp

        res = jackson_integral(lambda t: t ** k, b, q)
        with mp.workdps(40):
            Q = mp.mpf(q)
            exact = float(mp.mpf(b) ** (k + 1) * (1 - Q) / (1 - Q ** (k + 1)))
        rounding = 2 * res.terms_used * 2.0 ** -53 * abs(exact)
        assert abs(res.value - exact) <= res.tail_estimate + rounding

    def test_not_converged(self):
        with pytest.raises(NotConvergedError) as info:
            jackson_integral(lambda t: 1.0, 1.0, 0.9,
                             TruncationPolicy(max_terms=5))
        partial = info.value.partial
        assert partial.converged is False
        assert partial.terms_used == 5
        assert partial.value == pytest.approx(1.0 - 0.9 ** 5, rel=1e-14)

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            jackson_integral(lambda t: t, 0.0, 0.5)

    def test_underflowed_node_ends_the_sum(self):
        # the fourth node q^3 underflows to 0.0; f is never evaluated there
        seen = []
        with pytest.raises(NotConvergedError, match="underflow") as info:
            jackson_integral(lambda t: seen.append(t) or 1.0, 1.0, 1e-120)
        assert min(seen) > 0.0
        assert info.value.partial.terms_used == 3

    def test_unconverged_partial_tail_is_its_value(self):
        # three of infinitely many terms: the partial's tail is not 0
        with pytest.raises(NotConvergedError) as info:
            jackson_integral(lambda t: 1.0, 1.0, 1e-120)
        partial = info.value.partial
        assert partial.tail_estimate == abs(partial.value) > 0.0

    def test_rejects_non_integrable_exponent(self):
        def f(t):
            return t ** -1.5

        f.c_lambda_exponent = -1.5
        with pytest.raises(DomainError):
            jackson_integral(f, 1.0, 0.5)


class TestJacksonIntegralAB:
    def test_constant(self):
        res = jackson_integral_ab(lambda t: 1.0, 1.0, 2.0, 0.5)
        assert res.value == pytest.approx(1.0, rel=1e-13)

    def test_linear(self):
        res = jackson_integral_ab(lambda t: t, 1.0, 2.0, 0.5)
        assert res.value == pytest.approx(2.0, rel=1e-13)

    def test_equal_limits(self):
        res = jackson_integral_ab(lambda t: t, 1.5, 1.5, 0.5)
        assert res.value == 0.0

    def test_equal_limits_still_validate_q(self):
        with pytest.raises(ValueError, match="q must lie in"):
            jackson_integral_ab(lambda t: 1.0, 1.0, 1.0, 5.0)

    def test_antisymmetry(self):
        fwd = jackson_integral_ab(lambda t: t * t, 1.0, 2.0, 0.6)
        rev = jackson_integral_ab(lambda t: t * t, 2.0, 1.0, 0.6)
        assert fwd.value == -rev.value

    def test_tails_add(self):
        f = lambda t: t  # noqa: E731
        res = jackson_integral_ab(f, 1.0, 2.0, 0.5)
        upper = jackson_integral(f, 2.0, 0.5)
        lower = jackson_integral(f, 1.0, 0.5)
        assert res.tail_estimate == upper.tail_estimate + lower.tail_estimate


class TestJacksonStieltjes:
    def test_identity_integrator_reduces_to_plain(self):
        q, b = 0.5, 1.3
        f = lambda t: 1.0 + t * t  # noqa: E731
        stieltjes = jackson_stieltjes(f, lambda t: t, b, q)
        plain = jackson_integral(f, b, q)
        assert stieltjes.value == pytest.approx(plain.value, rel=1e-12)

    def test_unit_integrand_telescopes(self):
        # f = 1 telescopes to g(b) - g(0+)
        q, b = 0.5, 2.0
        res = jackson_stieltjes(lambda t: 1.0, lambda t: t * t, b, q)
        assert res.value == pytest.approx(b * b, rel=1e-12)

    def test_identity_pair_closed_form(self):
        q = 0.5
        res = jackson_stieltjes(lambda t: t, lambda t: t, 1.0, q)
        assert res.value == pytest.approx((1.0 - q) / (1.0 - q * q), rel=1e-13)

    def test_not_converged(self):
        with pytest.raises(NotConvergedError):
            jackson_stieltjes(lambda t: 1.0, lambda t: t, 1.0, 0.9,
                              TruncationPolicy(max_terms=4))

    def test_underflowed_node_ends_the_sum(self):
        # term j reads g at node j + 1, and node 3 underflows to 0.0
        seen = []
        with pytest.raises(NotConvergedError, match="underflow") as info:
            jackson_stieltjes(lambda t: seen.append(t) or 1.0,
                              lambda t: seen.append(t) or t, 1.0, 1e-120)
        assert min(seen) > 0.0
        assert info.value.partial.terms_used == 2


class TestFundamentalTheorem:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("q", [0.4, 0.7])
    def test_derivative_of_antiderivative(self, t, q):
        f = lambda s: 1.0 + 2.0 * s + s ** 3  # noqa: E731

        def antiderivative(x):
            return jackson_integral(f, x, q).value

        assert q_derivative(antiderivative, t, q) == pytest.approx(f(t), rel=1e-9)


class TestQGridSample:
    def test_sample_nodes_decrease(self):
        grid = QGridSample.sample(lambda t: t, 2.0, 0.5)
        nodes = [node for node, _ in grid.values]
        assert nodes[0] == 2.0
        assert all(b < a for a, b in zip(nodes, nodes[1:]))
        assert all(val == node for node, val in grid.values)

    def test_sample_count_follows_policy(self):
        coarse = QGridSample.sample(lambda t: t, 1.0, 0.5,
                                    TruncationPolicy(rel_tol=1e-6))
        fine = QGridSample.sample(lambda t: t, 1.0, 0.5,
                                  TruncationPolicy(rel_tol=1e-12))
        assert len(fine.values) > len(coarse.values)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-14])
    def test_sample_count_is_first_small_node_plus_three(self, q, rel_tol):
        first, scale = first_small_node(q, rel_tol)
        grid = QGridSample.sample(lambda t: t, 1.0, q,
                                  TruncationPolicy(rel_tol=rel_tol))
        assert len(grid.values) == first + 3
        assert grid.values[first][0] == scale

    def test_sample_at_its_budget_raises(self):
        # 23 nodes (0.5^20 < 1e-6 <= 0.5^19) converge only below max_terms
        first, _ = first_small_node(0.5, 1e-6)
        assert first + 3 == 23
        grid = QGridSample.sample(lambda t: t, 1.0, 0.5,
                                  TruncationPolicy(rel_tol=1e-6, max_terms=24))
        with pytest.raises(NotConvergedError) as info:
            QGridSample.sample(lambda t: t, 1.0, 0.5,
                               TruncationPolicy(rel_tol=1e-6, max_terms=23))
        assert info.value.partial == grid

    def test_unconverged_sample_raises_with_partial(self):
        # q^j stays above rel_tol for all 10 allowed nodes (q^9 = 0.9991)
        with pytest.raises(NotConvergedError) as info:
            QGridSample.sample(lambda t: 1.0, 1.0, 0.9999,
                               TruncationPolicy(max_terms=10))
        partial = info.value.partial
        assert len(partial.values) == 10
        assert partial.values[-1][0] == pytest.approx(0.9999 ** 9)

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValueError):
            QGridSample(1.0, DeformationParam(0.5), ((0.5, 1.0), (0.7, 1.0)))

    def test_rejects_nonpositive_base_point(self):
        with pytest.raises(ValueError):
            QGridSample(0.0, DeformationParam(0.5), ())
