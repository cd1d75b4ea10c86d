"""The Jackson integral: geometric closed forms as oracles, its node
grid and stop rule, plus the q-antiderivative and q -> 1 consistency
properties."""

import pytest

from qek.errors import DomainError, NotConvergedError
from qek.jackson import jackson_integral
from qek.qcore import TruncationPolicy


def monomial_integral(k, b, q):
    # closed form of the node series for t^k on (0, b]
    return b ** (k + 1) * (1.0 - q) / (1.0 - q ** (k + 1))


def first_small_node(q, rel_tol):
    """(j, q^j) for the first j whose term q^j in the Jackson sum of f = 1
    on (0, 1] is below rel_tol times the running total plus 1e-300, the
    stop rule's test, q^j formed by the same running product as
    jackson_integral's nodes."""
    j, scale, total = 0, 1.0, 1.0
    while not scale < rel_tol * total + 1e-300:
        j, scale = j + 1, scale * q
        total += scale
    return j, scale


def q_difference(f, t, q):
    """The q-difference quotient (f(qt) - f(t)) / ((q - 1) t)."""
    return (f(q * t) - f(t)) / ((q - 1.0) * t)


class TestQDerivative:
    """The q-difference quotient that TestFundamentalTheorem relies on,
    checked on closed forms first."""

    def test_identity(self):
        assert q_difference(lambda t: t, 3.0, 0.5) == pytest.approx(1.0, rel=1e-15)

    def test_square(self):
        # difference quotient of t^2 collapses to (1 + q) t
        assert q_difference(lambda t: t * t, 2.0, 0.5) == pytest.approx(3.0, rel=1e-14)

    def test_constant(self):
        assert q_difference(lambda t: 7.0, 1.0, 0.9) == 0.0


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
    """The Jackson integral over [a, b], the difference of the integrals
    over (0, b] and (0, a]."""

    def test_constant(self):
        res = (jackson_integral(lambda t: 1.0, 2.0, 0.5).value
               - jackson_integral(lambda t: 1.0, 1.0, 0.5).value)
        assert res == pytest.approx(1.0, rel=1e-13)

    def test_linear(self):
        # (b^2 - a^2) (1 - q) / (1 - q^2) = 3 / 1.5
        res = (jackson_integral(lambda t: t, 2.0, 0.5).value
               - jackson_integral(lambda t: t, 1.0, 0.5).value)
        assert res == pytest.approx(2.0, rel=1e-13)


class TestFundamentalTheorem:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("q", [0.4, 0.7])
    def test_derivative_of_antiderivative(self, t, q):
        f = lambda s: 1.0 + 2.0 * s + s ** 3  # noqa: E731

        def antiderivative(x):
            return jackson_integral(f, x, q).value

        assert q_difference(antiderivative, t, q) == pytest.approx(f(t), rel=1e-9)


class TestQGridSample:
    """The geometric node grid {b q^j} that jackson_integral samples, and
    where the stop rule for sums cuts it."""

    def test_sample_nodes_decrease(self):
        seen = []
        jackson_integral(lambda t: seen.append(t) or t, 2.0, 0.5)
        assert seen[0] == 2.0
        assert all(b < a for a, b in zip(seen, seen[1:]))
        assert all(node == 2.0 * 0.5 ** j for j, node in enumerate(seen))

    def test_sample_count_follows_policy(self):
        coarse = jackson_integral(lambda t: t, 1.0, 0.5,
                                  TruncationPolicy(rel_tol=1e-6))
        fine = jackson_integral(lambda t: t, 1.0, 0.5,
                                TruncationPolicy(rel_tol=1e-12))
        assert fine.terms_used > coarse.terms_used

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-14])
    def test_sample_count_is_first_small_node_plus_three(self, q, rel_tol):
        # the first small term starts the streak of 3 that stops the sum
        first, scale = first_small_node(q, rel_tol)
        seen = []
        res = jackson_integral(lambda t: seen.append(t) or 1.0, 1.0, q,
                               TruncationPolicy(rel_tol=rel_tol))
        assert res.terms_used == len(seen) == first + 3
        assert seen[first] == scale

    def test_sample_at_its_budget_raises(self):
        # 22 terms (0.5^19 < 1e-6 (2 - 0.5^19) <= 0.5^18) converge only
        # below max_terms; at max_terms the same sum is a partial
        first, _ = first_small_node(0.5, 1e-6)
        assert first + 3 == 22
        res = jackson_integral(lambda t: 1.0, 1.0, 0.5,
                               TruncationPolicy(rel_tol=1e-6, max_terms=23))
        assert res.converged and res.terms_used == 22
        with pytest.raises(NotConvergedError) as info:
            jackson_integral(lambda t: 1.0, 1.0, 0.5,
                             TruncationPolicy(rel_tol=1e-6, max_terms=22))
        partial = info.value.partial
        assert (partial.value, partial.terms_used) == (res.value, 22)
        assert (partial.tail_estimate, partial.converged) == (abs(res.value), False)

    def test_unconverged_sample_raises_with_partial(self):
        # q^j stays above rel_tol for all 10 allowed nodes (q^9 = 0.9991)
        seen = []
        with pytest.raises(NotConvergedError) as info:
            jackson_integral(lambda t: seen.append(t) or 1.0, 1.0, 0.9999,
                             TruncationPolicy(max_terms=10))
        partial = info.value.partial
        assert partial.terms_used == len(seen) == 10
        assert seen[-1] == pytest.approx(0.9999 ** 9)
        assert partial.value == pytest.approx(1.0 - 0.9999 ** 10, rel=1e-12)
