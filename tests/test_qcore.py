"""Core q-arithmetic: values frozen from hand expansions and brute-force
partial products; identities as property tests."""

import functools
import math
from itertools import chain, repeat

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qek.errors import NotConvergedError, PoleError
from qek.qcore import (
    DeformationParam,
    SeriesResult,
    TruncationPolicy,
    log_q_product,
    log_q_ratio,
    q_factorial,
    q_gamma,
    q_power_alpha,
    sum_series,
)


def brute_pochhammer(a, q, terms):
    prod = 1.0
    for k in range(terms):
        prod *= 1.0 - a * q ** k
    return prod


def brute_q_power(t, a, q, n):
    """(t - a)_n = prod_(k<n) (t - q^k a), formed factor by factor."""
    prod = 1.0
    for k in range(n):
        prod *= t - q ** k * a
    return prod


def q_product(a, q, policy=None):
    """(a; q)_inf as sign * exp of log_q_product."""
    res = log_q_product(a, q, policy or TruncationPolicy())
    return res.sign * math.exp(res.value)


def rel_err(x, ref):
    return abs(x - ref) / max(1.0, abs(ref))


class TestDeformationParam:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            DeformationParam(bad)

    def test_accepts_interior(self):
        assert DeformationParam(0.5).q == 0.5


class TestTruncationPolicy:
    def test_defaults(self):
        pol = TruncationPolicy()
        assert pol.rel_tol == 1e-14
        assert pol.max_terms == 100_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"rel_tol": -1.0},
            {"rel_tol": float("nan")},
            {"max_terms": 0},
            {"max_terms": 2},
            # a sum stops only after 3 small terms, short of max_terms
            {"max_terms": 3},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TruncationPolicy(**kwargs)


def streak_sum(terms, policy):
    """Reference for sum_series: the term-by-term streak loop that
    sum_series and ek_integral each used to hold, with its fixed streak
    of 3 and underflow guard 1e-300; returns (total, used, last, stopped)."""
    total = 0.0
    streak = 0
    used = 0
    last = 0.0
    stopped = False
    for term in terms:
        if used >= policy.max_terms:
            break
        total += term
        used += 1
        last = term
        if abs(term) < policy.rel_tol * abs(total) + 1e-300:
            streak += 1
            if streak >= 3 and used < policy.max_terms:
                stopped = True
                break
        else:
            streak = 0
    return total, used, last, stopped


class TestStopRules:
    _terms = st.lists(
        st.one_of(st.just(0.0), st.floats(-1e3, 1e3), st.floats(-1e-12, 1e-12)),
        max_size=30,
    )

    @given(head=_terms, rel_tol=st.sampled_from([1e-14, 1e-6, 1e-2]),
           offset=st.sampled_from([-1, 0, 1]),
           ratio=st.sampled_from([0.5, 0.9]), scale=st.sampled_from([1.0, 2.5]))
    @settings(max_examples=300)
    def test_sum_matches_streak_loop(self, head, rel_tol, offset, ratio, scale):
        # head then zeros: infinite like every caller's terms, and it stops
        unlimited = TruncationPolicy(rel_tol=rel_tol)
        stop = streak_sum(chain(head, repeat(0.0)), unlimited)[1]
        policy = TruncationPolicy(rel_tol=rel_tol, max_terms=max(4, stop + offset))
        total, used, last, stopped = streak_sum(chain(head, repeat(0.0)), policy)
        read = []
        terms = (read.append(x) or x for x in chain(head, repeat(0.0)))
        if stopped:
            got = sum_series(terms, policy, ratio, scale=scale)
            tail = abs(last) * ratio / (1.0 - ratio) * scale
            assert got == SeriesResult(total * scale, used, tail, True)
        else:
            with pytest.raises(NotConvergedError, match="within") as info:
                sum_series(terms, policy, ratio, scale=scale)
            got = info.value.partial
            value = total * scale
            assert got == SeriesResult(value, used, abs(value), False)
        assert len(read) == used <= policy.max_terms

    def test_product_rule_on_pochhammer(self):
        # 9 leading factors 1 - 3.7 (0.8)^k with 3.7 (0.8)^k > 1/2, then
        # the log series; max_terms bounds their sum
        a, q = 3.7, 0.8
        res = log_q_product(a, q, TruncationPolicy(max_terms=500))
        leading = sum(1 for k in range(100) if a * q ** k > 0.5)
        assert leading == 9
        assert res.converged and leading < res.terms_used <= leading + 60
        oracle = brute_pochhammer(a, q, 500)
        value = res.sign * math.exp(res.value)
        assert value == pytest.approx(oracle, rel=1e-14)
        # the log's error bound, as a relative bound on the product
        bound = abs(value) * math.expm1(res.error + 2.0 ** -53)
        assert abs(value - oracle) <= bound + 4e-16 * abs(oracle)
        exact = TruncationPolicy(max_terms=res.terms_used)
        assert log_q_product(a, q, exact) == res
        # one term fewer leaves a series tail above rel_tol
        cut = log_q_product(a, q, TruncationPolicy(max_terms=res.terms_used - 1))
        assert (cut.terms_used, cut.converged) == (res.terms_used - 1, False)
        assert cut.sign * math.exp(cut.value) == pytest.approx(oracle, rel=1e-3)


@functools.lru_cache(maxsize=None)
def mp_log_q_product(a, q):
    """(log|(a; q)_inf|, sign) in 30-digit mpmath, the log kept as an mpf:
    a direct log sum of the factors down to |a q^k| < 1/100, then Euler's
    series to 1e-35. a (a float or an mpf) and q are taken at their exact
    binary values."""
    with mpmath.workdps(30):
        Q = mpmath.mpf(q)
        x = mpmath.mpf(a)
        log_abs, sign = mpmath.mpf(0), 1
        while abs(x) >= mpmath.mpf(1) / 100:
            if x == 1:
                return -math.inf, 1
            if x > 1:
                sign = -sign
            log_abs += mpmath.log(abs(1 - x))
            x *= Q
        n, term = 1, mpmath.mpf(1)
        while abs(term) > mpmath.mpf(10) ** -35:
            term = x ** n / (n * (1 - Q ** n))
            log_abs -= term
            n += 1
        return log_abs, sign


def mp_q_power(q, e):
    """q^e in 30-digit mpmath, q and e taken at their exact binary values."""
    with mpmath.workdps(30):
        return mpmath.mpf(q) ** mpmath.mpf(e)


def mp_gap(x, ref):
    """|x - ref| for a float x and a 30-digit mpf ref, formed at 30 digits
    so that the difference does not round at the default precision."""
    with mpmath.workdps(30):
        return float(abs(mpmath.mpf(x) - ref))


class TestLogQProduct:
    """log (a; q)_inf as leading factors plus Euler's log series, against a
    30-digit direct log sum."""

    @pytest.mark.parametrize("q", [0.3, 0.9, 0.99, 0.999, 0.9999])
    @pytest.mark.parametrize("e", [0.5, 1.5, 2.75])
    def test_power_matches_direct_log_sum(self, q, e):
        # a = q^e rounded: its leading factors 1 - a q^k cancel toward
        # a = 1, and the bound carries that
        a = q ** e
        res = log_q_product(a, q)
        ref, sign = mp_log_q_product(a, q)
        assert res.converged and res.sign == sign == 1
        assert mp_gap(res.value, ref) <= res.error
        # the bound is not vacuous: it grows like u / (1 - q), as the
        # product's sensitivity to rounding does
        assert res.error <= 1e-14 / (1.0 - q)
        leading = max(0.0, math.log(2.0) / -math.log(q) - e)
        assert leading < res.terms_used <= leading + 60

    @pytest.mark.parametrize("a, q", [(-0.9, 0.6), (-5.0, 0.99), (0.5, 0.5),
                                      (1.7, 0.99), (3.7, 0.8), (0.7 / 0.9 ** 3, 0.9)])
    def test_general_a_matches_direct_log_sum(self, a, q):
        # negative a, a just below 1, and a > 1 with 53 and 6 sign flips
        res = log_q_product(a, q)
        ref, sign = mp_log_q_product(a, q)
        assert res.converged and res.sign == sign
        assert mp_gap(res.value, ref) <= res.error
        assert res.error <= 1e-14 / (1.0 - q)

    @pytest.mark.parametrize("e", [-0.5, -1.5, -2.25])
    @pytest.mark.parametrize("q", [0.5, 0.99])
    def test_power_below_zero_flips_the_sign(self, e, q):
        # a = q^e > 1: 1 - a q^k < 0 for k < -e, one sign flip each
        a = q ** e
        res = log_q_product(a, q)
        ref, sign = mp_log_q_product(a, q)
        assert res.sign == sign == (-1) ** math.ceil(-e)
        assert mp_gap(res.value, ref) <= res.error

    @pytest.mark.parametrize("a, e, q", [(2.0, None, 0.5), (None, -2.0, 0.5),
                                         (None, 0.0, 0.9)])
    def test_zero_factor_gives_minus_inf(self, a, e, q):
        # a = q^e is exact for these e: 4 and 1
        res = log_q_product(q ** e if a is None else a, q)
        assert (res.value, res.converged) == (-math.inf, True)
        assert res.terms_used == (2 if a else 1 - e)

    def test_budget_counts_factors_plus_series_terms(self):
        a = -3.7
        full = log_q_product(a, 0.99)
        for budget in (10, full.terms_used - 1):
            cut = log_q_product(a, 0.99, TruncationPolicy(max_terms=budget))
            assert (cut.terms_used, cut.converged, cut.error) == (budget, False, math.inf)
        exact = log_q_product(a, 0.99, TruncationPolicy(max_terms=full.terms_used))
        assert exact == full


def mp_log_q_ratio(q, e, d):
    """log (q^(e+d); q)_inf / (q^e; q)_inf in 30-digit mpmath, as an mpf."""
    with mpmath.workdps(30):
        num = mp_log_q_product(mp_q_power(q, mpmath.mpf(e) + mpmath.mpf(d)), q)[0]
        return num - mp_log_q_product(mp_q_power(q, e), q)[0]


class TestLogQRatio:
    """The one ratio of q-products at powers of q, with its common factors
    cancelled, against a 30-digit difference of direct log sums."""

    # d < 0, d > 0, e + d near 0, and the last entry of the integral
    # form's kernel table (e = its size, about 3200 at q = 0.99)
    @pytest.mark.parametrize("e, d", [(1.5, -0.5), (0.25, 0.75), (3.75, -2.75),
                                      (0.501, -0.5), (3208.0, 0.5)])
    @pytest.mark.parametrize("q", [0.3, 0.9, 0.99, 0.999])
    def test_within_its_error_of_the_30_digit_ratio(self, q, e, d):
        value, error, terms, converged = log_q_ratio(q, e, d)
        ref = mp_log_q_ratio(q, e, d)
        assert converged and 0 < terms <= math.log(2.0) / (1.0 - q) + 60
        assert mp_gap(value, ref) <= error
        # and its rounding does not grow like u / (1 - q)
        assert error <= 1e-13 * max(1.0, abs(value))

    @pytest.mark.parametrize("q", [0.3, 0.9, 0.99, 0.999])
    def test_far_below_zero_d_reads_few_terms(self, q):
        # q_gamma at a = 100.5: the leading factors run while
        # q^(e + d + i) > 1/2, and exp(n d log q) alone would overflow
        # at q = 0.3
        e, d = 100.5, -99.5
        value, error, terms, converged = log_q_ratio(q, e, d)
        assert converged and terms <= math.log(2.0) / (1.0 - q) + 60
        assert mp_gap(value, mp_log_q_ratio(q, e, d)) <= error
        # the rounding bound takes the exponent of x = q^(e + lead) for
        # the terms' m^n, about e / (e + d) times too large here
        assert error <= 1e-11 * max(1.0, abs(value))

    def test_equal_arguments_give_zero(self):
        assert log_q_ratio(0.9, 1.5, 0.0) == (0.0, 0.0, 0, True)

    def test_short_budget_is_not_converged(self):
        value, error, terms, converged = log_q_ratio(
            0.99, 0.5, 1.0, TruncationPolicy(max_terms=10))
        assert not converged
        assert terms == 10
        assert error > 1e-3

    @pytest.mark.parametrize("max_terms", [4, 5, 40])
    def test_leading_factors_at_the_budget_read_no_series_term(self,
                                                                max_terms):
        # at q = 0.9999 the leading factors alone want about 6930 terms:
        # the budget stops them, and no series term is read after it
        value, error, terms, converged = log_q_ratio(
            0.9999, 1.5, 0.7, TruncationPolicy(max_terms=max_terms))
        assert terms == max_terms
        assert not converged
        assert math.isfinite(value) and error > 1.0


class TestPochhammerFinite:
    """(a; q)_n at an integer n of either sign: q_power_alpha at t = 1,
    the ratio (a; q)_inf / (a q^n; q)_inf of two log_q_product calls."""

    def test_empty_product(self):
        assert q_power_alpha(1.0, 0.5, 0.5, 0.0).value == 1.0

    def test_two_factors(self):
        # (1 - 0.5) (1 - 0.25)
        res = q_power_alpha(1.0, 0.5, 0.5, 2.0)
        assert res.value == pytest.approx(0.375, rel=1e-14)

    def test_negative_subscript(self):
        # single reciprocal factor: 1 / (1 - 0.25/0.5)
        res = q_power_alpha(1.0, 0.25, 0.5, -1.0)
        assert res.value == pytest.approx(2.0, rel=1e-14)

    def test_negative_subscript_pole(self):
        # a = q^1 makes the denominator's first factor 1 - a q^-1 vanish
        with pytest.raises(ZeroDivisionError, match="denominator product vanishes"):
            q_power_alpha(1.0, 0.5, 0.5, -1.0)

    @pytest.mark.parametrize("a", [-0.9, -0.5, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("q", [0.3, 0.6, 0.9])
    def test_telescoping_over_n_range(self, a, q):
        for n in range(-10, 31):
            try:
                left = q_power_alpha(1.0, a, q, float(n)).value * (1.0 - a * q ** n)
                right = q_power_alpha(1.0, a, q, n + 1.0).value
            except ZeroDivisionError:
                continue
            assert left == pytest.approx(right, rel=1e-12)

    @given(
        a=st.floats(-2.0, 0.95),
        q=st.floats(0.05, 0.95),
        n=st.integers(-10, 30),
    )
    @settings(max_examples=200)
    def test_telescoping_property(self, a, q, n):
        if n < 0:
            factors = [1.0 - a * q ** (-k) for k in range(1, -n + 1)]
            assume(min(abs(f) for f in factors) > 1e-3)
        left = q_power_alpha(1.0, a, q, float(n)).value * (1.0 - a * q ** n)
        right = q_power_alpha(1.0, a, q, n + 1.0).value
        assert left == pytest.approx(right, rel=1e-11, abs=1e-300)


class TestPochhammerInfinite:
    """(a; q)_inf as sign * exp of log_q_product, against finite products
    and mpmath."""

    def test_zero_argument(self):
        res = log_q_product(0.0, 0.5)
        assert (res.value, res.sign, res.converged) == (0.0, 1, True)
        assert q_product(0.0, 0.5) == 1.0

    def test_matches_brute_force_half(self):
        res = log_q_product(0.5, 0.5)
        value = res.sign * math.exp(res.value)
        oracle = brute_pochhammer(0.5, 0.5, 200)
        assert value == pytest.approx(oracle, rel=1e-14)
        assert res.converged
        bound = abs(value) * math.expm1(res.error + 2.0 ** -53)
        assert abs(value - oracle) <= bound + 1e-15

    def test_matches_brute_force_point_nine(self):
        oracle = brute_pochhammer(0.9, 0.9, 2000)
        assert q_product(0.9, 0.9) == pytest.approx(oracle, rel=1e-12)

    def test_terms_grow_like_log_tol_over_log_q(self):
        # log(2)/|log q| leading factors, then a log series whose length
        # depends on rel_tol, not on q
        slow = log_q_product(0.9, 0.9)
        fast = log_q_product(0.5, 0.5)
        assert slow.terms_used > fast.terms_used
        for q in (0.99, 0.999, 0.9999):
            leading = math.log(2.0 * q) / -math.log(q)
            res = log_q_product(q, q)
            assert res.converged
            assert leading < res.terms_used <= leading + 60
        loose = log_q_product(0.9, 0.9, TruncationPolicy(rel_tol=1e-7))
        assert slow.terms_used - loose.terms_used >= 20

    def test_negative_a_all_factors_positive(self):
        res = log_q_product(-0.9, 0.6)
        oracle = brute_pochhammer(-0.9, 0.6, 400)
        assert res.sign == 1
        assert math.exp(res.value) == pytest.approx(oracle, rel=1e-13)

    def test_vanishing_factor_gives_exact_zero(self):
        # x = 8/2 hits a zero factor 1 - 4 (1/2)^2 at k = 2, so the
        # numerator of q_power_alpha is exactly 0
        res = q_power_alpha(2.0, 8.0, 0.5, 2.5)
        assert (res.value, res.tail_estimate, res.converged) == (0.0, 0.0, True)
        assert log_q_product(4.0, 0.5).terms_used == 3

    def test_not_converged_raises_with_partial(self):
        # (0.9; 0.99)_inf has 59 leading factors, more than the budget:
        # q_power_alpha raises with the leading factors read
        policy = TruncationPolicy(max_terms=10)
        with pytest.raises(NotConvergedError, match=r"within 10 terms \(a=0.9,") as exc:
            q_power_alpha(1.0, 0.9, 0.99, 0.5, policy)
        partial = exc.value.partial
        assert partial is not None
        assert not partial.converged
        assert (partial.terms_used, partial.tail_estimate) == (10, math.inf)
        assert partial.value == pytest.approx(brute_pochhammer(0.9, 0.99, 10),
                                              rel=1e-14)

    @pytest.mark.parametrize("a", [-0.9, -0.5, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("q", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("n", [0, 1, 7, 23, 50])
    def test_finite_equals_ratio_of_infinite(self, a, q, n):
        finite = brute_pochhammer(a, q, n)
        num = q_product(a, q)
        den = q_product(a * q ** n, q)
        assert finite == pytest.approx(num / den, rel=1e-12)

    def test_cross_check_mpmath(self):
        for a, q in [(0.5, 0.5), (-0.7, 0.8), (0.3, 0.9)]:
            ref = float(mpmath.qp(a, q))
            assert q_product(a, q) == pytest.approx(ref, rel=1e-12)


class TestPochhammerAlpha:
    """(a; q)_alpha = (a; q)_inf / (a q^alpha; q)_inf: q_power_alpha at
    t = 1."""

    def test_integer_alpha_matches_finite(self):
        res = q_power_alpha(1.0, 0.3, 0.5, 2.0)
        assert res.value == pytest.approx(brute_pochhammer(0.3, 0.5, 2), rel=1e-13)

    def test_alpha_zero_is_one(self):
        assert q_power_alpha(1.0, 0.3, 0.5, 0.0).value == 1.0

    def test_vanishing_numerator_is_exact_zero(self):
        # (2; 1/2)_inf has the factor 1 - 2 (1/2) = 0
        res = q_power_alpha(1.0, 2.0, 0.5, 1.5)
        assert (res.value, res.tail_estimate, res.converged) == (0.0, 0.0, True)

    def test_fractional_alpha_two_product_oracle(self):
        res = q_power_alpha(1.0, 0.3, 0.5, 1.5)
        oracle = brute_pochhammer(0.3, 0.5, 200) / brute_pochhammer(
            0.3 * 0.5 ** 1.5, 0.5, 200
        )
        assert res.value == pytest.approx(oracle, rel=1e-13)


class TestQGamma:
    def test_at_one_is_exactly_one(self):
        assert q_gamma(1.0, 0.5).value == 1.0

    def test_at_three_equals_one_plus_q(self):
        assert q_gamma(3.0, 0.5).value == pytest.approx(1.5, rel=1e-13)

    def test_classical_limit_of_factorial(self):
        # q -> 1- recovers 4! = 24; direct finite product as oracle
        q = 0.9999
        res = q_gamma(5.0, q)
        oracle = 1.0
        for k in range(1, 5):
            oracle *= -math.expm1(k * math.log(q)) / -math.expm1(math.log(q))
        # at an integer q_gamma forms this product itself
        assert res.value == pytest.approx(oracle, rel=1e-11)
        assert abs(res.value - oracle) <= res.tail_estimate
        assert abs(res.value - 24.0) < 2e-2

    @pytest.mark.parametrize("a", [0.0, -1.0, -2.0, -3.0 + 1e-13])
    def test_pole_detection(self, a):
        with pytest.raises(PoleError):
            q_gamma(a, 0.5)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_functional_equation(self, q):
        for i in range(1, 21):
            x = 0.5 * i
            lhs = q_gamma(x + 1.0, q).value
            rhs = (1.0 - q ** x) / (1.0 - q) * q_gamma(x, q).value
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_positivity_grid(self):
        for q in (0.1, 0.5, 0.9):
            for mu in (0.25, 0.5, 1.0, 2.5, 7.0):
                assert q_gamma(mu, q).value > 0.0
                for k in range(0, 8):
                    assert q_power_alpha(1.0, q ** mu, q, float(k)).value > 0.0

    @pytest.mark.parametrize("q", [0.99, 0.9999])
    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_exact_at_positive_integers(self, n, q):
        # Gamma_q(n) = [n-1]_q!; the ratio of two q-products of about
        # -16449 at q = 0.9999 would lose 12 digits
        res = q_gamma(float(n), q)
        with mpmath.workdps(40):
            Q = mpmath.mpf(q)
            ref = mpmath.fprod((1 - Q ** k) / (1 - Q) for k in range(1, n))
            err = abs(res.value - ref)
            assert err <= 1e-14 * ref
            assert err <= res.tail_estimate

    def test_cross_check_mpmath(self):
        for a, q in [(2.5, 0.5), (4.0, 0.75), (0.7, 0.9)]:
            res = q_gamma(a, q)
            ref = float(mpmath.qgamma(a, q))
            assert res.value == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("q", [0.3, 0.9, 0.97, 0.99, 0.999])
    @pytest.mark.parametrize("a", [0.25, 1.5, 3.75, -0.5, -2.5])
    def test_within_tail_estimate_of_mpmath(self, a, q):
        # (q; q)_inf / (q^a; q)_inf (1 - q)^(1 - a) from 30-digit direct
        # log sums: mpmath.qgamma takes seconds a value at q = 0.999
        res = q_gamma(a, q)
        num, _ = mp_log_q_product(q, q)
        den, sign = mp_log_q_product(mp_q_power(q, a), q)
        with mpmath.workdps(30):
            ref = sign * mpmath.exp(num - den) * (1 - mpmath.mpf(q)) ** (1 - a)
        assert mp_gap(res.value, ref) <= res.tail_estimate
        # the ratio's common factors cancel, so the bound does not grow
        # like u / (1 - q)
        assert res.tail_estimate <= min(2e-14 / (1.0 - q), 1e-13) * abs(float(ref))

    def test_far_from_one_reads_few_terms(self):
        # a much larger than ln 2 / (1 - q): the leading factors run until
        # q^(1 + i) <= 1/2, so the series after them stays short
        a, q = 100.5, 0.99
        res = q_gamma(a, q)
        num, _ = mp_log_q_product(q, q)
        den, _ = mp_log_q_product(mp_q_power(q, a), q)
        with mpmath.workdps(30):
            ref = mpmath.exp(num - den) * (1 - mpmath.mpf(q)) ** (1 - a)
        assert mp_gap(res.value, ref) <= res.tail_estimate
        assert res.tail_estimate <= 2.5e-12 * abs(float(ref))
        assert res.terms_used <= math.log(2.0) / (1.0 - q) + 60

    def test_far_negative_argument(self):
        # 331 q-integers of about q^-330 each: their product overflows in
        # linear space; in log space G underflows to a signed zero
        res = q_gamma(-330.5, 0.9)
        assert res.converged and res.value == 0.0
        assert math.copysign(1.0, res.value) == -1.0
        # the shift reads one factor per unit of -a under the budget
        with pytest.raises(NotConvergedError) as info:
            q_gamma(-330.5, 0.9, TruncationPolicy(max_terms=100))
        assert info.value.partial.terms_used == 100
        assert not info.value.partial.converged


class TestQFactorial:
    def test_zero(self):
        assert q_factorial(0, 0.3) == 1.0

    def test_two(self):
        assert q_factorial(2, 0.5) == pytest.approx(1.5, rel=1e-15)

    def test_four_direct_product_oracle(self):
        oracle = 1.0 * 1.5 * 1.75 * 1.875
        assert q_factorial(4, 0.5) == pytest.approx(oracle, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            q_factorial(-1, 0.5)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
    def test_matches_q_gamma(self, q):
        for n in range(0, 12):
            gam = q_gamma(n + 1.0, q)
            assert q_factorial(n, q) == pytest.approx(gam.value, rel=1e-12)

    @pytest.mark.parametrize("q", [0.99, 0.9999])
    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_near_one_against_mpmath(self, n, q):
        # each q-integer (1 - q^k)/(1 - q) cancels near q = 1 unless formed
        # by expm1
        with mpmath.workdps(40):
            Q = mpmath.mpf(q)
            ref = mpmath.fprod((1 - Q ** k) / (1 - Q) for k in range(1, n + 1))
            assert abs(q_factorial(n, q) - ref) <= 1e-14 * ref


class TestQPower:
    """q_power_alpha(t, a, q, alpha) = t^alpha (a/t; q)_alpha, the
    q-analogue of (t - a)^alpha; at an integer alpha n it is the finite
    product prod_(k<n) (t - q^k a)."""

    def test_empty(self):
        assert q_power_alpha(2.0, 1.0, 0.5, 0.0).value == 1.0

    def test_two_factors(self):
        # (2 - 1) (2 - 0.5)
        res = q_power_alpha(2.0, 1.0, 0.5, 2.0)
        assert res.value == pytest.approx(1.5, rel=1e-14)

    def test_vanishing_first_factor(self):
        res = q_power_alpha(1.0, 1.0, 0.5, 3.0)
        assert (res.value, res.tail_estimate) == (0.0, 0.0)

    def test_alpha_integer_consistency(self):
        res = q_power_alpha(2.0, 1.0, 0.5, 2.0)
        assert res.value == pytest.approx(brute_q_power(2.0, 1.0, 0.5, 2), rel=1e-13)

    def test_alpha_zero_base(self):
        res = q_power_alpha(3.0, 0.0, 0.5, 1.5)
        assert res.value == pytest.approx(3.0 ** 1.5, rel=1e-15)

    def test_alpha_half_two_product_oracle(self):
        res = q_power_alpha(2.0, 1.0, 0.5, 0.5)
        oracle = 2.0 ** 0.5 * (
            brute_pochhammer(0.5, 0.5, 200)
            / brute_pochhammer(0.5 ** 1.5, 0.5, 200)
        )
        assert res.value == pytest.approx(oracle, rel=1e-13)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            q_power_alpha(0.0, 1.0, 0.5, 0.5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("t,a,q", [(2.0, 1.0, 0.5), (1.5, -0.7, 0.3), (3.0, 0.2, 0.9)])
    def test_integer_alpha_grid(self, alpha, t, a, q):
        res = q_power_alpha(t, a, q, alpha)
        ref = brute_q_power(t, a, q, int(alpha))
        assert res.value == pytest.approx(ref, rel=1e-13)
        assert abs(res.value - ref) <= res.tail_estimate + 4e-16 * abs(ref)

    def test_first_unconverged_product_raises(self):
        # the numerator (0.1; 0.99)_inf converges in 17 series terms; the
        # denominator at 0.1 * 0.99^-300 = 2.04 needs 140 leading factors
        x, q = 0.1, 0.99
        den_arg = x * q ** -300.0
        with pytest.raises(NotConvergedError) as exc:
            q_power_alpha(1.0, x, q, -300.0, TruncationPolicy(max_terms=100))
        assert str(exc.value) == (f"(a;q)_inf: no convergence within 100 "
                                  f"terms (a={den_arg}, q={q})")
        partial = exc.value.partial
        parts = log_q_product(den_arg, q, TruncationPolicy(max_terms=100))
        assert partial == SeriesResult(parts.sign * math.exp(parts.value), 100,
                                       math.inf, False)
