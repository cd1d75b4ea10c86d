"""Function DSL: evaluation, certified metadata, serialization round-trips,
synchronicity classification, and seeded family generation."""

import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qek.errors import DomainError, NotLipschitzError
from qek.functions import (
    Affine,
    BoundsTriple,
    Const,
    LipschitzTriple,
    PiecewiseLinear,
    Power,
    Product,
    Scale,
    Sum,
    check_synchronous,
    compile_expr,
    extract_bounds,
    extract_lipschitz,
    format_expr,
    generate_family,
    generate_weight,
    monotonicity_on,
    nonnegative_on,
    parse_function_spec,
    pieces,
)


class TestEvaluation:
    def test_power(self):
        assert Power(2.0)(3.0) == 9.0

    def test_product(self):
        assert Product(Power(1.0), Const(2.0))(4.0) == 8.0

    def test_piecewise_interpolation(self):
        pwl = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0), (2.0, 1.5)))
        assert pwl(1.5) == pytest.approx(1.25, rel=1e-15)

    def test_piecewise_clamps_beyond_last_knot(self):
        pwl = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0)))
        assert pwl(5.0) == 1.0

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            Power(2.0)(-0.5)

    def test_sum_scale_affine(self):
        e = Sum(Scale(2.0, Affine(1.0, 0.0)), Const(1.0))
        assert e(3.0) == 7.0

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(((0.5, 0.0), (1.0, 1.0)))  # first knot not at 0
        with pytest.raises(ValueError):
            PiecewiseLinear(((0.0, 0.0),))  # single knot
        with pytest.raises(ValueError):
            PiecewiseLinear(((0.0, 0.0), (0.0, 1.0)))  # duplicate abscissa


class TestCompiledSpec:
    TEXT = ("(sum (product (power 2) (affine 0.5 1))"
            " (piecewise_linear (0 0) (1 2) (2 2.5)))")

    def test_pickle_round_trip(self):
        s = parse_function_spec(self.TEXT)
        for _ in range(2):  # before and after its closure is compiled
            back = pickle.loads(pickle.dumps(s))
            assert back == s
            assert hash(back) == hash(s)
            assert not {"fn", "_sexpr"} & vars(back).keys()
            assert back(1.5) == s(1.5)
            assert back.fn(0.25) == s.fn(0.25)
            assert back.to_sexpr() == s.to_sexpr() == self.TEXT

    def test_hash_is_kept_and_reads_the_fields_only(self):
        s = parse_function_spec(self.TEXT)
        by_hand = Sum(Product(Power(2.0), Affine(0.5, 1.0)),
                      PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (2.0, 2.5))))
        assert "_hash" not in vars(s)
        h = hash(s)
        assert vars(s)["_hash"] == h and vars(s.left)["_hash"] == hash(s.left)
        back = pickle.loads(pickle.dumps(s))
        assert "_hash" not in vars(back)  # never part of the pickled state
        for twin in (by_hand, back):
            assert twin is not s and twin == s and s == twin
            assert hash(twin) == h
        # the tuple hash over the fields; the node type is part of
        # equality, not of the hash
        assert h == hash((s.left, s.right))
        swapped = Product(s.left, s.right)
        assert swapped != s and hash(swapped) == h
        assert {s: 1}[by_hand] == 1 and swapped not in {s: 1}
        assert Sum(s.right, s.left) != s

    def test_closure_left_out_of_eq_and_repr(self):
        s = parse_function_spec(self.TEXT)
        assert s.fn(1.5) == s(1.5)  # compiled and kept on s
        assert s.to_sexpr() is s.to_sexpr()  # formatted once and kept
        twin = parse_function_spec(s.to_sexpr())
        assert twin is not s and "fn" not in vars(twin)
        assert twin == s and hash(twin) == hash(s)
        assert "fn=" not in repr(s)
        assert "<function" not in repr(s)

    def test_calls_do_not_recompile(self):
        s = Affine(3.0, 0.25)  # compiled in one call
        before = compile_expr.cache_info()
        first = s(0.0)
        after_first = compile_expr.cache_info()
        assert (after_first.hits + after_first.misses
                == before.hits + before.misses + 1)
        values = [s(0.1 * k) for k in range(50)]
        after = compile_expr.cache_info()
        assert (after.hits, after.misses) == (after_first.hits,
                                              after_first.misses)
        assert values[0] == first and values[10] == s.fn(1.0)

    def test_compile_cache_is_bounded(self):
        info = compile_expr.cache_info()
        assert info.maxsize is not None
        for k in range(info.maxsize + 10):
            Affine(1.0, float(k)).fn(0.0)
        assert compile_expr.cache_info().currsize == info.maxsize


class TestMetadata:
    @pytest.mark.parametrize(
        "expr,direction",
        [
            (Power(2.0), "increasing"),
            (Affine(-2.0, 10.0), "decreasing"),
            (Const(3.0), "increasing"),
            (Product(Power(1.0), Affine(1.0, 0.5)), "increasing"),
            (Product(Affine(-1.0, 2.0), Affine(1.0, 0.0)), "none"),
            (Scale(-2.0, Power(1.0)), "decreasing"),
            (Sum(Power(1.0), Affine(-1.0, 0.0)), "none"),
            (Sum(Const(5.0), Affine(-1.0, 3.0)), "decreasing"),
            (PiecewiseLinear(((0.0, 0.0), (1.0, 1.0), (2.0, 0.5))), "none"),
        ],
    )
    def test_monotonicity_certification(self, expr, direction):
        assert monotonicity_on(expr, 2.0) == direction

    @pytest.mark.parametrize(
        "expr,p",
        [
            (Const(2.0), 0.0),
            (Power(2.0), 2.0),
            (Affine(3.0, 0.0), 1.0),
            (Affine(3.0, 1.0), 0.0),
            (Product(Power(2.0), Power(1.0)), 3.0),
            (Sum(Power(2.0), Power(1.0)), 1.0),
            (PiecewiseLinear(((0.0, 0.0), (1.0, 2.0))), 1.0),
            (PiecewiseLinear(((0.0, 0.5), (1.0, 2.0))), 0.0),
            # t - t is 0: no power of t is left near 0
            (Sum(Power(1.0), Scale(-1.0, Power(1.0))), 0.0),
        ],
    )
    def test_c_lambda_exponent(self, expr, p):
        assert expr.c_lambda_exponent == p

    @pytest.mark.parametrize(
        "expr",
        [
            Power(2.0),
            Affine(3.0, 0.0),
            Product(Power(1.0), Affine(2.0, 0.0)),
            Sum(Power(2.0), Const(1.0)),
        ],
    )
    def test_exponent_consistency_by_sampling(self, expr):
        # t^(-p) * f(t) must stay bounded near 0
        p = expr.c_lambda_exponent
        samples = [abs(expr(10.0 ** -k) / 10.0 ** (-k * p)) for k in range(1, 9)]
        assert max(samples) < 1e6


class TestSerialization:
    @pytest.mark.parametrize(
        "text",
        [
            "(const 1.5)",
            "(power 2)",
            "(affine -1 5)",
            "(piecewise_linear (0 0) (1 1) (2 1.5))",
            "(product (power 2) (const 1.5))",
            "(sum (affine 1 0) (scale 0.5 (power 3)))",
        ],
    )
    def test_canonical_round_trip(self, text):
        expr = parse_function_spec(text)
        assert format_expr(expr) == text
        assert parse_function_spec(format_expr(expr)) == expr

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "(",
            "(const)",
            "(const x)",
            "(unknown 1)",
            "(power 1) trailing",
            "(piecewise_linear (0 0)",
            "(product (power 1))",
        ],
    )
    def test_malformed_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_function_spec(bad)

    @pytest.mark.parametrize("text", [
        "(const inf)",
        "(const nan)",
        "(power -inf)",
        "(affine 1 inf)",
        "(piecewise_linear (0 0) (1 nan))",
        "(scale inf (power 1))",
        "(sum (const 1) (const -infinity))",
    ])
    def test_non_finite_numbers_rejected(self, text):
        with pytest.raises(ValueError, match="non-finite number"):
            parse_function_spec(text)

    def test_parse_function_spec_carries_metadata(self):
        s = parse_function_spec("(affine -1 5)")
        assert s.c_lambda_exponent == 0.0
        assert s(1.0) == 4.0


_numbers = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
_pos_numbers = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def _pwl_exprs(draw):
    n = draw(st.integers(2, 4))
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1))
    ys = draw(st.lists(_numbers, min_size=n, max_size=n))
    xs = [0.0]
    for gap in gaps:
        xs.append(xs[-1] + gap)
    return PiecewiseLinear(tuple(zip(xs, ys)))


_exprs = st.recursive(
    st.one_of(
        st.builds(Const, _numbers),
        st.builds(Power, st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])),
        st.builds(Affine, _numbers, _numbers),
        _pwl_exprs(),
    ),
    lambda children: st.one_of(
        st.builds(Product, children, children),
        st.builds(Sum, children, children),
        st.builds(Scale, _numbers, children),
    ),
    max_leaves=6,
)


class TestSerializationProperty:
    @given(expr=_exprs)
    @settings(max_examples=200)
    def test_round_trip_exact(self, expr):
        assert parse_function_spec(format_expr(expr)) == expr


def _knot_abscissae(expr):
    if isinstance(expr, PiecewiseLinear):
        return [x for x, _ in expr.knots]
    children = [getattr(expr, name) for name in ("left", "right", "inner")
                if hasattr(expr, name)]
    return [x for child in children for x in _knot_abscissae(child)]


class TestBoundsProperty:
    @given(expr=_exprs, T=st.floats(0.1, 4.0))
    @settings(max_examples=300)
    # the piece cut at T must take its top by the closure's formula: the
    # slope form y0 + s (T - x0) gives 0.8333333333333333, an ulp below
    # f(T) = 0.8333333333333334
    @example(expr=PiecewiseLinear(((0.0, 0.0), (0.75, 1.0), (1.75, 1.0))),
             T=0.625)
    def test_enclosure_sound_and_exact_when_certified(self, expr, T):
        lo, hi = extract_bounds(expr, T)
        xs = [T * k / 64 for k in range(65)]
        xs += [x for x in _knot_abscissae(expr) if x <= T]
        values = [expr(x) for x in xs]
        # slack for the rounding of the pointwise evaluation only: a
        # piecewise-linear interpolant can round an ulp of its knot values
        # past the knots' own range
        slack = 1e-12 * (1.0 + abs(lo) + abs(hi))
        assert all(lo - slack <= v <= hi + slack for v in values)
        if nonnegative_on(expr, T):
            assert min(values) >= 0.0
        if monotonicity_on(expr, T) != "none":
            ends = (expr(0.0), expr(T))
            assert (lo, hi) == (min(ends), max(ends))

    @given(expr=_exprs, T=st.floats(0.1, 4.0))
    @settings(max_examples=300)
    def test_certified_direction_is_monotone(self, expr, T):
        direction = monotonicity_on(expr, T)
        if direction == "none":
            return
        lo, hi = extract_bounds(expr, T)
        xs = sorted([T * k / 64 for k in range(65)]
                    + [x for x in _knot_abscissae(expr) if x <= T])
        values = [expr(x) for x in xs]
        if direction == "decreasing":
            values = [-v for v in values]
        # the same rounding slack as the enclosure property above
        slack = 1e-12 * (1.0 + abs(lo) + abs(hi))
        assert all(b >= a - slack for a, b in zip(values, values[1:]))


def _magnitude(expr, x):
    """expr at x with every coefficient and knot value replaced by its
    absolute value: a bound on the size of each intermediate result."""
    if isinstance(expr, Const):
        return abs(expr.value)
    if isinstance(expr, Power):
        return x ** expr.exponent
    if isinstance(expr, Affine):
        return abs(expr.slope) * x + abs(expr.intercept)
    if isinstance(expr, PiecewiseLinear):
        return max(abs(y) for _, y in expr.knots)
    if isinstance(expr, Scale):
        return abs(expr.factor) * _magnitude(expr.inner, x)
    left, right = _magnitude(expr.left, x), _magnitude(expr.right, x)
    return left * right if isinstance(expr, Product) else left + right


def _exact_poly(expr, x):
    """{p: c} of expr's piece that holds x, with exact rational
    coefficients."""
    if isinstance(expr, Const):
        return {0.0: Fraction(expr.value)}
    if isinstance(expr, Power):
        return {expr.exponent: Fraction(1)}
    if isinstance(expr, Affine):
        return {0.0: Fraction(expr.intercept), 1.0: Fraction(expr.slope)}
    if isinstance(expr, PiecewiseLinear):
        for (x0, y0), (x1, y1) in zip(expr.knots, expr.knots[1:]):
            if x < x1:
                s = (Fraction(y1) - Fraction(y0)) / (Fraction(x1) - Fraction(x0))
                return {0.0: Fraction(y0) - s * Fraction(x0), 1.0: s}
        return {0.0: Fraction(expr.knots[-1][1])}
    if isinstance(expr, Scale):
        return {p: expr.factor * c for p, c in _exact_poly(expr.inner, x).items()}
    left, right = _exact_poly(expr.left, x), _exact_poly(expr.right, x)
    out = {}
    if isinstance(expr, Product):
        for pl, cl in left.items():
            for pr, cr in right.items():
                out[pl + pr] = out.get(pl + pr, 0) + cl * cr
    else:
        for p, c in [*left.items(), *right.items()]:
            out[p] = out.get(p, 0) + c
    return out


class TestFirstPieceProperty:
    @given(expr=_exprs, t=st.floats(0.1, 4.0))
    @settings(max_examples=300)
    def test_monomial_sum_matches_below_first_knot(self, expr, t):
        x_b, poly = pieces(expr, t)[0][:2]
        # each piecewise-linear node's first interior knot is its least
        # positive one, whatever t is
        assert x_b == min((x for x in _knot_abscissae(expr) if x > 0.0),
                          default=math.inf)
        end = min(x_b, 4.0)
        for k in range(16):
            x = end * k / 16
            got = sum(c * x ** p for p, c in poly.items())
            assert abs(got - expr(x)) <= 1e-12 * (1.0 + _magnitude(expr, x))

    def test_piecewise_first_piece(self):
        expr = parse_function_spec("(piecewise_linear (0 1) (0.5 2) (1 0))")
        assert pieces(expr, 1.0)[0][:2] == (0.5, {0.0: 1.0, 1.0: 2.0})
        assert pieces(Product(expr, Power(1.5)), 1.0)[0][:2] == (
            0.5, {1.5: 1.0, 2.5: 2.0})
        assert pieces(Sum(Const(-1.0), expr), 1.0)[0][:2] == (0.5, {1.0: 2.0})


class TestPiecesProperty:
    @given(expr=_exprs, t=st.floats(0.1, 4.0))
    @settings(max_examples=300)
    # on [1.75, 1.875) the coefficients cancel: mag is 3.5e4 for values
    # near 0.06, and the monomial sum misses by 3.6e-12
    @example(expr=Product(
        Product(Const(0.62890625), PiecewiseLinear(
            ((0, 0), (1, 0), (1.75, 1), (1.875, -1)))),
        Product(PiecewiseLinear(((0, 0), (1, 0), (1.75, 1), (1.875, 0))),
                Product(Const(2.077049827440872), PiecewiseLinear(
                    ((0, 0), (1, 0), (1.75, 0), (2, 1)))))), t=2.0)
    # the piece [0.9999999999999999, 1) is one ulp wide: its float
    # midpoint rounds to 1, in the next piece
    @example(expr=Product(PiecewiseLinear(((0, 0), (1, 0), (2, 1))),
                          PiecewiseLinear(((0, 0), (0.9999999999999999, 0),
                                           (2, 1)))), t=1.0)
    def test_every_piece_on_its_interval(self, expr, t):
        row = pieces(expr, t)
        ends = [pc.end for pc in row]
        # the breakpoints below t are the knots below t, and the last
        # piece reaches t
        assert ends[:-1] == sorted({x for x in _knot_abscissae(expr)
                                    if 0.0 < x < t})
        assert ends[-1] >= t
        for start, pc in zip([0.0, *ends], row):
            top = min(pc.end, t)
            for k in range(9):
                x = start + (top - start) * k / 8
                got = sum(c * x ** p for p, c in pc.poly.items())
                # the rounding the piece certifies for its monomial sum, and
                # the closure's own
                assert abs(got - expr(x)) <= (
                    (pc.err + pc.mag * (len(pc.poly) + 2)) * 2.0 ** -53
                    + 2.0 ** -50 * (1.0 + _magnitude(expr, x)))
                slack = 1e-12 * (1.0 + abs(pc.lo) + abs(pc.hi))
                assert pc.lo - slack <= expr(x) <= pc.hi + slack
            assert (sum(abs(c) * top ** p for p, c in pc.poly.items())
                    <= pc.mag * (1.0 + 1e-12) + 1e-300)
            # err bounds the coefficients' rounding, cancellation included;
            # the midpoint is exact, so it lies inside a one-ulp piece
            exact = _exact_poly(expr, (Fraction(start) + Fraction(top)) / 2)
            miss = sum(abs(Fraction(pc.poly.get(p, 0.0)) - exact.get(p, 0))
                       * Fraction(top) ** int(p) if float(p).is_integer()
                       else abs(pc.poly.get(p, 0.0) - float(exact.get(p, 0)))
                       * top ** p
                       for p in {*pc.poly, *exact})
            assert miss <= pc.err * 2.0 ** -53 * (1.0 + 1e-9) + 1e-300

    def test_split_kept_on_the_node_for_the_last_t(self):
        left = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0)))
        expr = Product(left, Power(2.0))
        row = pieces(expr, 1.5)
        assert pieces(expr, 1.5) is row
        assert expr._split_at == (1.5, row)
        # a child is split through its own memo, at the same t
        assert left._split_at[0] == 1.5
        other = pieces(expr, 3.0)
        assert expr._split_at == (3.0, other)
        assert left._split_at[0] == 3.0
        again = pieces(expr, 1.5)
        assert again is not row and again == row
        # the memo is not a field: equality, hashing, repr and pickling
        # see the tree only
        fresh = Product(PiecewiseLinear(left.knots), Power(2.0))
        assert fresh == expr and hash(fresh) == hash(expr)
        assert repr(fresh) == repr(expr)
        assert "_split_at" not in pickle.loads(pickle.dumps(expr)).__dict__

    def test_exponent_read_keeps_the_split(self):
        # the exponent near 0 reads the split the node keeps, not one at 1.0
        left = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0)))
        expr = Product(left, Power(2.0))
        row = pieces(expr, 1.3)
        assert expr.c_lambda_exponent == 3.0
        assert expr._split_at == (1.3, row)
        assert left._split_at[0] == 1.3
        # with no split kept it splits at 1.0
        assert Product(Power(1.0), Power(2.0)).c_lambda_exponent == 3.0

    def test_pieces_of_a_product_merge_the_breakpoints(self):
        expr = parse_function_spec(
            "(product (piecewise_linear (0 1) (0.5 2) (1 0))"
            " (piecewise_linear (0 0) (0.25 1) (0.75 2) (2 3)))")
        assert [pc.end for pc in pieces(expr, 0.9)] == [0.25, 0.5, 0.75, 1.0]
        assert [pc.end for pc in pieces(expr, 0.5)] == [0.25, 0.5]
        last = pieces(expr, 3.0)[-1]
        assert (last.end, last.poly) == (math.inf, {})


class TestSynchronicity:
    def test_pair_with_itself(self):
        f = Power(1.0)
        assert check_synchronous(f, f, 1.0) == "synchronous"

    def test_opposite_monotone(self):
        f = Power(1.0)
        g = Affine(-1.0, 5.0)
        assert check_synchronous(f, g, 1.0) == "asynchronous"

    def test_constant_is_both(self):
        # (f(x) - f(y)) (g(x) - g(y)) is 0 for a constant f, whatever g
        const = parse_function_spec("(const 2)")
        hat = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
        for other in (parse_function_spec("(affine -1 2)"), const, hat):
            assert check_synchronous(const, other, 2.0) == "both"
            assert check_synchronous(other, const, 2.0) == "both"

    def test_hat_function_is_neither(self):
        f = Power(2.0)
        hat = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
        assert check_synchronous(f, hat, 2.0) == "none"
        assert check_synchronous(hat, f, 2.0) == "none"

    def test_certified_shortcut_matches_scan(self):
        # every pair the directions certify is synchronous on a fine scan
        rng = random.Random(7)
        grid = [0.05 * k for k in range(41)]
        for seed in range(20):
            fam = generate_family("synchronous_triple", seed, 2.0)
            f, g = rng.sample([fam.f, fam.g, fam.h], 2)
            assert check_synchronous(f, g, 2.0) == "synchronous"
            assert all((f(x) - f(y)) * (g(x) - g(y)) >= 0.0
                       for x in grid for y in grid)

    def test_constant_on_the_interval_is_both(self):
        # h is 1 on [0, 1] and falls after it
        h = PiecewiseLinear(((0.0, 1.0), (1.0, 1.0), (2.0, 0.0)))
        assert check_synchronous(h, Power(1.0), 1.0) == "both"
        assert check_synchronous(h, Power(1.0), 2.0) == "asynchronous"

    def test_piecewise_direction_ignores_knots_past_t(self):
        # the hat rises on [0, 1] and falls only after it
        hat = parse_function_spec("(piecewise_linear (0 0) (1 1) (2 0))")
        assert monotonicity_on(hat, 1.0) == "increasing"
        assert check_synchronous(hat, Power(1.0), 1.0) == "synchronous"
        assert monotonicity_on(hat, 2.0) == "none"
        assert check_synchronous(hat, Power(1.0), 2.0) == "none"
        # a knot inside [0, T] still counts
        assert monotonicity_on(hat, 1.5) == "none"

    def test_direction_read_on_the_given_interval(self):
        # (1 - t)^2 falls on [0, 1] but not on [0, 2], where it rises again
        f = parse_function_spec("(product (affine -1 1) (affine -1 1))")
        g = parse_function_spec("(affine -1 3)")
        assert check_synchronous(f, g, 1.0) == "synchronous"
        assert check_synchronous(f, g, 2.0) == "none"
        assert f(2.0) > f(1.0)


class TestBounds:
    def test_monotone_endpoints(self):
        assert extract_bounds(Power(2.0), 2.0) == (0.0, 4.0)

    def test_constant(self):
        assert extract_bounds(Const(3.0), 5.0) == (3.0, 3.0)

    def test_decreasing_affine(self):
        assert extract_bounds(Affine(-2.0, 10.0), 3.0) == (4.0, 10.0)

    def test_hat_knot_evaluation(self):
        hat = PiecewiseLinear(((0.0, 0.2), (1.0, 1.5), (2.0, 0.1)))
        lo, hi = extract_bounds(hat, 2.0)
        assert (lo, hi) == (0.1, 1.5)

    def test_bounds_attained_for_monotone(self):
        s = Sum(Power(2.0), Affine(1.0, 0.3))
        lo, hi = extract_bounds(s, 2.0)
        assert abs(lo - s(0.0)) < 1e-12
        assert abs(hi - s(2.0)) < 1e-12

    def test_enclosure_contains_samples(self):
        s = Product(Affine(1.0, 0.0), Affine(-1.0, 2.0))
        assert monotonicity_on(s, 2.0) == "none"
        lo, hi = extract_bounds(s, 2.0)
        for k in range(101):
            val = s(2.0 * k / 100)
            assert lo - 1e-12 <= val <= hi + 1e-12

    def test_enclosure_covers_interior_maximum(self):
        # the maximum f(0.15) = 0.0225 falls between the points of a k/1024 grid
        s = parse_function_spec("(product (affine 1 0) (affine -1 0.3))")
        assert s(0.15) == pytest.approx(0.0225, rel=1e-15)
        assert extract_bounds(s, 1.0)[1] >= 0.0225

    def test_sum_encloses_piece_by_piece(self):
        # f rises from -1 to 1 on [0, 1] where g is 1, and g falls from 1
        # to -1 on [1, 2] where f is 1: f + g lies in [0, 2], although each
        # has the range [-1, 1] on [0, 2]
        f = PiecewiseLinear(((0.0, -1.0), (1.0, 1.0), (2.0, 1.0)))
        g = PiecewiseLinear(((0.0, 1.0), (1.0, 1.0), (2.0, -1.0)))
        assert extract_bounds(f, 2.0) == extract_bounds(g, 2.0) == (-1.0, 1.0)
        assert extract_bounds(Sum(f, g), 2.0) == (0.0, 2.0)
        assert nonnegative_on(Sum(f, g), 2.0)

    def test_nonnegative_product_of_negative_slopes(self):
        # (-t)(-t) = t^2 >= 0 although neither factor is nonnegative
        assert nonnegative_on(Product(Affine(-1.0, 0.0), Affine(-1.0, 0.0)), 2.0)
        assert not nonnegative_on(Affine(-1.0, 0.0), 2.0)


class TestLipschitz:
    def test_affine(self):
        assert extract_lipschitz(Affine(3.0, 1.0), 1.0) == 3.0

    def test_power_two(self):
        assert extract_lipschitz(Power(2.0), 2.0) == 4.0

    def test_fractional_power_rejected(self):
        with pytest.raises(NotLipschitzError):
            extract_lipschitz(Power(0.5), 1.0)

    def test_piecewise_max_slope(self):
        pwl = PiecewiseLinear(((0.0, 0.0), (0.5, 2.0), (2.0, 2.5)))
        assert extract_lipschitz(pwl, 2.0) == 4.0

    @pytest.mark.parametrize("T, const", [(1.0, 1.0), (1.5, 4.0)])
    def test_piecewise_reads_pieces_below_T(self, T, const):
        # the slope-4 piece starts at 1, so it does not meet [0, 1)
        pwl = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0), (2.0, 5.0)))
        assert extract_lipschitz(pwl, T) == const

    def test_constant_rate_zero(self):
        assert extract_lipschitz(Const(9.0), 3.0) == 0.0

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_composite_constant_validates_on_pairs(self, seed):
        fam = generate_family("lipschitz_triple", seed, 1.5)
        rng = random.Random(seed)
        for s, const in zip(fam.specs, (fam.lipschitz.L1, fam.lipschitz.L2,
                                        fam.lipschitz.L3)):
            for _ in range(200):
                x, y = rng.uniform(0, 1.5), rng.uniform(0, 1.5)
                assert abs(s(x) - s(y)) <= const * abs(x - y) + 1e-12


class TestCertificateTypes:
    def test_bounds_triple_ordering(self):
        with pytest.raises(ValueError):
            BoundsTriple(1.0, 0.0, 0.0, 1.0, 0.0, 1.0)

    def test_lipschitz_triple_nonnegative(self):
        with pytest.raises(ValueError):
            LipschitzTriple(-1.0, 0.0, 0.0)


class TestFamilies:
    def test_deterministic_in_seed(self):
        a = generate_family("synchronous_triple", 123, 1.0)
        b = generate_family("synchronous_triple", 123, 1.0)
        assert [s.to_sexpr() for s in a.specs] == [s.to_sexpr() for s in b.specs]
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_family("synchronous_triple", 1, 1.0)
        b = generate_family("synchronous_triple", 2, 1.0)
        assert a != b

    def test_synchronous_triple_pairwise(self):
        for seed in range(25):
            fam = generate_family("synchronous_triple", seed, 1.0)
            for x, y in ((fam.f, fam.g), (fam.f, fam.h), (fam.g, fam.h)):
                assert check_synchronous(x, y, 1.0) == "synchronous"
            for s in fam.specs:
                assert monotonicity_on(s, 1.0) == "increasing"

    def test_bounded_triple_bounds_cover_samples(self):
        fam = generate_family("bounded_triple", 2, 1.0)
        b = fam.bounds
        lows = (b.psi, b.phi, b.omega)
        highs = (b.Psi, b.Phi, b.Omega)
        for s, lo, hi in zip(fam.specs, lows, highs):
            sampled = [s(k / 50) for k in range(51)]
            assert lo <= min(sampled) + 1e-12
            assert max(sampled) <= hi + 1e-12

    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
    def test_bounded_triple_draws_the_synchronous_trees(self, T):
        # campaigns draw T1/T2's triple as the bounded one (cli._index_cases)
        for seed in range(200):
            sync = generate_family("synchronous_triple", seed, T)
            bounded = generate_family("bounded_triple", seed, T)
            assert bounded.specs == sync.specs and sync.bounds is None

    def test_lipschitz_triple_thousand_pairs(self):
        fam = generate_family("lipschitz_triple", 3, 1.0)
        rng = random.Random(3)
        consts = (fam.lipschitz.L1, fam.lipschitz.L2, fam.lipschitz.L3)
        for s, const in zip(fam.specs, consts):
            for _ in range(1000):
                x, y = rng.uniform(0, 1.0), rng.uniform(0, 1.0)
                assert abs(s(x) - s(y)) <= const * abs(x - y) + 1e-12

    def test_asynchronous_family_shape(self):
        grid = [0.05 * k for k in range(1, 21)]
        for seed in range(10):
            fam = generate_family("asynchronous_pair_plus_nonneg", seed, 1.0)
            assert check_synchronous(fam.f, fam.g, 1.0) == "asynchronous"
            assert min(fam.h(x) for x in grid) >= 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_family("nope", 1, 1.0)

    def test_weights_nonnegative_and_deterministic(self):
        for seed in range(30):
            w = generate_weight(seed, 2.0)
            assert w == generate_weight(seed, 2.0)
            assert min(w(0.1 * k) for k in range(21)) >= 0.0
