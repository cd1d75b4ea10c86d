"""A small closed function DSL with certified metadata.

A spec is an expression tree of seven node types (constant, power,
affine, piecewise-linear, product, sum, scale), all subclasses of
:class:`FunctionSpec`; a node holds its fields only and derives its
compiled closure, its s-expression text and the exponent p of its t^p
behaviour near 0 when first read.
The closed grammar is what makes bounds, Lipschitz constants,
nonnegativity and monotone directions certifiable instead of sampled
guesses. Each certificate is a function of the expression and an
interval [0, T], computed on the interval the caller reads; none is
stored on the spec and none is sampled. One walker, :func:`pieces`,
computes values: it splits a node on [0, t] into monomial pieces, each
with an enclosure. Bounds are the hull of those enclosures over [0, T]:
sound for every term, exact for every certified direction.

Specs serialize to s-expressions, e.g. ``(product (power 2) (const 1.5))``,
and round-trip exactly.
"""

from __future__ import annotations

import functools
import random
from bisect import bisect_right
from collections import namedtuple
from math import inf, isfinite

from .errors import DomainError, NotLipschitzError
from .qcore import _Validated

__all__ = [
    "Const",
    "Power",
    "Affine",
    "PiecewiseLinear",
    "Product",
    "Sum",
    "Scale",
    "FunctionSpec",
    "BoundsTriple",
    "LipschitzTriple",
    "FunctionFamily",
    "format_expr",
    "parse_function_spec",
    "compile_expr",
    "as_callable",
    "check_synchronous",
    "extract_bounds",
    "extract_lipschitz",
    "Piece",
    "generate_family",
    "generate_weight",
    "monotonicity_on",
    "nonnegative_on",
    "piece_product",
    "pieces",
]


class FunctionSpec(_Validated):
    """A DSL expression: the base class of the seven node types, each a
    namedtuple of its fields with this class first in its bases.

    ``c_lambda_exponent`` is the exponent p of its t^p behaviour near 0
    (:func:`c_lambda_exponent_of`), ``fn`` its compiled closure, which
    skips the domain check of ``__call__``, and ``to_sexpr()`` its
    canonical text; each is derived when first read and kept in the
    instance dict, as are its hash and ``_split_at``, the split
    :func:`pieces` made at the last t asked for.
    None is a field, so none is part of equality, hashing, repr or the
    pickled state. Two nodes are equal only if they have one type and
    equal fields; the hash is the tuple hash of the fields, so the node
    type is part of equality, not of the hash. Nodes are frozen. No
    certificate is stored: direction, bounds, nonnegativity and Lipschitz
    constants are computed from the tree on the [0, T] each caller reads
    (:func:`monotonicity_on`, :func:`extract_bounds`,
    :func:`nonnegative_on`, :func:`extract_lipschitz`).
    """

    _split_at = (None, ())  # (t, pieces(self, t)), set by pieces
    _hash = None  # the tuple hash over the fields, set by __hash__

    @functools.cached_property
    def c_lambda_exponent(self) -> float:
        return c_lambda_exponent_of(self)

    @functools.cached_property
    def fn(self) -> Callable[[float], float]:
        return compile_expr(self)

    @functools.cached_property
    def _sexpr(self) -> str:
        return format_expr(self)

    def __eq__(self, other):
        # False, not NotImplemented, so a plain tuple never equals a node
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        # kept once formed: the tuple hash walks the whole tree again
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = tuple.__hash__(self)
        return h

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), tuple(self))

    def __call__(self, t: float) -> float:
        if t < 0.0:
            raise DomainError(f"function domain is [0, inf), got t={t}")
        return self.fn(t)

    def to_sexpr(self) -> str:
        return self._sexpr


class Const(FunctionSpec, namedtuple("Const", "value")):
    """The constant value."""


class Power(FunctionSpec, namedtuple("Power", "exponent")):
    """t^exponent with exponent >= 0."""

    def __new__(cls, exponent):
        if exponent < 0:
            raise ValueError("power exponent must be >= 0")
        return super().__new__(cls, exponent)


class Affine(FunctionSpec, namedtuple("Affine", "slope intercept")):
    """slope * t + intercept."""


class PiecewiseLinear(FunctionSpec, namedtuple("PiecewiseLinear", "knots")):
    """Linear interpolation through knots (x_i, y_i), first knot at x = 0.

    Beyond the last knot the value is clamped to the last y, which keeps
    the monotonicity and range certificates valid on every [0, T].
    """

    def __new__(cls, knots):
        knots = tuple((float(x), float(y)) for x, y in knots)
        if len(knots) < 2:
            raise ValueError("piecewise_linear needs at least two knots")
        if knots[0][0] != 0.0:
            raise ValueError("first knot must sit at x = 0")
        xs = [x for x, _ in knots]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("knot abscissae must be strictly increasing")
        return super().__new__(cls, knots)


class Product(FunctionSpec, namedtuple("Product", "left right")):
    """left * right."""


class Sum(FunctionSpec, namedtuple("Sum", "left right")):
    """left + right."""


class Scale(FunctionSpec, namedtuple("Scale", "factor inner")):
    """factor * inner."""


# ---------------------------------------------------------------------------
# evaluation


# Bounded: any caller may compile trees without end (an oracle or a
# sweep over generated shapes), so an unbounded cache would grow with it.
@functools.lru_cache(maxsize=256)
def compile_expr(expr: FunctionSpec) -> Callable[[float], float]:
    """Compile an expression tree into a plain closure.

    Compiled evaluators assume t >= 0 (the domain check lives in
    FunctionSpec.__call__). A FunctionSpec compiles its tree when its
    ``fn`` is first read and keeps the closure; the cache shares subtrees
    between specs built from the same nodes.
    """
    if isinstance(expr, Const):
        c = expr.value
        return lambda t: c
    if isinstance(expr, Power):
        p = expr.exponent
        if p == 0.0:
            return lambda t: 1.0
        if p == 1.0:
            return lambda t: t
        return lambda t: t ** p
    if isinstance(expr, Affine):
        a, b = expr.slope, expr.intercept
        return lambda t: a * t + b
    if isinstance(expr, PiecewiseLinear):
        knots = expr.knots
        xs = tuple(x for x, _ in knots)
        ys = tuple(y for _, y in knots)
        last = len(knots) - 1

        def interp(t: float) -> float:
            if t >= xs[last]:
                return ys[last]
            i = bisect_right(xs, t) - 1
            if i < 0:
                return ys[0]
            x0, y0 = xs[i], ys[i]
            x1, y1 = xs[i + 1], ys[i + 1]
            return y0 + (y1 - y0) * (t - x0) / (x1 - x0)

        return interp
    if isinstance(expr, Product):
        lf = compile_expr(expr.left)
        rf = compile_expr(expr.right)
        return lambda t: lf(t) * rf(t)
    if isinstance(expr, Sum):
        lf = compile_expr(expr.left)
        rf = compile_expr(expr.right)
        return lambda t: lf(t) + rf(t)
    if isinstance(expr, Scale):
        c = expr.factor
        f = compile_expr(expr.inner)
        return lambda t: c * f(t)
    raise TypeError(f"unknown expression node {expr!r}")


# ---------------------------------------------------------------------------
# certified metadata


class Piece(namedtuple("Piece", "end poly lo hi mag err")):
    """One piece of an expression on [0, t]: expr(x) = sum_p c x^p
    (``poly`` = {p: c}) for x in [start, end) within [0, t], where start
    is the previous piece's end, or 0 for the first piece.

    ``lo`` and ``hi`` enclose the values on the piece. With b = min(end, t)
    the top of the piece, ``mag`` bounds sum_p |c| b^p through the
    expression tree, and ``err`` bounds sum_p |dc| b^p in units of the
    unit roundoff, dc the rounding the coefficients carry: a monomial sum
    that cancels, like y0 - s x0 of a piecewise-linear piece, keeps the
    rounding of its terms.
    """

    __slots__ = ()


def pieces(expr: FunctionSpec, t: float) -> tuple[Piece, ...]:
    """The pieces of expr on [0, t], in increasing x: every end but the
    last is a breakpoint below t, and the last end is >= t.

    The DSL's one value walker, one rule per node type: constants, powers
    and affine maps are one monomial sum everywhere (end = inf); a
    piecewise-linear node is affine between consecutive knots and constant
    past the last; scalings scale, and sums and products merge their
    operands' breakpoints. Zero coefficients are dropped, except in
    products. ``pieces(expr, t)[0]`` is the first piece, whose end is the
    first knot and whose polynomial is the same whatever t is. The split
    is kept on the node for the last t asked for (``_split_at``), and
    children are split through it, so the hypothesis checks and the
    operator rule of one case split each node once.
    """
    if expr._split_at[0] != t:
        expr.__dict__["_split_at"] = (t, _split(expr, t))
    return expr._split_at[1]


def _split(expr: FunctionSpec, t: float) -> tuple[Piece, ...]:
    if isinstance(expr, Const):
        c = expr.value
        return (Piece(inf, _nonzero({0.0: c}), c, c, abs(c), 0.0),)
    if isinstance(expr, Power):
        if expr.exponent == 0.0:
            return (Piece(inf, {0.0: 1.0}, 1.0, 1.0, 1.0, 0.0),)
        top = t ** expr.exponent
        return (Piece(inf, {expr.exponent: 1.0}, 0.0, top, top, 0.0),)
    if isinstance(expr, Affine):
        a, b = expr.slope, expr.intercept
        ends = (b, a * t + b)
        return (Piece(inf, _nonzero({0.0: b, 1.0: a}), min(ends), max(ends),
                      abs(b) + abs(a) * t, 0.0),)
    if isinstance(expr, PiecewiseLinear):
        out = []
        new = tuple.__new__  # skips namedtuple's Python-level __new__
        knots = expr.knots
        for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
            s = (y1 - y0) / (x1 - x0)
            c0 = y0 - s * x0
            poly = {0.0: c0, 1.0: s} if c0 and s else _nonzero({0.0: c0, 1.0: s})
            if x1 <= t:
                top, y_top = x1, y1
            else:  # the closure's formula, so an end is f(t) to the bit
                top, y_top = t, y0 + (y1 - y0) * (t - x0) / (x1 - x0)
            lo, hi = (y0, y_top) if y0 < y_top else (y_top, y0)
            # s and c0 carry at most 3 and 5 roundings of |y0| + |s| (x0 + x)
            out.append(new(Piece, (x1, poly, lo, hi, abs(c0) + abs(s) * top,
                                   5.0 * (abs(y0) + abs(s) * (x0 + top)))))
            if x1 >= t:
                return tuple(out)
        y = knots[-1][1]
        out.append(Piece(inf, _nonzero({0.0: y}), y, y, abs(y), 0.0))
        return tuple(out)
    if isinstance(expr, Scale):
        f = expr.factor
        out = []
        for pc in pieces(expr.inner, t):
            poly = _nonzero({p: f * c for p, c in pc.poly.items()})
            mag = abs(f) * pc.mag
            out.append(Piece(pc.end, poly, min(f * pc.lo, f * pc.hi),
                             max(f * pc.lo, f * pc.hi), mag,
                             abs(f) * pc.err + mag))
        return tuple(out)
    if isinstance(expr, (Sum, Product)):
        left, right = pieces(expr.left, t), pieces(expr.right, t)
        combine = piece_product if isinstance(expr, Product) else _piece_sum
        out, i, j = [], 0, 0
        while True:
            pc = combine(left[i], right[j])
            out.append(pc)
            if pc.end >= t:  # both operands are at their last piece
                return tuple(out)
            i += left[i].end == pc.end
            j += right[j].end == pc.end
    raise TypeError(f"unknown expression node {expr!r}")


def _piece_sum(left: Piece, right: Piece) -> Piece:
    """The sum of two pieces on their common part."""
    end_l, poly_l, lo_l, hi_l, mag_l, err_l = left
    end_r, poly_r, lo_r, hi_r, mag_r, err_r = right
    poly = dict(poly_l)
    for p, c in poly_r.items():
        poly[p] = poly.get(p, 0.0) + c
    mag = mag_l + mag_r
    return tuple.__new__(Piece, (end_l if end_l < end_r else end_r,
                                 _nonzero(poly), lo_l + lo_r, hi_l + hi_r,
                                 mag, err_l + err_r + mag))


def piece_product(left: Piece, right: Piece) -> Piece:
    """The product of two pieces on their common part. A coefficient of
    the product sums at most min(len) products of coefficients, each
    rounded, so len + len bounds their roundings in units of mag u."""
    end_l, poly_l, lo_l, hi_l, mag_l, err_l = left
    end_r, poly_r, lo_r, hi_r, mag_r, err_r = right
    if lo_l >= 0.0 and lo_r >= 0.0:
        lo, hi = lo_l * lo_r, hi_l * hi_r
    else:
        ends = (lo_l * lo_r, lo_l * hi_r, hi_l * lo_r, hi_l * hi_r)
        lo, hi = min(ends), max(ends)
    mag = mag_l * mag_r
    # tuple.__new__ skips namedtuple's Python-level __new__ on this hot path
    return tuple.__new__(Piece, (
        end_l if end_l < end_r else end_r, poly_product(poly_l, poly_r), lo,
        hi, mag, err_l * mag_r + mag_l * err_r
        + (len(poly_l) + len(poly_r)) * mag))


def poly_product(left: dict[float, float],
                 right: dict[float, float]) -> dict[float, float]:
    """Product of two monomial sums {p: c}."""
    out: dict[float, float] = {}
    for pl, cl in left.items():
        for pr, cr in right.items():
            out[pl + pr] = out.get(pl + pr, 0.0) + cl * cr
    return out


def _nonzero(poly: dict[float, float]) -> dict[float, float]:
    return {p: c for p, c in poly.items() if c != 0.0}


def _range(expr: FunctionSpec, T: float) -> tuple[float, float]:
    """Interval enclosure (lo, hi) of expr over [0, T], the hull of its
    pieces'; for a certified direction the ends are exactly f(0) and f(T)."""
    _, _, lo, hi, _, _ = zip(*pieces(expr, T))
    return min(lo), max(hi)


def _is_constant(expr: FunctionSpec, T: float) -> bool:
    """Whether expr is constant on [0, T]: its enclosure there is a point."""
    lo, hi = _range(expr, T)
    return lo == hi


def nonnegative_on(expr: FunctionSpec, T: float) -> bool:
    """Whether the interval enclosure of expr over [0, T] is >= 0."""
    return _range(expr, T)[0] >= 0.0


_FLIP = {"increasing": "decreasing", "decreasing": "increasing", "none": "none"}


def monotonicity_on(expr: FunctionSpec, T: float) -> str:
    """Certified monotone direction on [0, T].

    Terms constant on [0, T] are classified as (weakly) increasing, which
    keeps the direction of a sum or product with one sound since the
    defining inequalities are non-strict; :func:`check_synchronous` reads
    one as both directions. Returns "none" whenever the construction
    rules cannot certify a direction.
    """
    if isinstance(expr, Power) or _is_constant(expr, T):
        return "increasing"
    if isinstance(expr, Affine):
        return "increasing" if expr.slope >= 0.0 else "decreasing"
    if isinstance(expr, PiecewiseLinear):
        # the slopes of its pieces on [0, T]; knots past T do not count
        slopes = [pc.poly.get(1.0, 0.0) for pc in pieces(expr, T)]
        if all(s >= 0.0 for s in slopes):
            return "increasing"
        if all(s <= 0.0 for s in slopes):
            return "decreasing"
        return "none"
    if isinstance(expr, Scale):
        inner = monotonicity_on(expr.inner, T)
        return inner if expr.factor >= 0.0 else _FLIP[inner]
    if isinstance(expr, (Sum, Product)):
        # a constant keeps the other side's direction; a negative factor flips it
        for const, other in ((expr.left, expr.right), (expr.right, expr.left)):
            if _is_constant(const, T):
                m = monotonicity_on(other, T)
                if isinstance(expr, Sum) or _range(const, T)[0] >= 0.0:
                    return m
                return _FLIP[m]
        ml = monotonicity_on(expr.left, T)
        if ml != monotonicity_on(expr.right, T):
            return "none"
        # co-monotone factors keep their direction when both are nonnegative
        if isinstance(expr, Sum) or (nonnegative_on(expr.left, T)
                                     and nonnegative_on(expr.right, T)):
            return ml
    return "none"


def c_lambda_exponent_of(expr: FunctionSpec) -> float:
    """Exponent p such that expr(t) = t^p * (continuous on (0, inf)): the
    least power of the first piece, whose polynomial does not depend on
    t; 0 for a first piece that is zero. The split is the one the node
    keeps, at 1.0 only when it keeps none, so the memo is not replaced."""
    return min(pieces(expr, expr._split_at[0] or 1.0)[0].poly, default=0.0)


def as_callable(f) -> Callable[[float], float]:
    """The compiled closure of a FunctionSpec; any other callable as is."""
    return f.fn if isinstance(f, FunctionSpec) else f


# ---------------------------------------------------------------------------
# s-expression serialization


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def format_expr(expr: FunctionSpec) -> str:
    """Canonical s-expression text of an expression tree."""
    if isinstance(expr, Const):
        return f"(const {_fmt_num(expr.value)})"
    if isinstance(expr, Power):
        return f"(power {_fmt_num(expr.exponent)})"
    if isinstance(expr, Affine):
        return f"(affine {_fmt_num(expr.slope)} {_fmt_num(expr.intercept)})"
    if isinstance(expr, PiecewiseLinear):
        knots = " ".join(f"({_fmt_num(x)} {_fmt_num(y)})" for x, y in expr.knots)
        return f"(piecewise_linear {knots})"
    if isinstance(expr, Product):
        return f"(product {format_expr(expr.left)} {format_expr(expr.right)})"
    if isinstance(expr, Sum):
        return f"(sum {format_expr(expr.left)} {format_expr(expr.right)})"
    if isinstance(expr, Scale):
        return f"(scale {_fmt_num(expr.factor)} {format_expr(expr.inner)})"
    raise TypeError(f"unknown expression node {expr!r}")


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_tokens(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise ValueError("unexpected end of s-expression")
    tok = tokens[pos]
    if tok != "(":
        raise ValueError(f"expected '(' at token {pos}, got {tok!r}")
    pos += 1
    if pos >= len(tokens):
        raise ValueError("unexpected end of s-expression")
    head = tokens[pos]
    pos += 1

    def number() -> float:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] in "()":
            raise ValueError(f"expected a number in ({head} ...)")
        try:
            val = float(tokens[pos])
        except ValueError as exc:
            raise ValueError(f"bad number {tokens[pos]!r} in ({head} ...)") from exc
        if not isfinite(val):
            raise ValueError(f"non-finite number {tokens[pos]!r} in ({head} ...)")
        pos += 1
        return val

    def subexpr() -> FunctionSpec:
        nonlocal pos
        node, pos = _parse_tokens(tokens, pos)
        return node

    def close() -> None:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ValueError(f"missing ')' after ({head} ...)")
        pos += 1

    if head == "const":
        node: FunctionSpec = Const(number())
    elif head == "power":
        node = Power(number())
    elif head == "affine":
        node = Affine(number(), number())
    elif head == "piecewise_linear":
        knots = []
        while pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            x = number()
            y = number()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("malformed knot in (piecewise_linear ...)")
            pos += 1
            knots.append((x, y))
        node = PiecewiseLinear(tuple(knots))
    elif head == "product":
        node = Product(subexpr(), subexpr())
    elif head == "sum":
        node = Sum(subexpr(), subexpr())
    elif head == "scale":
        node = Scale(number(), subexpr())
    else:
        raise ValueError(f"unknown s-expression head {head!r}")
    close()
    return node, pos


def parse_function_spec(text: str) -> FunctionSpec:
    """Parse the canonical s-expression grammar back into a tree."""
    tokens = _tokenize(text)
    node, pos = _parse_tokens(tokens, 0)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens after s-expression: {tokens[pos:]}")
    return node


# ---------------------------------------------------------------------------
# synchronicity, bounds, Lipschitz


def check_synchronous(f: FunctionSpec, g: FunctionSpec, T: float) -> str:
    """Classify a pair on [0, T] from the directions :func:`monotonicity_on`
    certifies for their expressions: "synchronous" for the same direction,
    "asynchronous" for opposite ones, and "none" when either has no
    certified direction on [0, T]. A function constant on [0, T] makes
    every product (f(x) - f(y))(g(x) - g(y)) with x, y in [0, T] zero, so
    a pair with one is "both" synchronous and asynchronous. Nothing is
    sampled.
    """
    if _is_constant(f, T) or _is_constant(g, T):
        return "both"
    df, dg = monotonicity_on(f, T), monotonicity_on(g, T)
    if "none" in (df, dg):
        return "none"
    return "synchronous" if df == dg else "asynchronous"


def extract_bounds(spec: FunctionSpec, T: float) -> tuple[float, float]:
    """Certified (min, max) bounds of the spec over [0, T]: an interval
    enclosure with no sampled fallback, sound for every spec and exactly
    (min, max) of f(0) and f(T) for every spec with a certified direction."""
    if not T > 0.0:
        raise ValueError("T must be positive")
    return _range(spec, T)


def extract_lipschitz(spec: FunctionSpec, T: float) -> float:
    """Certified Lipschitz constant on [0, T].

    |slope| for affine, the largest |slope| of the pieces that start below
    T for piecewise-linear, p*T^(p-1) for power(p >= 1), sum/product rules
    (each sup|factor| from the interval enclosure of extract_bounds) for
    composites. power(p) with 0 < p < 1 has an unbounded difference
    quotient at 0 and raises NotLipschitzError.
    """
    if not T > 0.0:
        raise ValueError("T must be positive")
    return _lipschitz(spec, T)


def _lipschitz(expr: FunctionSpec, T: float) -> float:
    if isinstance(expr, Const):
        return 0.0
    if isinstance(expr, Power):
        p = expr.exponent
        if p == 0.0:
            return 0.0
        if p < 1.0:
            raise NotLipschitzError(
                f"t^{p} has unbounded difference quotient at 0"
            )
        return p * T ** (p - 1.0)
    if isinstance(expr, Affine):
        return abs(expr.slope)
    if isinstance(expr, PiecewiseLinear):
        knots = expr.knots
        return max(
            abs((y1 - y0) / (x1 - x0))
            for (x0, y0), (x1, y1) in zip(knots, knots[1:]) if x0 < T
        )
    if isinstance(expr, Sum):
        return _lipschitz(expr.left, T) + _lipschitz(expr.right, T)
    if isinstance(expr, Scale):
        return abs(expr.factor) * _lipschitz(expr.inner, T)
    if isinstance(expr, Product):
        return (_lipschitz(expr.left, T) * max(map(abs, _range(expr.right, T)))
                + _lipschitz(expr.right, T) * max(map(abs, _range(expr.left, T))))
    raise TypeError(f"unknown expression node {expr!r}")


# ---------------------------------------------------------------------------
# certificates and seeded family generation


class BoundsTriple(_Validated, namedtuple("BoundsTriple",
                                          "psi Psi phi Phi omega Omega")):
    """Lower/upper bounds for the three functions of a bounded triple."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.psi > self.Psi or self.phi > self.Phi or self.omega > self.Omega:
            raise ValueError("each lower bound must not exceed its upper bound")
        return self


class LipschitzTriple(_Validated, namedtuple("LipschitzTriple", "L1 L2 L3")):
    """Lipschitz constants for the three functions of a triple."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if min(self.L1, self.L2, self.L3) < 0.0:
            raise ValueError("Lipschitz constants must be nonnegative")
        return self


class FunctionFamily(namedtuple("FunctionFamily",
                                "kind f g h bounds lipschitz",
                                defaults=(None, None))):
    """A generated triple f, g, h of one family kind, with the bounds or
    Lipschitz certificates the kind carries."""

    __slots__ = ()

    @property
    def specs(self) -> tuple[FunctionSpec, FunctionSpec, FunctionSpec]:
        return (self.f, self.g, self.h)


FAMILY_KINDS = (
    "synchronous_triple",
    "asynchronous_pair_plus_nonneg",
    "bounded_triple",
    "lipschitz_triple",
)


def _increasing_atom(rng: random.Random, T: float,
                     lipschitz_safe: bool) -> FunctionSpec:
    kind = rng.randrange(3)
    if kind == 0:
        return Affine(rng.uniform(0.1, 2.0), rng.uniform(0.0, 2.0))
    if kind == 1:
        if lipschitz_safe:
            return Power(float(rng.choice((1, 2, 3))))
        return Power(float(rng.choice((0.5, 1.0, 1.5, 2.0, 3.0))))
    n_inner = rng.randint(1, 3)
    cuts = sorted(rng.uniform(0.1 * T, 0.9 * T) for _ in range(n_inner))
    xs = [0.0]
    for c in cuts:
        if c > xs[-1] + 1e-9 * T:
            xs.append(c)
    xs.append(T)
    y = rng.uniform(0.0, 1.0)
    knots = [(xs[0], y)]
    for x in xs[1:]:
        y += rng.uniform(0.1, 1.5)
        knots.append((x, y))
    return PiecewiseLinear(tuple(knots))


def _increasing_expr(rng: random.Random, T: float,
                     lipschitz_safe: bool) -> FunctionSpec:
    # All atoms are nonnegative and increasing, so sums, products and
    # positive scalings keep a certified increasing direction.
    roll = rng.random()
    if roll < 0.55:
        return _increasing_atom(rng, T, lipschitz_safe)
    if roll < 0.80:
        return Sum(_increasing_atom(rng, T, lipschitz_safe),
                   _increasing_atom(rng, T, lipschitz_safe))
    if roll < 0.92:
        return Product(_increasing_atom(rng, T, lipschitz_safe),
                       _increasing_atom(rng, T, lipschitz_safe))
    return Scale(rng.uniform(0.2, 2.0), _increasing_atom(rng, T, lipschitz_safe))


def _decreasing_expr(rng: random.Random, T: float) -> FunctionSpec:
    if rng.random() < 0.5:
        slope = -rng.uniform(0.1, 2.0)
        return Affine(slope, rng.uniform(0.0, 2.0) - slope * T)
    return Sum(Scale(-1.0, _increasing_atom(rng, T, True)),
               Const(rng.uniform(0.0, 3.0)))


def generate_family(kind: str, seed: int, T: float) -> FunctionFamily:
    """Deterministically generate a function triple with certificates.

    synchronous_triple / bounded_triple / lipschitz_triple produce three
    increasing nonnegative specs (pairwise synchronous by construction),
    the latter two attaching a BoundsTriple / LipschitzTriple certified
    on [0, T]. asynchronous_pair_plus_nonneg produces f increasing, g
    decreasing (so f, g are certified asynchronous) and h nonnegative,
    the sign condition under which the product-form inequalities reverse.
    """
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    if not T > 0.0:
        raise ValueError("T must be positive")
    rng = random.Random(seed)
    lipschitz_safe = kind == "lipschitz_triple"
    if kind == "asynchronous_pair_plus_nonneg":
        f = _increasing_expr(rng, T, True)
        g = _decreasing_expr(rng, T)
        h = _increasing_atom(rng, T, True)
        return FunctionFamily(kind, f, g, h)
    f = _increasing_expr(rng, T, lipschitz_safe)
    g = _increasing_expr(rng, T, lipschitz_safe)
    h = _increasing_expr(rng, T, lipschitz_safe)
    if kind == "bounded_triple":
        bounds = BoundsTriple(*extract_bounds(f, T), *extract_bounds(g, T),
                              *extract_bounds(h, T))
        return FunctionFamily(kind, f, g, h, bounds=bounds)
    if kind == "lipschitz_triple":
        trip = LipschitzTriple(*(extract_lipschitz(s, T) for s in (f, g, h)))
        return FunctionFamily(kind, f, g, h, lipschitz=trip)
    return FunctionFamily(kind, f, g, h)


def generate_weight(seed: int, T: float) -> FunctionSpec:
    """Deterministically generate a nonnegative continuous weight spec."""
    rng = random.Random(seed)
    roll = rng.random()
    if roll < 0.25:
        expr: FunctionSpec = Const(rng.uniform(0.2, 2.0))
    elif roll < 0.5:
        expr = Affine(rng.uniform(0.0, 1.5), rng.uniform(0.1, 2.0))
    elif roll < 0.7:
        expr = Power(float(rng.choice((1, 2))))
    elif roll < 0.9:
        expr = _increasing_atom(rng, T, True)
    else:
        expr = Product(_increasing_atom(rng, T, True),
                       _increasing_atom(rng, T, True))
    return expr
