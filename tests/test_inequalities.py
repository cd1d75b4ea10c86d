"""Inequality evaluators: kernel identities, margin signs on known cases,
reduction chains, hypothesis enforcement, and verdict semantics."""

import math
import random

import pytest

from qek import ekoperator, inequalities
from qek.cli import CampaignConfig, _index_reports, derive_case
from qek.ekoperator import OperatorParams, OperatorRule, ek_integral
from qek.errors import HypothesisViolatedError, NotConvergedError
from qek.functions import (
    BoundsTriple,
    LipschitzTriple,
    check_synchronous,
    generate_family,
    generate_weight,
    parse_function_spec,
)
from qek.inequalities import (
    SAFETY_FACTOR,
    TheoremCase,
    evaluate_case,
    proof_kernel_A,
)
from qek.qcore import DeformationParam, TruncationPolicy

U1 = parse_function_spec("(const 1)")
IDENT = parse_function_spec("(power 1)")
CONST2 = parse_function_spec("(const 2)")
DEC = parse_function_spec("(affine -1 2)")


def make_case(theorem_id, f, g, h, u=U1, v=None, t=1.0, q1=0.5, q2=0.5,
              p1=(0.0, 1.0, 1.0), p2=(0.0, 1.0, 1.0), bounds=None,
              lipschitz=None, reversed=False):
    return TheoremCase(
        theorem_id=theorem_id, t=t,
        q1=DeformationParam(q1), q2=DeformationParam(q2),
        p1=OperatorParams(*p1), p2=OperatorParams(*p2),
        u=u, f=f, g=g, h=h, v=v, bounds=bounds, lipschitz=lipschitz,
        reversed=reversed,
    )


class TestProofKernel:
    def test_constants_vanish(self):
        c = lambda t: 3.0  # noqa: E731
        assert proof_kernel_A(c, c, c, 2.0, 1.0) == 0.0

    def test_equal_arguments_vanish(self):
        f = lambda t: t * t  # noqa: E731
        assert proof_kernel_A(f, f, f, 1.5, 1.5) == 0.0

    def test_identity_functions_hand_value(self):
        ident = lambda t: t  # noqa: E731
        # eight-term expansion at (2, 1) collapses to (2-1)^3
        assert proof_kernel_A(ident, ident, ident, 2.0, 1.0) == pytest.approx(1.0)

    def test_matches_difference_product_at_random_pairs(self):
        rng = random.Random(101)
        for trial in range(100):
            fam = generate_family("synchronous_triple", trial, 2.0)
            f, g, h = fam.specs
            tau, rho = rng.uniform(0, 2), rng.uniform(0, 2)
            direct = proof_kernel_A(f, g, h, tau, rho)
            factored = ((f(tau) - f(rho)) * (g(tau) - g(rho))
                        * (h(tau) - h(rho)))
            assert direct == pytest.approx(factored, rel=1e-12, abs=1e-12)

    def test_antisymmetry_at_random_pairs(self):
        rng = random.Random(202)
        for trial in range(100):
            fam = generate_family("lipschitz_triple", trial, 2.0)
            f, g, h = fam.specs
            tau, rho = rng.uniform(0, 2), rng.uniform(0, 2)
            fwd = proof_kernel_A(f, g, h, tau, rho)
            bwd = proof_kernel_A(f, g, h, rho, tau)
            assert fwd == pytest.approx(-bwd, rel=1e-12, abs=1e-12)


class TestTheoremCaseValidation:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            make_case("T9", IDENT, IDENT, IDENT)

    def test_missing_v(self):
        with pytest.raises(ValueError):
            make_case("T2", IDENT, IDENT, IDENT)

    def test_missing_bounds(self):
        with pytest.raises(ValueError):
            make_case("T3", IDENT, IDENT, IDENT)

    def test_missing_lipschitz(self):
        with pytest.raises(ValueError):
            make_case("T5", IDENT, IDENT, IDENT)

    @pytest.mark.parametrize("theorem", ["T1", "T2", "T3", "T4", "T5", "T6"])
    def test_only_chebyshev_cases_reverse(self, theorem):
        case = derive_case(CampaignConfig(theorems=(theorem,), seed=1),
                           theorem, 0)
        assert not case.reversed
        if theorem in ("T1", "T2"):
            assert case._replace(reversed=True).reversed
        else:
            with pytest.raises(ValueError, match="no reversed form"):
                case._replace(reversed=True)


class TestTheoremOne:
    def test_constant_triple_margin_zero(self):
        case = make_case("T1", CONST2, CONST2, CONST2, q2=0.7,
                         p1=(0.5, 1.5, 2.0))
        rep = evaluate_case(case)
        scale = max(1.0, abs(rep.lhs), abs(rep.rhs))
        assert abs(rep.margin) <= 1e-12 * scale

    def test_identity_triple_holds(self):
        case = make_case("T1", IDENT, IDENT, IDENT)
        rep = evaluate_case(case)
        assert rep.margin >= 0.0
        assert rep.verdict == "holds"
        assert rep.operator_evals == 16

    def test_reversal_case_nonpositive_margin(self):
        case = make_case("T1", IDENT, DEC, U1, reversed=True)
        rep = evaluate_case(case)
        assert rep.margin <= 0.0

    def test_synchronicity_enforced(self):
        case = make_case("T1", IDENT, DEC, U1)
        with pytest.raises(HypothesisViolatedError):
            evaluate_case(case)

    def test_negative_h_rejected(self):
        # f = g = h synchronous but negative on [0, t]: without the h >= 0
        # check this case reported margin -4.42, "violated"
        case = derive_case(CampaignConfig(theorems=("T1",), seed=1), "T1", 0)
        neg = parse_function_spec("(affine 1 -5)")
        bad = case._replace(f=neg, g=neg, h=neg)
        with pytest.raises(HypothesisViolatedError, match="h must map"):
            evaluate_case(bad)

    def test_reversal_hypotheses_enforced(self):
        case = make_case("T1", IDENT, IDENT, IDENT, reversed=True)
        with pytest.raises(HypothesisViolatedError):
            evaluate_case(case)

    def test_negative_weight_rejected(self):
        bad_u = parse_function_spec("(affine 1 -0.5)")
        case = make_case("T1", IDENT, IDENT, IDENT, u=bad_u)
        with pytest.raises(HypothesisViolatedError):
            evaluate_case(case)

    def test_constant_f_is_synchronous_and_asynchronous(self):
        # a constant f is synchronous and asynchronous with a decreasing g;
        # the exact margin is 0
        for reversed_ in (False, True):
            case = make_case("T1", CONST2, DEC, DEC, reversed=reversed_)
            rep = evaluate_case(case)
            assert rep.verdict == "inconclusive"
            assert abs(rep.margin) <= rep.worst_tail

    def test_not_converged_goes_inconclusive(self):
        # at mu = 1.5 the tail's log-space product needs more than 5 factors
        case = make_case("T1", IDENT, IDENT, IDENT, q1=0.9, p1=(0.0, 1.5, 1.0))
        rep = evaluate_case(case, TruncationPolicy(max_terms=5))
        assert rep.verdict == "inconclusive"
        assert rep.notes
        assert math.isnan(rep.margin)

    def test_not_converged_note_names_the_operator(self):
        # the first operator read, side 1's u alone, is the one that fails
        policy = TruncationPolicy(max_terms=5)
        case = make_case("T1", IDENT, IDENT, IDENT, q1=0.9, p1=(0.0, 1.5, 1.0))
        rep = evaluate_case(case, policy)
        rule = OperatorRule(case.t, case.p1, case.q1, {"u": case.u}, policy)
        with pytest.raises(NotConvergedError) as info:
            rule.apply(("u",))
        partial = info.value.partial
        (note,) = rep.notes
        assert note.startswith("not converged: side 1 operator of u*1 (moment 0):"
                               f" partial value {partial.value!r} from"
                               f" {partial.terms_used} terms;")
        assert rep.operator_evals == 1

    def test_scale_covariance(self):
        base = make_case("T1", IDENT, IDENT, IDENT,
                         u=parse_function_spec("(affine 1 0.5)"),
                         q2=0.7, p2=(0.5, 1.5, 2.0))
        scaled = base._replace(u=parse_function_spec("(scale 3 (affine 1 0.5))"))
        rep1 = evaluate_case(base)
        rep9 = evaluate_case(scaled)
        assert rep9.margin == pytest.approx(9.0 * rep1.margin, rel=1e-12)

    def test_random_synchronous_cases_hold(self):
        for seed in range(25):
            fam = generate_family("synchronous_triple", seed, 1.0)
            case = make_case("T1", fam.f, fam.g, fam.h,
                             u=generate_weight(seed, 1.0),
                             q1=0.6, q2=0.4, p1=(0.5, 0.7, 2.0),
                             p2=(-0.5, 1.3, 0.5))
            rep = evaluate_case(case)
            assert rep.verdict != "violated"


class TestTheoremTwo:
    def test_reduces_to_theorem_one_when_v_equals_u(self):
        u = generate_weight(5, 1.0)
        fam = generate_family("synchronous_triple", 5, 1.0)
        base = make_case("T1", fam.f, fam.g, fam.h, u=u, q2=0.7,
                         p2=(0.5, 1.5, 2.0))
        two = base._replace(theorem_id="T2", v=u)
        rep1 = evaluate_case(base)
        rep2 = evaluate_case(two)
        assert abs(rep2.margin - rep1.margin) <= 1e-13 * max(1.0, abs(rep1.margin))

    def test_distinct_weights_hold(self):
        fam = generate_family("synchronous_triple", 8, 1.0)
        case = make_case("T2", fam.f, fam.g, fam.h, u=U1,
                         v=parse_function_spec("(power 1)"))
        rep = evaluate_case(case)
        assert rep.margin >= -SAFETY_FACTOR * rep.worst_tail
        assert rep.verdict != "violated"


class TestTheoremThree:
    def test_constant_triple(self):
        bounds = BoundsTriple(2.0, 2.0, 2.0, 2.0, 2.0, 2.0)
        case = make_case("T3", CONST2, CONST2, CONST2, bounds=bounds)
        rep = evaluate_case(case)
        assert rep.lhs <= 1e-12
        assert rep.rhs == 0.0

    def test_seeded_bounded_triple_holds(self):
        fam = generate_family("bounded_triple", 7, 1.0)
        case = make_case("T3", fam.f, fam.g, fam.h, bounds=fam.bounds)
        rep = evaluate_case(case)
        assert rep.margin >= 0.0
        assert rep.verdict == "holds"

    def test_tight_unit_bounds_hold(self):
        bounds = BoundsTriple(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
        case = make_case("T3", IDENT, IDENT, IDENT, bounds=bounds)
        rep = evaluate_case(case)
        assert rep.margin >= 0.0

    def test_escaping_bounds_detected(self):
        bounds = BoundsTriple(0.0, 0.5, 0.0, 1.0, 0.0, 1.0)  # f escapes 0.5
        case = make_case("T3", IDENT, IDENT, IDENT, bounds=bounds)
        with pytest.raises(HypothesisViolatedError):
            evaluate_case(case)


class TestTheoremFour:
    def test_reduces_to_theorem_three_when_v_equals_u(self):
        fam = generate_family("bounded_triple", 11, 1.0)
        u = generate_weight(11, 1.0)
        base = make_case("T3", fam.f, fam.g, fam.h, u=u, bounds=fam.bounds,
                         q1=0.3, q2=0.8, p1=(1.0, 0.5, 1.0), p2=(0.0, 2.0, 2.0))
        four = base._replace(theorem_id="T4", v=u)
        rep3 = evaluate_case(base)
        rep4 = evaluate_case(four)
        assert abs(rep4.margin - rep3.margin) <= 1e-13 * max(1.0, abs(rep3.margin))

    def test_two_weight_case_holds(self):
        fam = generate_family("bounded_triple", 11, 1.0)
        case = make_case("T4", fam.f, fam.g, fam.h, bounds=fam.bounds,
                         v=parse_function_spec("(power 2)"))
        rep = evaluate_case(case)
        assert rep.margin >= 0.0


class TestTheoremFive:
    def test_constant_triple_zero_both_sides(self):
        trip = LipschitzTriple(0.0, 0.0, 0.0)
        case = make_case("T5", CONST2, CONST2, CONST2, lipschitz=trip)
        rep = evaluate_case(case)
        assert rep.lhs <= 1e-12
        assert rep.rhs == 0.0
        assert rep.bracket is not None

    def test_symmetric_identity_case_vanishes(self):
        trip = LipschitzTriple(1.0, 1.0, 1.0)
        case = make_case("T5", IDENT, IDENT, IDENT, lipschitz=trip)
        rep = evaluate_case(case)
        # identical weights and parameters on both sides: the combination
        # and the cubic bracket are antisymmetric, so both cancel exactly
        assert rep.lhs == 0.0
        assert rep.bracket == 0.0

    def test_seeded_case_reports_bracket(self):
        fam = generate_family("lipschitz_triple", 13, 1.0)
        case = make_case("T5", fam.f, fam.g, fam.h, lipschitz=fam.lipschitz,
                         q1=0.4, q2=0.7, p1=(0.0, 1.0, 1.0), p2=(0.5, 0.5, 2.0))
        rep = evaluate_case(case)
        assert rep.bracket is not None
        assert rep.verdict in ("holds", "violated", "inconclusive")

    def test_undersized_certificate_detected(self):
        trip = LipschitzTriple(0.1, 1.0, 1.0)  # identity needs L >= 1
        case = make_case("T5", IDENT, IDENT, IDENT, lipschitz=trip)
        with pytest.raises(HypothesisViolatedError):
            evaluate_case(case)


class TestTheoremSix:
    def test_reduces_to_theorem_five_when_v_equals_u(self):
        fam = generate_family("lipschitz_triple", 17, 1.0)
        u = generate_weight(17, 1.0)
        base = make_case("T5", fam.f, fam.g, fam.h, u=u,
                         lipschitz=fam.lipschitz, q1=0.35, q2=0.75,
                         p1=(0.5, 1.5, 0.5), p2=(-0.5, 0.7, 1.0))
        six = base._replace(theorem_id="T6", v=u)
        rep5 = evaluate_case(base)
        rep6 = evaluate_case(six)
        assert abs(rep6.margin - rep5.margin) <= 1e-13 * max(1.0, abs(rep5.margin))
        assert rep6.bracket == pytest.approx(rep5.bracket, rel=1e-13)

    def test_two_weight_case_runs_and_flags_consistently(self):
        fam = generate_family("lipschitz_triple", 17, 1.0)
        v = parse_function_spec("(affine 1 1)")
        case = make_case("T6", fam.f, fam.g, fam.h, v=v,
                         lipschitz=fam.lipschitz, q1=0.5, q2=0.6,
                         p1=(0.0, 1.0, 1.0), p2=(0.5, 0.7, 2.0))
        rep = evaluate_case(case)
        assert rep.bracket is not None
        # recompute the eight combination terms to confirm the dominance flag
        def op(params, q, w, names):
            fns = {"f": case.f, "g": case.g, "h": case.h}
            prod = lambda s: w(s) * math.prod(fns[n](s) for n in names)  # noqa: E731
            return ek_integral(prod, case.t, params, q).value

        pairs = [("fgh", ""), ("h", "fg"), ("g", "fh"), ("f", "gh"),
                 ("gh", "f"), ("fh", "g"), ("fg", "h"), ("", "fgh")]
        magnitudes = [abs(op(case.p1, case.q1, case.u, s1)
                          * op(case.p2, case.q2, v, s2))
                      for s1, s2 in pairs]
        corrected = magnitudes[3]  # the (f | gh) product
        flagged = "corrected q2-weight term dominates combination" in rep.notes
        assert flagged == (corrected >= max(magnitudes))


class TestCertifiedHypotheses:
    # Each hypothesis is false only between the points a sampled check
    # would read; the interval enclosure cannot certify any of them.
    @pytest.mark.parametrize("theorem, fields, false_at", [
        # u = (t - 0.51)^2 - 1e-6 is -1e-6 at t = 0.51
        ("T1", {"u": parse_function_spec(
            "(sum (product (affine 1 -0.51) (affine 1 -0.51)) (const -1e-06))")},
         lambda c: c.u(0.51) < 0.0),
        # f = t (0.3 - t) reaches 0.0225 at t = 0.15, above Psi = 0.02249
        ("T3", {"f": parse_function_spec("(product (affine 1 0) (affine -1 0.3))"),
                "bounds": BoundsTriple(-0.7, 0.02249, 0.0, 1.0, 0.0, 1.0)},
         lambda c: c.f(0.15) > c.bounds.Psi),
        # sqrt(t) has an unbounded difference quotient at 0
        ("T5", {"f": parse_function_spec("(power 0.5)"),
                "lipschitz": LipschitzTriple(10.0, 1.0, 1.0)},
         lambda c: c.f(1e-4) / 1e-4 > c.lipschitz.L1),
    ], ids=["T1-negative-u", "T3-escaping-Psi", "T5-sqrt-L1"])
    def test_false_hypothesis_rejected(self, theorem, fields, false_at):
        case = make_case(theorem, IDENT, IDENT, IDENT,
                         bounds=BoundsTriple(0.0, 1.0, 0.0, 1.0, 0.0, 1.0),
                         lipschitz=LipschitzTriple(1.0, 1.0, 1.0))._replace(
                             **fields)
        assert false_at(case)
        with pytest.raises(HypothesisViolatedError, match="cannot certify"):
            evaluate_case(case)

    # f and g have no certified common (or opposite) direction on [0, t];
    # each witness is a pair of points where the hypothesis fails
    @pytest.mark.parametrize("f, g, h, t, reverse, broken", [
        # t (0.05 - t) rises on [0, 0.025] while g falls
        ("(product (affine 1 0) (affine -1 0.05))", "(affine -1 1)",
         "(affine -1 1)", 1.0, False,
         lambda f, g: (f(0.02) - f(0.0)) * (g(0.02) - g(0.0)) < 0.0),
        # f and g both rise on [0, 0.025], so they are not asynchronous
        ("(product (affine 1 0) (affine -1 0.05))", "(power 1)",
         "(const 1)", 1.0, True,
         lambda f, g: (f(0.02) - f(0.0)) * (g(0.02) - g(0.0)) > 0.0),
        # (1 - t)^2 falls on [0, 1] and rises on [1, 2] while g falls
        ("(product (affine -1 1) (affine -1 1))", "(affine -1 3)",
         "(affine -1 3)", 2.0, False,
         lambda f, g: (f(2.0) - f(1.0)) * (g(2.0) - g(1.0)) < 0.0),
    ], ids=["T1-rising-then-falling-f", "T1-reversed-rising-pair",
            "T1-square-past-its-minimum"])
    def test_uncertified_synchrony_rejected(self, f, g, h, t, reverse, broken):
        case = make_case("T1", parse_function_spec(f), parse_function_spec(g),
                         parse_function_spec(h), t=t, reversed=reverse)
        assert broken(case.f, case.g)
        with pytest.raises(HypothesisViolatedError,
                           match="f and g must be .* cannot be certified"):
            evaluate_case(case)

    def test_true_but_uncertified_bound_rejected(self):
        # Psi = 0.0225 is the true maximum, but the enclosure of the product
        # of a rising and a falling factor reaches up to 0.3
        f = parse_function_spec("(product (affine 1 0) (affine -1 0.3))")
        case = make_case("T3", f, IDENT, IDENT,
                         bounds=BoundsTriple(-0.7, 0.0225, 0.0, 1.0, 0.0, 1.0))
        with pytest.raises(HypothesisViolatedError, match="cannot certify f"):
            evaluate_case(case)


class TestVerdictSemantics:
    def test_inconclusive_band(self):
        # margin exactly zero with nonzero tails must be inconclusive
        case = make_case("T1", CONST2, CONST2, CONST2)
        rep = evaluate_case(case)
        assert rep.worst_tail > 0.0
        assert abs(rep.margin) <= rep.worst_tail * SAFETY_FACTOR
        assert rep.verdict == "inconclusive"

    def test_report_invariant_on_sample(self):
        for seed in range(10):
            fam = generate_family("synchronous_triple", seed, 1.0)
            case = make_case("T1", fam.f, fam.g, fam.h,
                             u=generate_weight(seed + 50, 1.0))
            rep = evaluate_case(case)
            if abs(rep.margin) <= rep.worst_tail * SAFETY_FACTOR:
                assert rep.verdict == "inconclusive"
            else:
                assert rep.verdict in ("holds", "violated")

    @pytest.mark.parametrize("grid", [(0.3, 0.6, 0.9), (0.97, 0.99)])
    @pytest.mark.parametrize("theorem", ["T1", "T2"])
    def test_equality_set_is_inconclusive(self, theorem, grid):
        # a constant f makes both sides equal, so the exact margin is 0:
        # neither "holds" nor "violated" may come out
        config = CampaignConfig(theorems=(theorem,), seed=1,
                                q1_grid=grid, q2_grid=grid)
        flat = parse_function_spec("(const 1.7)")
        for index in range(50):
            case = derive_case(config, theorem, index)._replace(f=flat)
            rep = evaluate_case(case, config.policy)
            assert rep.verdict == "inconclusive", (index, rep.margin)


def _composed(factors, moment):
    """s^moment * w(s) * a(s) * ... as one plain function, multiplied left
    to right: the integrand of one operator value a case requests."""
    def fn(s):
        acc = s ** moment
        for factor in factors:
            acc = acc * factor(s)
        return acc
    return fn


class TestCaseRuleEquivalence:
    """Every operator value a case requests from its per-side rules agrees
    with ek_integral of the composed integrand, which shares no arithmetic
    with the rule's pieces and closed forms, within the two reported
    tails, and worst_tail is the largest tail among the case's
    evaluations."""

    @pytest.mark.parametrize("grid,cases", [((0.3, 0.6, 0.9), 4),
                                            ((0.97, 0.99), 1)])
    @pytest.mark.parametrize("theorem", ["T1", "T2", "T3", "T4", "T5", "T6"])
    def test_values_match_composed_series(self, monkeypatch, theorem, grid,
                                          cases):
        requests = []
        ops_seen = []
        applied = []
        original_value = inequalities._CaseOps.value
        original_apply = OperatorRule.apply

        def recording_apply(self, names, moment=0):
            res = original_apply(self, names, moment)
            applied.append(res)
            return res

        def recording(self, side, subset, weight="u", moment=0):
            if not ops_seen or ops_seen[-1] is not self:
                ops_seen.append(self)
            before = self.evals
            val = original_value(self, side, subset, weight, moment)
            if self.evals > before:  # a memo miss: one request of a value
                key = self._rules[side].value_key((weight, *subset), moment)
                res = self._results[key]
                assert val == res.value
                requests.append((side, subset, weight, moment, res, key))
            return val

        monkeypatch.setattr(OperatorRule, "apply", recording_apply)
        monkeypatch.setattr(inequalities._CaseOps, "value", recording)
        config = CampaignConfig(theorems=(theorem,), seed=1,
                                q1_grid=grid, q2_grid=grid)
        for index in range(cases):
            case = derive_case(config, theorem, index)
            for log in (requests, ops_seen, applied):
                log.clear()
            rep = evaluate_case(case, config.policy)
            assert requests and len(ops_seen) == 1
            names = {"f": case.f, "g": case.g, "h": case.h, "u": case.u,
                     "v": case.v}
            # one rule evaluation per distinct value, each of them requested
            assert len(applied) == len({r[5] for r in requests})
            assert {id(res) for res in applied} == {id(r[4]) for r in requests}
            for side, subset, weight, moment, res, _ in requests:
                q, p = ((case.q1, case.p1) if side == 1
                        else (case.q2, case.p2))
                factors = [names[n].fn for n in (weight, *subset)]
                ref = ek_integral(_composed(factors, moment), case.t, p, q,
                                  config.policy)
                gap = abs(res.value - ref.value)
                assert gap <= res.tail_estimate + ref.tail_estimate
            assert rep.worst_tail == max(r[4].tail_estimate for r in requests)
            assert rep.operator_evals == len(requests)


def _bits(res):
    """Every field of a result, floats by their exact hex digits."""
    return tuple(x.hex() if isinstance(x, float) else x
                 for x in res)


class TestSharedFactorTable:
    """The two sides of a case share one factor table (the factors' pieces
    and the pieces of their products), which depends on the factors and t
    only; side 2 builds its own node indices, weights and sums."""

    @pytest.mark.parametrize("grid", [(0.3, 0.6, 0.9), (0.97, 0.99)])
    @pytest.mark.parametrize("theorem", ["T1", "T2", "T3", "T4", "T5", "T6"])
    def test_side_two_matches_an_independent_rule(self, monkeypatch, theorem,
                                                  grid):
        split, side_two, applied = [], [], []
        pieces = ekoperator.pieces
        at, apply = OperatorRule.at, OperatorRule.apply

        def counted_pieces(expr, t):
            split.append(expr)
            return pieces(expr, t)

        def recording_at(self, p, q):
            rule = at(self, p, q)
            side_two.append((self, rule))
            return rule

        def recording_apply(self, names, moment=0):
            res = apply(self, names, moment)
            applied.append((self, names, moment, res))
            return res

        monkeypatch.setattr(ekoperator, "pieces", counted_pieces)
        monkeypatch.setattr(OperatorRule, "at", recording_at)
        monkeypatch.setattr(OperatorRule, "apply", recording_apply)
        config = CampaignConfig(theorems=(theorem,), seed=1,
                                q1_grid=grid, q2_grid=grid)
        for index in range(8):
            case = derive_case(config, theorem, index)
            for log in (split, side_two, applied):
                log.clear()
            evaluate_case(case, config.policy)
            fns = {"f": case.f, "g": case.g, "h": case.h, "u": case.u}
            if case.v is not None:
                fns["v"] = case.v
            # one split into pieces per factor, and one table of product
            # pieces for both sides
            assert len(split) == len(fns)
            [(one, rule)] = side_two
            assert rule._pieces is one._pieces
            assert rule._products is one._products
            requests = [(names, moment, res)
                        for owner, names, moment, res in applied
                        if owner is rule]
            assert requests
            fresh = OperatorRule(case.t, case.p2, case.q2, fns, config.policy)
            for names, moment, res in requests:
                assert _bits(fresh.apply(names, moment)) == _bits(res)


def _report_bits(rep):
    """Every field of a report, floats by their exact hex digits."""
    return tuple(x.hex() if isinstance(x, float) else x
                 for x in (getattr(rep, name) for name in rep._fields))


@pytest.fixture
def value_log(monkeypatch):
    """Logs of value keys: of every request a report's memo misses, and of
    every rule evaluation."""
    requests, applied = [], []
    value, apply = inequalities._CaseOps.value, OperatorRule.apply

    def logged_value(self, side, subset, weight="u", moment=0):
        evals = self.evals
        try:
            return value(self, side, subset, weight, moment)
        finally:
            if self.evals > evals:
                requests.append(self._rules[side].value_key(
                    (weight, *subset), moment))

    def logged_apply(self, names, moment=0):
        applied.append(self.value_key(names, moment))
        return apply(self, names, moment)

    monkeypatch.setattr(inequalities._CaseOps, "value", logged_value)
    monkeypatch.setattr(OperatorRule, "apply", logged_apply)
    return requests, applied


def _stores(shared):
    """The rule stores a ``shared`` dict holds."""
    return sum(isinstance(x, inequalities._CaseStore) for x in shared.values())


class TestSharedStore:
    """Theorems evaluated at one case index through one ``shared`` dict
    share the rules and operator values of equal rule inputs, and each
    reports what it reports alone, field by field."""

    # family: the pair f, g the expectation draws for T1/T2
    @pytest.mark.parametrize("grid,family,expect,max_terms,cases", [
        ((0.3, 0.6, 0.9), "synchronous", "holds", 100_000, 12),
        ((0.97, 0.99), "synchronous", "holds", 100_000, 3),
        ((0.3, 0.6, 0.9), "asynchronous", "reversed", 100_000, 12),
        ((0.99,), "synchronous", "holds", 40, 3),
    ])
    def test_shared_route_matches_independent_reports(self, grid, family,
                                                      expect, max_terms,
                                                      cases):
        config = CampaignConfig(theorems=("T1", "T2", "T3", "T4", "T5", "T6"),
                                cases=cases, seed=1, q1_grid=grid,
                                q2_grid=grid, expect=expect,
                                max_terms=max_terms)
        reversed_ = expect == "reversed"
        reused = unconverged = 0
        for index in range(cases):
            shared = {}
            for theorem in config.theorems:
                case = derive_case(config, theorem, index)
                if theorem == "T1":
                    assert check_synchronous(case.f, case.g, case.t) in (
                        family, "both")
                stores = len(shared)
                assert case.reversed == (reversed_ and theorem in ("T1", "T2"))
                rep = evaluate_case(case, config.policy, shared)
                reused += len(shared) == stores
                alone = evaluate_case(case, config.policy)
                assert _report_bits(rep) == _report_bits(alone)
                unconverged += any(note.startswith("not converged")
                                   for note in rep.notes)
        assert reused >= cases  # T3 reuses T1's store at every index
        if max_terms == 40:  # the NaN-margin notes are compared too
            assert unconverged > 0

    def test_t3_after_t1_makes_no_new_evaluation(self, value_log):
        requests, applied = value_log
        config = CampaignConfig(theorems=("T1", "T2", "T3"), seed=601)
        read_from_t1 = 0
        for index in range(6):
            shared = {}
            evaluate_case(derive_case(config, "T1", index), config.policy,
                          shared=shared)
            t3 = derive_case(config, "T3", index)
            applied.clear()
            rep = evaluate_case(t3, config.policy, shared=shared)
            assert applied == [] and _stores(shared) == 1
            requests.clear()
            alone = evaluate_case(t3, config.policy)
            # alone, one evaluation per distinct value the report asks for
            assert len(applied) == len(set(requests)) > 0
            assert len(requests) == alone.operator_evals == rep.operator_evals
            assert _report_bits(rep) == _report_bits(alone)
            # v is part of the store key: T2 draws it and builds its own
            # store, which reads the values T1's store gave
            requests.clear()
            applied.clear()
            given = set(shared["values"])
            evaluate_case(derive_case(config, "T2", index), config.policy,
                          shared=shared)
            assert _stores(shared) == 2
            assert len(applied) == len(set(applied))
            assert set(applied) == set(requests) - given
            read_from_t1 += len(set(requests) & given)
        assert read_from_t1 > 0

    def test_one_evaluation_per_distinct_value_at_each_index(self,
                                                             value_log):
        # T1-T6 --cases 200 --seed 601 asks for 21,800 values: 11,976
        # rule evaluations when each store evaluated its own requests, one
        # per distinct value key at each index now
        requests, applied = value_log
        config = CampaignConfig(theorems=("T1", "T2", "T3", "T4", "T5", "T6"),
                                cases=200, seed=601)
        total = asked = 0
        for index in range(config.cases):
            requests.clear()
            applied.clear()
            _index_reports((config, index))
            assert len(applied) == len(set(applied))
            assert set(applied) == set(requests)
            total += len(applied)
            asked += len(requests)
        assert (total, asked) == (7800, 21_800)
