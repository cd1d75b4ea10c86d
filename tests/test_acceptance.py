"""Acceptance suite.

One test per criterion; each prints a single pass line (visible with
``pytest -s``) including the measured runtime against the budget. Budgets
are asserted, values first: every expected number is either a direct hand
value or produced by the stated independent oracle.
"""

import json
import math
import time

import pytest

from qek.cli import (
    CampaignConfig,
    derive_case,
    report_row,
    rows_to_jsonl,
    run_campaign,
    standard_shapes,
)
from qek.ekoperator import OperatorParams, ek_integral, ek_series, kober
from qek.functions import (
    BoundsTriple,
    LipschitzTriple,
    generate_weight,
    parse_function_spec,
)
from qek.inequalities import SAFETY_FACTOR, TheoremCase, evaluate_case
from qek.jackson import jackson_integral
from qek.qcore import (
    DeformationParam,
    q_factorial,
    log_q_product,
    q_gamma,
)


def _finish(number, label, started, budget):
    elapsed = time.perf_counter() - started
    print(f"criterion {number:2d} [{label}]: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


@pytest.fixture(scope="module")
def synchronous_campaign():
    config = CampaignConfig(theorems=("T1", "T2"), cases=1000, seed=20260810)
    started = time.perf_counter()
    result = run_campaign(config)
    return config, result, time.perf_counter() - started


def test_criterion_01_q_gamma_functional_equation():
    started = time.perf_counter()
    for q in (0.1, 0.5, 0.9):
        for i in range(1, 21):
            x = 0.5 * i
            lhs = q_gamma(x + 1.0, q).value
            rhs = (1.0 - q ** x) / (1.0 - q) * q_gamma(x, q).value
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs)
        for n in range(0, 21):
            gam = q_gamma(n + 1.0, q).value
            fact = q_factorial(n, q)
            assert abs(gam - fact) <= 1e-12 * max(1.0, abs(fact))
    _finish(1, "q-Gamma functional equation", started, 1.0)


def test_criterion_02_pochhammer_ratio_identity():
    started = time.perf_counter()
    # (a; q)_n = (a; q)_inf / (a q^n; q)_inf, the finite product formed
    # factor by factor and the ratio as sign * exp of the log difference
    for q in (0.3, 0.6, 0.9):
        for a in (-0.9, -0.5, 0.1, 0.5, 0.9):
            inf_a = log_q_product(a, q)
            finite = 1.0
            for n in range(0, 51):
                shifted = log_q_product(a * q ** n, q)
                ratio = (inf_a.sign * shifted.sign
                         * math.exp(inf_a.value - shifted.value))
                assert abs(finite - ratio) <= 1e-12 * abs(finite)
                finite *= 1.0 - a * q ** n
    _finish(2, "shifted-factorial ratio identity", started, 1.0)


def test_criterion_03_jackson_closed_forms():
    started = time.perf_counter()
    for k in range(6):
        for b in (0.5, 1.0, 2.0):
            for q in (0.3, 0.6, 0.9):
                val = jackson_integral(lambda t: t ** k, b, q).value
                exact = b ** (k + 1) * (1.0 - q) / (1.0 - q ** (k + 1))
                assert abs(val - exact) <= 1e-12 * abs(exact)
    for k in range(1, 6):
        for b in (0.5, 1.0, 2.0):
            errors = [
                abs(jackson_integral(lambda t: t ** k, b, q).value
                    - b ** (k + 1) / (k + 1))
                for q in (0.9, 0.99, 0.999)
            ]
            assert errors[0] > errors[1] > errors[2]
    _finish(3, "Jackson monomial closed forms", started, 1.0)


def test_criterion_04_representation_equivalence():
    started = time.perf_counter()
    shapes = standard_shapes()
    checked = 0
    for q in (0.3, 0.6, 0.9, 0.99):
        for eta in (-0.5, 0.0, 1.0):
            for mu in (0.5, 1.0, 2.0):
                for beta in (0.5, 1.0, 2.0):
                    p = OperatorParams(eta, mu, beta)
                    for shape in shapes:
                        s = ek_series(shape, 1.0, p, q)
                        i = ek_integral(shape, 1.0, p, q)
                        gap = abs(s.value - i.value)
                        assert gap <= 1e-12 * max(1.0, abs(s.value))
                        checked += 1
    assert checked == 432  # full grid, q -> 1 edge included
    _finish(4, "series vs integral representation", started, 10.0)


def test_criterion_05_beta_one_reduction():
    started = time.perf_counter()
    shapes = standard_shapes()
    for q in (0.3, 0.6, 0.9):
        for eta in (-0.5, 0.0, 1.0):
            for mu in (0.5, 1.0, 2.0):
                p = OperatorParams(eta, mu, 1.0)
                for shape in shapes:
                    s = ek_series(shape, 1.0, p, q).value
                    k = kober(shape, 1.0, eta, mu, q).value
                    assert abs(s - k) <= 1e-12 * max(1.0, abs(s))
    _finish(5, "beta=1 Kober reduction", started, 5.0)


def test_criterion_06_nonnegativity_is_exact():
    started = time.perf_counter()
    grids = [(0.3, -0.5, 0.5, 0.5), (0.6, 0.0, 1.0, 1.0), (0.9, 1.0, 2.0, 2.0)]
    for seed in range(100):
        w = generate_weight(seed, 2.0)
        q, eta, mu, beta = grids[seed % len(grids)]
        res = ek_series(w, 1.5, OperatorParams(eta, mu, beta), q)
        assert res.min_term >= 0.0
        assert res.value >= 0.0
        kb = kober(w, 1.5, eta, mu, q)
        assert kb.value >= 0.0
    _finish(6, "termwise nonnegativity", started, 5.0)


def test_criterion_07_synchronous_campaigns(synchronous_campaign):
    started = time.perf_counter()
    config, result, build_seconds = synchronous_campaign
    for theorem in ("T1", "T2"):
        counts = result.tally.counts(theorem)
        total = sum(counts.values())
        assert total == 1000
        assert counts["violated"] == 0
        rate = counts["inconclusive"] / total
        assert rate < 0.01
        print(f"  {theorem}: 1000 cases, violated=0, "
              f"inconclusive rate={rate:.4f}, "
              f"min margin={result.tally.min_margin(theorem):.3e}")
    # charge the campaign evaluation itself against the budget
    _finish(7, "synchronous campaigns T1/T2",
            started - build_seconds, 120.0)


def test_criterion_08_reduction_chain():
    started = time.perf_counter()
    pairs = (("T1", "T2", 81), ("T3", "T4", 83), ("T5", "T6", 85))
    for odd, even, seed in pairs:
        config = CampaignConfig(theorems=(odd,), cases=100, seed=seed)
        for index in range(config.cases):
            case = derive_case(config, odd, index)
            twin = case._replace(theorem_id=even, v=case.u)
            rep_odd = evaluate_case(case)
            rep_even = evaluate_case(twin)
            scale = max(1.0, abs(rep_odd.margin))
            assert abs(rep_even.margin - rep_odd.margin) <= 1e-13 * scale
    _finish(8, "two-weight reduction chain", started, 60.0)


def test_criterion_09_equality_at_constants():
    started = time.perf_counter()
    const = parse_function_spec("(const 2)")
    u = generate_weight(900, 2.0)
    v = generate_weight(901, 2.0)
    flat_bounds = BoundsTriple(2.0, 2.0, 2.0, 2.0, 2.0, 2.0)
    zero_lipschitz = LipschitzTriple(0.0, 0.0, 0.0)
    for theorem in ("T1", "T2", "T3", "T4", "T5", "T6"):
        case = TheoremCase(
            theorem_id=theorem, t=1.0,
            q1=DeformationParam(0.5), q2=DeformationParam(0.7),
            p1=OperatorParams(0.5, 1.5, 2.0), p2=OperatorParams(0.0, 1.0, 1.0),
            u=u, f=const, g=const, h=const,
            v=v if theorem in ("T2", "T4", "T6") else None,
            bounds=flat_bounds if theorem in ("T3", "T4") else None,
            lipschitz=zero_lipschitz if theorem in ("T5", "T6") else None,
        )
        rep = evaluate_case(case)
        scale = max(1.0, abs(rep.lhs), abs(rep.rhs))
        assert abs(rep.margin) <= 1e-12 * scale, theorem
    _finish(9, "equality at constants", started, 10.0)


def test_criterion_10_reversal_campaign():
    started = time.perf_counter()
    config = CampaignConfig(theorems=("T1",), cases=500, seed=1010,
                            expect="reversed")
    result = run_campaign(config)
    assert len(result.reports) == 500
    for _, rep in result.reports:
        assert rep.margin <= rep.worst_tail * SAFETY_FACTOR
    _finish(10, "reversal campaign", started, 60.0)


def test_criterion_11_certified_campaigns():
    started = time.perf_counter()
    lines = []
    for theorem, seed in (("T3", 113), ("T4", 114), ("T5", 115), ("T6", 116)):
        config = CampaignConfig(theorems=(theorem,), cases=500, seed=seed)
        result = run_campaign(config)
        counts = result.tally.counts(theorem)
        assert sum(counts.values()) == 500
        if theorem in ("T3", "T4"):
            assert counts["violated"] == 0
        else:
            pos, neg = result.tally.bracket_sign_counts(theorem)
            assert pos + neg == 500
            lines.append(
                f"  {theorem}: holds={counts['holds']} "
                f"violated={counts['violated']} "
                f"inconclusive={counts['inconclusive']} "
                f"bracket_nonneg={pos} bracket_neg={neg} "
                f"min_margin={result.tally.min_margin(theorem):.3e}"
            )
    print("empirical report for the Lipschitz-type inequalities:")
    for line in lines:
        print(line)
    _finish(11, "certified campaigns T3-T6", started, 120.0)


def test_criterion_12_campaign_determinism(synchronous_campaign):
    started = time.perf_counter()
    config, result, _ = synchronous_campaign
    rerun = run_campaign(config)
    first = rows_to_jsonl([report_row(i, rep) for i, rep in result.reports],
                          timestamp=False)
    second = rows_to_jsonl([report_row(i, rep) for i, rep in rerun.reports],
                           timestamp=False)
    assert first == second
    for line in first.strip().split("\n"):
        json.loads(line)
    _finish(12, "byte-identical reruns", started, 120.0)
