"""The near-equality family: cases whose exact margin is known.

Replace f by 1 + eps f, the bounds psi and Psi by 1 + eps psi and
1 + eps Psi, and L1 by eps L1. The T1/T2 difference and the T3-T6 kernel
combination are linear in f and vanish for a constant f, and each
right-hand side scales through its gap or L1, so every margin is exactly
eps times the eps = 1 margin. That exercises the verdict threshold near
equality, where seeded campaigns never go, with no oracle but the case
itself.

Each test prints (visible with ``pytest -s``) the largest share of the
scaling bound a margin used, and its resolution: per case whose eps = 1
verdict is "holds", the largest k with "holds" at eps = 10^-k.
"""

import statistics

import pytest

from qek.cli import CampaignConfig, derive_case
from qek.functions import Const, Scale, Sum
from qek.inequalities import SAFETY_FACTOR, evaluate_case

EXPONENTS = range(2, 17)
OPPOSITE = {"holds": "violated", "violated": "holds"}

GRIDS = {
    "default grid": CampaignConfig(seed=1),
    "near 1": CampaignConfig(seed=3, q1_grid=(0.97, 0.99),
                             q2_grid=(0.97, 0.99)),
}
CASES = {"default grid": 40, "near 1": 15}


def near_equality(case, eps):
    """The case with f, its bounds and its Lipschitz constant moved to
    1 + eps f, 1 + eps psi, 1 + eps Psi and eps L1."""
    f = Sum(Const(1.0), Scale(eps, case.f))
    bounds, lipschitz = case.bounds, case.lipschitz
    if bounds is not None:
        bounds = bounds._replace(psi=1.0 + eps * bounds.psi,
                                 Psi=1.0 + eps * bounds.Psi)
    if lipschitz is not None:
        lipschitz = lipschitz._replace(L1=eps * lipschitz.L1)
    return case._replace(f=f, bounds=bounds, lipschitz=lipschitz)


@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("theorem", ["T1", "T2", "T3", "T4", "T5", "T6"])
def test_margin_scales_and_no_verdict_flips(theorem, grid):
    config = GRIDS[grid]._replace(theorems=(theorem,))
    resolutions = []
    used = 0.0  # the largest share of the scaling bound a miss takes
    for index in range(CASES[grid]):
        case = derive_case(config, theorem, index)
        base = evaluate_case(case, config.policy)
        base_thr = SAFETY_FACTOR * base.worst_tail
        holds = []
        for k in EXPONENTS:
            eps = 10.0 ** -k
            rep = evaluate_case(near_equality(case, eps), config.policy)
            where = f"{theorem} case {index} at eps = 1e-{k}"
            assert rep.verdict != OPPOSITE.get(base.verdict), where
            bound = SAFETY_FACTOR * rep.worst_tail + eps * base_thr
            miss = abs(rep.margin - eps * base.margin)
            assert miss <= bound, where
            used = max(used, miss / bound)
            if rep.verdict == "holds":
                holds.append(k)
        if base.verdict == "holds":
            resolutions.append(max(holds, default=0))
    line = f"\n{theorem} {grid}: largest miss {used:.1%} of the bound"
    if resolutions:
        line += (f"; resolution median {statistics.median(resolutions):g},"
                 f" worst {min(resolutions)} over {len(resolutions)} holding"
                 f" cases")
    print(line)
