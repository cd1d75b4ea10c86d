"""Workload definitions shared by the orchestrator and the child processes.

Every input is derived from the run seed with ``random.Random``; the same
seed always gives the same inputs. Nothing here imports ``qek``, so the
orchestrator can build plans without loading the program under test.
"""

from __future__ import annotations

import random

THEOREMS = ("T1", "T2", "T3", "T4", "T5", "T6")

# Cases per theorem in one campaign run; each run is one `qek verify` call
# in a fresh interpreter. near1 cases cost about ten times more.
CAMPAIGNS = {
    "campaign-mixed": {"cases": 200, "jobs": 1, "grid": None},
    "campaign-near1": {"cases": 20, "jobs": 1, "grid": "0.97,0.99"},
    "campaign-jobs2": {"cases": 200, "jobs": 2, "grid": None},
}
WARM_CASES = {"campaign-mixed": 5, "campaign-near1": 1, "campaign-jobs2": 5}

WORKLOADS = (*CAMPAIGNS, "oracle")

ORACLE_Q = (0.3, 0.6, 0.9, 0.99)
BETAS = (0.5, 1.0, 2.0)
ETAS = (-0.5, 0.0, 1.0)
MUS = (0.5, 1.0, 1.5, 2.0)
T_VALUES = (0.5, 1.0, 2.0)
GAMMA_ARGS = (0.5, 1.5, 2.5, 3.7)

# Index into qek.cli.standard_shapes() -> exponent p of the monomial t^p;
# index 3 is the piecewise-linear shape, which has no closed form here.
MONOMIAL_POWER = {0: 0, 1: 1, 2: 2}

# At q = 0.99 one integral-form call takes about 1-2 s (the kernel rebuilds
# two infinite products per node), so a run holds one such call per
# (shape, beta) below and one Kober call. Together they cover all four
# shapes and all three betas. eta and mu stay fixed there because the node
# count, and with it the cost, depends on them; a seed that drew them
# would change the run's cost several-fold.
Q099_INTEGRAL = ((0, 0.5), (1, 2.0), (3, 1.0))
Q099_KOBER_SHAPE = 2
Q099_ETA, Q099_MU = 0.0, 1.5

# Seeds of the runs inside one benchmark invocation. Run k uses
# seed + k * RUN_STRIDE, so run 0 uses the benchmark's own seed; the
# warm-up uses a seed that no timed run uses.
RUN_STRIDE = 1_000_003
WARM_OFFSET = 500_000_009


def run_seed(seed: int, k: int) -> int:
    return seed + k * RUN_STRIDE


def warm_seed(seed: int) -> int:
    return seed + WARM_OFFSET


def campaign_argv(workload: str, seed: int, output: str, cases: int | None = None,
                  jobs: int | None = None) -> list[str]:
    """Arguments of the `qek verify` call a campaign run makes."""
    spec = CAMPAIGNS[workload]
    argv = ["verify"]
    for theorem in THEOREMS:
        argv += ["--theorem", theorem]
    argv += ["--cases", str(spec["cases"] if cases is None else cases),
             "--seed", str(seed),
             "--jobs", str(spec["jobs"] if jobs is None else jobs),
             "--no-timestamp", "--output", output]
    if spec["grid"]:
        argv += ["--grid-q1", spec["grid"], "--grid-q2", spec["grid"]]
    return argv


def oracle_plan(seed: int, with_q099: bool = True) -> list[dict]:
    """The oracle checks of one run, in execution order.

    Kinds: "integral" (series vs integral form), "kober" (series vs Kober
    at beta = 1), "qgamma" and "jackson" (Jackson integral of t^p).
    ``with_q099=False`` leaves out the q = 0.99 operator checks (warm-up).
    """
    rng = random.Random(seed)
    items = []
    for q in ORACLE_Q[:3]:
        for beta in BETAS:
            for shape in range(4):
                items.append({"kind": "integral", "q": q, "beta": beta,
                              "shape": shape, "eta": rng.choice(ETAS),
                              "mu": rng.choice(MUS), "t": rng.choice(T_VALUES)})
        for shape in range(4):
            items.append({"kind": "kober", "q": q, "beta": 1.0, "shape": shape,
                          "eta": rng.choice(ETAS), "mu": rng.choice(MUS),
                          "t": rng.choice(T_VALUES)})
    if with_q099:
        for shape, beta in Q099_INTEGRAL:
            items.append({"kind": "integral", "q": 0.99, "beta": beta,
                          "shape": shape, "eta": Q099_ETA, "mu": Q099_MU,
                          "t": rng.choice(T_VALUES)})
        items.append({"kind": "kober", "q": 0.99, "beta": 1.0,
                      "shape": Q099_KOBER_SHAPE, "eta": Q099_ETA,
                      "mu": Q099_MU, "t": rng.choice(T_VALUES)})
    for q in ORACLE_Q:
        for _ in range(4):
            items.append({"kind": "qgamma", "q": q, "a": rng.choice(GAMMA_ARGS)})
        for shape in MONOMIAL_POWER:
            items.append({"kind": "jackson", "q": q, "shape": shape,
                          "t": rng.choice(T_VALUES)})
    return items
