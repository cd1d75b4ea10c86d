"""qek benchmark: seeded campaign and oracle workloads, timed end to end.

    python3 qekbench/run.py --workload campaign-mixed --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. ``--trace 0`` reports the end-to-end
metrics: throughput_per_s (items over the timed seconds of all runs),
setup_s (median over fresh interpreters) and peak_rss_mb (median over
runs); both timings are scaled to a reference host speed (hostspeed.py).
``--trace 1`` reports the per-layer metrics from traced runs, next to
untraced runs of the same inputs that give the tracing overhead.

Every timed run is one fresh interpreter (child.py) that warms up on a
seed no timed run uses, then drives qek one item at a time in a single
closed loop. Outputs are checked; the last line printed is one JSON object
{"correct", "attempted", "failed", "metrics"}, and the exit code is 1 when
a check failed and 2 on a usage error or a missing ``src/qek``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from hostspeed import REFERENCE_S
from tracer import p50, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CHILD = HERE / "child.py"

SETUP_SAMPLES = 9      # set-up samples per invocation, at least
MIN_RUNS = 3           # untraced runs per invocation, at least
MIN_TRACED = 2         # traced rounds, so their counts can be compared
CHILD_TIMEOUT_S = 150

# Metrics whose values must repeat exactly across traced runs of one seed.
EXACT_COUNTS = (
    "cli.output_bytes",
    "inequalities.operator_evals",
    "ekoperator.ek_series.calls",
    "ekoperator.ek_series.terms",
    "qcore.q_power_alpha.calls",
    "qcore.q_power_alpha.factors",
    "jackson.jackson_integral.terms",
    "functions.compile_expr.calls",
    "functions.compile_expr.cache_entries",
)


class ChildFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def _child(args: list[str], stdin: str | None = None) -> str:
    """Run child.py in a fresh interpreter and return its last stdout line.
    The child gets its own process group, so a timeout also ends any pool
    workers it started."""
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT,
                            env=_child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(stdin, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"child timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"child exited {proc.returncode}: {err.strip()[-1500:]}")
    return out.strip().splitlines()[-1]


def _run_child(spec: dict) -> dict:
    try:
        return json.loads(_child(["run"], json.dumps(spec)))
    except ChildFailed as exc:
        n = spec["cases"] * len(spec["theorems"]) if "cases" in spec else len(spec["items"])
        return {"items": n, "elapsed": None, "rss_mb": None, "failed": n,
                "messages": [str(exc)]}


def setup_seconds(workload: str, seed: int) -> tuple[float, float] | None:
    """Seconds a fresh interpreter takes to import qek and build the inputs,
    as (scaled to the reference host speed, measured); None when it failed."""
    try:
        elapsed, probe = map(float, _child(["setup", workload, str(seed)]).split())
    except ChildFailed:
        return None
    return elapsed * REFERENCE_S / probe, elapsed


# ---------------------------------------------------------------------------
# run specs


def campaign_spec(workload: str, seed: int, trace: bool = False,
                  jobs: int | None = None) -> dict:
    out = BUILD / "out"
    name = f"{workload}-jobs{jobs}" if jobs else workload
    spec = {
        "workload": workload,
        "theorems": list(wl.THEOREMS),
        "cases": wl.CAMPAIGNS[workload]["cases"],
        "output": str(out / f"{name}.jsonl"),
        "warm_output": str(out / f"{name}.warm.jsonl"),
        "trace": trace,
        "trace_out": str(BUILD / f"trace-{workload}.tsv"),
    }
    spec["argv"] = wl.campaign_argv(workload, seed, spec["output"], jobs=jobs)
    spec["warm_argv"] = wl.campaign_argv(workload, wl.warm_seed(seed), spec["warm_output"],
                                         cases=wl.WARM_CASES[workload], jobs=jobs)
    return spec


def oracle_spec(seed: int, trace: bool = False) -> dict:
    from references import reference

    items = wl.oracle_plan(seed)
    for item in items:
        item["ref"] = reference(item)
    return {"workload": "oracle", "items": items, "trace": trace,
            "warm_items": wl.oracle_plan(wl.warm_seed(seed), with_q099=False),
            "trace_out": str(BUILD / "trace-oracle.tsv")}


def make_spec(workload: str, seed: int, trace: bool = False, **kw) -> dict:
    if workload == "oracle":
        return oracle_spec(seed, trace)
    return campaign_spec(workload, seed, trace, **kw)


# ---------------------------------------------------------------------------
# measurement


def _check_jobs1(run: dict, jobs1: dict) -> None:
    """A --jobs 2 report must be byte-identical to the same campaign at
    --jobs 1; one that differs fails all its cases."""
    if run.get("digest") != jobs1.get("digest"):
        run["failed"] = run["items"]
        run["messages"].append("--jobs 2 report differs from the --jobs 1 report")


def _repeat_until(deadline: float, minimum: int, step) -> None:
    """Call step(k) for k = 0, 1, ... until the next call would end after
    the deadline (judged by the last call's duration), at least ``minimum``
    times."""
    k = 0
    while True:
        start = time.monotonic()
        step(k)
        k += 1
        if k >= minimum and time.monotonic() + (time.monotonic() - start) > deadline:
            return


def _throughput(runs: list[dict], scaled: bool = True) -> float | None:
    """Items completed per second of timed calls, over all the given runs;
    ``scaled`` corrects it to the reference host speed with the probes
    taken around the timed calls."""
    done = [r for r in runs if r["elapsed"]]
    if not done:
        return None
    key = "scaled_elapsed" if scaled else "elapsed"
    return sum(r["items"] for r in done) / sum(r[key] for r in done)


def _ratio(res: dict) -> float | None:
    """Host speed during a run as a share of the reference speed."""
    return res["scaled_elapsed"] / res["elapsed"] if res["elapsed"] else None


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _quartiles(values) -> tuple[float, float]:
    values = [v for v in values if v is not None]
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [0.0] * 3
    return q[0], q[2]


def measure(workload: str, seed: int, seconds: float):
    """End-to-end metrics; returns (runs, metrics, notes, problems).

    A set-up sample follows every run, so both spread over the whole
    measuring time instead of meeting one phase of the machine's load.
    """
    deadline = time.monotonic() + seconds
    setup_seconds(workload, seed)  # untimed: writes the bytecode caches
    runs: list[dict] = []
    setups: list[float] = []

    def step(k):
        runs.append(_run_child(make_spec(workload, wl.run_seed(seed, k))))
        if k == 0 and workload == "campaign-jobs2":
            _check_jobs1(runs[0], _run_child(make_spec(workload, seed, jobs=1)))
        setups.append(setup_seconds(workload, seed))

    _repeat_until(deadline, MIN_RUNS, step)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_seconds(workload, seed))
    problems = ["set-up failed in a fresh interpreter"] if None in setups else []
    setups = [x for x in setups if x is not None] or [(0.0, 0.0)]
    thr = [_throughput([r]) for r in runs]
    rss = [r["rss_mb"] for r in runs]
    metrics = {
        "throughput_per_s": _throughput(runs) or 0.0,
        "setup_s": _median(s for s, _ in setups),
        "peak_rss_mb": _median(rss),
    }
    lo, hi = _quartiles(thr)
    notes = [f"throughput_per_s: over {len(runs)} runs, whose quartiles are {lo:.4g} .. {hi:.4g}; "
             f"unscaled {_throughput(runs, scaled=False) or 0.0:.4g}",
             f"setup_s: median of {len(setups)} fresh interpreters; "
             f"unscaled median {_median(raw for _, raw in setups):.4g}",
             f"peak_rss_mb: median of {len(runs)} runs, "
             f"max {max((x for x in rss if x), default=0):.4g}",
             f"host speed: median {_median(_ratio(r) for r in runs):.4g} "
             f"of the reference"]
    return runs, metrics, notes, problems


def measure_traced(workload: str, seed: int, seconds: float):
    """Per-layer metrics; returns (runs, metrics, notes, problems).

    Each round runs the benchmark seed untraced and traced in fresh
    interpreters (campaign-jobs2 also runs it at --jobs 1), so the traced
    runs repeat identical inputs: their exact counts must agree, and the
    untraced runs give the tracing overhead and the pool's efficiency.
    """
    deadline = time.monotonic() + seconds
    rounds: list[dict] = []

    def one_round(_k):
        r = {"plain": _run_child(make_spec(workload, seed))}
        if workload == "campaign-jobs2":
            r["jobs1"] = _run_child(make_spec(workload, seed, jobs=1))
        r["traced"] = _run_child(make_spec(workload, seed, trace=True))
        rounds.append(r)

    _repeat_until(deadline, MIN_TRACED, one_round)
    traced = [r["traced"] for r in rounds if r["traced"].get("layers")]
    runs = [run for r in rounds for run in r.values()]
    if not traced:
        return runs, {}, [], ["no traced run finished"]
    layers = {n: _median(t["layers"][n] for t in traced) for n in traced[0]["layers"]}
    layers.update((n, traced[0]["layers"][n]) for n in EXACT_COUNTS)
    for theorem in wl.THEOREMS:
        # pooled over the traced runs, so tail_ms rests on enough samples
        pooled = [d for t in traced for d in t.get("evaluate_case_ms", {}).get(theorem, [])]
        layers[f"inequalities.evaluate_case.{theorem}.p50_ms"] = p50(pooled)
        layers[f"inequalities.evaluate_case.{theorem}.tail_ms"] = tail(pooled)
    problems = []
    for name in EXACT_COUNTS:
        seen = sorted({t["layers"][name] for t in traced})
        if len(seen) > 1:
            problems.append(f"count {name} differs across runs of one seed: {seen}")
    overhead = [_throughput([r["plain"]]) / _throughput([r["traced"]]) - 1.0
                for r in rounds if r["traced"]["elapsed"] and r["plain"]["elapsed"]]
    layers["trace.overhead_frac"] = _median(overhead)
    efficiency = 0.0
    if workload == "campaign-jobs2":
        efficiency = _median(_throughput([r["plain"]]) / (2.0 * _throughput([r["jobs1"]]))
                             for r in rounds if r["plain"]["elapsed"] and r["jobs1"]["elapsed"])
        for r in rounds:
            _check_jobs1(r["plain"], r["jobs1"])
    layers["cli.run_campaign.parallel_efficiency"] = efficiency
    notes = [f"{len(traced)} traced and {len(runs) - len(traced)} untraced runs of seed {seed}"]
    return runs, layers, notes, problems


# ---------------------------------------------------------------------------
# report

def _declared(kind: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares under ``kind``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _verdict_lines(runs: list[dict]) -> list[str]:
    totals: dict = {}
    for run in runs:
        for theorem, counts in run.get("verdicts", {}).items():
            acc = totals.setdefault(theorem, {})
            for key, n in counts.items():
                acc[key] = acc.get(key, 0) + n
    return [f"verdicts {t}: " + " ".join(f"{k}={v}" for k, v in sorted(c.items()))
            for t, c in sorted(totals.items())]


def _oracle_lines(runs: list[dict]) -> list[str]:
    worst: dict = {}
    for run in runs:
        for kind, ratio in run.get("worst", {}).items():
            worst[kind] = max(worst.get(kind, 0.0), ratio)
    return [f"oracle {kind}: worst error is {ratio:.3g} of its tolerance"
            for kind, ratio in sorted(worst.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qek" / "__init__.py").is_file():
        print(f"error: no qek sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for sub in ("out", "tmp"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)

    measure_fn = measure_traced if args.trace else measure
    runs, values, notes, problems = measure_fn(args.workload, args.seed, args.seconds)
    declared = _declared("per_layer" if args.trace else "end_to_end")
    if values and set(values) != set(declared):
        problems.append(f"measured metrics differ from BENCHMARK.json: "
                        f"{sorted(set(values) ^ set(declared))}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items() if name in values}
    attempted = sum(r["items"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    messages = [m for r in runs for m in r["messages"]]
    correct = failed == 0 and not problems

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(runs)} runs in fresh interpreters")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {failed / attempted if attempted else 0.0:.6g} "
          f"({failed} of {attempted} items failed)")
    for line in notes + _verdict_lines(runs) + _oracle_lines(runs):
        print(line)
    for msg in problems + messages[:20]:
        print(f"check failed: {msg}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
