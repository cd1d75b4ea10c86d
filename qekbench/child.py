"""One benchmark run in a fresh interpreter; started by run.py.

    child.py setup <workload> <seed>   time `import qek` plus building the
                                        workload's inputs; prints seconds
                                        and the host probe's seconds
    child.py run                       read a run spec (JSON) on stdin,
                                        warm up, time the run, check it and
                                        print one JSON result line

Only ``sys``, ``time`` and the host probe are imported before the setup
timer starts, so set-up time includes every module ``qek`` pulls in.
"""

import sys
import time

from hostspeed import REFERENCE_S, probe_seconds

# Rounding unit of IEEE double precision.
_U = 2.0 ** -53
# Relative gap allowed between two representations of one operator value;
# the threshold `qek reduce-check` uses, with the same max(1, |value|) scale.
GAP_TOL = 1e-12
# A value computed from N float terms (a coefficient recurrence, a node and
# the running sum, about eight roundings per term) is trusted to within
# 8 N u of an exact reference, plus its reported truncation tail.
ROUNDINGS_PER_TERM = 8
# The oracle probes the host's speed after every this many seconds of
# timed calls; one of its q = 0.99 calls alone takes longer.
PROBE_EVERY_S = 0.5


def setup(workload: str, seed: int) -> None:
    """Print the set-up seconds and the host probe's seconds."""
    start = time.perf_counter()
    from qek import cli
    import workloads as wl

    if workload in wl.CAMPAIGNS:
        spec = wl.CAMPAIGNS[workload]
        grids = {}
        if spec["grid"]:
            grid = tuple(float(x) for x in spec["grid"].split(","))
            grids = {"q1_grid": grid, "q2_grid": grid}
        cli.CampaignConfig(theorems=wl.THEOREMS, cases=spec["cases"], seed=seed,
                           jobs=spec["jobs"], **grids)
    else:
        shapes = cli.standard_shapes()
        for item in wl.oracle_plan(seed):
            _oracle_inputs(item, shapes)
    elapsed = time.perf_counter() - start
    print(repr(elapsed), repr(probe_seconds()))


def _oracle_inputs(item, shapes):
    """Arguments of the qek calls an oracle item makes."""
    from qek.ekoperator import OperatorParams
    from qek.qcore import DeformationParam

    q = DeformationParam(item["q"])
    if item["kind"] == "qgamma":
        return (item["a"], q)
    shape = shapes[item["shape"]]
    if item["kind"] == "jackson":
        return (shape, item["t"], q)
    return (shape, item["t"], OperatorParams(item["eta"], item["mu"], item["beta"]), q)


# ---------------------------------------------------------------------------
# timed runs


def _install_tracer():
    import qek.cli as cli
    import qek.ekoperator as ekop
    import qek.inequalities as ineq
    import qek.jackson as jackson
    import qek.qcore as qcore
    from tracer import Tracer, q_label

    def q_at(i):
        return lambda args: q_label(args[i])

    def terms(result):
        return result.terms_used

    tr = Tracer()
    tr.wrap(cli, "run_campaign", "cli.run_campaign")
    tr.wrap(cli, "derive_case", "cli.derive_case")
    tr.wrap(cli, "generate_family", "functions.generate_family")
    tr.wrap(cli, "evaluate_case", "inequalities.evaluate_case",
            label=lambda args: args[0].theorem_id,
            count=lambda rep: rep.operator_evals)
    tr.wrap(cli, "report_row", "cli.report_row")
    tr.wrap(cli, "rows_to_jsonl", "cli.rows_to_jsonl")
    tr.wrap(ineq, "check_synchronous", "functions.check_synchronous")
    tr.wrap(ineq, "nonnegative_on", "functions.nonnegative_on")
    for module in (ineq, ekop):
        tr.wrap(module, "ek_series", "ekoperator.ek_series", q_at(3), terms)
    tr.wrap(ekop, "ek_integral", "ekoperator.ek_integral", q_at(3), terms)
    tr.wrap(ekop, "kober", "ekoperator.kober", q_at(4), terms)
    tr.wrap(ekop, "q_power_alpha", "qcore.q_power_alpha", count=terms)
    for module in (ekop, qcore):
        tr.wrap(module, "q_gamma", "qcore.q_gamma", q_at(1), terms)
    tr.wrap(jackson, "jackson_integral", "jackson.jackson_integral", q_at(2), terms)
    return tr


_Q_LABELS = ("q030", "q060", "q090", "q099")


def _layer_metrics(st, cache0, cache1, output_bytes: int) -> dict:
    """Per-layer metrics of one traced run. run.py adds the ones that need
    untraced runs or the samples of several traced runs."""
    from tracer import p50

    m = {
        "cli.derive_case.total_s": st.total_s("cli.derive_case"),
        "functions.generate_family.total_s": st.total_s("functions.generate_family"),
        "cli.report_row.total_s": st.total_s("cli.report_row"),
        "cli.rows_to_jsonl.total_s": st.total_s("cli.rows_to_jsonl"),
        "cli.output_bytes": output_bytes,
        "cli.run_campaign.self_s": st.self_s("cli.run_campaign"),
    }
    ev = "inequalities.evaluate_case"
    m[f"{ev}.self_s"] = st.self_s(ev)
    m["inequalities.operator_evals"] = st.counts[ev]

    es = "ekoperator.ek_series"
    m[f"{es}.calls"] = st.calls[es]
    m[f"{es}.terms"] = st.counts[es]
    m[f"{es}.total_s"] = st.total_s(es)
    m[f"{es}.ns_per_term"] = st.total_ns[es] / st.counts[es] if st.counts[es] else 0.0
    for ql in _Q_LABELS:
        m[f"{es}.{ql}.p50_us"] = p50(st.durations(es, ql)) / 1e3
    ei = "ekoperator.ek_integral"
    m[f"{ei}.total_s"] = st.total_s(ei)
    for ql in _Q_LABELS:
        m[f"{ei}.{ql}.p50_ms"] = p50(st.durations(ei, ql)) / 1e6
    m["ekoperator.kober.total_s"] = st.total_s("ekoperator.kober")

    qp = "qcore.q_power_alpha"
    m[f"{qp}.calls"] = st.calls[qp]
    m[f"{qp}.factors"] = st.counts[qp]
    m[f"{qp}.total_s"] = st.total_s(qp)
    for ql in _Q_LABELS:
        m[f"qcore.q_gamma.{ql}.p50_us"] = p50(st.durations("qcore.q_gamma", ql)) / 1e3

    jk = "jackson.jackson_integral"
    m[f"{jk}.terms"] = st.counts[jk]
    for ql in _Q_LABELS:
        m[f"{jk}.{ql}.p50_us"] = p50(st.durations(jk, ql)) / 1e3

    hits = cache1.hits - cache0.hits
    misses = cache1.misses - cache0.misses
    m["functions.compile_expr.calls"] = hits + misses
    m["functions.compile_expr.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["functions.compile_expr.cache_entries"] = cache1.currsize - cache0.currsize
    m["functions.check_synchronous.total_s"] = st.total_s("functions.check_synchronous")
    m["functions.nonnegative_on.total_s"] = st.total_s("functions.nonnegative_on")
    return m


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _call_cli(argv):
    """Run `qek` in this process; returns (exit code or None, stderr, error)."""
    import contextlib
    import io
    from qek import cli

    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return cli.main(argv), err.getvalue(), None
    except Exception as exc:  # a raising case fails every item of the run
        return None, err.getvalue(), f"qek raised {type(exc).__name__}: {exc}"


def _check_campaign(spec, rc, stderr, error) -> dict:
    """Failures among the run's cases and the recorded verdict counts.

    A case fails if the call raised, its row is missing, its margin is NaN,
    or it is a T1-T4 "violated". T5/T6 verdicts and bracket signs are
    outputs, not failures.
    """
    import hashlib
    import json
    import re

    theorems = spec["theorems"]
    cases = spec["cases"]
    res = {"failed": 0, "messages": [], "verdicts": {}, "digest": "", "output_bytes": 0}
    if error or rc not in (0, 1):
        res["failed"] = cases * len(theorems)
        res["messages"].append(error or f"qek verify exited {rc}: {stderr[-500:]}")
        return res
    with open(spec["output"], "rb") as fh:
        data = fh.read()
    res["digest"] = hashlib.sha256(data).hexdigest()
    res["output_bytes"] = len(data)
    seen = set()
    verdicts = {t: {"holds": 0, "violated": 0, "inconclusive": 0} for t in theorems}
    for line in data.decode("utf-8").splitlines():
        row = json.loads(line)
        key = (row["theorem"], row["case_index"])
        if key in seen:
            continue
        seen.add(key)
        verdicts[row["theorem"]][row["verdict"]] += 1
        if row["margin"] != row["margin"]:
            res["failed"] += 1
        elif row["theorem"] in ("T1", "T2", "T3", "T4") and row["verdict"] == "violated":
            res["failed"] += 1
    missing = cases * len(theorems) - len(seen & {(t, i) for t in theorems for i in range(cases)})
    if missing:
        res["failed"] += missing
        res["messages"].append(f"{missing} report rows missing")
    if res["failed"] and not res["messages"]:
        res["messages"].append(f"{res['failed']} cases with NaN margin or T1-T4 violated")
    for m in re.finditer(r"summary (T[56]):.* bracket_nonneg=(\d+) bracket_neg=(\d+)", stderr):
        verdicts[m[1]]["bracket_nonneg"] = int(m[2])
        verdicts[m[1]]["bracket_neg"] = int(m[3])
    res["verdicts"] = verdicts
    return res


def run_campaign(spec) -> dict:
    import os
    from qek import functions

    _call_cli(spec["warm_argv"])
    os.remove(spec["warm_output"])
    tracer = _install_tracer() if spec["trace"] else None
    cache0 = functions.compile_expr.cache_info()
    probe = probe_seconds()
    start = time.perf_counter()
    rc, stderr, error = _call_cli(spec["argv"])
    elapsed = time.perf_counter() - start
    rss = _peak_rss_mb()
    scaled = elapsed * REFERENCE_S / ((probe + probe_seconds()) / 2)
    cache1 = functions.compile_expr.cache_info()
    if tracer:
        tracer.restore()
    res = _check_campaign(spec, rc, stderr, error)
    res.update(items=spec["cases"] * len(spec["theorems"]),
               elapsed=elapsed, scaled_elapsed=scaled, rss_mb=rss)
    if tracer:
        from tracer import SpanStats

        st = SpanStats(tracer.spans)
        res["layers"] = _layer_metrics(st, cache0, cache1, res["output_bytes"])
        ev = "inequalities.evaluate_case"
        res["evaluate_case_ms"] = {t: [d / 1e6 for d in st.durations(ev, t)]
                                   for t in spec["theorems"]}
        tracer.write(spec["trace_out"])
    return res


def _oracle_call(item, args):
    """Closure making the item's calls; modules are looked up at call time
    so traced wrappers apply."""
    import qek.ekoperator as ekop
    import qek.jackson as jackson
    import qek.qcore as qcore

    kind = item["kind"]
    if kind == "integral":
        return lambda: (ekop.ek_series(*args), ekop.ek_integral(*args))
    if kind == "kober":
        f, t, p, q = args
        return lambda: (ekop.ek_series(*args), ekop.kober(f, t, p.eta, p.mu, q))
    if kind == "qgamma":
        return lambda: qcore.q_gamma(*args)
    return lambda: jackson.jackson_integral(*args)


def _oracle_error(item, out) -> tuple[float, float]:
    """(error, tolerance) of the comparison the item comes closest to failing."""
    checks = []
    if item["kind"] in ("integral", "kober"):
        series, other = out
        gap = abs(series.value - other.value) / max(1.0, abs(series.value))
        checks.append((gap, GAP_TOL))
        out = series
    ref = item.get("ref")
    if ref is not None:
        tol = out.tail_estimate + ROUNDINGS_PER_TERM * out.terms_used * _U * abs(ref)
        checks.append((abs(out.value - ref), tol))
    return max(checks, key=lambda c: c[0] / c[1])


def run_oracle(spec) -> dict:
    from qek import functions
    from qek.cli import standard_shapes

    shapes = standard_shapes()
    calls = [_oracle_call(item, _oracle_inputs(item, shapes)) for item in spec["items"]]
    for item in spec["warm_items"]:
        _oracle_call(item, _oracle_inputs(item, shapes))()
    tracer = _install_tracer() if spec["trace"] else None
    cache0 = functions.compile_expr.cache_info()
    outs = []
    elapsed = scaled = group = 0.0
    probe = probe_seconds()
    for i, call in enumerate(calls):
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # counted as a failed check
            out = exc
        took = time.perf_counter() - start
        outs.append(out)
        elapsed += took
        group += took
        if group >= PROBE_EVERY_S or i == len(calls) - 1:
            # probes sit between items, outside the timed calls
            last, probe = probe, probe_seconds()
            scaled += group * REFERENCE_S / ((last + probe) / 2)
            group = 0.0
    rss = _peak_rss_mb()
    cache1 = functions.compile_expr.cache_info()
    if tracer:
        tracer.restore()
    res = {"items": len(calls), "elapsed": elapsed, "scaled_elapsed": scaled,
           "rss_mb": rss, "failed": 0, "messages": [], "worst": {}}
    for item, out in zip(spec["items"], outs):
        key = item["kind"]
        if isinstance(out, Exception):
            res["failed"] += 1
            res["messages"].append(f"{key} {item} raised {type(out).__name__}: {out}")
            continue
        err, tol = _oracle_error(item, out)
        res["worst"][key] = max(res["worst"].get(key, 0.0), err / tol)
        if not err <= tol:
            res["failed"] += 1
            res["messages"].append(f"{key} {item}: error {err:.3e} > tolerance {tol:.3e}")
    if tracer:
        from tracer import SpanStats

        res["layers"] = _layer_metrics(SpanStats(tracer.spans), cache0, cache1, 0)
        tracer.write(spec["trace_out"])
    return res


def main() -> None:
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
        return
    import json
    spec = json.load(sys.stdin)
    res = run_oracle(spec) if spec["workload"] == "oracle" else run_campaign(spec)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
