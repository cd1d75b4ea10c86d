"""Command line front end: operator evaluation, inequality campaigns,
convergence sweeps, and machine-readable reporting.

Campaigns are reproducible: every case derives its own RNG seed from the
global seed and the case index through a fixed 64-bit mixer, so identical
configs produce byte-identical report files (modulo the suppressible
timestamp header). Exit codes: 0 all checks hold, 1 at least one
violation, 2 usage/config error, 3 an unexpected exception (its traceback
goes to stderr).

``qek verify`` runs in constant memory: one ordered engine maps a row
worker over the case indices (in-process, or in a process pool with
--jobs N; the pool is imported on its first use, so a command that runs
none loads no ``multiprocessing``). The worker draws a case index once
for all its theorems (one t, q1, q2, p1, p2, u and v, and one family per
kind) and evaluates every theorem of it, so theorems whose cases have
equal rule inputs share one pair of rules and one table of operator
values (``inequalities.evaluate_case``'s ``shared``). Rows still come out
theorem-major: the first theorem's are written as they come and each
later theorem's are spooled to a temporary file that is appended at the
end. The summary is tallied as rows pass, so no report is kept and none
is pickled.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import sys
import tempfile
from collections import Counter, defaultdict, deque, namedtuple
from functools import partial
from itertools import islice

from .ekoperator import OperatorParams, ek_integral, ek_series, kober
from .errors import QekError
from .functions import (
    FunctionSpec,
    PiecewiseLinear,
    generate_family,
    generate_weight,
    parse_function_spec,
)
from .inequalities import (
    _THEOREMS,
    InequalityReport,
    TheoremCase,
    evaluate_case,
)
from .qcore import (
    DEFAULT_POLICY,
    DeformationParam,
    TruncationPolicy,
    _Validated,
)

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CampaignTally",
    "mix_seed",
    "derive_case",
    "run_campaign",
    "report_row",
    "rows_to_jsonl",
    "rows_to_csv",
    "format_row",
    "standard_shapes",
    "reduce_check_rows",
    "sweep_rows",
    "main",
    "REPORT_COLUMNS",
]

REPORT_COLUMNS = (
    "case_index", "theorem", "t", "q1", "q2", "eta", "mu", "beta",
    "zeta", "nu", "delta", "lhs", "rhs", "margin", "worst_tail",
    "verdict", "f_spec", "g_spec", "h_spec", "u_spec", "v_spec",
)

_MASK64 = (1 << 64) - 1

# Case indices per pool task (each index runs every theorem of the
# campaign), and pool tasks in flight per worker process.
_CHUNK = 8
_CHUNKS_AHEAD = 4


def mix_seed(global_seed: int, case_index: int) -> int:
    """Derive a per-case seed: splitmix64 step of seed + golden-ratio
    stride times the index (stable across platforms)."""
    x = (global_seed + 0x9E3779B97F4A7C15 * (case_index + 1)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


_CONFIG_DEFAULTS = {
    "theorems": ("T1",),
    "cases": 100,
    "seed": 0,
    "t_values": (0.5, 1.0, 2.0),
    "q1_grid": (0.3, 0.6, 0.9),
    "q2_grid": (0.3, 0.6, 0.9),
    "eta_grid": (-0.5, 0.0, 1.0),
    "mu_grid": (0.5, 1.0, 2.0),
    "beta_grid": (0.5, 1.0, 2.0),
    "zeta_grid": (-0.5, 0.0, 1.0),
    "nu_grid": (0.5, 1.0, 2.0),
    "delta_grid": (0.5, 1.0, 2.0),
    "expect": "holds",  # "reversed": T1/T2 draw asynchronous f, g
    "rel_tol": DEFAULT_POLICY.rel_tol,
    "max_terms": DEFAULT_POLICY.max_terms,
    "jobs": 1,
}


class CampaignConfig(_Validated, namedtuple(
        "CampaignConfig", _CONFIG_DEFAULTS,
        defaults=_CONFIG_DEFAULTS.values())):
    """Reproducible campaign description; every field is validated up
    front, ``rel_tol`` and ``max_terms`` together as ``policy``, the
    :class:`TruncationPolicy` they form, which is built again on each
    read and is not a field."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for i, tid in enumerate(self.theorems):
            if tid not in _THEOREMS:
                raise ValueError(f"unknown theorem id {tid!r}")
            if tid in self.theorems[:i]:
                raise ValueError(f"theorem id {tid!r} given twice")
        if self.cases <= 0:
            raise ValueError("case count must be positive")
        for value in (self.t_values + self.q1_grid + self.q2_grid
                      + self.eta_grid + self.mu_grid + self.beta_grid
                      + self.zeta_grid + self.nu_grid + self.delta_grid):
            if not math.isfinite(value):
                raise ValueError(f"grid values must be finite, got {value}")
        for q in self.q1_grid + self.q2_grid:
            DeformationParam(q)
        for t in self.t_values:
            if not t > 0.0:
                raise ValueError("t values must be positive")
        for eta in self.eta_grid + self.zeta_grid:
            if not eta > -1.0:
                raise ValueError("eta/zeta grid values must exceed -1")
        for m in self.mu_grid + self.nu_grid + self.beta_grid + self.delta_grid:
            if not m > 0.0:
                raise ValueError("mu/nu/beta/delta grid values must be positive")
        if self.expect not in ("holds", "reversed"):
            raise ValueError(f"unknown expectation {self.expect!r}")
        if self.jobs <= 0:
            raise ValueError("jobs must be positive")
        self.policy  # raises on an invalid rel_tol or max_terms
        return self

    @property
    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(self.rel_tol, self.max_terms)


def _index_cases(config: CampaignConfig, theorems,
                 case_index: int) -> list[TheoremCase]:
    """The cases of ``theorems`` at case number ``case_index``, in the
    given order, from one draw of the index's RNG: t, q1, q2, p1 and p2,
    then the family, u and v seeds. u, each family kind and v (when first
    needed) are built once, so the theorems share those objects. A
    synchronous triple is drawn as the bounded triple, which holds the same
    trees and their bounds, so T1-T4 share one triple; only the bounded
    theorems get the bounds. A reversed campaign draws T1/T2's f, g, h as
    the asynchronous pair plus a nonnegative h instead, and marks those
    cases reversed; its other theorems' cases are drawn as usual."""
    rng = random.Random(mix_seed(config.seed, case_index))
    t = rng.choice(config.t_values)
    q1 = DeformationParam(rng.choice(config.q1_grid))
    q2 = DeformationParam(rng.choice(config.q2_grid))
    p1 = OperatorParams(rng.choice(config.eta_grid),
                        rng.choice(config.mu_grid),
                        rng.choice(config.beta_grid))
    p2 = OperatorParams(rng.choice(config.zeta_grid),
                        rng.choice(config.nu_grid),
                        rng.choice(config.delta_grid))
    family_seed = rng.getrandbits(63)
    u = generate_weight(rng.getrandbits(63), t)
    families: dict = {}
    v = None
    cases = []
    for theorem in theorems:
        _, weight2, _, kind = _THEOREMS[theorem]
        draw = kind
        flip = False
        if kind == "synchronous_triple":
            flip = config.expect == "reversed"
            draw = "asynchronous_pair_plus_nonneg" if flip else "bounded_triple"
        fam = families.get(draw)
        if fam is None:
            fam = families[draw] = generate_family(draw, family_seed, t)
        if weight2 == "v" and v is None:
            v = generate_weight(rng.getrandbits(63), t)
        cases.append(TheoremCase(
            theorem_id=theorem, t=t, q1=q1, q2=q2, p1=p1, p2=p2, u=u,
            f=fam.f, g=fam.g, h=fam.h, v=v if weight2 == "v" else None,
            bounds=fam.bounds if kind == "bounded_triple" else None,
            lipschitz=fam.lipschitz, reversed=flip))
    return cases


def derive_case(config: CampaignConfig, theorem: str,
                case_index: int) -> TheoremCase:
    """Deterministically derive case number ``case_index`` of a campaign."""
    return _index_cases(config, (theorem,), case_index)[0]


def _index_reports(item) -> list[tuple[int, InequalityReport]]:
    """Report worker: the (index, report) pair of every theorem at one
    case index, in config order, sharing rules and operator values
    through one ``shared`` dict."""
    config, index = item
    policy = config.policy
    shared = {}
    return [(index, evaluate_case(case, policy, shared=shared))
            for case in _index_cases(config, config.theorems, index)]


def _summary_fields(report: InequalityReport) -> tuple:
    """(theorem, verdict, margin, bracket): all a tally reads."""
    return (report.case.theorem_id, report.verdict, report.margin,
            report.bracket)


def _index_rows(fmt: str, item) -> list[tuple[str, tuple]]:
    """Row worker: the finished output line and the summary fields of every
    theorem at one case index, in config order, so no report crosses a
    process boundary. Each report is dropped before the next is made."""
    config, index = item
    policy = config.policy
    shared = {}
    rows = []
    for case in _index_cases(config, config.theorems, index):
        report = evaluate_case(case, policy, shared=shared)
        rows.append((format_row(report_row(index, report), fmt),
                     _summary_fields(report)))
        del report
    return rows


def _run_chunk(worker, items) -> list:
    return [worker(item) for item in items]


def _ordered_map(worker, config: CampaignConfig):
    """Yield ``worker((config, index))`` for every case index of the
    campaign in index order, each as soon as it and all before it are
    done.

    In-process at jobs 1. Otherwise a process pool runs chunks of
    _CHUNK indices, with at most _CHUNKS_AHEAD chunks per worker submitted
    and not yet yielded: ``Executor.map`` would submit the whole campaign
    at once and hold every result the caller has not reached yet.
    """
    work = ((config, index) for index in range(config.cases))
    if config.jobs == 1:
        yield from map(worker, work)
        return
    from concurrent.futures import ProcessPoolExecutor

    chunks = iter(lambda: list(islice(work, _CHUNK)), [])
    pending = deque()
    pool = ProcessPoolExecutor(max_workers=config.jobs)
    try:
        for chunk in chunks:
            pending.append(pool.submit(_run_chunk, worker, chunk))
            if len(pending) >= _CHUNKS_AHEAD * config.jobs:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


class CampaignTally:
    """Per-theorem summary of a campaign, updated one case at a time:
    verdict counts, smallest margin, T5/T6 bracket signs, and whether the
    campaign's expectation failed."""

    def __init__(self, config: CampaignConfig):
        self._reversed = config.expect == "reversed"
        self._counts = defaultdict(Counter)  # verdicts and bracket signs
        self._min_margin: dict[str, float] = {}
        self._failed: set[str] = set()

    def add(self, theorem: str, verdict: str, margin: float,
            bracket) -> None:
        counts = self._counts[theorem]
        counts[verdict] += 1
        if bracket is not None:
            counts["bracket_nonneg" if bracket >= 0.0 else "bracket_neg"] += 1
        if margin == margin:
            self._min_margin[theorem] = min(
                margin, self._min_margin.get(theorem, margin))
        # a reversed campaign fails on a margin that holds beyond the noise
        # threshold, a normal one on a violated margin
        if verdict == ("holds" if self._reversed else "violated"):
            self._failed.add(theorem)

    def counts(self, theorem: str) -> dict[str, int]:
        counts = self._counts[theorem]
        return {v: counts[v] for v in ("holds", "violated", "inconclusive")}

    def min_margin(self, theorem: str) -> float:
        """Smallest non-NaN margin; NaN when there is none."""
        return self._min_margin.get(theorem, float("nan"))

    def bracket_sign_counts(self, theorem: str) -> tuple[int, int]:
        counts = self._counts[theorem]
        return counts["bracket_nonneg"], counts["bracket_neg"]

    def failed(self, theorem: str) -> bool:
        return theorem in self._failed

    def summary_line(self, theorem: str) -> str:
        counts = self._counts[theorem]
        line = (f"summary {theorem}: holds={counts['holds']} "
                f"violated={counts['violated']} "
                f"inconclusive={counts['inconclusive']} "
                f"min_margin={self.min_margin(theorem):.6e}")
        if _THEOREMS[theorem].family == "lipschitz_triple":
            line += (f" bracket_nonneg={counts['bracket_nonneg']}"
                     f" bracket_neg={counts['bracket_neg']}")
        return line


class CampaignResult(namedtuple("CampaignResult", "config reports tally")):
    """A campaign's (case index, report) pairs in (theorem, index) order
    and the tally of those reports."""

    __slots__ = ()


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Evaluate every (theorem, case index) pair of the campaign and keep
    the reports.

    Case indices run one at a time, every theorem of an index together,
    and with jobs > 1 in a process pool; the reports are kept in
    (theorem, index) order either way, so output is deterministic
    regardless of parallelism. ``qek verify`` streams rows instead of
    calling this.
    """
    by_index = list(_ordered_map(_index_reports, config))
    reports = [pair for column in zip(*by_index) for pair in column]
    tally = CampaignTally(config)
    for _, report in reports:
        tally.add(*_summary_fields(report))
    return CampaignResult(config, reports, tally)


def report_row(case_index: int, report: InequalityReport) -> dict:
    case = report.case
    return {
        "case_index": case_index,
        "theorem": case.theorem_id,
        "t": case.t,
        "q1": case.q1.q,
        "q2": case.q2.q,
        "eta": case.p1.eta,
        "mu": case.p1.mu,
        "beta": case.p1.beta,
        "zeta": case.p2.eta,
        "nu": case.p2.mu,
        "delta": case.p2.beta,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "margin": report.margin,
        "worst_tail": report.worst_tail,
        "verdict": report.verdict,
        "f_spec": case.f.to_sexpr(),
        "g_spec": case.g.to_sexpr(),
        "h_spec": case.h.to_sexpr(),
        "u_spec": case.u.to_sexpr(),
        "v_spec": case.v.to_sexpr() if case.v is not None else "",
    }


def _timestamp_line() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def _csv_line(values) -> str:
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(values)
    return buf.getvalue()


def format_row(row: dict, fmt: str) -> str:
    """One report row as one output line: a JSON object with the row's key
    order, or CSV fields in the documented column order."""
    if fmt == "csv":
        return _csv_line([row[col] for col in REPORT_COLUMNS])
    return json.dumps(row) + "\n"


def _header_lines(fmt: str, timestamp: bool) -> list[str]:
    """The lines before the first row: the optional timestamp, and the
    column names for CSV."""
    lines = []
    if timestamp:
        lines.append(f"# {_timestamp_line()}\n" if fmt == "csv"
                     else json.dumps({"timestamp": _timestamp_line()}) + "\n")
    if fmt == "csv":
        lines.append(_csv_line(REPORT_COLUMNS))
    return lines


def _rows_to_text(rows, fmt: str, timestamp: bool) -> str:
    lines = _header_lines(fmt, timestamp)
    lines.extend(format_row(row, fmt) for row in rows)
    return "".join(lines)


def rows_to_jsonl(rows, timestamp: bool = True) -> str:
    """Serialize report rows as JSON lines (fixed key order)."""
    return _rows_to_text(rows, "json-lines", timestamp)


def rows_to_csv(rows, timestamp: bool = True) -> str:
    """Serialize report rows as CSV with the documented column order."""
    return _rows_to_text(rows, "csv", timestamp)


# ---------------------------------------------------------------------------
# standard grids shared by reduce-check, sweeps and the acceptance suite


def standard_shapes() -> list[FunctionSpec]:
    """The four reference integrand shapes: 1, t, t^2, monotone piecewise."""
    return [
        parse_function_spec("(const 1)"),
        parse_function_spec("(power 1)"),
        parse_function_spec("(power 2)"),
        PiecewiseLinear(((0.0, 0.0), (0.5, 0.3), (1.0, 0.5), (2.0, 1.2))),
    ]


def reduce_check_rows(policy: TruncationPolicy = DEFAULT_POLICY):
    """Compare the series operator at beta = 1 against the Kober operator,
    i.e. the integral form at beta = 1, over the standard grid; yields
    (q, eta, mu, shape index, rel gap)."""
    shapes = standard_shapes()
    for q in (0.3, 0.6, 0.9):
        for eta in (-0.5, 0.0, 1.0):
            for mu in (0.5, 1.0, 2.0):
                p = OperatorParams(eta, mu, 1.0)
                for i, shape in enumerate(shapes):
                    series = ek_series(shape, 1.0, p, q, policy).value
                    direct = kober(shape, 1.0, eta, mu, q, policy).value
                    gap = abs(series - direct) / max(1.0, abs(series))
                    yield (q, eta, mu, i, gap)


def sweep_rows(axis: str, values, q: float, eta: float, mu: float,
               beta: float, t: float, f: FunctionSpec,
               policy: TruncationPolicy):
    """Convergence sweep along one parameter axis; yields CSV-ready rows."""
    for val in values:
        kw = {"q": q, "eta": eta, "mu": mu, "beta": beta}
        kw[axis] = val
        p = OperatorParams(kw["eta"], kw["mu"], kw["beta"])
        series = ek_series(f, t, p, kw["q"], policy)
        integral = ek_integral(f, t, p, kw["q"], policy)
        gap = abs(series.value - integral.value) / max(1.0, abs(series.value))
        yield (val, series.terms_used, series.tail_estimate, series.value,
               integral.value, gap)


# ---------------------------------------------------------------------------
# command implementations


def _policy_from_args(args) -> TruncationPolicy:
    return TruncationPolicy(rel_tol=args.tol, max_terms=args.max_terms)


def _check_t(t: float) -> None:
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t}")


def cmd_eval(args) -> int:
    q = DeformationParam(args.q)
    p = OperatorParams(args.eta, args.mu, args.beta)
    spec = parse_function_spec(args.f)
    policy = _policy_from_args(args)
    _check_t(args.t)
    results = {}
    if args.form in ("series", "both"):
        results["series"] = ek_series(spec, args.t, p, q, policy)
    if args.form in ("integral", "both"):
        results["integral"] = ek_integral(spec, args.t, p, q, policy)
    for name, res in results.items():
        print(f"{name}: value={res.value!r} terms_used={res.terms_used} "
              f"tail_estimate={res.tail_estimate:.3e} converged={res.converged}")
    if args.form == "both":
        s, i = results["series"].value, results["integral"].value
        rel = abs(s - i) / max(1.0, abs(s))
        print(f"relative_difference={rel:.3e}")
    return 0


def _parse_grid(text: str) -> tuple[float, ...]:
    vals = tuple(float(x) for x in text.split(",") if x.strip())
    if not vals:
        raise ValueError(f"empty grid {text!r}")
    return vals


def _load_config_file(path: str) -> dict:
    """Flat key = value format with repeated grid.* keys for axes."""
    scalars: dict[str, str] = {}
    grids: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key.startswith("grid."):
                grids.setdefault(key[5:], []).append(val)
            else:
                scalars[key] = val
    out: dict = dict(scalars)
    for key, vals in grids.items():
        out[f"grid.{key}"] = tuple(float(v) for v in vals)
    return out


_GRID_KEYS = {
    "t": "t_values", "q1": "q1_grid", "q2": "q2_grid",
    "eta": "eta_grid", "mu": "mu_grid", "beta": "beta_grid",
    "zeta": "zeta_grid", "nu": "nu_grid", "delta": "delta_grid",
}


def _config_from_args(args) -> tuple[CampaignConfig, dict]:
    values: dict = {}
    output_keys: dict = {}
    if args.config:
        raw = _load_config_file(args.config)
        for key, val in raw.items():
            if key.startswith("grid.") and key[5:] in _GRID_KEYS:
                values[_GRID_KEYS[key[5:]]] = val
            elif key == "theorem":
                values["theorems"] = tuple(s.strip() for s in val.split(","))
            elif key in ("cases", "seed", "max_terms", "jobs"):
                values[key] = int(val)
            elif key in ("rel_tol",):
                values[key] = float(val)
            elif key == "expect":
                values[key] = val
            elif key in ("output", "format"):
                output_keys[key] = val
            elif key == "no_timestamp":
                output_keys[key] = val.lower() in ("1", "true", "yes")
            else:
                raise ValueError(f"unknown config key {key!r}")
    if args.theorem:
        values["theorems"] = tuple(args.theorem)
    if args.cases is not None:
        values["cases"] = args.cases
    if args.seed is not None:
        values["seed"] = args.seed
    if args.tol is not None:
        values["rel_tol"] = args.tol
    if args.max_terms is not None:
        values["max_terms"] = args.max_terms
    if args.jobs is not None:
        values["jobs"] = args.jobs
    if args.expect:
        values["expect"] = args.expect
    for flag, key in _GRID_KEYS.items():
        text = getattr(args, f"grid_{flag}")
        if text:
            values[key] = _parse_grid(text)
    return CampaignConfig(**values), output_keys


def cmd_verify(args) -> int:
    config, output_keys = _config_from_args(args)
    fmt = args.format or output_keys.get("format", "json-lines")
    if fmt not in ("json-lines", "csv"):
        raise ValueError(f"unknown output format {fmt!r}")
    output = args.output or output_keys.get("output")
    timestamp = not (args.no_timestamp
                     or output_keys.get("no_timestamp", False))
    tally = CampaignTally(config)
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(
            open(output, "w", encoding="utf-8", newline="") if output
            else contextlib.nullcontext(sys.stdout))
        out.writelines(_header_lines(fmt, timestamp))
        # the first theorem's rows go out as they come, each later
        # theorem's to its own spool, appended in theorem order at the end
        # (also when a case raises: the rows of every finished index stay)
        spools = [stack.enter_context(tempfile.TemporaryFile(
            "w+", encoding="utf-8", newline=""))
            for _ in config.theorems[1:]]
        try:
            for rows in _ordered_map(partial(_index_rows, fmt), config):
                for sink, (line, fields) in zip((out, *spools), rows):
                    sink.write(line)
                    tally.add(*fields)
        finally:
            for spool in spools:
                spool.seek(0)
                out.writelines(spool)
    for theorem in config.theorems:
        print(tally.summary_line(theorem), file=sys.stderr)
    return 1 if any(map(tally.failed, config.theorems)) else 0


def cmd_sweep(args) -> int:
    if args.axis not in ("q", "eta", "mu", "beta"):
        raise ValueError(f"unknown sweep axis {args.axis!r}")
    if args.steps < 1 or args.stop < args.start:
        raise ValueError("empty sweep range")
    policy = _policy_from_args(args)
    spec = parse_function_spec(args.f)
    _check_t(args.t)
    if args.steps == 1:
        values = [args.start]
    else:
        step = (args.stop - args.start) / (args.steps - 1)
        values = [args.start + k * step for k in range(args.steps)]
    header = (args.axis, "terms_used", "tail_estimate", "series_value",
              "integral_value", "relative_gap")
    rows = sweep_rows(args.axis, values, args.q, args.eta, args.mu,
                      args.beta, args.t, spec, policy)
    text = "".join(map(_csv_line, (header, *rows)))
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_reduce_check(args) -> int:
    max_gap = 0.0
    worst = None
    for q, eta, mu, shape, gap in reduce_check_rows():
        if gap > max_gap:
            max_gap = gap
            worst = (q, eta, mu, shape)
    print(f"max relative gap {max_gap:.3e} at (q, eta, mu, shape)={worst}")
    return 0 if max_gap <= args.tol else 1


def _add_policy_flags(parser):
    parser.add_argument("--tol", type=float, default=DEFAULT_POLICY.rel_tol,
                        help="relative truncation tolerance")
    parser.add_argument("--max-terms", type=int,
                        default=DEFAULT_POLICY.max_terms, dest="max_terms")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qek",
        description="q-calculus operators and inequality verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the fractional operator")
    p_eval.add_argument("--q", type=float, required=True)
    p_eval.add_argument("--eta", type=float, default=0.0)
    p_eval.add_argument("--mu", type=float, default=1.0)
    p_eval.add_argument("--beta", type=float, default=1.0)
    p_eval.add_argument("--t", type=float, default=1.0)
    p_eval.add_argument("--f", required=True, help="function s-expression")
    p_eval.add_argument("--form", choices=("series", "integral", "both"),
                        default="series")
    _add_policy_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run an inequality campaign")
    p_verify.add_argument("--config", help="flat key=value config file")
    p_verify.add_argument("--theorem", action="append",
                          help="theorem id (repeatable), e.g. T1")
    p_verify.add_argument("--cases", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--jobs", type=int)
    p_verify.add_argument("--expect", choices=("holds", "reversed"))
    for flag in _GRID_KEYS:
        p_verify.add_argument(f"--grid-{flag}", dest=f"grid_{flag}",
                              help=f"comma-separated {flag} grid")
    p_verify.add_argument("--output")
    p_verify.add_argument("--format", choices=("json-lines", "csv"),
                          default=None)
    p_verify.add_argument("--no-timestamp", action="store_true")
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--max-terms", type=int, default=None,
                          dest="max_terms")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="convergence sweep along one axis")
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--q", type=float, default=0.5)
    p_sweep.add_argument("--eta", type=float, default=0.0)
    p_sweep.add_argument("--mu", type=float, default=1.0)
    p_sweep.add_argument("--beta", type=float, default=1.0)
    p_sweep.add_argument("--t", type=float, default=1.0)
    p_sweep.add_argument("--f", default="(power 1)")
    p_sweep.add_argument("--output")
    _add_policy_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_reduce = sub.add_parser("reduce-check",
                              help="series vs Kober agreement at beta=1")
    p_reduce.add_argument("--tol", type=float, default=1e-12,
                          help="pass threshold on the max relative gap; "
                               "truncation uses the default policy")
    p_reduce.set_defaults(func=cmd_reduce_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (QekError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
