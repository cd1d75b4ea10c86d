"""Check that seeded campaign reports, a sweep, an eval and the reduce-check
line are unchanged.

Runs ``qek verify`` on three pinned campaigns, the first of them again
in a two-process pool (``--jobs 2``, which must give the same bytes), one
``qek sweep``, one ``qek eval --form both`` (the only pinned output that
prints the integral form's node count and tail estimate) and ``qek
reduce-check`` in this process, then compares the SHA-256 of each
campaign's report bytes, of the sweep's CSV and of the eval's lines, and
the reduce-check line, against the values pinned below. Exits 0 when all
match and 1 on any mismatch. Stdlib only, so it runs where pytest is
not installed:

    python tools/check_pinned.py

The ``qek`` package is imported from the ``src`` directory next to this
script. A change that alters report bytes on purpose updates the pinned
value here and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qek.cli import main  # noqa: E402

PINNED = (
    ("T1-T6 --cases 200 --seed 1",
     ["verify", "--theorem", "T1", "--theorem", "T2", "--theorem", "T3",
      "--theorem", "T4", "--theorem", "T5", "--theorem", "T6",
      "--cases", "200", "--seed", "1", "--no-timestamp"],
     "sha256 f93d6f8a439188125002f14d3860c248a18bdacddf8b419f507269ba98de2ee4"),
    ("T1-T6 --cases 200 --seed 1 --jobs 2",
     ["verify", "--theorem", "T1", "--theorem", "T2", "--theorem", "T3",
      "--theorem", "T4", "--theorem", "T5", "--theorem", "T6",
      "--cases", "200", "--seed", "1", "--no-timestamp", "--jobs", "2"],
     "sha256 f93d6f8a439188125002f14d3860c248a18bdacddf8b419f507269ba98de2ee4"),
    ("T1,T5 --cases 30 --seed 3 at q in 0.97,0.99",
     ["verify", "--theorem", "T1", "--theorem", "T5", "--cases", "30",
      "--seed", "3", "--grid-q1", "0.97,0.99", "--grid-q2", "0.97,0.99",
      "--no-timestamp"],
     "sha256 61e6721c070c680d6474606b8573f3025545561a5c518332dbac3d99004f2504"),
    ("T1,T2 --cases 200 --seed 1 asynchronous, expect reversed",
     ["verify", "--theorem", "T1", "--theorem", "T2", "--cases", "200",
      "--seed", "1", "--family", "asynchronous", "--expect", "reversed",
      "--no-timestamp"],
     "sha256 bc1d7ed8a883eef696c73e4691c936c0c843ab35dcd962cfa104b90ef7b9504d"),
    ("sweep over q in [0.5, 0.99], piecewise-linear plus power",
     ["sweep", "--axis", "q", "--start", "0.5", "--stop", "0.99", "--steps",
      "8", "--eta", "-0.5", "--mu", "1.5", "--beta", "2", "--t", "1.3",
      "--f", "(sum (piecewise_linear (0 0.1) (0.8 0.3) (1 1)) (power 1.5))"],
     "sha256 8096e76e375aac55ab21474b43ce9ebd87ae05e782aa034f4e16551dace3812d"),
    ("eval of both forms at q = 0.99, piecewise-linear plus power",
     ["eval", "--q", "0.99", "--eta", "-0.5", "--mu", "1.5", "--beta", "2",
      "--t", "1.3", "--f",
      "(sum (piecewise_linear (0 0.1) (0.8 0.3) (1 1)) (power 1.5))",
      "--form", "both"],
     "sha256 8d7491b038e85bf6a3096398394c9d107a6e27791f9479ac076a33a5a77c8b01"),
    ("reduce-check",
     ["reduce-check"],
     "max relative gap 1.418e-14 at (q, eta, mu, shape)=(0.9, -0.5, 0.5, 0)"),
)


def observed(argv: list[str]) -> str:
    """A verify, sweep or eval run's output hash, or the one line
    reduce-check prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    text = out.getvalue()
    if argv[0] in ("verify", "sweep", "eval"):
        return "sha256 " + hashlib.sha256(text.encode("utf-8")).hexdigest()
    return text.strip()


def run() -> int:
    failed = 0
    for name, argv, want in PINNED:
        got = observed(argv)
        if got == want:
            print(f"ok        {name}: {got}")
        else:
            failed += 1
            print(f"MISMATCH  {name}: got {got!r}, pinned {want!r}")
    print(f"{len(PINNED) - failed} of {len(PINNED)} pinned outputs match "
          f"on Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
