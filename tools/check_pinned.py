"""Check that seeded campaign reports, two sweeps, an eval and the
reduce-check line are unchanged.

Runs ``qek verify`` on six pinned campaigns, the first of them again
in a two-process pool (``--jobs 2``, which must give the same bytes), one
in CSV in a pool (its later theorems' rows pass through the
temporary spools ``qek verify`` appends at the end), one of a single
theorem (T6, whose cases each index draws alone) and one of all six at
q in 0.97, 0.99, where the knots of v most often move the direct size
of the T2/T4/T6 rules. It also runs two ``qek sweep``s (one along q, one
along beta at q = 0.99, where every step after the first reads the
integral form's cached kernel record), one ``qek eval --form both`` (the
only pinned output that prints the integral form's node count and tail
estimate) and ``qek reduce-check``, all in this process, and compares
the SHA-256 of each campaign's report bytes, of each sweep's CSV and of
the eval's lines, and the reduce-check line, against the values pinned
below. Exits 0 when all match and 1 on any mismatch. Stdlib only, so it
runs where pytest is not installed:

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
     "sha256 12c62c2bcf1e216822a248f0a02dc77517e1d89775f5bfe5496049b614c0fb94"),
    ("T1-T6 --cases 200 --seed 1 --jobs 2",
     ["verify", "--theorem", "T1", "--theorem", "T2", "--theorem", "T3",
      "--theorem", "T4", "--theorem", "T5", "--theorem", "T6",
      "--cases", "200", "--seed", "1", "--no-timestamp", "--jobs", "2"],
     "sha256 12c62c2bcf1e216822a248f0a02dc77517e1d89775f5bfe5496049b614c0fb94"),
    ("T1,T5 --cases 30 --seed 3 at q in 0.97,0.99",
     ["verify", "--theorem", "T1", "--theorem", "T5", "--cases", "30",
      "--seed", "3", "--grid-q1", "0.97,0.99", "--grid-q2", "0.97,0.99",
      "--no-timestamp"],
     "sha256 568d441a2f600bc90466c4869d78e18f5c64dbe69a08444a184025902a80196a"),
    ("T1-T6 --cases 30 --seed 3 at q in 0.97,0.99",
     ["verify", "--theorem", "T1", "--theorem", "T2", "--theorem", "T3",
      "--theorem", "T4", "--theorem", "T5", "--theorem", "T6",
      "--cases", "30", "--seed", "3", "--grid-q1", "0.97,0.99",
      "--grid-q2", "0.97,0.99", "--no-timestamp"],
     "sha256 12253ab93015d67df63cff18f11567c2f98cc8b8800da5c880b888d787b2fb76"),
    ("T1,T2 --cases 200 --seed 1, expect reversed",
     ["verify", "--theorem", "T1", "--theorem", "T2", "--cases", "200",
      "--seed", "1", "--expect", "reversed", "--no-timestamp"],
     "sha256 e096552c9c6b2dad069b1e8a5c47f3f03559007cb48963555a367890028e34f2"),
    ("sweep over q in [0.5, 0.99], piecewise-linear plus power",
     ["sweep", "--axis", "q", "--start", "0.5", "--stop", "0.99", "--steps",
      "8", "--eta", "-0.5", "--mu", "1.5", "--beta", "2", "--t", "1.3",
      "--f", "(sum (piecewise_linear (0 0.1) (0.8 0.3) (1 1)) (power 1.5))"],
     "sha256 5b79095af14f5214853a4f4c82942197e62883b994e33bfbc09a2c12fc9add97"),
    ("sweep over beta in [0.5, 2] at q = 0.99, piecewise-linear plus power",
     ["sweep", "--axis", "beta", "--start", "0.5", "--stop", "2", "--steps",
      "7", "--q", "0.99", "--eta", "-0.5", "--mu", "1.5", "--t", "1.3",
      "--f", "(sum (piecewise_linear (0 0.1) (0.8 0.3) (1 1)) (power 1.5))"],
     "sha256 4144fb5fe4fdc5ac17a7cc33be5bec7ea4d5c5394f701b602d732470e12cf58e"),
    ("eval of both forms at q = 0.99, piecewise-linear plus power",
     ["eval", "--q", "0.99", "--eta", "-0.5", "--mu", "1.5", "--beta", "2",
      "--t", "1.3", "--f",
      "(sum (piecewise_linear (0 0.1) (0.8 0.3) (1 1)) (power 1.5))",
      "--form", "both"],
     "sha256 a3c83d9ff585f621057e2b0084e4248ab99d797c92c85f0be56bd57a8028b37b"),
    ("T1-T6 --cases 40 --seed 7 --format csv --jobs 2",
     ["verify", "--theorem", "T1", "--theorem", "T2", "--theorem", "T3",
      "--theorem", "T4", "--theorem", "T5", "--theorem", "T6",
      "--cases", "40", "--seed", "7", "--format", "csv", "--no-timestamp",
      "--jobs", "2"],
     "sha256 1abb704f5e273e6de4989c8d92a24269e54d8e9241e90fe168955e0cd0edeef7"),
    ("T6 --cases 60 --seed 11, one theorem",
     ["verify", "--theorem", "T6", "--cases", "60", "--seed", "11",
      "--no-timestamp"],
     "sha256 e6c74fd8b232e9bb5c3c8689b3b226563f5881b5d4cf7c8aab306d12bf01c4fa"),
    ("reduce-check",
     ["reduce-check"],
     "max relative gap 8.162e-15 at (q, eta, mu, shape)=(0.9, -0.5, 2.0, 0)"),
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
