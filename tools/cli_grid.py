"""Fixed grid of in-process CLI calls, one fingerprint line per call.

Runs about a hundred ``infconv`` command lines through ``infconv.cli.main``:
every subcommand in all three formats, real and complex laws, K = 1 and
K = 10 laws, ``--config`` before and after the subcommand, the error exits
and ``selftest``.  Each call prints one line: the arguments, the exit code,
and the sha256 of stdout and of stderr.  A call that raises out of ``main``
prints ``exit=raised:<exception type>`` in place of the exit code (its
traceback goes to the real stderr), so the grid runs to the end on a tree
that crashes.  Output of two source trees can be compared with ``diff``:

    python tools/cli_grid.py > new.txt
    python tools/cli_grid.py --src ../other/src > old.txt
    diff old.txt new.txt

The input laws are literal JSON written here, not by the package, so both
trees read the same bytes.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path


def _law(values, primes) -> str:
    enc = [[v.real, v.imag] for v in map(complex, values)]
    encp = [[v.real, v.imag] for v in map(complex, primes)]
    return json.dumps({"K": len(enc), "m": enc, "m_prime": encp})


LAWS = {
    # free Poisson(2) moments with m'_n = n m_n / 2
    "real6.json": _law([2, 6, 22, 90, 394, 1806], [1, 6, 33, 180, 985, 5418]),
    "cplx6.json": _law([1 + 0.5j, 0.5 - 1j, 2j, -1 + 0.25j, 0.75, 1.5 - 0.5j],
                       [0.25, -1j, 0.5 + 0.5j, 1, -0.75j, 2]),
    "k1x.json": _law([1.5], [0.25]),
    "k1y.json": _law([2.0], [-0.5]),
    "k1c.json": _law([0.5 - 1j], [1 + 2j]),
    # Catalan moments, m'_n = n
    "cat10.json": _law([1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796], range(1, 11)),
    "pm10.json": _law([1.25 ** n for n in range(1, 11)], [0.5] * 10),
    "zeromean.json": _law([0, 1, 0], [0, 0, 0]),
}
FILES = {
    "bad.json": "{not json",
    "ragged.json": json.dumps({"K": 2, "m": [1.0], "m_prime": [0.0, 0.0]}),
    "kinf.json": '{"K": 1e400, "m": [1.0]}',
    "kfrac.json": '{"K": 2.5, "m": [1, 2], "m_prime": [0, 0]}',
    "nan.json": '{"K": 3, "m": [NaN, 2.0, 5.0]}',
    "infinity.json": '{"K": 2, "m": [1.0, 2.0], "m_prime": [Infinity, -Infinity]}',
    # finite, but the routes overflow on it
    "huge.json": '{"K": 4, "m": [1e308, 1e308, 1e308, 1e308]}',
    "cfg.txt": "format=json\nK=3\nkind=t\n",
    "cfg_noeq.txt": "format json\n",
    "cfg_unknown.txt": "colour=red\n",
}
FORMATS = ("pretty", "json", "csv")
KINDS = ("psi", "eta_tilde", "eta_plain", "kappa", "rho", "s", "t")


def grid() -> list[tuple[list[str], str]]:
    """(argv, stdin text) for every call, in a fixed order."""
    calls: list[list[str]] = []
    for fmt in FORMATS:
        calls += [["partitions", "3", "--format", fmt],
                  ["partitions", "3", "--kind", "ncl", "--format", fmt],
                  ["partitions", "4", "--classof", "1n", "--format", fmt]]
    calls += [["partitions", "4", "--classof", "{{1,2},{3,4}}"],
              ["partitions", "1", "--kind", "ncl"],
              ["partitions", "4", "--classof", "{{1,3},{2,4}}"],
              ["partitions", "13"]]
    for law in ("real6.json", "cplx6.json", "k1x.json", "pm10.json"):
        calls += [["law", "--in", law, "--emit", "transform", "--kind", k] for k in KINDS]
    for fmt in FORMATS:
        calls += [["law", "--in", "real6.json", "--emit", emit, "--format", fmt]
                  for emit in ("cumulants", "tcoeffs")]
        calls.append(["law", "--in", "k1c.json", "--emit", "transform", "--kind", "t",
                      "--format", fmt])
    calls += [["law", "--in", "cplx6.json", "--emit", "tcoeffs", "--format", "json"],
              ["law", "--in", "k1x.json", "--emit", "tcoeffs"],
              ["law", "--in", "k1x.json", "--emit", "cumulants"],
              ["law", "--in", "cat10.json", "--emit", "tcoeffs", "--format", "csv"],
              ["law", "--in", "real6.json", "--emit", "tcoeffs", "-K", "3"],
              ["law", "--in", "real6.json", "--emit", "transform"],
              ["law", "--in", "real6.json", "--emit", "cumulants", "-K", "7"],
              ["law", "--in", "zeromean.json", "--emit", "transform", "--kind", "s"],
              ["law", "--in", "zeromean.json", "--emit", "tcoeffs"],
              ["law", "--in", "bad.json", "--emit", "cumulants"],
              ["law", "--in", "ragged.json", "--emit", "cumulants"],
              ["law", "--in", "missing.json", "--emit", "cumulants"],
              ["law", "--in", "kinf.json", "--emit", "cumulants"],
              ["law", "--in", "kfrac.json", "--emit", "cumulants"],
              ["law", "--in", "nan.json", "--emit", "tcoeffs"],
              ["law", "--in", "infinity.json", "--emit", "tcoeffs"],
              ["law", "--in", "huge.json", "--emit", "cumulants"],
              ["law", "--in", "huge.json", "--emit", "transform", "--kind", "eta_plain"]]
    pairs = (("real6.json", "real6.json"), ("cplx6.json", "real6.json"),
             ("k1x.json", "k1y.json"), ("cat10.json", "pm10.json"))
    for x, y in pairs:
        calls += [["convolve", "--kind", kind, "--law-x", x, "--law-y", y, "--verify"]
                  for kind in ("free", "boolean", "monotone")]
    for fmt in ("json", "csv"):
        calls += [["convolve", "--kind", kind, "--law-x", "cplx6.json", "--law-y",
                   "cplx6.json", "--verify", "--format", fmt]
                  for kind in ("free", "boolean", "monotone")]
    calls += [["convolve", "--kind", "monotone", "--order", "xy", "--law-x", "real6.json",
               "--law-y", "cplx6.json", "--verify"],
              ["convolve", "--kind", "free", "--law-x", "k1c.json", "--law-y", "k1x.json",
               "--format", "json"],
              ["convolve", "--law-x", "real6.json", "--law-y", "k1x.json", "-K", "3"],
              ["convolve", "--kind", "free", "--law-x", "zeromean.json", "--law-y",
               "real6.json"],
              ["convolve", "--kind", "free", "--law-x", "kinf.json", "--law-y", "real6.json"],
              ["convolve", "--kind", "free", "--law-x", "kfrac.json", "--law-y", "real6.json"],
              ["convolve", "--kind", "boolean", "--law-x", "huge.json", "--law-y", "huge.json",
               "--verify", "--format", "json"]]
    wish = ["wishart", "--c", "1", "--cprime", "1", "--N", "16,32", "--trials", "20",
            "--kmax", "2", "--seed", "7"]
    calls += [wish + ["--format", fmt] for fmt in FORMATS]
    calls += [wish + ["--product"], ["wishart", "--N", "16"],
              ["wishart", "--c", "inf"], ["wishart", "--c", "1", "--cprime", "nan"],
              ["wishart", "--c", "1e308"]]
    calls += [["--config", "cfg.txt", "law", "--in", "real6.json", "--emit", "transform"],
              ["law", "--config", "cfg.txt", "--in", "real6.json", "--emit", "transform"],
              ["--config", "cfg.txt", "law", "--in", "cplx6.json", "--emit", "tcoeffs",
               "--format", "pretty"],
              ["convolve", "--config", "cfg.txt", "--law-x", "real6.json", "--law-y",
               "cplx6.json", "--verify"],
              ["--config", "cfg_noeq.txt", "partitions", "2"],
              ["partitions", "2", "--config", "cfg_unknown.txt"],
              ["--config", "missing.txt", "partitions", "2"],
              ["frobnicate"],
              ["partitions", "3", "--kind", "nx"],
              ["selftest"]]
    out = [(argv, "") for argv in calls]
    out.append((["law", "--in", "-", "--emit", "cumulants"], LAWS["cplx6.json"]))
    return out


def run_call(main, argv: list[str], stdin_text: str) -> tuple[int | str, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # a crash: uncaught by the CLI
                code = f"raised:{type(exc).__name__}"
                traceback.print_exc(file=sys.__stderr__)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue().encode(), err.getvalue().encode()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source tree holding the infconv package (default: this repo)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from infconv.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in {**LAWS, **FILES}.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv, stdin_text in grid():
                code, out, err = run_call(cli_main, argv, stdin_text)
                print(f"{' '.join(argv)}\texit={code}"
                      f"\tout={hashlib.sha256(out).hexdigest()}"
                      f"\terr={hashlib.sha256(err).hexdigest()}", flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
