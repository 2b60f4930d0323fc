"""Command-line front end.

Subcommands: partitions | law | convolve | wishart | selftest.  Output in
json, csv, or pretty text; all numbers printed at 12 significant digits so
runs are byte-reproducible given the same flags and seed.

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 mathematical domain error.

An optional --config file holds flat key=value pairs (format, seed, K, kind,
order, c, cprime, N, trials, kmax); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import checks
from . import cumulants as _cum
from . import laws as _laws
from .convolve import ORACLE_MAX_K, ProductKind, convolve_by_transform, verify
from .dual import DualRecord
from .errors import (
    ConfigError,
    InfconvError,
    InvalidInputError,
    MathDomainError,
)
from .laws import InfLaw, TransformKind
from .partitions import (
    SetPartition,
    enumerate_nc,
    enumerate_ncl,
    linked_class,
    parse_partition_text,
)
from .wishart import WishartConfig, estimate_moments, product_experiment

_CONFIG_KEYS = {
    "format": str,
    "seed": int,
    "K": int,
    "kind": str,
    "order": str,
    "c": float,
    "cprime": float,
    "N": str,
    "trials": int,
    "kmax": int,
}


def _fmt(x: float) -> str:
    x = float(x)
    if x == 0:
        x = 0.0  # avoid '-0'
    return f"{x:.12g}"


def _cfmt(x: complex) -> str:
    x = complex(x)
    if x.imag == 0:
        return _fmt(x.real)
    return f"{_fmt(x.real)}{'+' if x.imag >= 0 else '-'}{_fmt(abs(x.imag))}j"


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit_json(obj) -> str:
    return json.dumps(_round12(obj), indent=2, sort_keys=False)


def _load_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}") from exc
    return out


def _pick(args, config: dict, key: str, default):
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _read_law(path: str) -> InfLaw:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"cannot read law file: {exc}") from exc
    return InfLaw.from_json(text)


# -- partitions ----------------------------------------------------------------


def cmd_partitions(args, config: dict, out) -> int:
    n = args.n
    kind = _pick(args, config, "kind", "nc")
    if kind not in ("nc", "ncl"):
        raise ConfigError("kind must be nc or ncl")
    fmt = _pick(args, config, "format", "pretty")
    classof = getattr(args, "classof", None)
    if classof is not None:
        if classof == "1n":
            sigma = SetPartition.of(n, [list(range(1, n + 1))])
        else:
            sigma = parse_partition_text(classof, n=n, linked=False)
        items = linked_class(sigma)
    elif kind == "nc":
        items = enumerate_nc(n)
    else:
        items = enumerate_ncl(n)
    forms = [str(p) for p in items]
    if fmt == "json":
        obj = {"n": n, "kind": kind, "count": len(forms), "partitions": forms}
        if classof is not None:
            obj["classof"] = classof
        out.write(_emit_json(obj) + "\n")
    elif fmt == "csv":
        out.write("partition\n")
        for f in forms:
            out.write(f'"{f}"\n')
    else:
        for f in forms:
            out.write(f + "\n")
        out.write(f"count: {len(forms)}\n")
    return 0


# -- law -----------------------------------------------------------------------


def cmd_law(args, config: dict, out) -> int:
    law = _read_law(args.infile)
    K = _pick(args, config, "K", None)
    if K is not None:
        if not 1 <= K <= law.K:
            raise ConfigError(f"K must be in 1..{law.K} for this law")
        law = law.truncated(K)
    emit = args.emit
    fmt = _pick(args, config, "format", "pretty")
    if emit == "transform":
        kind_name = _pick(args, config, "kind", None)
        if kind_name is None:
            raise ConfigError("emit=transform needs --kind")
        kind = TransformKind.from_name(kind_name)
        with np.errstate(over="ignore", invalid="ignore"):
            series = _laws.transform(kind, law)
        _require_finite(kind.value, 0, series.body, series.eps)
        if fmt == "json":
            out.write(_emit_json({"kind": kind.value,
                                  "series": series.to_json_obj()}) + "\n")
        elif fmt == "csv":
            out.write("n,re,im,re_prime,im_prime\n")
            for k in range(series.order + 1):
                v = series.coeff(k)
                out.write(f"{k},{_fmt(v.body.real)},{_fmt(v.body.imag)},"
                          f"{_fmt(v.eps.real)},{_fmt(v.eps.imag)}\n")
        else:
            out.write(f"{kind.value} (order {series.order})\n")
            for k in range(series.order + 1):
                v = series.coeff(k)
                out.write(f"  z^{k}: {_cfmt(v.body)} (d: {_cfmt(v.eps)})\n")
        return 0
    with np.errstate(over="ignore", invalid="ignore"):
        if emit == "cumulants":
            rec, first = _cum.cumulants_from_moments(law), 1
        elif emit == "tcoeffs":
            rec, first = _cum.t_coeffs_from_moments(law), 0
        else:
            raise ConfigError(f"unknown emit target {emit!r}")
    _require_finite(rec.ARRAYS[0], first, *(getattr(rec, a) for a in rec.ARRAYS))
    if fmt == "json":
        out.write(_emit_json(rec.to_json_obj()) + "\n")
    else:
        _write_record(rec, first, fmt, out)
    return 0


def _require_finite(name: str, first: int, body, eps) -> None:
    """MathDomainError naming the first entry of a result that is not finite.

    Inputs are finite (json_complex rejects the rest), so such an entry comes
    from an overflow, which this reports in place of numpy's warnings.
    """
    bad = ~(np.isfinite(body) & np.isfinite(eps))
    if bad.any():
        k = int(np.argmax(bad))
        raise MathDomainError(f"{name}[{first + k}] is not finite ({_cfmt(body[k])}, "
                              f"eps part {_cfmt(eps[k])}): the route overflowed")


def _write_record(rec: DualRecord, first: int, fmt: str, out) -> None:
    """csv or pretty table of a dual record, rows numbered from `first`."""
    body, eps = rec.ARRAYS
    rows = zip(range(first, first + rec.K), getattr(rec, body), getattr(rec, eps))
    if fmt == "csv":
        out.write(f"n,{body},{eps}\n")
        for n, b, e in rows:
            out.write(f"{n},{_cfmt(b)},{_cfmt(e)}\n")
    else:
        for n, b, e in rows:
            out.write(f"{body}[{n}] = {_cfmt(b)}   {body}'[{n}] = {_cfmt(e)}\n")


# -- convolve --------------------------------------------------------------------


def cmd_convolve(args, config: dict, out) -> int:
    kind = ProductKind.from_name(_pick(args, config, "kind", "free"))
    lawx = _read_law(args.law_x)
    lawy = _read_law(args.law_y)
    K = _pick(args, config, "K", None)
    order = _pick(args, config, "order", "yx")
    fmt = _pick(args, config, "format", "pretty")
    with np.errstate(over="ignore", invalid="ignore"):
        product = convolve_by_transform(kind, lawx, lawy, K=K, order=order)
    _require_finite("product m", 1, product.m, product.m_prime)
    report = None
    if args.verify:
        vk = K if K is not None else min(lawx.K, lawy.K)
        vk = min(vk, ORACLE_MAX_K[kind])
        report = verify(kind, lawx, lawy, vk, order=order)
    if fmt == "json":
        obj = {"kind": kind.value, "law": product.to_json_obj()}
        if report is not None:
            obj["verify"] = report.to_json_obj()
        out.write(_emit_json(obj) + "\n")
    elif fmt == "csv":
        _write_record(product, 1, fmt, out)
        if report is not None:
            out.write(f"# verify pass={report.passed} body={report.deviation_body:.3e}"
                      f" eps={report.deviation_eps:.3e}\n")
    else:
        out.write(f"{kind.value} product law (K = {product.K})\n")
        _write_record(product, 1, fmt, out)
        if report is not None:
            out.write(f"verify: {'pass' if report.passed else 'FAIL'} "
                      f"(body {report.deviation_body:.3e}, "
                      f"eps {report.deviation_eps:.3e}, tol {report.tol:g})\n")
    if report is not None and not report.passed:
        return 1
    return 0


# -- wishart ---------------------------------------------------------------------


def _parse_sizes(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad size list {text!r}") from exc


def cmd_wishart(args, config: dict, out) -> int:
    c = _pick(args, config, "c", None)
    if c is None:
        raise ConfigError("wishart needs --c")
    cfg = WishartConfig(
        c=float(c),
        c_prime=float(_pick(args, config, "cprime", 0.0)),
        N_list=_parse_sizes(_pick(args, config, "N", "100,200,400")),
        trials=int(_pick(args, config, "trials", 1000)),
        k_max=int(_pick(args, config, "kmax", 4)),
        seed=int(_pick(args, config, "seed", 0)),
    )
    est = product_experiment(cfg) if args.product else estimate_moments(cfg)
    fmt = _pick(args, config, "format", "pretty")
    if fmt == "json":
        text = _emit_json(est.to_json_obj()) + "\n"
    elif fmt == "csv":
        text = est.to_csv()
    else:
        lines = [f"{'N':>6} {'k':>2} {'mean':>16} {'stderr':>12} {'phi_pred':>16} "
                 f"{'phi_prime_est':>16} {'phi_prime_pred':>16}"]
        for r in est.rows:
            lines.append(f"{r.N:>6} {r.k:>2} {_fmt(r.mean):>16} {_fmt(r.stderr):>12} "
                         f"{_fmt(r.phi_pred):>16} {_fmt(r.phi_prime_est):>16} "
                         f"{_fmt(r.phi_prime_pred):>16}")
        lines.append("extrapolated:")
        for e in est.extrapolation:
            lines.append(f"  k={e.k} phi = {_fmt(e.phi_est)} +- {_fmt(e.phi_stderr)} "
                         f"(pred {_fmt(e.phi_pred)}), phi' = {_fmt(e.phi_prime_est)} "
                         f"+- {_fmt(e.phi_prime_stderr)} (pred {_fmt(e.phi_prime_pred)})")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0 if est.checks_pass() else 1


# -- selftest --------------------------------------------------------------------


def cmd_selftest(args, config: dict, out) -> int:
    rng = np.random.default_rng(314159)
    failures = 0
    for name, entries in checks.SELFTEST:
        try:
            msg = checks.first_failure(rng, entries)
        except InfconvError as exc:
            msg = str(exc)
        if msg is None:
            out.write(f"ok   {name}\n")
        else:
            failures += 1
            out.write(f"FAIL {name}: {msg}\n")
    out.write(f"{len(checks.SELFTEST) - failures} passed, {failures} failed\n")
    return 1 if failures else 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="flat key=value config file; flags override")
    common.add_argument("--format", choices=("json", "csv", "pretty"),
                        default=argparse.SUPPRESS,
                        help="output format (default pretty)")
    p = argparse.ArgumentParser(
        prog="infconv",
        description="Infinitesimal laws, transforms, convolutions, Wishart checks.",
    )
    p.add_argument("--config", default=None,
                   help="flat key=value config file; flags override")
    p.add_argument("--format", choices=("json", "csv", "pretty"),
                   help="output format (default pretty)")
    sub = p.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("partitions", parents=[common],
                        help="enumerate non-crossing (linked) partitions")
    pp.add_argument("n", type=int)
    pp.add_argument("--kind", choices=("nc", "ncl"))
    pp.add_argument("--classof", default=None,
                    help="'1n' or a partition literal; prints its linked class")

    pl = sub.add_parser("law", parents=[common], help="transforms, cumulants, t-coefficients of a law")
    pl.add_argument("--in", dest="infile", required=True,
                    help="law JSON file, or - for stdin")
    pl.add_argument("--emit", choices=("transform", "cumulants", "tcoeffs"),
                    required=True)
    pl.add_argument("--kind", help="transform kind (psi, eta_tilde, eta_plain, kappa, rho, s, t)")
    pl.add_argument("-K", dest="K", type=int, help="truncate the law to K moments first")

    pc = sub.add_parser("convolve", parents=[common], help="multiplicative convolution of two laws")
    pc.add_argument("--kind", choices=("free", "boolean", "monotone"))
    pc.add_argument("--law-x", dest="law_x", required=True)
    pc.add_argument("--law-y", dest="law_y", required=True)
    pc.add_argument("-K", dest="K", type=int)
    pc.add_argument("--order", choices=("yx", "xy"), help="monotone product order")
    pc.add_argument("--verify", action="store_true",
                    help="cross-check against the independence oracle")

    pw = sub.add_parser("wishart", parents=[common], help="Monte Carlo vs the limit law")
    pw.add_argument("--c", type=float)
    pw.add_argument("--cprime", type=float)
    pw.add_argument("--N", help="comma-separated sizes")
    pw.add_argument("--trials", type=int)
    pw.add_argument("--kmax", type=int)
    pw.add_argument("--seed", type=int)
    pw.add_argument("--product", action="store_true",
                    help="two independent matrices, traces of (X1 X2)^k")
    pw.add_argument("--out", default=None, help="write the report to a file")

    sub.add_parser("selftest", parents=[common], help="run the invariant suite")
    return p


_COMMANDS = {
    "partitions": cmd_partitions,
    "law": cmd_law,
    "convolve": cmd_convolve,
    "wishart": cmd_wishart,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config_file(args.config) if args.config else {}
        if "format" in config and config["format"] not in ("json", "csv", "pretty"):
            raise ConfigError("config format must be json, csv, or pretty")
        return _COMMANDS[args.command](args, config, sys.stdout)
    except MathDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
