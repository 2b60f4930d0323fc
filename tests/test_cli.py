"""End-to-end checks of the command-line front end.

Everything runs in-process through ``main(argv)`` so exit codes and the
stdout/stderr split are observable without spawning subprocesses.
"""

import importlib
import json

import numpy as np
import pytest

import infconv
from infconv import DualScalar, checks, constant_cumulant_law, convolve, law_from_transform
from infconv.cli import main
from infconv.laws import InfLaw


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def limit_law_file(tmp_path):
    # Wishart-type limit law with unit mean slot: t = (2, 1, 0, ...), t' = (1, 0, ...)
    path = tmp_path / "law.json"
    path.write_text(constant_cumulant_law(2.0, 1.0, K=6).to_json())
    return str(path)


# -- package surface -------------------------------------------------------------


def test_all_names_are_exported():
    # a deleted function must not leave its name behind in __all__
    missing = [name for name in infconv.__all__ if not hasattr(infconv, name)]
    assert missing == []
    namespace = {}
    exec("from infconv import *", namespace)
    assert set(infconv.__all__) <= set(namespace)


# -- partitions ----------------------------------------------------------------


def test_partitions_nc_pretty(capsys):
    code, out, err = run(capsys, "partitions", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count: 5"
    assert len(lines) == 6
    assert "{{1,2,3}}" in lines


def test_partitions_ncl_single_point(capsys):
    code, out, _ = run(capsys, "partitions", "1", "--kind", "ncl")
    assert code == 0
    assert out.strip().splitlines() == ["{{1}}", "count: 1"]


def test_partitions_linked_class_of_full_block(capsys):
    code, out, _ = run(capsys, "partitions", "3", "--kind", "ncl", "--classof", "1n")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count: 2"
    assert set(lines[:-1]) == {"{{1,2,3}}", "{{1,2},{2,3}}"}


def test_partitions_classof_literal(capsys):
    code, out, _ = run(capsys, "partitions", "3", "--classof", "{{1,2},{3}}")
    assert code == 0
    assert out.strip().splitlines()[-1] == "count: 1"


def test_partitions_json_format(capsys):
    code, out, _ = run(capsys, "partitions", "4", "--kind", "nc", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 4
    assert obj["count"] == 14
    assert len(obj["partitions"]) == 14


def test_partitions_classof_json_format(capsys):
    code, out, _ = run(capsys, "partitions", "3", "--kind", "ncl", "--classof", "1n",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 3, "kind": "ncl", "count": 2,
                               "partitions": ["{{1,2},{2,3}}", "{{1,2,3}}"],
                               "classof": "1n"}


def test_partitions_csv_format(capsys):
    code, out, _ = run(capsys, "partitions", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "partition"
    assert len(lines) == 3


def test_partitions_out_of_range_exits_2(capsys):
    code, out, err = run(capsys, "partitions", "99")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_partitions_crossing_classof_exits_2(capsys):
    code, _, err = run(capsys, "partitions", "4", "--classof", "{{1,3},{2,4}}")
    assert code == 2
    assert "crossing" in err


# -- law -------------------------------------------------------------------------


def test_law_tcoeffs_of_limit_law(capsys, limit_law_file):
    code, out, _ = run(capsys, "law", "--in", limit_law_file,
                       "--emit", "tcoeffs", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,t,t_prime"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["2", "1", "0", "0", "0", "0"]
    assert [r[2] for r in rows] == ["1", "0", "0", "0", "0", "0"]


def test_law_transform_t_of_free_poisson(capsys, tmp_path):
    path = tmp_path / "fp.json"
    path.write_text(constant_cumulant_law(1.0, 0.0, K=6).to_json())
    code, out, _ = run(capsys, "law", "--in", str(path),
                       "--emit", "transform", "--kind", "t", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,re,im,re_prime,im_prime"
    body = [line.split(",")[1] for line in lines[1:]]
    assert body == ["1", "1", "0", "0", "0", "0"]  # T(z) = 1 + z


TRANSFORM_LAW = {"K": 3, "m": [1.0, [2.0, 0.5], 5.0], "m_prime": [0.5, 0.0, -1.0]}


def test_law_transform_output_is_pinned(capsys, tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps(TRANSFORM_LAW))
    argv = ("law", "--in", str(path), "--emit", "transform", "--kind", "eta_tilde")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == ("eta_tilde (order 2)\n"
                   "  z^0: 1 (d: 0.5)\n"
                   "  z^1: 1+0.5j (d: -1)\n"
                   "  z^2: 2-1j (d: -1.5-0.5j)\n")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    # each coefficient is [re, im, re', im']
    assert json.loads(out) == {"kind": "eta_tilde", "series": {"K": 2, "coeffs": [
        [1.0, 0.0, 0.5, 0.0], [1.0, 0.5, -1.0, 0.0], [2.0, -1.0, -1.5, -0.5]]}}


def test_law_cumulants_of_zero_law(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"K": 4, "m": [[0, 0]] * 4, "m_prime": [[0, 0]] * 4}))
    code, out, _ = run(capsys, "law", "--in", str(path), "--emit", "cumulants")
    assert code == 0
    for line in out.strip().splitlines():
        assert "= 0 " in line or line.endswith("= 0")


def test_law_reads_stdin(capsys, monkeypatch, limit_law_file):
    import io
    with open(limit_law_file) as fh:
        text = fh.read()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "law", "--in", "-", "--emit", "tcoeffs")
    assert code == 0
    assert "t[0] = 2" in out


def test_law_truncation_flag(capsys, limit_law_file):
    code, out, _ = run(capsys, "law", "--in", limit_law_file,
                       "--emit", "cumulants", "--format", "csv", "-K", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 4  # header + 3 rows


def test_law_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "law", "--in", str(path), "--emit", "cumulants")
    assert code == 2
    assert "malformed" in err
    for bad in (b'{"K": 1e400, "m": [1.0]}', b"\xff\xfe",  # K overflows; not UTF-8
                b'{"K": 3, "m": [NaN, 2.0, 5.0]}', b'{"K": 1, "m": [1e400]}',
                b'{"K": 1, "m": [1.0], "m_prime": [[0, -Infinity]]}'):
        path.write_bytes(bad)
        code, _, err = run(capsys, "law", "--in", str(path), "--emit", "cumulants")
        assert code == 2
        assert err.startswith("error:")


def test_law_zero_mean_s_transform_exits_3(capsys, tmp_path):
    path = tmp_path / "zm.json"
    path.write_text(json.dumps({"K": 3, "m": [[0, 0], [1, 0], [0, 0]],
                                "m_prime": [[0, 0]] * 3}))
    code, _, err = run(capsys, "law", "--in", str(path),
                       "--emit", "transform", "--kind", "s")
    assert code == 3
    assert err.startswith("error:")


def test_law_transform_without_kind_exits_2(capsys, limit_law_file):
    code, _, err = run(capsys, "law", "--in", limit_law_file, "--emit", "transform")
    assert code == 2
    assert "kind" in err


def test_law_oversized_truncation_exits_2(capsys, limit_law_file):
    code, _, _ = run(capsys, "law", "--in", limit_law_file,
                     "--emit", "cumulants", "-K", "9")
    assert code == 2


# -- convolve ----------------------------------------------------------------------


def test_convolve_free_limit_laws_squares_t(capsys, tmp_path):
    """Free product of two unit-rate limit laws: T picks up a square."""
    path = tmp_path / "w.json"
    path.write_text(constant_cumulant_law(1.0, 1.0, K=6).to_json())
    code, out, _ = run(capsys, "convolve", "--kind", "free",
                       "--law-x", str(path), "--law-y", str(path),
                       "--format", "json")
    assert code == 0
    product = json.loads(out)["law"]
    prod_path = tmp_path / "prod.json"
    prod_path.write_text(json.dumps(product))
    code, out, _ = run(capsys, "law", "--in", str(prod_path),
                       "--emit", "transform", "--kind", "t", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[1] for r in rows] == ["1", "2", "1", "0", "0", "0"]  # (1+z)^2
    assert [r[3] for r in rows] == ["2", "2", "0", "0", "0", "0"]  # 2(1+z)


def test_convolve_boolean_zero_partner_shifts(capsys, tmp_path):
    xpath = tmp_path / "x.json"
    xpath.write_text(json.dumps({"K": 4, "m": [[0.5, 0], [0.25, 0], [0.125, 0], [0.0625, 0]],
                                 "m_prime": [[0.1, 0]] * 4}))
    zpath = tmp_path / "z.json"
    zpath.write_text(json.dumps({"K": 4, "m": [[0, 0]] * 4, "m_prime": [[0, 0]] * 4}))
    code, out, _ = run(capsys, "convolve", "--kind", "boolean",
                       "--law-x", str(xpath), "--law-y", str(zpath),
                       "--format", "json")
    assert code == 0
    got = InfLaw.from_json_obj(json.loads(out)["law"])
    want = InfLaw.from_json(xpath.read_text())
    from infconv.laws import shifted
    db, de = got.max_abs_diff(shifted(want, 1.0))
    assert max(db, de) < 1e-12


def test_convolve_with_verify_reports_pass(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(constant_cumulant_law(1.0, 2.0, K=6).to_json())
    code, out, _ = run(capsys, "convolve", "--kind", "monotone",
                       "--law-x", str(path), "--law-y", str(path),
                       "--verify", "--format", "json")
    assert code == 0
    rep = json.loads(out)["verify"]
    assert rep["pass"] is True
    assert rep["deviation_body"] < 1e-8


def test_convolve_free_single_moment_laws(capsys, tmp_path):
    # at K = 1 the T-transform is the mean, so the product law is m_x m_y
    px, py = tmp_path / "x.json", tmp_path / "y.json"
    px.write_text(InfLaw(1, [1.5], [0.25]).to_json())
    py.write_text(InfLaw(1, [2.0], [-0.5]).to_json())
    code, out, err = run(capsys, "convolve", "--kind", "free", "--law-x", str(px),
                         "--law-y", str(py), "--verify")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "free product law (K = 1)",
        "m[1] = 3   m'[1] = -0.25",
        "verify: pass (body 0.000e+00, eps 0.000e+00, tol 1e-08)",
    ]


def test_convolve_verify_csv_appends_verdict(capsys, tmp_path):
    px, py = tmp_path / "x.json", tmp_path / "y.json"
    px.write_text(InfLaw(1, [1.5], [0.25]).to_json())
    py.write_text(InfLaw(1, [2.0], [-0.5]).to_json())
    code, out, err = run(capsys, "convolve", "--kind", "free", "--law-x", str(px),
                         "--law-y", str(py), "--verify", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "n,m,m_prime",
        "1,3,-0.25",
        "# verify pass=True body=0.000e+00 eps=0.000e+00",
    ]


def test_convolve_verify_clamps_to_oracle_limit(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(InfLaw.point_mass(1.0, K=10).to_json())
    for kind, vk in (("free", 8), ("boolean", 10), ("monotone", 8)):
        code, out, _ = run(capsys, "convolve", "--kind", kind, "--law-x", str(path),
                           "--law-y", str(path), "--verify", "--format", "json")
        assert code == 0
        assert json.loads(out)["verify"]["K"] == vk


def test_convolve_csv_format(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(constant_cumulant_law(1.0, 0.0, K=4).to_json())
    code, out, _ = run(capsys, "convolve", "--kind", "free",
                       "--law-x", str(path), "--law-y", str(path),
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,m_prime"
    assert len(lines) == 5


def test_convolve_short_laws_exit_2(capsys, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"K": 2, "m": [[1, 0], [2, 0]], "m_prime": [[0, 0]] * 2}))
    code, _, err = run(capsys, "convolve", "--kind", "free",
                       "--law-x", str(path), "--law-y", str(path), "-K", "5")
    assert code == 2
    assert err.startswith("error:")


# a finite law on which the routes overflow
HUGE_LAW = {"K": 4, "m": [1e308, 1e308, 1e308, 1e308]}


@pytest.mark.parametrize("argv, entry", [
    (("law", "--emit", "cumulants"), "kappa[2]"),
    (("law", "--emit", "transform", "--kind", "eta_plain"), "eta_plain[2]"),
    (("convolve", "--kind", "boolean", "--verify", "--format", "json"), "product m[1]"),
], ids=["cumulants", "eta_plain", "boolean-verify-json"])
def test_non_finite_results_exit_3_before_any_output(capsys, tmp_path, argv, entry):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_LAW))
    files = ("--in", str(path)) if argv[0] == "law" else ("--law-x", str(path),
                                                          "--law-y", str(path))
    code, out, err = run(capsys, argv[0], *files, *argv[1:])
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {entry} is not finite")


def test_overflowed_free_product_exits_3_naming_the_overflow(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"K": 4, "m": [1e200] * 4}))
    code, out, err = run(capsys, "convolve", "--law-x", str(path), "--law-y", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: the S transform overflowed")


# -- pinned record output ------------------------------------------------------------

# One complex-valued law, so that the [re, im] JSON entries and the a+bj text
# form both appear.  The strings below are the exact stdout of each call.
GOLDEN_LAW = {"K": 3, "m": [1.0, [2.0, 0.5], [1.0, -1.0]],
              "m_prime": [0.5, 0.0, [0.0, 0.25]]}

GOLDEN = {
    ("cumulants", "pretty"): (
        "kappa[1] = 1   kappa'[1] = 0.5\n"
        "kappa[2] = 1+0.5j   kappa'[2] = -1\n"
        "kappa[3] = -3-2.5j   kappa'[3] = 0-0.5j\n"),
    ("cumulants", "csv"): (
        "n,kappa,kappa_prime\n"
        "1,1,0.5\n"
        "2,1+0.5j,-1\n"
        "3,-3-2.5j,0-0.5j\n"),
    ("cumulants", "json"): json.dumps(
        {"K": 3, "kappa": [1.0, [1.0, 0.5], [-3.0, -2.5]],
         "kappa_prime": [0.5, -1.0, [0.0, -0.5]]}, indent=2) + "\n",
    ("tcoeffs", "pretty"): (
        "t[0] = 1   t'[0] = 0.5\n"
        "t[1] = 1+0.5j   t'[1] = -1.5-0.25j\n"
        "t[2] = -3.75-3.5j   t'[2] = 6.125+4.5j\n"),
    ("tcoeffs", "csv"): (
        "n,t,t_prime\n"
        "0,1,0.5\n"
        "1,1+0.5j,-1.5-0.25j\n"
        "2,-3.75-3.5j,6.125+4.5j\n"),
    ("tcoeffs", "json"): json.dumps(
        {"K": 3, "t": [1.0, [1.0, 0.5], [-3.75, -3.5]],
         "t_prime": [0.5, [-1.5, -0.25], [6.125, 4.5]]}, indent=2) + "\n",
    ("convolve", "pretty"): (
        "free product law (K = 3)\n"
        "m[1] = 1   m'[1] = 1\n"
        "m[2] = 3+1j   m'[2] = 2+1j\n"
        "m[3] = 3.25+1j   m'[3] = -3.75-2.5j\n"),
    ("convolve", "csv"): (
        "n,m,m_prime\n"
        "1,1,1\n"
        "2,3+1j,2+1j\n"
        "3,3.25+1j,-3.75-2.5j\n"),
    ("convolve", "json"): json.dumps(
        {"kind": "free",
         "law": {"K": 3, "m": [1.0, [3.0, 1.0], [3.25, 1.0]],
                 "m_prime": [1.0, [2.0, 1.0], [-3.75, -2.5]]}}, indent=2) + "\n",
}


@pytest.mark.parametrize("target,fmt", sorted(GOLDEN))
def test_record_output_is_pinned(capsys, tmp_path, target, fmt):
    path = tmp_path / "law.json"
    path.write_text(json.dumps(GOLDEN_LAW))
    if target == "convolve":
        argv = ["convolve", "--kind", "free", "--law-x", str(path), "--law-y", str(path)]
    else:
        argv = ["law", "--in", str(path), "--emit", target]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == GOLDEN[target, fmt]


# -- wishart ---------------------------------------------------------------------


def test_wishart_writes_deterministic_csv(capsys, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for target in (out_a, out_b):
        code, out, _ = run(capsys, "wishart", "--c", "1", "--cprime", "0",
                           "--N", "32,64", "--trials", "60", "--kmax", "2",
                           "--seed", "7", "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""  # report went to the file
    assert out_a.read_text() == out_b.read_text()
    lines = out_a.read_text().strip().splitlines()
    assert lines[0] == "N,k,mean,stderr,phi_pred,phi_prime_est,phi_prime_pred"


def test_wishart_json_matches_csv(capsys):
    flags = ("wishart", "--c", "1", "--cprime", "1", "--N", "8,16", "--trials", "20",
             "--kmax", "2", "--seed", "5")
    code, out, _ = run(capsys, *flags, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["config"] == {"c": 1.0, "c_prime": 1.0, "N_list": [8, 16], "trials": 20,
                             "k_max": 2, "seed": 5, "product": False}
    assert [e["k"] for e in obj["extrapolation"]] == [1, 2]
    code, out, _ = run(capsys, *flags, "--format", "csv")
    assert code == 0
    header, *rows = out.strip().splitlines()
    cols = header.split(",")
    assert [[r[c] for c in cols] for r in obj["rows"]] == [
        [float(v) for v in row.split(",")] for row in rows]


def test_wishart_pretty_report(capsys):
    code, out, _ = run(capsys, "wishart", "--c", "1", "--N", "32,64",
                       "--trials", "60", "--kmax", "1", "--seed", "3")
    assert code == 0
    assert "extrapolated:" in out


def test_wishart_zero_trials_exits_2(capsys):
    code, _, err = run(capsys, "wishart", "--c", "1", "--trials", "0")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("flags", [("--c", "inf"), ("--c", "1", "--cprime", "nan"),
                                   ("--c", "1e308")])
def test_wishart_non_finite_rows_exit_2(capsys, flags):
    code, out, err = run(capsys, "wishart", *flags, "--trials", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be finite" in err


def test_wishart_missing_c_exits_2(capsys):
    code, _, err = run(capsys, "wishart", "--N", "32,64", "--trials", "10")
    assert code == 2
    assert "--c" in err


# -- config file -----------------------------------------------------------------


def test_config_file_sets_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for the enumeration runs\nformat=json\nkind=ncl\n")
    code, out, _ = run(capsys, "partitions", "3", "--config", str(cfg))
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "ncl"
    assert obj["count"] == 6


def test_explicit_flag_beats_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind=ncl\n")
    code, out, _ = run(capsys, "partitions", "3", "--config", str(cfg),
                       "--kind", "nc", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 5


def test_unknown_config_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frmat=json\n")
    code, _, err = run(capsys, "partitions", "3", "--config", str(cfg))
    assert code == 2
    assert "unknown key" in err


def test_config_line_without_equals_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("json\n")
    code, _, err = run(capsys, "partitions", "3", "--config", str(cfg))
    assert code == 2
    assert "key=value" in err


# -- selftest --------------------------------------------------------------------


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "8 passed, 0 failed"
    assert all(line.startswith("ok") for line in lines[:-1])


def test_selftest_reports_an_eps_drift(capsys, monkeypatch):
    # a route whose eps part alone moves by 1e-6 must fail its selftest line
    def drifted(kind, series):
        law = law_from_transform(kind, series)
        return InfLaw(law.K, law.m, law.m_prime + 1e-6)

    monkeypatch.setattr(checks, "law_from_transform", drifted)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "FAIL transform roundtrips and derivatives: " in out
    assert out.strip().splitlines()[-1] == "7 passed, 1 failed"


@pytest.mark.parametrize("module, route, line, criterion", [
    (convolve, "convolve_by_transform", "convolution theorems",
     "test_criterion_4_convolution_theorems"),
    (checks, "law_from_transform", "transform roundtrips and derivatives",
     "test_criterion_2_algebra_roundtrips"),
], ids=["criterion-4", "criterion-2"])
def test_a_nan_eps_part_fails_selftest_and_the_gate(capsys, monkeypatch, module, route,
                                                    line, criterion):
    # Python's max(0.5, nan) is 0.5: a NaN eps gap beside a finite body gap must fail
    real = getattr(module, route)

    def nan_eps(*args, **kwargs):
        law = real(*args, **kwargs)
        return InfLaw(law.K, law.m, np.full(law.K, np.nan))

    monkeypatch.setattr(module, route, nan_eps)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert f"FAIL {line}: " in out
    with pytest.raises(AssertionError):
        getattr(importlib.import_module("test_acceptance"), criterion)()


def test_nan_mixed_words_fail_selftest_and_the_gate(capsys, monkeypatch):
    # a NaN word must hold the word scans' maxima at NaN, not leave them at 0
    real = checks.free_mixed_moments

    def nan_mixed(lawX, lawY):
        phi = real(lawX, lawY)
        return lambda word: phi(word) if len(set(word)) == 1 else DualScalar(np.nan, np.nan)

    monkeypatch.setattr(checks, "free_mixed_moments", nan_mixed)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "FAIL cumulant and t-coefficient routes: mixed_t_words deviates nan" in out
    assert "FAIL triangular block routes: centered_words deviates nan" in out
    assert out.strip().splitlines()[-1] == "6 passed, 2 failed"
    gate = importlib.import_module("test_acceptance")
    for criterion in ("test_criterion_5_t_coefficient_identities",
                      "test_criterion_8_centered_alternating_words"):
        with pytest.raises(AssertionError):
            getattr(gate, criterion)()


def test_selftest_reports_a_control_that_vanishes(capsys, monkeypatch):
    # with the Boolean model swapped for the free one, the controls drop to 0
    monkeypatch.setattr(checks, "boolean_mixed_moments", checks.free_mixed_moments)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "FAIL convolution theorems: product_controls control " in out
    assert out.strip().splitlines()[-1] == "5 passed, 3 failed"
