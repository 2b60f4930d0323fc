"""Standing mutation catalogue: each entry breaks the source on purpose, and
the tests it names must fail on it.

Usage, from the root of a checkout:

    python3 mutants/run.py

Each entry names a file, an old text that must occur there exactly once, the
new text, and the test files (or node ids) that should catch it.  For every
entry the script copies the checkout into a fresh temporary directory,
applies the entry there, and runs ``pytest -x -q`` on the named tests.  It
reports each entry as one of

  caught    the tests failed, or the mutated module failed to import;
  survived  the tests passed;
  stale     the old text does not occur exactly once, so the entry must
            follow the code it names;
  error     pytest could not run the named tests (bad path or node id).

An entry with a ``survives`` reason is a known survivor: a mutation that the
tests cannot catch yet, for the reason given.  It is reported with the rest,
never dropped.  The exit status is 0 when every entry ends as expected
(caught, or survived for a known survivor) and 1 otherwise.

Not part of the test suite.  The whole catalogue takes about a minute and a
half, most of it in criterion 7.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", "mutants"
)
ENTRY_TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutation:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    survives: str | None = None


CATALOGUE = (
    # -- partitions: the enumeration scan --
    Mutation(
        "scan-leaf-check", "src/infconv/partitions.py",
        "            if closable(stack):\n",
        "            if True:\n",
        ("tests/test_partitions.py",),
    ),
    Mutation(
        "scan-connected-opens-late", "src/infconv/partitions.py",
        "if i == 1 or not connected:",
        "if i <= 2 or not connected:",
        ("tests/test_partitions.py",),
    ),
    Mutation(
        "scan-link-flag", "src/infconv/partitions.py",
        "rec(i + 1, joined + (((i,), True),), shut)",
        "rec(i + 1, joined + (((i,), False),), shut)",
        ("tests/test_partitions.py",),
    ),
    # -- triangular: the block argument b + eps c must be plain in b and c --
    Mutation(
        "block-arg-plain-check", "src/infconv/series.py",
        "        if np.any(body.eps != 0) or np.any(eps.eps != 0):\n",
        "        if False:\n",
        ("tests/test_triangular.py",),
    ),
    # -- cumulants --
    Mutation(
        "kreweras-count", "src/infconv/cumulants.py",
        "factorial(n - len(sizes) + 1)",
        "factorial(n - len(sizes))",
        ("tests/test_cumulants.py",),
    ),
    Mutation(
        "product-rule-suffix", "src/infconv/cumulants.py",
        "d += eps[i] * pre[i] * suf[i + 1]",
        "d += eps[i] * pre[i] * suf[i]",
        ("tests/test_cumulants.py",),
    ),
    Mutation(
        "factor-list-without-s-pi", "src/infconv/cumulants.py",
        "            + [(k - 1,) for k in non_minimal_elements(pi)])\n",
        "            )\n",
        ("tests/test_cumulants.py",),
    ),
    Mutation(
        "type-sum-drops-count", "src/infconv/cumulants.py",
        "        sb += count * b\n        se += count * e\n",
        "        sb += b\n        se += e\n",
        ("tests/test_cumulants.py",),
    ),
    Mutation(
        "moments-from-t-reads-nc-n-1", "src/infconv/cumulants.py",
        "for sizes, count in _nc_types(n))",
        "for sizes, count in _nc_types(n - 1))",
        ("tests/test_cumulants.py::test_t_moment_roundtrip",
         "tests/test_cumulants.py::test_grouped_moments_from_t_matches_ungrouped_sum"),
    ),
    Mutation(
        "moments-from-t-skips-single-block", "src/infconv/cumulants.py",
        "for sizes, count in _nc_types(n))",
        "for sizes, count in _nc_types(n) if len(sizes) > 1)",
        ("tests/test_cumulants.py::test_t_moment_roundtrip",
         "tests/test_cumulants.py::test_grouped_moments_from_t_matches_ungrouped_sum"),
    ),
    Mutation(
        "interval-indices-shifted", "src/infconv/cumulants.py",
        "list(sizes) + [0] * (n - len(sizes))",
        "[s - 1 for s in sizes] + [0] * (n - len(sizes))",
        ("tests/test_cumulants.py",),
    ),
    Mutation(
        "interval-reads-nc-n", "src/infconv/cumulants.py",
        "_nc_types(n - 1)",
        "_nc_types(n)",
        ("tests/test_cumulants.py",),
    ),
    Mutation(
        "direct-keeps-single-block", "src/infconv/cumulants.py",
        " for sizes, count in _nc_types(n) if len(sizes) > 1)",
        " for sizes, count in _nc_types(n))",
        ("tests/test_cumulants.py",),
    ),
    Mutation(
        "nc-cache-deleted", "src/infconv/cumulants.py",
        "@lru_cache(maxsize=32)\ndef _nc(n: int) -> tuple[SetPartition, ...]:\n"
        "    return tuple(enumerate_nc(n))\n",
        "",
        ("tests/test_benchmark_tracer.py",),
    ),
    Mutation(
        "mixed-slot-offset", "src/infconv/cumulants.py",
        "G[k] = 2 ** L - 2 + ",
        "G[k] = 2 ** L - 1 + ",
        ("tests/test_cumulants.py",),
    ),
    Mutation(
        "mixed-subword-bits-reversed", "src/infconv/cumulants.py",
        "@ (1 << np.arange(L - 1, -1, -1))",
        "@ (1 << np.arange(L))",
        ("tests/test_cumulants.py",),
    ),
    Mutation(
        "mixed-product-imag-sign", "src/infconv/cumulants.py",
        "b, e = b * fb, b * fe + e * fb",
        "b, e = b * fb, b * fe + e * fb.conj()",
        ("tests/test_cumulants.py::test_mixed_plan_matches_literal_linked_sum",),
    ),
    Mutation(
        "mixed-check-counts-pure-words", "src/infconv/cumulants.py",
        "for word in product(LETTERS, repeat=n) if len(set(word)) > 1)",
        "for word in product(LETTERS, repeat=n) if len(set(word)) > 0)",
        ("tests/test_cumulants.py::test_mixed_t_vanishes_for_free_letters",
         "tests/test_acceptance.py::test_criterion_5_t_coefficient_identities"),
    ),
    Mutation(
        "mixed-zero-mean-check-deleted", "src/infconv/cumulants.py",
        "                if v.body == 0:\n",
        "                if False:\n",
        ("tests/test_cumulants.py",),
    ),
    Mutation(
        "scan-drops-nan", "src/infconv/cumulants.py",
        "if not (isnan(max_body) or abs(val.body) <= max_body):\n"
        "            max_body, wb = abs(val.body), word\n"
        "        if not (isnan(max_eps) or abs(val.eps) <= max_eps):",
        "if abs(val.body) > max_body:\n"
        "            max_body, wb = abs(val.body), word\n"
        "        if abs(val.eps) > max_eps:",
        ("tests/test_cumulants.py::test_scan_words_holds_the_first_nan",
         "tests/test_cli.py::test_nan_mixed_words_fail_selftest_and_the_gate"),
    ),
    Mutation(
        "power-rows-drop-eps-term", "src/infconv/cumulants.py",
        "ae + (mb * pe + me * pb)",
        "ae + (mb * pe)",
        ("tests/test_cumulants.py::test_power_rows_match_gap_sum_recursion",),
    ),
    # -- laws --
    Mutation(
        "shifted-drops-power-eps", "src/infconv/laws.py",
        "pb * 0.0 + pe * b",
        "pb * 0.0",
        # a real constant has powers with zero eps: only dual constants see it
        ("tests/test_laws_transforms.py::test_shifted_is_bit_identical_to_dual_reference",),
    ),
    Mutation(
        "overflow-reported-as-vanishing", "src/infconv/laws.py",
        "        if not (np.isfinite(f.body).all() and np.isfinite(f.eps).all()):\n",
        "        if False:\n",
        ("tests/test_laws_transforms.py::"
         "test_zero_origin_of_an_overflowed_series_is_reported_as_overflow",
         "tests/test_convolve.py::test_free_transform_overflow_is_reported_as_overflow",
         "tests/test_cli.py::test_overflowed_free_product_exits_3_naming_the_overflow"),
    ),
    # -- triangular: centered alternating words --
    Mutation(
        "centered-drops-centering", "src/infconv/triangular.py",
        "weight = weight * (-mu[word[i]])",
        "weight = weight * mu[word[i]]",
        ("tests/test_triangular.py::test_centered_words_vanish_for_free_pairs",
         "tests/test_acceptance.py::test_criterion_8_centered_alternating_words",
         "tests/test_cli.py::test_selftest_passes"),
    ),
    # -- convolve --
    Mutation(
        "free-phi-drops-last-gap", "src/infconv/convolve.py",
        "for pos in chosen + (len(word),):",
        "for pos in chosen:",
        ("tests/test_convolve.py",),
    ),
    Mutation(
        "boolean-sweep-run-not-extended", "src/infconv/convolve.py",
        "add((cur, r + 1), wb, we)",
        "add((cur, r), wb, we)",
        ("tests/test_convolve.py::test_boolean_sweep_matches_word_expansion",),
    ),
    Mutation(
        "monotone-readout-drops-eps-term", "src/infconv/convolve.py",
        "te + (wb * ae + we * ab)",
        "te + (wb * ae)",
        ("tests/test_convolve.py::test_monotone_sweep_is_bit_identical_to_dual_reference",
         "tests/test_convolve.py::test_monotone_sweep_matches_word_expansion"),
    ),
    Mutation(
        # For scalar laws the xy and yx moments are equal, so no test on values
        # (with a tolerance) tells the two sweeps apart; operator-valued data would
        # (ROADMAP item 8).  The two sweeps round differently, though, and the
        # bit-for-bit comparison with the literal xy sweep sees that.
        "monotone-xy-as-yx", "src/infconv/convolve.py",
        'block = ("y", "a") if order == "yx" else ("a", "y")',
        'block = ("y", "a")',
        ("tests/test_convolve.py::test_monotone_sweep_is_bit_identical_to_dual_reference",),
    ),
    Mutation(
        "boolean-oracle-limit", "src/infconv/convolve.py",
        "ProductKind.BOOLEAN: 10,",
        "ProductKind.BOOLEAN: 8,",
        ("tests/test_convolve.py",),
    ),
    # -- series --
    Mutation(
        "compose-eps-add", "src/infconv/series.py",
        "            acc.eps[0] += self.eps[k]\n",
        "",
        ("tests/test_dual_series.py",),
    ),
    Mutation(
        "shift-down-tolerance", "src/infconv/series.py",
        "        if self.body[0] != 0 or self.eps[0] != 0:\n"
        "            raise MathDomainError(\"shift_down",
        "        if abs(self.body[0]) > 1e-12 or abs(self.eps[0]) > 1e-12:\n"
        "            raise MathDomainError(\"shift_down",
        ("tests/test_dual_series.py::test_shift_down_requires_vanishing_constant",),
    ),
    Mutation(
        "series-pads-coefficients", "src/infconv/series.py",
        "        if self.body.shape != (n,) or self.eps.shape != (n,):\n"
        "            raise InvalidInputError(",
        "        self.body, self.eps = (np.concatenate((a, np.zeros(n)))[:n]\n"
        "                               for a in (self.body, self.eps))\n"
        "        if False:\n"
        "            raise InvalidInputError(",
        ("tests/test_dual_series.py::"
         "test_constructor_takes_exactly_order_plus_one_coefficients",
         "tests/test_dual_series.py::"
         "test_from_coeffs_takes_exactly_order_plus_one_coefficients"),
    ),
    # -- wishart --
    Mutation(
        "gamma-shape", "src/infconv/wishart.py",
        "rng.standard_gamma(a - i, size=(trials, n))",
        "rng.standard_gamma(a - i - 0.5, size=(trials, n))",
        ("tests/test_wishart.py",),
    ),
    Mutation(
        "pool-thread-too-many", "src/infconv/wishart.py",
        "    width = _pool_width()\n",
        "    width = _pool_width() + 1\n",
        ("tests/test_wishart.py",),
    ),
    Mutation(
        "pool-permit-kept", "src/infconv/wishart.py",
        "            idle.release()\n",
        "            pass\n",
        ("tests/test_wishart.py::test_slow_kernels_fill_exactly_width_slots",),
    ),
    # -- cli --
    Mutation(
        "cli-prints-non-finite", "src/infconv/cli.py",
        "    if bad.any():\n",
        "    if False:\n",
        ("tests/test_cli.py::test_non_finite_results_exit_3_before_any_output",),
    ),
    # -- checks: the route pairs behind selftest and the acceptance gate --
    Mutation(
        "checks-gap-body-only", "src/infconv/checks.py",
        "    return _worst(a.max_abs_diff(b))\n",
        "    return a.max_abs_diff(b)[0]\n",
        ("tests/test_cli.py::test_selftest_reports_an_eps_drift",),
    ),
    Mutation(
        "checks-worst-drops-nan", "src/infconv/checks.py",
        "    return float(np.max(list(values)))\n",
        "    return float(max(values))\n",
        ("tests/test_cli.py::test_a_nan_eps_part_fails_selftest_and_the_gate",),
    ),
    Mutation(
        "selftest-ignores-control-floor", "src/infconv/checks.py",
        "if floor is not None and not devs.min() >= floor:",
        "if False:",
        ("tests/test_cli.py::test_selftest_reports_a_control_that_vanishes",),
    ),
    # -- known survivors --
    Mutation(
        "wishart-n-plus-one", "src/infconv/wishart.py",
        "return [t * n / N for t in trace_powers(y, k_max)]",
        "return [t * n / (N + 1) for t in trace_powers(y, k_max)]",
        ("tests/test_acceptance.py::test_criterion_7_wishart_monte_carlo",),
        survives="criterion 7 checks the product moments only at the "
                 "Richardson-extrapolated N -> oo limit, which absorbs a 1/N "
                 "normalisation error (tests/test_wishart.py catches it against "
                 "the dense reference); exact finite-N moments would let "
                 "criterion 7 catch it (ROADMAP item 3)",
    ),
)


def run_entry(m: Mutation) -> tuple[str, float, str]:
    """(outcome, seconds, last line of pytest output) for one entry."""
    text = (ROOT / m.file).read_text()
    if text.count(m.old) != 1:
        return "stale", 0.0, f"old text occurs {text.count(m.old)} times in {m.file}"
    with tempfile.TemporaryDirectory(prefix="infconv-mutant-") as tmp:
        work = Path(tmp) / "tree"
        shutil.copytree(ROOT, work, ignore=COPY_IGNORE)
        (work / m.file).write_text(text.replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *m.tests]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                                  text=True, timeout=ENTRY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "error", time.perf_counter() - t0, f"timeout after {ENTRY_TIMEOUT_S} s"
        dt = time.perf_counter() - t0
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    last = lines[-1] if lines else proc.stderr.strip()[-200:]
    # pytest exit codes: 0 passed, 1 tests failed, 2 interrupted (collection
    # errors land here under -x), 4 usage error, 5 nothing collected
    outcome = {0: "survived", 1: "caught", 2: "caught"}.get(proc.returncode, "error")
    return outcome, dt, last


def main() -> int:
    outcomes = []
    unexpected = 0
    t_all = time.perf_counter()
    width = max(len(m.name) for m in CATALOGUE)
    for m in CATALOGUE:
        outcome, dt, last = run_entry(m)
        outcomes.append(outcome)
        expected = "survived" if m.survives else "caught"
        unexpected += outcome != expected
        note = "" if outcome == expected else f"  UNEXPECTED (expected {expected})"
        print(f"{m.name:{width}s} {outcome:8s} {dt:6.1f}s  {last}{note}", flush=True)
        if m.survives:
            print(f"{'':{width}s} known survivor: {m.survives}", flush=True)
    tally = ", ".join(f"{k} {outcomes.count(k)}"
                      for k in ("caught", "survived", "stale", "error"))
    print(f"{len(CATALOGUE)} entries: {tally}; {unexpected} unexpected; "
          f"{time.perf_counter() - t_all:.0f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
