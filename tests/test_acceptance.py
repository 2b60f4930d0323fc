"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test prints a single `criterion N: pass` line (visible under -s or -rA;
`pytest -v` shows one PASSED/FAILED row per criterion either way).  The route
pairs behind criteria 1-6 and 8 are the checks in `infconv/checks.py`, which
`infconv selftest` runs on its own seed; their docstrings give the ensembles.
Random ensembles use fixed seeds, so every run is bit-identical; only
criterion 7 is statistical, and even there the Monte Carlo streams are seeded.
Deviations are aggregated with np.max and np.min, which keep a NaN, so a
route that returns NaN fails its criterion.
"""

import time

import numpy as np
import pytest

from infconv import (
    WishartConfig,
    centered_alternating_check,
    checks,
    constant_cumulant_law,
    estimate_moments,
    free_mixed_moments,
    product_experiment,
)

SEED = 20260814


def test_criterion_1_partition_counts():
    t0 = time.perf_counter()
    # independent count oracles: Catalan and large Schroeder recursions
    assert checks.partition_counts() == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 1: pass (NC and NCL counts exact, |<1_3>| = 2, {elapsed:.1f}s)")


def test_criterion_2_algebra_roundtrips():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    devs = []
    for _ in range(100):
        # mul/inv and compose/reversion, then transform/inverse-transform
        devs += [checks.series_roundtrips(rng), checks.transform_roundtrips(rng)]
    worst = np.max(devs)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    print(f"criterion 2: pass (worst roundtrip {worst:.2e} over 100 draws, "
          f"{elapsed:.1f}s)")


def test_criterion_3_transform_derivatives():
    rng = np.random.default_rng(SEED)
    worst = np.max([checks.transform_derivatives(rng) for _ in range(50)])
    assert worst <= 1e-10
    print(f"criterion 3: pass (explicit derivative formulas match eps parts, "
          f"worst {worst:.2e} over 50 laws)")


def test_criterion_4_convolution_theorems():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for kind, order in checks.PRODUCTS:
        for _ in range(50):
            dev = checks.product_theorem(rng, kind, order)
            assert dev <= 1e-8, f"{kind.value} ({order}) deviates {dev:.2e}"
            worst = max(worst, dev)
    # negative controls: a mismatched pairing has to fail loudly
    pairing, swap = checks.product_controls(rng)
    assert pairing > 1e-3
    assert swap > 1e-3
    print(f"criterion 4: pass (oracle = transform to {worst:.2e} over 50 pairs "
          f"per kind; controls deviate {pairing:.1e} / {swap:.1e})")


def test_criterion_5_t_coefficient_identities():
    rng = np.random.default_rng(SEED)
    worst = np.max([checks.kappa_routes(rng) for _ in range(50)])
    assert worst <= 1e-9
    # mixed t-coefficients on words up to length 5
    draws = [checks.mixed_t_words(rng) for _ in range(5)]
    vanish = np.max([free for free, _ in draws])
    survive = np.min([control for _, control in draws])
    assert vanish < 1e-9
    assert survive > 1e-3
    print(f"criterion 5: pass (cumulant routes agree to {worst:.2e}; mixed t "
          f"vanish at {vanish:.2e} for free pairs, control floor {survive:.1e})")


def test_criterion_6_limit_law_t_vector():
    assert checks.limit_t_vector() <= 1e-10
    print("criterion 6: pass (limit-law t-vector is (c, 1, 0, ...) with "
          "t' = (c', 0, ...) at K = 8)")


def test_criterion_7_wishart_monte_carlo():
    t0 = time.perf_counter()
    single = estimate_moments(
        WishartConfig(c=1.0, c_prime=2.0, N_list=(100, 200, 400),
                      trials=5000, k_max=4, seed=SEED)
    )
    assert [e.phi_pred for e in single.extrapolation] == [1.0, 2.0, 5.0, 14.0]
    assert [e.phi_prime_pred for e in single.extrapolation] == [2.0, 6.0, 20.0, 70.0]
    margins = single.margins(rel=0.15, sigmas=3.0)
    for e, (_, m_phi, m_phi_prime) in zip(single.extrapolation, margins):
        assert abs(e.phi_est - e.phi_pred) <= 3 * e.phi_stderr, (
            f"phi_{e.k}: margin {m_phi:.3f}")
        allow = max(3 * e.phi_prime_stderr, 0.15 * abs(e.phi_prime_pred))
        assert abs(e.phi_prime_est - e.phi_prime_pred) <= allow, (
            f"phi'_{e.k}: margin {m_phi_prime:.3f}")
    assert single.checks_pass(rel=0.15, sigmas=3.0), f"margins {margins}"
    worst = max(max(m_phi, m_phi_prime) for _, m_phi, m_phi_prime in margins)

    # product of two independent matrices, square case c' = 0: Fuss-Catalan
    prod = product_experiment(
        WishartConfig(c=1.0, c_prime=0.0, N_list=(200, 400),
                      trials=1200, k_max=4, seed=SEED)
    )
    prod_margins = prod.margins(sigmas=3.0)
    for e, want, (_, m_phi, _) in zip(prod.extrapolation, (1.0, 3.0, 12.0, 55.0),
                                      prod_margins):
        assert e.phi_pred == pytest.approx(want, abs=1e-9)
        assert abs(e.phi_est - want) <= 3 * e.phi_stderr, (
            f"product phi_{e.k}: margin {m_phi:.3f}")
        worst = max(worst, m_phi)

    # infinitesimal first product moment: 2 c c' for c = c' = 1
    prod1 = product_experiment(
        WishartConfig(c=1.0, c_prime=1.0, N_list=(100, 200),
                      trials=4000, k_max=1, seed=SEED)
    )
    e1 = prod1.extrapolation[0]
    _, _, m1 = prod1.margins(rel=0.15, sigmas=3.0)[0]
    assert e1.phi_prime_pred == pytest.approx(2.0, abs=1e-12)
    allow = max(3 * e1.phi_prime_stderr, 0.15 * 2.0)
    assert abs(e1.phi_prime_est - 2.0) <= allow, f"product phi'_1: margin {m1:.3f}"
    worst = max(worst, m1)

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"criterion 7: pass (single run within 3 stderr, product moments "
          f"1,3,12,55 within 3 stderr, phi'(xy) = {e1.phi_prime_est:.3f} vs 2.0; "
          f"worst margin {worst:.3f}; {elapsed:.0f}s)")


def test_criterion_8_centered_alternating_words():
    rng = np.random.default_rng(SEED)
    draws = [checks.centered_words(rng) for _ in range(5)]
    vanish = np.max([free for free, _ in draws])
    survive = np.min([control for _, control in draws])
    law = constant_cumulant_law(1.0, 0.0, K=3)  # two alternating words per length 2..6
    rep = centered_alternating_check(free_mixed_moments(law, law), max_len=6)
    assert rep.words_checked == 10
    assert vanish < 1e-9
    assert survive > 1e-3
    print(f"criterion 8: pass (centered alternating dual moments vanish at "
          f"{vanish:.2e} for free pairs; Boolean control floor {survive:.1e})")
