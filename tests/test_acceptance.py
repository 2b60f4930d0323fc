"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test prints a single `criterion N: pass` line (visible under -s or -rA;
`pytest -v` shows one PASSED/FAILED row per criterion either way).  Random
ensembles use fixed seeds, so every run is bit-identical; only criterion 7
is statistical, and even there the Monte Carlo streams are seeded.

Ensemble conditioning (measured, see test comments): reversion-based
roundtrips keep the linear coefficient in [0.7, 1.3] and higher coefficients
in [-0.7, 0.7]; transform sweeps keep the first moment in [0.7, 1.3]; the
S/T derivative sweep pins the mean body to 1.
"""

import time

import numpy as np
import pytest

from infconv import (
    DualScalar,
    DualSeries,
    InfLaw,
    ProductKind,
    SetPartition,
    TransformKind,
    WishartConfig,
    boolean_mixed_moments,
    centered_alternating_check,
    constant_cumulant_law,
    convolve_by_transform,
    cumulants_from_moments,
    d_transform,
    enumerate_nc,
    enumerate_ncl,
    estimate_moments,
    free_mixed_moments,
    kappa_from_t,
    law_from_transform,
    linked_class,
    mixed_vanishing_check,
    oracle_monotone_product,
    product_experiment,
    t_coeffs_from_moments,
    transform,
    verify,
)

SEED = 20260814


def rand_law(rng, K=8, lo=0.7, hi=1.3):
    m = rng.uniform(-1, 1, K)
    mp = rng.uniform(-1, 1, K)
    m[0] = rng.uniform(lo, hi)
    return InfLaw.from_moments(
        [DualScalar(complex(a), complex(b)) for a, b in zip(m, mp)]
    )


def rand_series(rng, order=8):
    return DualSeries.from_coeffs(
        [DualScalar(complex(a), complex(b))
         for a, b in zip(rng.uniform(-1, 1, order + 1),
                         rng.uniform(-1, 1, order + 1))]
    )


def test_criterion_1_partition_counts():
    t0 = time.perf_counter()
    # independent count oracles: Catalan and large Schroeder recursions
    catalan = [1]
    for n in range(1, 11):
        catalan.append(sum(catalan[i] * catalan[n - 1 - i] for i in range(n)))
    for n in range(1, 11):
        assert len(enumerate_nc(n)) == catalan[n]
    schroder = [1]
    for n in range(1, 9):
        schroder.append(schroder[n - 1]
                        + sum(schroder[k] * schroder[n - 1 - k] for k in range(n)))
    for n in range(1, 9):
        assert len(enumerate_ncl(n)) == schroder[n - 1]
    full = SetPartition.of(3, [[1, 2, 3]])
    assert len(linked_class(full)) == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 1: pass (NC and NCL counts exact, |<1_3>| = 2, {elapsed:.1f}s)")


def test_criterion_2_algebra_roundtrips():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        # mul/inv
        f = rand_series(rng)
        f.body[0] = rng.uniform(0.7, 1.3)
        g = f * f.inv()
        db, de = g.max_abs_diff(DualSeries.constant(1.0, g.order))
        worst = max(worst, db, de)
        # compose/reversion: conditioned ensemble, see module docstring
        h = rand_series(rng)
        h.body[1:] *= 0.7
        h.eps[1:] *= 0.7
        h.body[0] = 0.0
        h.eps[0] = 0.0
        h.body[1] = rng.uniform(0.7, 1.3)
        db, de = h.compose(h.reversion()).max_abs_diff(DualSeries.identity(h.order))
        worst = max(worst, db, de)
        # transform/inverse-transform, every kind
        law = rand_law(rng)
        for kind in TransformKind:
            law_back = law_from_transform(kind, transform(kind, law))
            db, de = law.truncated(law_back.K).max_abs_diff(law_back)
            worst = max(worst, db, de)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    print(f"criterion 2: pass (worst roundtrip {worst:.2e} over 100 draws, "
          f"{elapsed:.1f}s)")


def test_criterion_3_transform_derivatives():
    rng = np.random.default_rng(SEED)
    general = (TransformKind.ETA_TILDE, TransformKind.ETA_PLAIN,
               TransformKind.KAPPA, TransformKind.RHO)
    pinned = (TransformKind.S, TransformKind.T)
    worst = 0.0
    for _ in range(50):
        law = rand_law(rng)
        law_unit = rand_law(rng, lo=1.0, hi=1.0)  # mean body pinned to 1
        for kinds, lw in ((general, law), (pinned, law_unit)):
            for kind in kinds:
                d = d_transform(kind, lw)
                _, eps = transform(kind, lw).eps_split()
                db, _ = d.max_abs_diff(eps)
                worst = max(worst, db)
    assert worst <= 1e-10
    print(f"criterion 3: pass (explicit derivative formulas match eps parts, "
          f"worst {worst:.2e} over 50 laws)")


def test_criterion_4_convolution_theorems():
    rng = np.random.default_rng(SEED)
    sweeps = [
        (ProductKind.FREE, "yx", True),
        (ProductKind.BOOLEAN, "yx", False),
        (ProductKind.MONOTONE, "yx", False),
        (ProductKind.MONOTONE, "xy", False),
    ]
    worst = 0.0
    for kind, order, pin_mean in sweeps:
        for _ in range(50):
            lo, hi = (1.0, 1.0) if pin_mean else (-1.0, 1.0)
            lx, ly = rand_law(rng, K=6, lo=lo, hi=hi), rand_law(rng, K=6, lo=lo, hi=hi)
            rep = verify(kind, lx, ly, 6, order=order, tol=1e-8)
            assert rep.passed, f"{kind.value} ({order}) deviates {rep.deviation_body:.2e}"
            worst = max(worst, rep.deviation_body, rep.deviation_eps)
    # negative controls: a mismatched pairing has to fail loudly
    lx, ly = rand_law(rng, K=6), rand_law(rng, K=6)
    phi = boolean_mixed_moments(lx, ly)
    wrong = InfLaw.from_moments([phi(("x", "y") * k) for k in range(1, 7)])
    right = convolve_by_transform(ProductKind.FREE, lx, ly, 6)
    db, de = wrong.max_abs_diff(right)
    assert max(db, de) > 1e-3
    oracle = oracle_monotone_product(lx, ly, 6, order="yx")
    swapped = convolve_by_transform(ProductKind.MONOTONE, ly, lx, 6, order="yx")
    db2, de2 = oracle.max_abs_diff(swapped)
    assert max(db2, de2) > 1e-3
    print(f"criterion 4: pass (oracle = transform to {worst:.2e} over 50 pairs "
          f"per kind; controls deviate {max(db, de):.1e} / {max(db2, de2):.1e})")


def test_criterion_5_t_coefficient_identities():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        law = rand_law(rng)
        cv = cumulants_from_moments(law)
        tv = t_coeffs_from_moments(law)
        for route in ("linked", "interval"):
            kt = kappa_from_t(tv, route=route)
            worst = max(
                worst,
                max(abs(a - b) for a, b in zip(kt.kappa, cv.kappa)),
                max(abs(a - b) for a, b in zip(kt.kappa_prime, cv.kappa_prime)),
            )
    assert worst <= 1e-9
    # mixed t-coefficients on words up to length 5
    vanish = 0.0
    survive = float("inf")
    for _ in range(5):
        lx, ly = rand_law(rng, K=5), rand_law(rng, K=5)
        free_rep = mixed_vanishing_check(free_mixed_moments(lx, ly), max_len=5)
        vanish = max(vanish, free_rep.max_body, free_rep.max_eps)
        bool_rep = mixed_vanishing_check(boolean_mixed_moments(lx, ly), max_len=5)
        survive = min(survive, bool_rep.max_body)
    assert vanish < 1e-9
    assert survive > 1e-3
    print(f"criterion 5: pass (cumulant routes agree to {worst:.2e}; mixed t "
          f"vanish at {vanish:.2e} for free pairs, control floor {survive:.1e})")


def test_criterion_6_limit_law_t_vector():
    for c, cp in ((1.0, 2.0), (2.0, 1.0)):
        tv = t_coeffs_from_moments(constant_cumulant_law(c, cp, K=8))
        want_t = [c, 1.0] + [0.0] * 6
        want_tp = [cp] + [0.0] * 7
        assert max(abs(a - b) for a, b in zip(tv.t, want_t)) <= 1e-10
        assert max(abs(a - b) for a, b in zip(tv.t_prime, want_tp)) <= 1e-10
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
    vanish = 0.0
    survive = float("inf")
    for _ in range(5):
        lx, ly = rand_law(rng, K=3), rand_law(rng, K=3)
        rep = centered_alternating_check(free_mixed_moments(lx, ly), max_len=6)
        assert rep.words_checked == 10
        vanish = max(vanish, rep.max_body, rep.max_eps)
        ctrl = centered_alternating_check(boolean_mixed_moments(lx, ly), max_len=6)
        survive = min(survive, ctrl.max_body)
    assert vanish < 1e-9
    assert survive > 1e-3
    print(f"criterion 8: pass (centered alternating dual moments vanish at "
          f"{vanish:.2e} for free pairs; Boolean control floor {survive:.1e})")
