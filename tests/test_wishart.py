"""Seeded complex Wishart Monte Carlo and its trace bookkeeping.

Unit tests stay at small matrix sizes; statistical bands are wide (5 sigma)
and every estimate is pinned to a fixed seed, so reruns are bit-identical.
"""

import math

import numpy as np
import pytest

from infconv import (
    ConfigError,
    WishartConfig,
    estimate_moments,
    product_experiment,
    sample_wishart,
    trace_powers,
)
from infconv.wishart import (
    McEstimate,
    McExtrapolation,
    _bidiagonal_gammas,
    _product_lane,
    _product_trace_powers,
    _reduced_product_trace_powers,
    _single_lane,
    _tridiagonal_trace_powers,
)

SMOKE = WishartConfig(c=1.0, c_prime=1.0, N_list=(32, 64), trials=100,
                      k_max=3, seed=20260814)


# -- configuration ------------------------------------------------------------

def test_aspect_ratio_must_be_positive():
    with pytest.raises(ConfigError):
        WishartConfig(c=0.0, N_list=(16, 32), trials=10)


def test_sizes_must_increase():
    with pytest.raises(ConfigError):
        WishartConfig(c=1.0, N_list=(32, 32), trials=10)
    with pytest.raises(ConfigError):
        WishartConfig(c=1.0, N_list=(), trials=10)


def test_trials_and_depth_bounds():
    with pytest.raises(ConfigError):
        WishartConfig(c=1.0, N_list=(16, 32), trials=0)
    with pytest.raises(ConfigError):
        WishartConfig(c=1.0, N_list=(16, 32), trials=10, k_max=7)


def test_rows_must_stay_rectangular():
    # c N + c' must round to a positive number of rows at every size
    with pytest.raises(ConfigError):
        WishartConfig(c=0.001, N_list=(16, 32), trials=10)


def test_row_count_formula():
    cfg = WishartConfig(c=0.5, c_prime=2.0, N_list=(100, 200), trials=10)
    assert cfg.M(100) == 52 and cfg.M(200) == 102


def test_single_size_cannot_extrapolate():
    cfg = WishartConfig(c=1.0, N_list=(64,), trials=10)
    with pytest.raises(ConfigError):
        estimate_moments(cfg)


# -- sampling and traces --------------------------------------------------------

def test_sample_is_hermitian_and_nonnegative():
    rng = np.random.default_rng(1)
    X = sample_wishart(24, 16, rng)
    assert X.shape == (16, 16)
    assert np.allclose(X, X.conj().T)
    assert np.linalg.eigvalsh(X).min() > -1e-12


def test_trace_powers_match_naive_matrix_powers():
    rng = np.random.default_rng(2)
    X = sample_wishart(20, 16, rng)
    got = trace_powers(X, 6)
    P = np.eye(16, dtype=complex)
    want = []
    for _ in range(6):
        P = P @ X
        want.append(np.trace(P).real / 16)
    assert np.allclose(got, want, atol=1e-10)


def test_normalized_trace_concentrates_at_aspect_ratio():
    # E tr_N X = M/N exactly, at any size
    rng = np.random.default_rng(3)
    M, N, reps = 48, 32, 200
    vals = [trace_powers(sample_wishart(M, N, rng), 1)[0] for _ in range(reps)]
    stderr = np.std(vals, ddof=1) / np.sqrt(reps)
    assert abs(np.mean(vals) - M / N) < 5 * stderr


# -- the bidiagonal production route ---------------------------------------------

# (M, N): M > N, M < N, M = N and the n = min(M, N) = 1 edge on both sides
SHAPES = [(9, 6), (4, 7), (5, 5), (1, 4), (3, 1)]


def _embed(T, N):
    X = np.zeros((N, N), dtype=complex)
    X[:T.shape[0], :T.shape[0]] = T
    return X


@pytest.mark.parametrize("M,N", SHAPES)
def test_banded_traces_match_dense_trace_powers(M, N):
    rng = np.random.default_rng(11)
    n = min(M, N)
    diag, off = rng.standard_normal((3, n)), rng.standard_normal((3, n - 1))
    for k_max in (1, 2, 5, 6):
        got = _tridiagonal_trace_powers(diag / N, off / N, k_max) / N
        assert got.shape == (3, k_max)
        for t in range(3):
            T = np.diag(diag[t]) + np.diag(off[t], 1) + np.diag(off[t], -1)
            want = trace_powers(_embed(T / N, N), k_max)
            np.testing.assert_allclose(got[t], want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("M,N", SHAPES)
def test_reduced_product_matches_dense_product(M, N):
    # tr((F F^T G*G)^k) = tr((F^T G*G F)^k) holds exactly, not only in law
    rng = np.random.default_rng(12)
    d2, e2 = _bidiagonal_gammas(M, N, 1, rng)
    d, e = np.sqrt(d2[0]), np.sqrt(e2[0])
    n = d.size
    B = np.diag(d) + np.diag(e, -1)
    G = (rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))) / np.sqrt(2)
    X1 = _embed(B @ B.T / N, N)
    X2 = G.conj().T @ G / N
    for k_max in (1, 2, 4, 6):
        got = _reduced_product_trace_powers(G[:, :n].copy(), d, e, N, k_max)
        want = _product_trace_powers(X1, X2, k_max)
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)


@pytest.mark.parametrize("M,N", [(12, 10), (6, 10)])
def test_single_route_hits_exact_finite_size_moments(M, N):
    # E tr (G*G)^k = MN, MN(M+N), MN(M^2+N^2+3MN+1) for complex Gaussian G
    trials = 20000
    vals = _single_lane(M, N, trials, 3, np.random.default_rng(13))
    # vals are tr_N(X^k) = tr((G*G)^k) / N^(k+1)
    raw = vals * np.array([N**2, N**3, N**4], dtype=float)
    exact = [M * N, M * N * (M + N), M * N * (M * M + N * N + 3 * M * N + 1)]
    z = (raw.mean(axis=0) - exact) / (raw.std(axis=0, ddof=1) / np.sqrt(trials))
    assert np.all(np.abs(z) < 5), z


@pytest.mark.parametrize("M,N", [(12, 10), (6, 10)])
@pytest.mark.parametrize("k_max", [1, 4])
def test_reduced_product_agrees_with_dense_reference(M, N, k_max):
    trials = 3000
    fast = _product_lane(M, N, trials, k_max, np.random.default_rng(14))
    rng = np.random.default_rng(15)
    dense = np.array([
        _product_trace_powers(sample_wishart(M, N, rng), sample_wishart(M, N, rng),
                              k_max)
        for _ in range(trials)
    ])
    se2 = (fast.var(axis=0, ddof=1) + dense.var(axis=0, ddof=1)) / trials
    z = (fast.mean(axis=0) - dense.mean(axis=0)) / np.sqrt(se2)
    assert np.all(np.abs(z) < 5), z


# -- the seeded experiment --------------------------------------------------------

def test_estimates_are_deterministic():
    a = estimate_moments(SMOKE)
    b = estimate_moments(SMOKE)
    assert a.to_json() == b.to_json()
    assert product_experiment(SMOKE).to_json() == product_experiment(SMOKE).to_json()


def test_rows_cover_the_grid():
    est = estimate_moments(SMOKE)
    assert {(r.N, r.k) for r in est.rows} == {
        (N, k) for N in (32, 64) for k in (1, 2, 3)
    }
    assert [e.k for e in est.extrapolation] == [1, 2, 3]


def test_first_moment_row_sits_on_its_exact_value():
    est = estimate_moments(SMOKE)
    for N in (32, 64):
        row = next(r for r in est.rows if r.N == N and r.k == 1)
        exact = SMOKE.M(N) / N
        assert abs(row.mean - exact) < 5 * row.stderr


def test_limit_predictions_for_unit_rate():
    # c = 1 free Poisson predictions are the Catalan numbers
    est = estimate_moments(SMOKE)
    preds = {r.k: r.phi_pred for r in est.rows}
    assert preds == {1: 1.0, 2: 2.0, 3: 5.0}


def test_infinitesimal_prediction_for_first_moment():
    # phi'(x) = c' exactly
    est = estimate_moments(SMOKE)
    e1 = next(e for e in est.extrapolation if e.k == 1)
    assert e1.phi_prime_pred == pytest.approx(1.0)
    assert abs(e1.phi_prime_est - 1.0) < 5 * e1.phi_prime_stderr


def test_smoke_run_passes_its_own_checks():
    est = estimate_moments(SMOKE)
    assert est.checks_pass(rel=0.5, sigmas=5.0)


def _estimate(*extrapolation):
    return McEstimate(SMOKE, False, (), tuple(extrapolation))


def test_margins_are_deviation_over_allowance():
    # k, phi_est, phi_stderr, phi'_est, phi'_stderr, phi_pred, phi'_pred
    est = _estimate(McExtrapolation(1, 0.8, 0.1, 15.0, 1.0, 1.0, 10.0),
                    McExtrapolation(2, 2.0, 0.0, 6.1, 0.0, 2.0, 6.0))
    (k1, a1, b1), (k2, a2, b2) = est.margins(rel=0.15, sigmas=3.0)
    assert (k1, k2) == (1, 2)
    assert a1 == pytest.approx(0.2 / 0.3)    # |0.8 - 1| over 3 stderr
    assert b1 == pytest.approx(5.0 / 3.0)    # 3 stderr beats 0.15 * 10
    assert a2 == 0.0                         # exact hit, zero allowance
    assert b2 == pytest.approx(0.1 / 0.9)    # 0.15 * 6 beats 3 * 0
    assert not est.checks_pass(rel=0.15, sigmas=3.0)
    assert est.checks_pass(rel=0.15, sigmas=5.1)
    miss = _estimate(McExtrapolation(1, 1.5, 0.0, 0.0, 0.0, 1.0, 0.0))
    assert miss.margins()[0][1:] == (math.inf, 0.0)
    assert not miss.checks_pass()


def test_csv_header_and_width():
    est = estimate_moments(SMOKE)
    lines = est.to_csv().strip().splitlines()
    assert lines[0] == "N,k,mean,stderr,phi_pred,phi_prime_est,phi_prime_pred"
    assert len(lines) == 1 + len(est.rows)


def test_json_shape():
    est = estimate_moments(SMOKE)
    obj = est.to_json_obj()
    assert set(obj) == {"config", "rows", "extrapolation"}
    assert obj["config"]["product"] is False
    assert obj["config"]["seed"] == 20260814


# -- the two-matrix product experiment ----------------------------------------------

def test_product_first_moment_is_squared_aspect_ratio():
    cfg = WishartConfig(c=1.0, c_prime=0.0, N_list=(32, 64), trials=150,
                        k_max=1, seed=7)
    est = product_experiment(cfg)
    assert est.to_json_obj()["config"]["product"] is True
    for N in (32, 64):
        row = next(r for r in est.rows if r.N == N and r.k == 1)
        exact = (cfg.M(N) / N) ** 2
        assert abs(row.mean - exact) < 5 * row.stderr


def test_product_predictions_are_fuss_catalan():
    cfg = WishartConfig(c=1.0, c_prime=0.0, N_list=(32, 64), trials=40,
                        k_max=3, seed=8)
    est = product_experiment(cfg)
    preds = {r.k: r.phi_pred for r in est.rows}
    assert preds[1] == pytest.approx(1.0, abs=1e-9)
    assert preds[2] == pytest.approx(3.0, abs=1e-9)
    assert preds[3] == pytest.approx(12.0, abs=1e-9)
