"""Seeded complex Wishart Monte Carlo and its trace bookkeeping.

Unit tests stay at small matrix sizes; statistical bands are wide (5 sigma)
and every estimate is pinned to a fixed seed, so reruns are bit-identical.
"""

import math
import os
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from infconv import wishart
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


@pytest.mark.parametrize("field, value", [
    ("k_max", 2.5), ("trials", 2.5), ("seed", 1.5), ("N_list", (10.7, 20)),
    ("trials", "4"), ("seed", None), ("k_max", math.inf), ("seed", math.nan),
    ("N_list", (16, math.inf)), ("trials", True),
])
def test_integer_fields_must_be_integers(field, value):
    with pytest.raises(ConfigError, match="must be an integer"):
        WishartConfig(c=1.0, **{"N_list": (16, 32), "trials": 10, field: value})


@pytest.mark.parametrize("v", [4, 4.0, np.int64(4)])
def test_integral_values_are_stored_as_int(v):
    cfg = WishartConfig(c=1.0, N_list=(v, 2 * v), trials=v, k_max=v, seed=v)
    assert (cfg.N_list, cfg.trials, cfg.k_max, cfg.seed) == ((4, 8), 4, 4, 4)
    assert all(type(x) is int for x in (*cfg.N_list, cfg.trials, cfg.k_max, cfg.seed))


def test_rows_must_stay_rectangular():
    # c N + c' must round to a positive number of rows at every size
    with pytest.raises(ConfigError):
        WishartConfig(c=0.001, N_list=(16, 32), trials=10)


@pytest.mark.parametrize("c, c_prime", [(math.inf, 0.0), (1.0, math.nan), (1.0, -math.inf),
                                         (1e308, 0.0), (math.inf, -math.inf)])
def test_rows_must_be_finite(c, c_prime):
    # c N + c' is checked before it is rounded to a row count
    with pytest.raises(ConfigError, match="finite"):
        WishartConfig(c=c, c_prime=c_prime, N_list=(16, 32), trials=10)


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


# -- the product-trial pipeline ------------------------------------------------------

PIPELINE_CONFIGS = [
    WishartConfig(c=1.0, c_prime=1.0, N_list=(16, 24), trials=30, k_max=1, seed=31),
    WishartConfig(c=1.0, c_prime=2.0, N_list=(16, 24), trials=30, k_max=4, seed=32),
    WishartConfig(c=1.0, c_prime=0.0, N_list=(16, 24), trials=30, k_max=6, seed=33),
    # 260 trials cross LANE_TRIALS: a full lane and a short one per size
    WishartConfig(c=1.0, c_prime=1.0, N_list=(6, 8), trials=260, k_max=4, seed=34),
    # c < 1: n = M < N
    WishartConfig(c=0.5, c_prime=0.0, N_list=(20, 40), trials=30, k_max=4, seed=35),
]


def _count_kernels(monkeypatch, delay=0.0):
    """Wrap the trial kernel; returns its peak concurrency, its threads and
    the number of kernels each thread ran."""
    lock = threading.Lock()
    seen = {"now": 0, "peak": 0, "threads": set(), "kernels": Counter()}
    kernel = wishart._reduced_product_trace_powers

    def counted(*args):
        with lock:
            seen["now"] += 1
            seen["peak"] = max(seen["peak"], seen["now"])
            seen["threads"].add(threading.get_ident())
            seen["kernels"][threading.get_ident()] += 1
        try:
            time.sleep(delay)
            return kernel(*args)
        finally:
            with lock:
                seen["now"] -= 1

    monkeypatch.setattr(wishart, "_reduced_product_trace_powers", counted)
    return seen


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("cfg", PIPELINE_CONFIGS,
                         ids=lambda c: f"k{c.k_max}-t{c.trials}-c{c.c:g}")
def test_pipelined_product_is_byte_identical_to_serial(monkeypatch, cfg, width):
    monkeypatch.setattr(wishart, "_pool_width", lambda: 1)
    serial = product_experiment(cfg).to_json()
    monkeypatch.setattr(wishart, "_pool_width", lambda: width)
    seen = _count_kernels(monkeypatch)
    assert product_experiment(cfg).to_json() == serial
    assert 1 <= seen["peak"] <= width
    # the first trial always finds an idle pool thread
    assert len(seen["threads"]) >= 2


@pytest.mark.parametrize("width", [2, 3])
def test_slow_kernels_fill_exactly_width_slots(monkeypatch, width):
    # kernels that outlast a draw keep every pool thread busy, so the
    # calling thread runs trials too and the in-flight count reaches width
    cfg = WishartConfig(c=1.0, c_prime=1.0, N_list=(8, 12), trials=20, k_max=2,
                        seed=36)
    monkeypatch.setattr(wishart, "_pool_width", lambda: width)
    seen = _count_kernels(monkeypatch, delay=0.005)
    product_experiment(cfg)
    assert seen["peak"] == width
    assert len(seen["threads"]) == width
    # a kernel hands its permit back: the pool keeps taking trials instead of
    # stopping after its first width - 1
    kernels = seen["kernels"]
    assert sum(kernels.values()) == 40
    assert sum(kernels.values()) - kernels[threading.get_ident()] >= 10


def test_pipeline_under_thread_switch_stress(monkeypatch):
    # more threads than cores and a tiny switch interval interleave the draws,
    # kernels and slot writes as finely as the interpreter allows
    cfg = PIPELINE_CONFIGS[3]
    monkeypatch.setattr(wishart, "_pool_width", lambda: 1)
    serial = product_experiment(cfg).to_json()
    monkeypatch.setattr(wishart, "_pool_width", lambda: 4)
    seen = _count_kernels(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert product_experiment(cfg).to_json() == serial
    finally:
        sys.setswitchinterval(interval)
    assert 1 <= seen["peak"] <= 4


def test_serial_width_starts_no_thread(monkeypatch):
    monkeypatch.setattr(wishart, "_pool_width", lambda: 1)
    seen = _count_kernels(monkeypatch)
    product_experiment(SMOKE)
    assert seen["peak"] == 1
    assert seen["threads"] == {threading.get_ident()}


class _KernelFault(RuntimeError):
    pass


def test_worker_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(wishart, "_pool_width", lambda: 2)
    want = product_experiment(SMOKE).to_json()
    kernel = wishart._reduced_product_trace_powers

    def faulty(*args):
        if threading.current_thread() is not threading.main_thread():
            raise _KernelFault("kernel failed on a pool thread")
        return kernel(*args)

    threads_before = threading.active_count()
    monkeypatch.setattr(wishart, "_reduced_product_trace_powers", faulty)
    with pytest.raises(_KernelFault):
        product_experiment(SMOKE)
    assert threading.active_count() == threads_before
    monkeypatch.setattr(wishart, "_reduced_product_trace_powers", kernel)
    assert product_experiment(SMOKE).to_json() == want
    assert threading.active_count() == threads_before


def _blas_env(monkeypatch, cpus, **env):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)


def test_pool_width_is_one_without_a_blas_budget(monkeypatch):
    _blas_env(monkeypatch, 2)
    assert wishart._pool_width() == 1
    _blas_env(monkeypatch, 8, OPENBLAS_NUM_THREADS="many")
    assert wishart._pool_width() == 1


def test_pool_width_divides_cpus_by_the_blas_budget(monkeypatch):
    _blas_env(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
    assert wishart._pool_width() == 2
    _blas_env(monkeypatch, 2, OPENBLAS_NUM_THREADS="2")
    assert wishart._pool_width() == 1
    _blas_env(monkeypatch, 8, OMP_NUM_THREADS="1")
    assert wishart._pool_width() == 8
    # the largest budget wins, and a budget above the CPU count still runs
    _blas_env(monkeypatch, 8, MKL_NUM_THREADS="1", OMP_NUM_THREADS="4")
    assert wishart._pool_width() == 2
    _blas_env(monkeypatch, 2, OPENBLAS_NUM_THREADS="4")
    assert wishart._pool_width() == 1
