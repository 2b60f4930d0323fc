"""Monte Carlo checks of the Wishart limit against the dual-law predictions.

X = (1/N) G*G with complex Gaussian G of shape M x N, M = round(c N + c').
The limit law has all free cumulants equal to c with first infinitesimal
cumulant c'; sample means of normalized traces are compared to its moments,
and the 1/N corrections are extracted by Richardson extrapolation over the
matrix sizes.  Product runs draw two independent matrices per trial and
compare against the free multiplicative convolution of the limit law with
itself.

Production sampler: the beta = 2 Laguerre bidiagonal model of Dumitriu and
Edelman, "Matrix models for beta ensembles", J. Math. Phys. 43 (2002),
arXiv:math-ph/0206043.  With n = min(M, N) and a = max(M, N), the nonzero
spectrum of G*G is that of B B^T, where B is an n x n real lower-bidiagonal
matrix with B[i, i]^2 ~ Gamma(a - i) and B[i+1, i]^2 ~ Gamma(n - 1 - i), all
independent (chi^2_{2k} / 2 ~ Gamma(k)).  A single-matrix trial is then a
tridiagonal T = B B^T / N whose traces come from banded products in O(n k).
The N - n zero eigenvalues still count in the normalization by N.

Product runs use the same model for X1.  G1*G1 has the law of U* (F F^T) U
with U Haar, F = [B; 0] of shape N x n, and U independent of G2; since G2*G2
is unitarily invariant, tr((X1 X2)^k) has the law of tr(Y^k) with
H = G2[:, :n] B (an O(M n) product) and Y = H*H / N^2, an n x n matrix.

Reference route: dense `sample_wishart` with `trace_powers` and
`_product_trace_powers`.  Tests check the production route against it and
against the exact finite-size moments.

Sampling is organized in fixed lanes of `LANE_TRIALS` trials; each lane owns
an RNG stream keyed by (seed, size, lane, run tag).  Single-matrix lanes are
vectorized over their trials and run serially.  Product runs pipeline their
trials: the calling thread walks sizes, lanes and trials in order and makes
every draw, so each stream is consumed exactly as in a serial run; the
trial's kernel (two GEMMs and the trace sums, which release the GIL) goes to
an idle pool thread, or runs on the calling thread when none is idle.  At
most `width` kernels are in flight and no draw is made ahead of them.
`width` is the number of CPUs the process may use divided by the BLAS
thread budget read from OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS; with none of them set BLAS is taken to use every CPU, so
width is 1 and every trial runs inline without starting a thread.  Each
kernel writes its trial's slot and the per-size sums are taken in lane
order, so for a given seed the output is byte-identical for any width.  It
is byte-identical only for a fixed BLAS thread count, though: zgemm's
summation order depends on it, which moves the last digits of the product
standard errors.
"""

from __future__ import annotations

import json
import math
import os
import threading
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import partial
from typing import Iterable

import numpy as np

from .convolve import ProductKind, convolve_by_transform
from .cumulants import constant_cumulant_law
from .errors import ConfigError
from .laws import InfLaw

LANE_TRIALS = 250
MAX_K = 6
_SQRT_HALF = 1.0 / math.sqrt(2.0)
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class WishartConfig:
    c: float
    c_prime: float = 0.0
    N_list: tuple = (100, 200, 400)
    trials: int = 1000
    k_max: int = 4
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "N_list", tuple(int(n) for n in self.N_list))
        if not self.c > 0:
            raise ConfigError("c must be positive")
        if not self.N_list:
            raise ConfigError("N_list must be nonempty")
        if any(n < 1 for n in self.N_list):
            raise ConfigError("matrix sizes must be >= 1")
        if list(self.N_list) != sorted(set(self.N_list)):
            raise ConfigError("N_list must be strictly increasing")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 1 <= self.k_max <= MAX_K:
            raise ConfigError(f"k_max must be in 1..{MAX_K}")
        if not 0 <= int(self.seed) < 2**63:
            raise ConfigError("seed must be a non-negative 64-bit integer")
        for n in self.N_list:
            if self.M(n) < 1:
                raise ConfigError(f"round(c*{n} + c') must be >= 1")

    def M(self, N: int) -> int:
        return int(round(self.c * N + self.c_prime))


@dataclass(frozen=True)
class McRow:
    N: int
    k: int
    mean: float
    stderr: float
    phi_pred: float
    phi_prime_est: float
    phi_prime_pred: float


@dataclass(frozen=True)
class McExtrapolation:
    k: int
    phi_est: float
    phi_stderr: float
    phi_prime_est: float
    phi_prime_stderr: float
    phi_pred: float
    phi_prime_pred: float


CSV_COLUMNS = ("N", "k", "mean", "stderr", "phi_pred", "phi_prime_est",
               "phi_prime_pred")


@dataclass(frozen=True)
class McEstimate:
    config: WishartConfig
    product: bool
    rows: tuple
    extrapolation: tuple

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(",".join(format(getattr(r, col), ".12g") for col in CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "config": {**asdict(self.config), "N_list": list(self.config.N_list),
                       "product": self.product},
            "rows": [asdict(r) for r in self.rows],
            "extrapolation": [asdict(e) for e in self.extrapolation],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    def margins(self, rel: float = 0.15, sigmas: float = 3.0) -> tuple:
        """Per-k (k, phi margin, phi' margin): |deviation| / allowance.

        The allowance is `sigmas` stderr for phi and max(sigmas stderr,
        rel * |prediction|) for phi'.  A margin above 1 is a failed check; a
        zero allowance gives 0 for an exact hit and inf otherwise.
        """
        def ratio(dev: float, allow: float) -> float:
            if allow > 0:
                return dev / allow
            return 0.0 if dev == 0 else math.inf

        return tuple(
            (
                e.k,
                ratio(abs(e.phi_est - e.phi_pred), sigmas * e.phi_stderr),
                ratio(abs(e.phi_prime_est - e.phi_prime_pred),
                      max(sigmas * e.phi_prime_stderr, rel * abs(e.phi_prime_pred))),
            )
            for e in self.extrapolation
        )

    def checks_pass(self, rel: float = 0.15, sigmas: float = 3.0) -> bool:
        """Every margin of `margins(rel, sigmas)` is at most 1."""
        return all(mp <= 1.0 and mpp <= 1.0
                   for _, mp, mpp in self.margins(rel, sigmas))


def sample_wishart(M: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """X = (1/N) G*G with i.i.d. entries (u+iv)/sqrt(2), so E|g|^2 = 1."""
    if M < 1 or N < 1:
        raise ConfigError("matrix dimensions must be >= 1")
    g = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
    g *= _SQRT_HALF
    return (g.conj().T @ g) / N


def trace_powers(X: np.ndarray, k_max: int) -> list:
    """Normalized traces of X^1..X^k_max.

    tr(AB) = sum(A * B^T) elementwise, so only X^2 and X^3 are ever formed
    by matrix multiplication (k_max <= 6).
    """
    N = X.shape[0]
    out = [np.trace(X).real / N]
    if k_max >= 2:
        out.append(np.sum(X * X.T).real / N)
    if k_max >= 3:
        X2 = X @ X
        out.append(np.sum(X2 * X.T).real / N)
    if k_max >= 4:
        out.append(np.sum(X2 * X2.T).real / N)
    if k_max >= 5:
        X3 = X2 @ X
        out.append(np.sum(X3 * X2.T).real / N)
    if k_max >= 6:
        out.append(np.sum(X3 * X3.T).real / N)
    return out[:k_max]


def _product_trace_powers(X1: np.ndarray, X2: np.ndarray, k_max: int) -> list:
    """Normalized traces of (X1 X2)^1..(X1 X2)^k_max, from trace_powers.

    The name stays because perfbench/tracing.py wraps it.
    """
    return trace_powers(X1 @ X2, k_max)


def _lane_sizes(trials: int) -> list:
    full, rest = divmod(trials, LANE_TRIALS)
    return [LANE_TRIALS] * full + ([rest] if rest else [])


def _bidiagonal_gammas(M: int, N: int, trials: int, rng: np.random.Generator):
    """Squared entries of the bidiagonal model, one row per trial.

    Returns d2 of shape (trials, n) with d2[:, i] ~ Gamma(a - i), the squared
    diagonal, and e2 of shape (trials, n - 1) with e2[:, i] ~ Gamma(n - 1 - i),
    the squared subdiagonal.
    """
    n, a = min(M, N), max(M, N)
    i = np.arange(n)
    d2 = rng.standard_gamma(a - i, size=(trials, n))
    e2 = rng.standard_gamma(n - 1 - i[:-1], size=(trials, n - 1))
    return d2, e2


def _tridiagonal_trace_powers(diag: np.ndarray, off: np.ndarray,
                              k_max: int) -> np.ndarray:
    """tr(T^k) for k = 1..k_max, for a stack of symmetric tridiagonal T.

    `diag` (L, n) and `off` (L, n - 1) hold the diagonals and first
    off-diagonals; the result has shape (L, k_max).  Powers are kept as row
    bands R[:, i, w + d] = T^j[i, i + d], zero outside the matrix, so each
    T^(j+1) = T^j T is a few elementwise products, and
    tr(T^(a+b)) = sum(T^a * T^b) over their common band (both are symmetric).
    """
    L, n = diag.shape
    half = (k_max + 1) // 2
    pad = half - 1
    # rows of T as (T[j, j-1], T[j, j], T[j, j+1]), with `pad` zero rows at
    # each end so that row i + d of T is row pad + i + d here for |d| <= pad
    rows = np.zeros((L, n + 2 * pad, 3))
    rows[:, pad:pad + n, 1] = diag
    rows[:, pad + 1:pad + n, 0] = off
    rows[:, pad:pad + n - 1, 2] = off
    powers = [np.ones((L, n, 1))]
    for w in range(half):
        band = powers[-1]
        nxt = np.zeros((L, n, 2 * w + 3))
        for d in range(-w, w + 1):
            nxt[:, :, w + d:w + d + 3] += (band[:, :, w + d, None]
                                          * rows[:, pad + d:pad + d + n])
        powers.append(nxt)
    out = np.empty((L, k_max))
    for k in range(1, k_max + 1):
        wa, wb = k // 2, k - k // 2
        m = min(wa, wb)
        a = powers[wa][:, :, wa - m:wa + m + 1]
        b = powers[wb][:, :, wb - m:wb + m + 1]
        out[:, k - 1] = np.einsum("lij,lij->l", a, b)
    return out


def _single_lane(M: int, N: int, trials: int, k_max: int,
                 rng: np.random.Generator) -> np.ndarray:
    """tr_N(X^k) for one lane of single-matrix trials, shape (trials, k_max)."""
    d2, e2 = _bidiagonal_gammas(M, N, trials, rng)
    # T = B B^T: T[i, i] = d_i^2 + e_{i-1}^2 and T[i, i+1] = d_i e_i
    diag = d2.copy()
    diag[:, 1:] += e2
    off = np.sqrt(d2[:, :-1] * e2)
    return _tridiagonal_trace_powers(diag / N, off / N, k_max) / N


def _reduced_product_trace_powers(g: np.ndarray, d: np.ndarray, e: np.ndarray,
                                  N: int, k_max: int) -> list:
    """tr_N((X1 X2)^k) for X1 = F F^T / N and X2 = G*G / N, F = [B; 0].

    `g` holds the first n columns of G (M x n), `d` and `e` the diagonal and
    subdiagonal of the n x n lower-bidiagonal B.  tr((X1 X2)^k) = tr(Y^k) for
    Y = H*H / N^2 with H = g B.  Forming Y is one GEMM and `trace_powers`
    adds Y^2 from k_max = 3 on; k_max = 1 needs none, as tr Y = |H|^2 / N^2.
    H / N and then Y are formed in place: `g` is overwritten.
    """
    n = d.size
    shifted = g[:, 1:] * (e / N)
    h = g
    h *= d / N
    h[:, :-1] += shifted
    del shifted
    if k_max == 1:
        return [np.vdot(h, h).real / N]
    # Y overwrites the first n rows of H (n <= M), which are spent once Y is
    # formed, so the traces run next to two n x n temporaries instead of three
    y = h[:n]
    y[...] = h.conj().T @ h
    return [t * n / N for t in trace_powers(y, k_max)]


def _pool_width() -> int:
    """Trial kernels that may run at once: usable CPUs over the BLAS budget.

    The budget is the largest positive value among `_BLAS_THREAD_VARS`; with
    none set, BLAS is taken to use every CPU and the width is 1.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    budget = 0
    for var in _BLAS_THREAD_VARS:
        try:
            budget = max(budget, int(os.environ.get(var, "")))
        except ValueError:
            pass
    if budget < 1:
        return 1
    return max(1, cpus // budget)


def _trial_pool(width: int):
    """A pool of width - 1 threads, or a null context (no pool) at width 1."""
    if width == 1:
        return nullcontext()
    # imported here: it pulls in logging, which import and estimates skip
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(width - 1)


class _TrialPipeline:
    """Runs product-trial kernels on the calling thread and an optional pool.

    `run(out, t, *args)` stores `_reduced_product_trace_powers(*args)` in
    out[t]: on a pool thread if one of `width - 1` is idle, else on the
    calling thread before returning.  So at most `width` kernels are in
    flight, and the caller never holds more than the one draw it is making.
    `wait()` returns once every slot is filled, and re-raises the first
    error a pool thread hit.
    """

    def __init__(self, pool, width: int):
        self._pool = pool
        self._idle = threading.Semaphore(width - 1)
        self._futures: list = []

    def run(self, out: np.ndarray, t: int, *args) -> None:
        self._reap(block=False)
        if self._idle.acquire(blocking=False):
            self._futures.append(self._pool.submit(self._work, out, t, args))
        else:
            out[t] = _reduced_product_trace_powers(*args)

    def wait(self) -> None:
        self._reap(block=True)

    def _work(self, out: np.ndarray, t: int, args: tuple) -> None:
        try:
            out[t] = _reduced_product_trace_powers(*args)
        finally:
            self._idle.release()

    def _reap(self, block: bool) -> None:
        pending = []
        for f in self._futures:
            if block or f.done():
                f.result()
            else:
                pending.append(f)
        self._futures = pending


def _product_lane(M: int, N: int, trials: int, k_max: int,
                  rng: np.random.Generator,
                  pipeline: _TrialPipeline | None = None) -> np.ndarray:
    """tr_N((X1 X2)^k) for one lane of product trials, shape (trials, k_max).

    Without a pipeline every trial runs inline.  With one, rows may still be
    in flight on return; they are filled once `pipeline.wait()` returns.
    """
    if pipeline is None:
        pipeline = _TrialPipeline(None, 1)
    d2, e2 = _bidiagonal_gammas(M, N, trials, rng)
    n = d2.shape[1]
    d, e = np.sqrt(d2), np.sqrt(e2)
    out = np.empty((trials, k_max))
    for t in range(trials):
        # only the first n columns of G2 reach H = G2 F
        g = rng.standard_normal((M, 2 * n)).view(np.complex128)
        g *= _SQRT_HALF
        pipeline.run(out, t, g, d[t], e[t], N, k_max)
    return out


def _size_lanes(cfg: WishartConfig, N: int, tag: int, lane_fn) -> list:
    """Trace values of each lane at size N, one RNG stream per lane."""
    M = cfg.M(N)
    lanes = []
    for lane, lane_n in enumerate(_lane_sizes(cfg.trials)):
        rng = np.random.default_rng(
            np.random.SeedSequence([int(cfg.seed), int(N), lane, tag])
        )
        lanes.append(lane_fn(M, N, lane_n, cfg.k_max, rng))
    return lanes


def _all_lanes(cfg: WishartConfig, tag: int, product: bool) -> list:
    """Lane values for every size of cfg.N_list; product trials pipelined."""
    if not product:
        return [_size_lanes(cfg, N, tag, _single_lane) for N in cfg.N_list]
    width = _pool_width()
    with _trial_pool(width) as pool:
        pipeline = _TrialPipeline(pool, width)
        lane_fn = partial(_product_lane, pipeline=pipeline)
        lanes = [_size_lanes(cfg, N, tag, lane_fn) for N in cfg.N_list]
        pipeline.wait()
    return lanes


def _limit_predictions(cfg: WishartConfig, product: bool) -> InfLaw:
    K = max(cfg.k_max, 2)
    limit = constant_cumulant_law(cfg.c, cfg.c_prime, K=K)
    if product:
        return convolve_by_transform(ProductKind.FREE, limit, limit, K=K)
    return limit


def _lagrange_at_zero(us: Iterable[float]) -> list:
    us = list(us)
    ws = []
    for i, ui in enumerate(us):
        w = 1.0
        for j, uj in enumerate(us):
            if j != i:
                w *= uj / (uj - ui)
        ws.append(w)
    return ws


def _extrapolate(rows: list) -> list:
    by_k: dict[int, list] = {}
    for r in rows:
        by_k.setdefault(r.k, []).append(r)
    out = []
    for k in sorted(by_k):
        rs = sorted(by_k[k], key=lambda r: r.N)
        # phi: polynomial-in-1/N intercept over the (up to three) largest sizes
        tail = rs[-3:] if len(rs) >= 3 else rs[-2:]
        ws = _lagrange_at_zero([1.0 / r.N for r in tail])
        phi_est = sum(w * r.mean for w, r in zip(ws, tail))
        phi_var = sum((w * r.stderr) ** 2 for w, r in zip(ws, tail))
        # phi': two-point form on the two largest sizes cancels the 1/N^2 term
        r1, r2 = rs[-2], rs[-1]
        n1, n2 = float(r1.N), float(r2.N)
        d1 = r1.mean - r1.phi_pred
        d2 = r2.mean - r2.phi_pred
        pp_est = (n2 * n2 * d2 - n1 * n1 * d1) / (n2 - n1)
        pp_var = (
            (n2 * n2 * r2.stderr) ** 2 + (n1 * n1 * r1.stderr) ** 2
        ) / (n2 - n1) ** 2
        out.append(
            McExtrapolation(
                k,
                float(phi_est),
                math.sqrt(phi_var),
                float(pp_est),
                math.sqrt(pp_var),
                r1.phi_pred,
                r1.phi_prime_pred,
            )
        )
    return out


def _run(cfg: WishartConfig, product: bool, tag: int) -> McEstimate:
    if len(cfg.N_list) < 2:
        raise ConfigError("extrapolation needs at least two matrix sizes")
    pred = _limit_predictions(cfg, product)
    rows = []
    n_tr = cfg.trials
    for N, lanes in zip(cfg.N_list, _all_lanes(cfg, tag, product)):
        s1 = np.zeros(cfg.k_max)
        s2 = np.zeros(cfg.k_max)
        for vals in lanes:
            s1 += vals.sum(axis=0)
            s2 += (vals * vals).sum(axis=0)
        for k in range(1, cfg.k_max + 1):
            mean = s1[k - 1] / n_tr
            if n_tr > 1:
                var = max(s2[k - 1] - n_tr * mean * mean, 0.0) / (n_tr - 1)
                stderr = math.sqrt(var / n_tr)
            else:
                stderr = 0.0
            phi = pred.m[k - 1].real
            phip = pred.m_prime[k - 1].real
            rows.append(
                McRow(N, k, float(mean), float(stderr), phi,
                      float(N * (mean - phi)), phip)
            )
    ext = _extrapolate(rows)
    return McEstimate(cfg, product, tuple(rows), tuple(ext))


def estimate_moments(cfg: WishartConfig) -> McEstimate:
    """Single-matrix run: tr(X^k) means vs the limit law and its 1/N slope."""
    return _run(cfg, product=False, tag=0)


def product_experiment(cfg: WishartConfig) -> McEstimate:
    """Two independent matrices per trial; tr((X1 X2)^k) vs the free product."""
    return _run(cfg, product=True, tag=1)
