"""The three benchmark workloads: seeded inputs, request bodies, cross-checks.

Every workload is a closed loop with one client.  Requests come in blocks:
a block holds a fixed multiset of request shapes (order K, which extra
check, matrix sizes) in a seeded order, and runs stop only at block
boundaries, so every run sees the same mix of shapes whatever its seed.
The shape multisets are chosen so that the median and the 90th percentile
of request latency fall inside a group of equal-shape requests rather than
on the edge between two groups, where a percentile would jump between the
slowest request of one group and the fastest of the next.

The library receives only the generated laws and configs.  Library calls go
through the ``infconv`` module attributes (``ic.verify`` rather than a
name imported once) so that the traced run can wrap them from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import infconv as ic

# Tolerances follow the repository's own acceptance gate: oracle vs
# transform to 1e-8 (criterion 4), transform roundtrips to 1e-10
# (criterion 2), cumulant routes to 1e-9 (criterion 5), block routes to 1e-9.
# Except for `verify`, which applies its own absolute tolerance, they are
# taken relative to the largest magnitude the compared route passes through
# (at least 1): order-8 cumulants and t-vectors reach 1e3 to 1e4, and the
# benchmark draws far more laws than the gate's few dozen, so an absolute
# 1e-9 would flag rounding in the tail of the draws rather than wrong code.
TOL_VERIFY = 1e-8
TOL_ROUNDTRIP = 1e-10
TOL_ROUTES = 1e-9
MIXED_LEN = 5
BOOLEAN_FLOOR = 1e-3

# The benchmark applies the Monte Carlo check to every request of every run,
# thousands of times, each with only a dozen trials, so the stderr in the
# check is itself estimated from 12 samples (Student t, 11 degrees of
# freedom).  At the library's usual 3 sigma that t-tail flagged 14 of 800
# requests by chance alone; at 10 sigma the chance rate is below one in a
# million per request, while a 1% error in the sampler's scale still misses
# by more than 10 stderr.
MC_SIGMAS = 10.0
MC_TRIALS = 12


class Tally:
    """Cross-check outcomes of one request; any miss fails the request."""

    def __init__(self) -> None:
        self.misses: list[str] = []

    def within(self, label: str, deviation: float, tol: float,
               scale: float = 1.0) -> None:
        limit = tol * max(1.0, scale)
        # written so that NaN counts as a miss
        if not deviation <= limit:
            self.misses.append(f"{label}: deviation {deviation:.3e} > {limit:.3e}")

    def require(self, label: str, ok: bool) -> None:
        if not ok:
            self.misses.append(label)


def law_gap(a: ic.InfLaw, b: ic.InfLaw) -> float:
    """Largest moment difference over the shared order, body and eps parts."""
    k = min(a.K, b.K)
    return float(max(np.max(np.abs(a.m[:k] - b.m[:k])),
                     np.max(np.abs(a.m_prime[:k] - b.m_prime[:k]))))


def magnitude(*arrays) -> float:
    return float(max(np.max(np.abs(a)) for a in arrays))


def rand_law(rng: np.random.Generator, K: int, lo: float, hi: float) -> ic.InfLaw:
    """Moments and primed moments uniform in [-1, 1], first moment in [lo, hi]."""
    m = rng.uniform(-1.0, 1.0, K)
    mp = rng.uniform(-1.0, 1.0, K)
    m[0] = rng.uniform(lo, hi)
    return ic.InfLaw(K, m, mp)


def rand_plain(rng: np.random.Generator, order: int) -> ic.DualSeries:
    """Plain series vanishing at 0, coefficients uniform in [-0.8, 0.8]."""
    coeffs = rng.uniform(-0.8, 0.8, order + 1)
    coeffs[0] = 0.0
    return ic.DualSeries(order, coeffs)


# -- convolve-verify ----------------------------------------------------------

BLOCK_KINDS = (
    ic.TransformKind.PSI,
    ic.TransformKind.ETA_PLAIN,
    ic.TransformKind.KAPPA,
    ic.TransformKind.RHO,
    ic.TransformKind.S,
    ic.TransformKind.T,
)


def make_convolve(rng: np.random.Generator, K: int) -> dict:
    return {
        "K": K,
        "free": (rand_law(rng, K, 1.0, 1.0), rand_law(rng, K, 1.0, 1.0)),
        "pair": (rand_law(rng, K, -1.0, 1.0), rand_law(rng, K, -1.0, 1.0)),
        "law": rand_law(rng, K, 0.7, 1.3),
        "block_kind": BLOCK_KINDS[int(rng.integers(len(BLOCK_KINDS)))],
        "b": rand_plain(rng, K),
        "c": rand_plain(rng, K),
    }


def run_convolve(req: dict, tally: Tally) -> None:
    K = req["K"]
    sweeps = (
        (ic.ProductKind.FREE, req["free"], "yx"),
        (ic.ProductKind.BOOLEAN, req["pair"], "yx"),
        (ic.ProductKind.MONOTONE, req["pair"], "yx"),
        (ic.ProductKind.MONOTONE, req["pair"], "xy"),
    )
    for kind, (lx, ly), order in sweeps:
        rep = ic.verify(kind, lx, ly, K, order=order, tol=TOL_VERIFY)
        tally.require(f"verify {kind.value} {order}: {rep.deviation_body:.3e}"
                      f" / {rep.deviation_eps:.3e}", rep.passed)
    law = req["law"]
    for kind in ic.TransformKind:
        f = ic.transform(kind, law)
        back = ic.law_from_transform(kind, f)
        tally.within(f"roundtrip {kind.value}", law_gap(law, back), TOL_ROUNDTRIP,
                     magnitude(f.body, f.eps))
    bk = req["block_kind"]
    got = ic.block_transform(bk, law, req["b"], req["c"])
    want = ic.block_transform_formula(bk, law, req["b"], req["c"])
    tally.within(f"block {bk.value}", got.max_abs_diff(want), TOL_ROUTES,
                 magnitude(want.diag.body, want.corner.body))


# -- tcoeff-linked -------------------------------------------------------------


def make_tcoeff(rng: np.random.Generator, shape: tuple) -> dict:
    K, mixed = shape
    req = {"law": rand_law(rng, K, 0.7, 1.3), "mixed": None}
    if mixed:
        req["mixed"] = (rand_law(rng, MIXED_LEN, 0.7, 1.3),
                        rand_law(rng, MIXED_LEN, 0.7, 1.3))
    return req


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def run_tcoeff(req: dict, tally: Tally) -> None:
    law = req["law"]
    tv = ic.t_coeffs_from_moments(law)
    t_scale = magnitude(tv.t, tv.t_prime)
    tally.within("moments_from_t roundtrip", law_gap(law, ic.moments_from_t(tv)),
                 TOL_ROUTES, t_scale)
    cv = ic.cumulants_from_moments(law)
    k_scale = magnitude(cv.kappa, cv.kappa_prime)
    for route in ("linked", "interval"):
        kt = ic.kappa_from_t(tv, route=route)
        tally.within(f"kappa_from_t {route}",
                     max(_max_abs(kt.kappa, cv.kappa),
                         _max_abs(kt.kappa_prime, cv.kappa_prime)), TOL_ROUTES,
                     max(k_scale, t_scale))
    tally.within("inf_cumulants_direct",
                 _max_abs(ic.inf_cumulants_direct(law), cv.kappa_prime), TOL_ROUTES,
                 k_scale)
    if req["mixed"] is not None:
        lx, ly = req["mixed"]
        free = ic.mixed_vanishing_check(ic.free_mixed_moments(lx, ly), MIXED_LEN)
        tally.within("mixed t free pair", max(free.max_body, free.max_eps),
                     TOL_ROUTES)
        boolean = ic.mixed_vanishing_check(ic.boolean_mixed_moments(lx, ly),
                                           MIXED_LEN)
        tally.require(f"mixed t Boolean pair survives: {boolean.max_body:.3e}",
                      boolean.max_body > BOOLEAN_FLOOR)


# -- wishart-mc ----------------------------------------------------------------


def make_wishart(rng: np.random.Generator, shape: tuple) -> dict:
    product, n_list = shape
    # c = 1 and an integer c' keep M = round(c N + c') exact at every size,
    # so the finite-size correction is the one the predictions describe.
    cfg = ic.WishartConfig(
        c=1.0,
        c_prime=float(rng.integers(0, 3)),
        N_list=n_list,
        trials=MC_TRIALS,
        k_max=4,
        seed=int(rng.integers(0, 2**62)),
    )
    return {"product": product, "cfg": cfg}


def run_wishart(req: dict, tally: Tally) -> None:
    run = ic.product_experiment if req["product"] else ic.estimate_moments
    est = run(req["cfg"])
    tally.require(f"{run.__name__} outside {MC_SIGMAS:g} stderr of the limit law",
                  est.checks_pass(sigmas=MC_SIGMAS))


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    block: tuple            # request shapes of one block, in canonical order
    warmup: object          # shape of the warm-up request (largest order)
    make: Callable          # (rng, shape) -> request inputs
    run: Callable           # (request, tally) -> None
    alternate: bool = False  # keep even/odd slots apart (estimate/product)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="convolve-verify",
            # p50 falls inside the K=6 group, p90 inside the K=8 group
            block=(4, 5, 5, 6, 6, 6, 7, 8, 8, 8),
            warmup=8,
            make=make_convolve,
            run=run_convolve,
        ),
        Workload(
            name="tcoeff-linked",
            # by latency: K5 < K6 < K5+mixed < K7 < K8, so p50 falls inside
            # the K7 group and p90 inside the K8 group
            block=((5, False), (6, False), (6, False), (5, True), (7, False),
                   (7, False), (7, False), (7, False), (8, False), (8, False)),
            warmup=(8, True),
            make=make_tcoeff,
            run=run_tcoeff,
        ),
        Workload(
            name="wishart-mc",
            # even slots estimate_moments, odd slots product_experiment; by
            # latency: estimate(100,200) < product(100,200) <
            # estimate(100,200,400), so p50 falls inside the product group
            # and p90 inside the N=400 group
            block=((False, (100, 200)), (True, (100, 200)),
                   (False, (100, 200)), (True, (100, 200)),
                   (False, (100, 200)), (True, (100, 200)),
                   (False, (100, 200, 400)), (True, (100, 200)),
                   (False, (100, 200, 400)), (True, (100, 200))),
            warmup=(False, (100, 200, 400)),
            make=make_wishart,
            run=run_wishart,
            alternate=True,
        ),
    )
}


def block_order(wl: Workload, seed: int, block: int) -> list:
    """Seeded order of one block's shapes."""
    rng = np.random.default_rng([seed, block, 1])
    if not wl.alternate:
        return [wl.block[i] for i in rng.permutation(len(wl.block))]
    even, odd = list(wl.block[0::2]), list(wl.block[1::2])
    even = [even[i] for i in rng.permutation(len(even))]
    odd = [odd[i] for i in rng.permutation(len(odd))]
    return [s for pair in zip(even, odd) for s in pair]


def request_inputs(wl: Workload, seed: int, index: int, shape) -> object:
    """Inputs of request `index`; index -1 is the warm-up request."""
    rng = np.random.default_rng([seed, index + 1, 2])
    return wl.make(rng, shape)


def checker_self_check(seed: int) -> bool:
    """Feed the checker a known wrong answer; True if it counts a failure.

    The wrong answer is the negative control of acceptance criterion 4:
    mixed moments of a Boolean pair, compared against the free transform
    route for the same two laws.
    """
    rng = np.random.default_rng([seed, 0, 3])
    K = 6
    lx, ly = rand_law(rng, K, 0.7, 1.3), rand_law(rng, K, 0.7, 1.3)
    phi = ic.boolean_mixed_moments(lx, ly)
    wrong = ic.InfLaw.from_moments([phi(("x", "y") * k) for k in range(1, K + 1)])
    right = ic.convolve_by_transform(ic.ProductKind.FREE, lx, ly, K)
    tally = Tally()
    tally.within("negative control", law_gap(wrong, right), TOL_VERIFY)
    return len(tally.misses) == 1
