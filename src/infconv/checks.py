"""Route-pair checks shared by `infconv selftest` and the acceptance gate.

Each check takes one draw from a seeded generator and returns the deviation
between two routes: the larger of their body and eps gaps.  A negative control
returns the deviation that must stay large; a check that runs both on one draw
returns (deviation, control).  Deterministic checks ignore the generator.
SELFTEST holds each selftest line's (check, draws, tol, floor) entries.  The
package root does not import this module.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .convolve import (ProductKind, boolean_mixed_moments, convolve_by_transform,
                       free_mixed_moments, oracle_monotone_product, verify)
from .cumulants import (TCoeffVector, constant_cumulant_law, cumulants_from_moments,
                        kappa_from_t, mixed_vanishing_check, moments_from_cumulants,
                        moments_from_t, t_coeffs_from_moments)
from .laws import InfLaw, TransformKind, d_transform, law_from_transform, transform
from .partitions import (SetPartition, enumerate_nc, enumerate_ncl, linked_class,
                         non_minimal_elements, parse_partition_text)
from .series import DualSeries
from .triangular import block_transform, block_transform_formula, centered_alternating_check
from .wishart import WishartConfig, estimate_moments

PRODUCTS = ((ProductKind.FREE, "yx"), (ProductKind.BOOLEAN, "yx"),
            (ProductKind.MONOTONE, "yx"), (ProductKind.MONOTONE, "xy"))


def rand_law(rng, K=8, lo=0.7, hi=1.3) -> InfLaw:
    """Dual moments uniform in [-1, 1], the first body in [lo, hi].

    A first moment away from 0 keeps the S/T reversions well conditioned.
    """
    m = rng.uniform(-1, 1, K)
    mp = rng.uniform(-1, 1, K)
    m[0] = rng.uniform(lo, hi)
    return InfLaw(K, m, mp)


def rand_series(rng, order=8) -> DualSeries:
    """Body and eps coefficients uniform in [-1, 1]."""
    body = rng.uniform(-1, 1, order + 1)
    return DualSeries(order, body, rng.uniform(-1, 1, order + 1))


def _worst(values) -> float:
    """The largest value, NaN if any is NaN; Python's max drops a NaN that is not first."""
    return float(np.max(list(values)))


def _gap(a, b) -> float:
    return _worst(a.max_abs_diff(b))


def catalan_schroder(n: int) -> tuple[list[int], list[int]]:
    """Catalan and large Schroeder numbers 0..n, by their recursions."""
    catalan, schroder = [1], [1]
    for m in range(1, n + 1):
        catalan.append(sum(catalan[i] * catalan[m - 1 - i] for i in range(m)))
        schroder.append(schroder[m - 1]
                        + sum(schroder[k] * schroder[m - 1 - k] for k in range(m)))
    return catalan, schroder


def partition_counts(rng=None, n_max: int = 10) -> int:
    """Miscounts of NC(n <= n_max), NCL(n <= n_max - 2) and <1_3> against
    Catalan and Schroeder numbers."""
    catalan, schroder = catalan_schroder(n_max)
    misses = [abs(len(enumerate_nc(n)) - catalan[n]) for n in range(1, n_max + 1)]
    misses += [abs(len(enumerate_ncl(n)) - schroder[n - 1]) for n in range(1, n_max - 1)]
    misses.append(abs(len(linked_class(SetPartition.of(3, [[1, 2, 3]]))) - 2))
    return max(misses)


def non_minimal(rng=None) -> int:
    """1 unless the non-minimal elements of the linked {{1,2},{2,3}} are (3,)."""
    pi = parse_partition_text("{{1,2},{2,3}}", linked=True)
    return int(non_minimal_elements(pi) != (3,))


def series_roundtrips(rng) -> float:
    """f * f^-1 = 1, and h o h^<-1> = z with h'(0) in [0.7, 1.3], |h_k| <= 0.7."""
    f = rand_series(rng)
    f.body[0] = rng.uniform(0.7, 1.3)
    g = f * f.inv()
    h = rand_series(rng)
    h.body[1:] *= 0.7
    h.eps[1:] *= 0.7
    h.body[0] = h.eps[0] = 0.0
    h.body[1] = rng.uniform(0.7, 1.3)
    return _worst([_gap(g, DualSeries.constant(1.0, g.order)),
                   _gap(h.compose(h.reversion()), DualSeries.identity(h.order))])


def transform_roundtrips(rng) -> float:
    law = rand_law(rng)
    return _worst(_gap(law, law_from_transform(kind, transform(kind, law)))
                  for kind in TransformKind)


def transform_derivatives(rng) -> float:
    """d_transform against the eps part of transform; S and T on mean body 1."""
    law, unit = rand_law(rng), rand_law(rng, lo=1.0, hi=1.0)
    general = (TransformKind.ETA_TILDE, TransformKind.ETA_PLAIN,
               TransformKind.KAPPA, TransformKind.RHO)
    pinned = (TransformKind.S, TransformKind.T)
    return _worst(_gap(d_transform(kind, lw), transform(kind, lw).eps_split()[1])
                  for kinds, lw in ((general, law), (pinned, unit)) for kind in kinds)


def moment_roundtrips(rng) -> float:
    """Moments to free cumulants and back, and to t-coefficients and back."""
    law = rand_law(rng)
    return _worst([_gap(law, moments_from_cumulants(cumulants_from_moments(law))),
                   _gap(law, moments_from_t(t_coeffs_from_moments(law)))])


def free_poisson_moments(rng=None) -> float:
    """Moments of constant cumulants 1 + eps 0 against the Catalan numbers, eps 0."""
    catalan = catalan_schroder(8)[0][1:]
    return _gap(constant_cumulant_law(1.0, 0.0, K=8), InfLaw(8, catalan, [0] * 8))


def kappa_routes(rng) -> float:
    """Both kappa_from_t routes against cumulants_from_moments."""
    law = rand_law(rng)
    cv, tv = cumulants_from_moments(law), t_coeffs_from_moments(law)
    return _worst(_gap(kappa_from_t(tv, route=route), cv) for route in ("linked", "interval"))


def product_theorem(rng, kind: ProductKind, order: str = "yx") -> float:
    """verify on two K = 6 laws, with mean bodies 1 if free, else in [-1, 1]."""
    lo = 1.0 if kind is ProductKind.FREE else -1.0
    lx, ly = rand_law(rng, K=6, lo=lo, hi=1.0), rand_law(rng, K=6, lo=lo, hi=1.0)
    rep = verify(kind, lx, ly, 6, order=order)
    return _worst([rep.deviation_body, rep.deviation_eps])


def product_controls(rng) -> tuple[float, float]:
    """Controls: a Boolean pair's words against the free product, and the
    monotone oracle against the transform route with the legs swapped."""
    lx, ly = rand_law(rng, K=6), rand_law(rng, K=6)
    phi = boolean_mixed_moments(lx, ly)
    wrong = InfLaw.from_moments([phi(("x", "y") * k) for k in range(1, 7)])
    swapped = convolve_by_transform(ProductKind.MONOTONE, ly, lx, 6, order="yx")
    return (_gap(wrong, convolve_by_transform(ProductKind.FREE, lx, ly, 6)),
            _gap(oracle_monotone_product(lx, ly, 6, order="yx"), swapped))


def _free_and_boolean(rng, word_check, K: int, max_len: int) -> tuple[float, float]:
    """Worst word on a free pair, and worst body on its Boolean control."""
    lx, ly = rand_law(rng, K=K), rand_law(rng, K=K)
    free = word_check(free_mixed_moments(lx, ly), max_len=max_len)
    control = word_check(boolean_mixed_moments(lx, ly), max_len=max_len)
    return _worst([free.max_body, free.max_eps]), control.max_body


def mixed_t_words(rng) -> tuple[float, float]:
    return _free_and_boolean(rng, mixed_vanishing_check, K=5, max_len=5)


def centered_words(rng) -> tuple[float, float]:
    return _free_and_boolean(rng, centered_alternating_check, K=3, max_len=6)


def block_routes(rng) -> float:
    """Both block-transform routes at b + eps c; eta_tilde has no block form."""
    law = rand_law(rng)
    b, c = (DualSeries.from_coeffs([0.0, *rng.uniform(-0.8, 0.8, 6)]) for _ in range(2))
    return _worst(block_transform(kind, law, b, c).max_abs_diff(
                      block_transform_formula(kind, law, b, c))
                  for kind in TransformKind if kind is not TransformKind.ETA_TILDE)


def limit_t_vector(rng=None) -> float:
    """t-vector of the K = 8 limit law against (c, 1, 0, ...), t' = (c', 0, ...)."""
    return _worst(_gap(t_coeffs_from_moments(constant_cumulant_law(c, cp, K=8)),
                       TCoeffVector(8, [c, 1.0] + [0.0] * 6, [cp] + [0.0] * 7))
                  for c, cp in ((1.0, 2.0), (2.0, 1.0)))


def wishart_smoke(rng=None) -> float:
    """z-score of the N = 96 first moment against 1 + 1/N; inf if not reproducible."""
    cfg = WishartConfig(c=1.0, c_prime=1.0, N_list=(48, 96), trials=120,
                        k_max=2, seed=20260814)
    est = estimate_moments(cfg)
    if est.to_json() != estimate_moments(cfg).to_json():
        return float("inf")
    row = next(r for r in est.rows if r.N == 96 and r.k == 1)
    return abs(row.mean - 97 / 96) / row.stderr


def first_failure(rng, entries) -> str | None:
    """The first draw whose deviation exceeds tol or whose controls fall below
    floor; without a tol, every value a check returns is a control.  A partial
    check is named with its keyword values, e.g. `product_theorem free yx`."""
    for check, draws, tol, floor in entries:
        keywords = getattr(check, "keywords", {}).values()
        name = " ".join([getattr(check, "func", check).__name__,
                         *(str(getattr(v, "value", v)) for v in keywords)])
        for i in range(1, draws + 1):
            devs = np.atleast_1d(check(rng))
            if tol is not None:
                if not devs[0] <= tol:
                    return f"{name} deviates {devs[0]:.2e} > {tol:g} (draw {i})"
                devs = devs[1:]
            if floor is not None and not devs.min() >= floor:
                return f"{name} control {devs.min():.2e} < {floor:g} (draw {i})"
    return None


SELFTEST = (
    ("partition counts", [(partial(partition_counts, n_max=9), 1, 0, None),
                          (non_minimal, 1, 0, None)]),
    ("series roundtrips", [(series_roundtrips, 10, 1e-10, None)]),
    ("transform roundtrips and derivatives", [(transform_roundtrips, 10, 1e-10, None),
                                              (transform_derivatives, 10, 1e-10, None)]),
    ("cumulant and t-coefficient routes", [(free_poisson_moments, 1, 1e-10, None),
                                           (moment_roundtrips, 5, 1e-10, None),
                                           (kappa_routes, 5, 1e-9, None),
                                           (mixed_t_words, 1, 1e-9, 1e-3)]),
    ("convolution theorems", [(partial(product_theorem, kind=kind, order=order), 5, 1e-8, None)
                              for kind, order in PRODUCTS]
                             + [(product_controls, 1, None, 1e-3)]),
    ("triangular block routes", [(block_routes, 5, 1e-9, None),
                                 (centered_words, 1, 1e-9, 1e-3)]),
    ("wishart limit t-vector", [(limit_t_vector, 1, 1e-10, None)]),
    ("wishart monte carlo smoke", [(wishart_smoke, 1, 4.0, None)]),
)
