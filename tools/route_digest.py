"""One sha256 per numerical route, on seeded complex laws.

Runs the package's routes on fixed, seeded complex dual laws and prints one
line per route: its name and the sha256 over the ``tobytes()`` of every
value it returned, in a fixed order.  Two source trees that compute the
same numbers bit for bit print the same lines, so a refactor that must not
change any number is checked with one ``diff``:

    python tools/route_digest.py > new.txt
    python tools/route_digest.py --src ../other/src > old.txt
    diff old.txt new.txt

Routes: the free, Boolean and monotone ("yx" and "xy") oracles and
``convolve_by_transform`` for K = 1..8; ``make_mixed_t`` on every word of
length n <= 6 and the ``mixed_vanishing_check`` reports, for the free and
the Boolean mixed-moment models; ``t_coeffs_from_moments``,
``moments_from_t``, both ``kappa_from_t`` routes, ``inf_cumulants_direct``,
``cumulants_from_moments``, ``moments_from_cumulants`` on its output, and
``shifted`` by a dual constant of either sign.  The laws are drawn here
from numpy generators, not by the package, so both trees read the same
numbers.  Not part of the test suite; runs in well under 30 s.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from itertools import product
from pathlib import Path

import numpy as np

SEED = 2023
PAIRS = 60        # law pairs for the product routes
MIXED_PAIRS = 40  # law pairs for the mixed-t routes
LAWS = 60         # single laws for the cumulant and t-coefficient routes
MAX_K = 8
MIXED_LEN = 6
# dual constants (body, eps) of x + c for the shifted rows; fixed, so that the
# generator stream of the laws stays as it was before these rows
SHIFTS = (("+", (0.75 + 0.25j, 0.5 - 0.25j)), ("-", (-1.25 + 0.5j, -0.5 + 0.125j)))


def rand_complex(rng: np.random.Generator, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Moments and primed moments with parts uniform in [-1, 1], mean body in [0.7, 1.3]."""
    m = rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)
    mp = rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)
    m[0] = rng.uniform(0.7, 1.3) + 1j * rng.uniform(-0.3, 0.3)
    return m, mp


class Digest:
    """sha256 per route name, fed with the raw bytes of each value."""

    def __init__(self) -> None:
        self.h: dict = {}

    def add(self, route: str, *values) -> None:
        h = self.h.setdefault(route, hashlib.sha256())
        for v in values:
            if isinstance(v, (tuple, str)):
                h.update(repr(v).encode())
            else:
                h.update(np.asarray(v, dtype=complex).tobytes())

    def print(self) -> None:
        for route, h in self.h.items():
            print(f"{route}\t{h.hexdigest()}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source tree holding the infconv package (default: this repo)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import infconv as ic

    rng = np.random.default_rng(SEED)
    dig = Digest()

    def law(K: int = MAX_K):
        return ic.InfLaw(K, *rand_complex(rng, K))

    def add_law(route: str, out) -> None:
        dig.add(route, out.m, out.m_prime)

    for _ in range(PAIRS):
        lx, ly = law(), law()
        for K in range(1, MAX_K + 1):
            add_law("oracle_free_product", ic.oracle_free_product(lx, ly, K))
            add_law("oracle_boolean_product", ic.oracle_boolean_product(lx, ly, K))
            for order in ("yx", "xy"):
                add_law(f"oracle_monotone_product {order}",
                        ic.oracle_monotone_product(lx, ly, K, order=order))
            for kind in ic.ProductKind:
                orders = ("yx", "xy") if kind is ic.ProductKind.MONOTONE else ("yx",)
                for order in orders:
                    add_law(f"convolve_by_transform {kind.value} {order}",
                            ic.convolve_by_transform(kind, lx, ly, K, order=order))

    models = (("free", ic.free_mixed_moments), ("boolean", ic.boolean_mixed_moments))
    for _ in range(MIXED_PAIRS):
        lx, ly = law(MIXED_LEN), law(MIXED_LEN)
        for name, model in models:
            t = ic.make_mixed_t(model(lx, ly))
            for n in range(1, MIXED_LEN + 1):
                for word in product(("x", "y"), repeat=n):
                    v = t(word)
                    dig.add(f"make_mixed_t {name}", v.body, v.eps)
            rep = ic.mixed_vanishing_check(model(lx, ly), MIXED_LEN)
            dig.add(f"mixed_vanishing_check {name}", rep.max_body, rep.max_eps,
                    rep.worst_body_word, rep.worst_eps_word, repr(rep.words_checked))

    for _ in range(LAWS):
        x = law()
        tv = ic.t_coeffs_from_moments(x)
        dig.add("t_coeffs_from_moments", tv.t, tv.t_prime)
        add_law("moments_from_t", ic.moments_from_t(tv))
        for route in ("linked", "interval"):
            kt = ic.kappa_from_t(tv, route=route)
            dig.add(f"kappa_from_t {route}", kt.kappa, kt.kappa_prime)
        dig.add("inf_cumulants_direct", ic.inf_cumulants_direct(x))
        cv = ic.cumulants_from_moments(x)
        dig.add("cumulants_from_moments", cv.kappa, cv.kappa_prime)
        add_law("moments_from_cumulants", ic.moments_from_cumulants(cv))
        for sign, c in SHIFTS:
            add_law(f"shifted {sign}", ic.shifted(x, ic.DualScalar(*c)))

    dig.print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
