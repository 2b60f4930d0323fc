"""Multiplicative convolutions: independence oracles vs transform identities.

Each product kind is computed along two fully independent routes:

* an oracle that expands words letter by letter straight from the relevant
  infinitesimal independence definition (the Boolean and monotone oracles
  sum all subsequence words in one run-tracking sweep over the factor
  sequence of the K-th moment, reading every lower moment off its
  prefixes), and
* the transform identity (dual T product, dual eta-tilde product, or dual
  kappa/rho composition) followed by moment recovery.

``verify`` reports the largest deviation between the two routes in the body
and eps components separately.

The free recursion and both sweeps run on raw (body, eps) pairs with the
Leibniz rule written out, (ab, ae)(bb, be) = (ab bb, ab be + ae bb), in
DualScalar's operation order, so they return its numbers bit for bit; the
word-level references (monotone_word_moment, boolean_mixed_moments) stay on
DualScalar.

Conventions: the free and Boolean oracles take the laws of x and y and
return the law of xy resp. (1+x)(1+y).  The monotone oracle follows the
x-1 / y convention: a := x - 1 lives in the lower algebra, y in the higher
one; order "yx" gives the law of yx (kappa composition), "xy" the law of
xy (rho composition).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .cumulants import MomentFn, cumulants_from_moments
from .dual import DualScalar
from .errors import InvalidInputError, MathDomainError, SizeLimitError
from .laws import (
    InfLaw,
    TransformKind,
    eta_tilde,
    kappa_transform,
    law_from_transform,
    rho_transform,
    shifted,
    t_transform,
)


class ProductKind(Enum):
    FREE = "free"
    BOOLEAN = "boolean"
    MONOTONE = "monotone"

    @staticmethod
    def from_name(name: str) -> "ProductKind":
        key = name.strip().lower()
        for kind in ProductKind:
            if kind.value == key:
                return kind
        raise InvalidInputError(f"unknown product kind: {name!r}")


# -- mixed moment models -----------------------------------------------------


def free_mixed_moments(lawX: InfLaw, lawY: InfLaw) -> MomentFn:
    """Mixed dual moments of infinitesimally free x, y.

    Sums dual cumulant products over monochromatic non-crossing partitions,
    organized as the usual first-block recursion with memoized contiguous
    subwords.  The recursion runs on raw (body, eps) pairs in the operation
    order of DualScalar's product and sum; only the returned value is a
    DualScalar.
    """
    cums = {}
    for letter, law in (("x", lawX), ("y", lawY)):
        cv = cumulants_from_moments(law)
        cums[letter] = (cv.kappa.tolist(), cv.kappa_prime.tolist())
    memo: dict[tuple, tuple] = {(): (1.0, 0.0)}

    def pair(word: tuple) -> tuple:
        first = word[0]
        kb, ke = cums[first]
        later = [i for i in range(1, len(word)) if word[i] == first]
        tb = te = 0.0
        for r in range(len(later) + 1):
            if r >= len(kb):
                raise MathDomainError(
                    f"law of {first!r} holds only {len(kb)} moments; word too long"
                )
            # first block: word[0] and the chosen later letters; each gap,
            # the last one included, is a free word of its own
            for chosen in combinations(later, r):
                b, e = kb[r], ke[r]
                prev = 0
                for pos in chosen + (len(word),):
                    gap = word[prev + 1: pos]
                    gb, ge = memo[gap] if gap in memo else pair(gap)
                    b, e = b * gb, b * ge + e * gb
                    prev = pos
                tb, te = tb + b, te + e
        memo[word] = (tb, te)
        return tb, te

    def phi(word: tuple) -> DualScalar:
        word = tuple(word)
        return DualScalar(*(memo[word] if word in memo else pair(word)))

    return phi


def boolean_mixed_moments(lawX: InfLaw, lawY: InfLaw) -> MomentFn:
    """Mixed dual moments of infinitesimally Boolean independent x, y.

    Alternating products of non-unital elements factorize, so a word is the
    product of the dual moments of its maximal single-letter runs.
    """
    laws = {"x": lawX, "y": lawY}

    def phi(word: tuple) -> DualScalar:
        word = tuple(word)
        acc = DualScalar(1.0)
        i = 0
        while i < len(word):
            j = i
            while j < len(word) and word[j] == word[i]:
                j += 1
            law = laws[word[i]]
            if j - i > law.K:
                raise MathDomainError(
                    f"law of {word[i]!r} holds only {law.K} moments; run too long"
                )
            acc = acc * law.dual_moment(j - i)
            i = j
        return acc

    return phi


def monotone_word_moment(
    word: tuple, lawLow: InfLaw, lawHigh: InfLaw, pick=None
) -> DualScalar:
    """Reduce a word over {"a" (lower), "y" (higher)} by the monotone peel-out rule.

    Any maximal run of the higher letter, flanked by lower letters or the
    word boundary, is replaced by its dual moment; the remaining lower
    letters merge into a single power.  ``pick(count)`` chooses which run to
    peel next (index into the run list); reduction order cannot change the
    value, which the confluence test exercises with random orders.
    """
    letters = list(word)
    acc = DualScalar(1.0)
    while True:
        runs = []
        i = 0
        while i < len(letters):
            if letters[i] == "y":
                j = i
                while j < len(letters) and letters[j] == "y":
                    j += 1
                runs.append((i, j))
                i = j
            else:
                i += 1
        if not runs:
            break
        idx = 0 if pick is None else pick(len(runs))
        start, end = runs[idx]
        r = end - start
        if r > lawHigh.K:
            raise MathDomainError(f"higher law holds only {lawHigh.K} moments")
        acc = acc * lawHigh.dual_moment(r)
        del letters[start:end]
    p = len(letters)
    if any(ch != "a" for ch in letters):
        raise InvalidInputError("word contains letters beyond the two-letter alphabet")
    if p > lawLow.K:
        raise MathDomainError(f"lower law holds only {lawLow.K} moments")
    return acc * lawLow.dual_moment(p)


# -- oracles -----------------------------------------------------------------

# Largest K each oracle accepts; the CLI clamps --verify to it.
ORACLE_MAX_K = {ProductKind.FREE: 8, ProductKind.BOOLEAN: 10, ProductKind.MONOTONE: 8}


def _check_oracle_K(kind: ProductKind, lawX: InfLaw, lawY: InfLaw, K: int) -> None:
    if not 1 <= K <= ORACLE_MAX_K[kind]:
        raise SizeLimitError(f"{kind.value} oracle supports 1 <= K <= {ORACLE_MAX_K[kind]}")
    if K > min(lawX.K, lawY.K):
        raise SizeLimitError("input laws hold fewer than K moments")


def oracle_free_product(lawX: InfLaw, lawY: InfLaw, K: int) -> InfLaw:
    """Dual moments of xy for infinitesimally free x, y."""
    _check_oracle_K(ProductKind.FREE, lawX, lawY, K)
    phi = free_mixed_moments(lawX, lawY)
    return InfLaw.from_moments([phi(("x", "y") * k) for k in range(1, K + 1)])


def oracle_boolean_product(lawX: InfLaw, lawY: InfLaw, K: int) -> InfLaw:
    """Dual moments of (1+x)(1+y) for infinitesimally Boolean x, y.

    Expands ((1+x)(1+y))^k into subsequence words of the alternating
    pattern; adjacent equal letters merge into powers whose dual moments
    multiply.  Implemented as a run-tracking sweep over the factors; the
    factor sequence for k is a prefix of the one for K, so one sweep yields
    every moment, reading out after each ("x", "y") pair.
    """
    _check_oracle_K(ProductKind.BOOLEAN, lawX, lawY, K)
    # m~_0..m~_K of each letter; m~_0 is DualScalar(1.0)
    mom = {"x": [(1.0, 0.0)] + lawX.pairs()[:K], "y": [(1.0, 0.0)] + lawY.pairs()[:K]}
    # states: (current run letter or None, run length) -> (body, eps) weight
    states: dict[tuple, tuple] = {(None, 0): (1.0, 0.0)}
    out = []
    for _ in range(K):
        for letter in ("x", "y"):
            new: dict[tuple, tuple] = {}

            def add(key, b, e):
                ob, oe = new.get(key, (0.0, 0.0))
                new[key] = (ob + b, oe + e)

            for (cur, r), (wb, we) in states.items():
                add((cur, r), wb, we)  # skip this factor
                if cur == letter:
                    add((cur, r + 1), wb, we)
                elif cur is None:
                    add((letter, 1), wb, we)
                else:  # close the run: times the dual moment m_cur(r)
                    mb, me = mom[cur][r]
                    add((letter, 1), wb * mb, wb * me + we * mb)
            states = new
        tb = te = 0.0
        for (cur, r), (wb, we) in states.items():
            if cur is not None:
                mb, me = mom[cur][r]
                wb, we = wb * mb, wb * me + we * mb
            tb, te = tb + wb, te + we
        out.append((tb, te))
    return InfLaw(K, *zip(*out))


def oracle_monotone_product(
    lawX: InfLaw, lawY: InfLaw, K: int, order: str = "yx"
) -> InfLaw:
    """Dual moments of yx (or xy) with x-1 lower, y higher.

    Expands each factor x = 1 + a, so the k-th moment sums the subsequence
    words of (y a?)^k for "yx" and of (a? y)^k for "xy".  By the monotone
    peel-out rule a word is worth m_y(r) for each maximal y-run of length r,
    times m_a(p) for its p letters a.  A run-tracking sweep over the factor
    sequence sums all words at once: the state is (a's taken, length of the
    open y-run), taking an a closes the open run, and the read-out closes the
    last run.  Factor sequences for k are prefixes of the one for K, so one
    sweep yields every moment, reading out after each k-th block.

    For scalar laws the "xy" and "yx" moments are equal: the word
    a^b1 y a^b2 y ... a^bk y rotates to y a^b2 y ... a^bk y a^b1, a word of
    (y a?)^k with the same y-runs.  The two orders differ only for
    operator-valued data; ``order`` stays part of the interface.
    """
    _check_oracle_K(ProductKind.MONOTONE, lawX, lawY, K)
    if order not in ("yx", "xy"):
        raise InvalidInputError("order must be 'yx' or 'xy'")
    lawA = shifted(lawX.truncated(K), -1.0)
    my, ma = [(1.0, 0.0)] + lawY.pairs()[:K], [(1.0, 0.0)] + lawA.pairs()
    block = ("y", "a") if order == "yx" else ("a", "y")
    # states: (a's taken, open y-run length) -> (body, eps) weight
    states: dict[tuple, tuple] = {(0, 0): (1.0, 0.0)}
    out = []
    for _ in range(K):
        for letter in block:
            if letter == "y":  # every factor y is taken
                states = {(p, r + 1): w for (p, r), w in states.items()}
                continue
            new = dict(states)  # skip the a
            for (p, r), (wb, we) in states.items():  # take the a, closing the run
                yb, ye = my[r]
                ob, oe = new.get((p + 1, 0), (0.0, 0.0))
                new[(p + 1, 0)] = (ob + wb * yb, oe + (wb * ye + we * yb))
            states = new
        tb = te = 0.0
        for (p, r), (wb, we) in states.items():  # close the last run, times m_a(p)
            yb, ye = my[r]
            wb, we = wb * yb, wb * ye + we * yb
            ab, ae = ma[p]
            tb, te = tb + wb * ab, te + (wb * ae + we * ab)
        out.append((tb, te))
    return InfLaw(K, *zip(*out))


# -- transform route ---------------------------------------------------------


def convolve_by_transform(
    kind: ProductKind,
    lawX: InfLaw,
    lawY: InfLaw,
    K: int | None = None,
    order: str = "yx",
) -> InfLaw:
    """Product law through the dual transform identity.

    free:     T_xy = T_x T_y           (law of xy; needs invertible means)
    boolean:  eta~_(1+x)(1+y) = eta~_(1+x) eta~_(1+y)
    monotone: kappa_yx = kappa_x o kappa_y  /  rho_xy = rho_x o rho_y
    """
    if K is None:
        K = min(lawX.K, lawY.K)
    if K > min(lawX.K, lawY.K):
        raise SizeLimitError("input laws hold fewer than K moments")
    lx, ly = lawX.truncated(K), lawY.truncated(K)
    if kind is ProductKind.FREE:
        prod = t_transform(lx) * t_transform(ly)
        return law_from_transform(TransformKind.T, prod)
    if kind is ProductKind.BOOLEAN:
        ex = eta_tilde(shifted(lx, 1.0))
        ey = eta_tilde(shifted(ly, 1.0))
        return law_from_transform(TransformKind.ETA_TILDE, ex * ey)
    if kind is ProductKind.MONOTONE:
        if order == "yx":
            comp = kappa_transform(lx).compose(kappa_transform(ly))
            return law_from_transform(TransformKind.KAPPA, comp)
        if order == "xy":
            comp = rho_transform(lx).compose(rho_transform(ly))
            return law_from_transform(TransformKind.RHO, comp)
        raise InvalidInputError("order must be 'yx' or 'xy'")
    raise InvalidInputError(f"unknown product kind: {kind}")


def oracle_product(
    kind: ProductKind,
    lawX: InfLaw,
    lawY: InfLaw,
    K: int,
    order: str = "yx",
) -> InfLaw:
    if kind is ProductKind.FREE:
        return oracle_free_product(lawX, lawY, K)
    if kind is ProductKind.BOOLEAN:
        return oracle_boolean_product(lawX, lawY, K)
    if kind is ProductKind.MONOTONE:
        return oracle_monotone_product(lawX, lawY, K, order=order)
    raise InvalidInputError(f"unknown product kind: {kind}")


@dataclass(frozen=True)
class VerificationReport:
    kind: ProductKind
    K: int
    deviation_body: float
    deviation_eps: float
    passed: bool
    tol: float = 1e-8

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind.value,
            "K": self.K,
            "deviation_body": self.deviation_body,
            "deviation_eps": self.deviation_eps,
            "pass": self.passed,
        }


def verify(
    kind: ProductKind,
    lawX: InfLaw,
    lawY: InfLaw,
    K: int,
    order: str = "yx",
    tol: float = 1e-8,
) -> VerificationReport:
    """Compare the independence oracle against the transform identity."""
    oracle = oracle_product(kind, lawX, lawY, K, order=order)
    route = convolve_by_transform(kind, lawX, lawY, K, order=order)
    db, de = oracle.max_abs_diff(route)
    return VerificationReport(kind, K, db, de, bool(db <= tol and de <= tol), tol)
