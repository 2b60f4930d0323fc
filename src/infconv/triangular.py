"""Two-by-two upper-triangular embedding of infinitesimal laws.

An infinitesimal element a + eps a' embeds as [[a, a'], [0, a]], and the
dual functional embeds as an ordinary functional on such matrices.  This
module realizes the matrix-argument transforms: entries are plain (eps-free)
truncated power series, the matrix argument is B = [[b, c], [0, b]], and
each transform is computed two ways:

* direct: the dual transform series evaluated at b + eps c.  Matrices
  [[p, q], [0, p]] multiply exactly as dual numbers p + eps q do (the corner
  follows the Leibniz rule), so dual series arithmetic already is the ring
  of these blocks and ``UT2`` needs no arithmetic of its own.  The corner
  comes from the eps parts of ``transform`` and the Leibniz rule inside
  ``DualSeries.compose``;
* formula: diagonal f(b), corner f'(b) c + (df)(b) assembled from scalar
  series composition plus the closed-form infinitesimal transform.

``block_transform`` returns the direct computation; tests pin the equality
of the two routes.  Corner entries at c = 0 reduce to the scalar
infinitesimal transforms composed with b.

``centered_alternating_check`` verifies the embedding's defining property
on a mixed-moment model in the letters x, y (for example
``free_mixed_moments`` or ``boolean_mixed_moments``): for infinitesimally
free pairs, centered alternating words have vanishing dual expectation in
both components.  Boolean pairs violate it from word length three on, which
serves as the negative control.  It returns the same ``WordCheckReport``,
from the same word scan, as ``cumulants.mixed_vanishing_check``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cumulants import LETTERS, MomentFn, WordCheckReport, scan_words
from .dual import DualScalar
from .errors import InvalidInputError, SizeLimitError
from .laws import InfLaw, TransformKind, d_transform, transform
from .series import DualSeries

MAX_CENTERED_LEN = 12


@dataclass(frozen=True)
class UT2:
    """[[diag, corner], [0, diag]] over plain truncated power series.

    A result record: the block is the dual series diag + eps corner, and
    all arithmetic on it happens there (``to_dual_series`` and back).
    """

    diag: DualSeries
    corner: DualSeries

    def __post_init__(self):
        if not isinstance(self.diag, DualSeries) or not isinstance(
            self.corner, DualSeries
        ):
            raise InvalidInputError("UT2 entries must be DualSeries")
        if self.diag.order != self.corner.order:
            raise InvalidInputError("UT2 entries must share one truncation order")
        if np.any(self.diag.eps != 0) or np.any(self.corner.eps != 0):
            raise InvalidInputError("UT2 entries must be plain (eps-free) series")

    @staticmethod
    def from_dual_series(f: DualSeries) -> "UT2":
        body, eps = f.eps_split()
        return UT2(body, eps)

    def to_dual_series(self) -> DualSeries:
        return DualSeries.recombine(self.diag, self.corner)

    @property
    def order(self) -> int:
        return self.diag.order

    def max_abs_diff(self, other: "UT2") -> float:
        dd = self.diag.max_abs_diff(other.diag)
        cc = self.corner.max_abs_diff(other.corner)
        return float(np.max([*dd, *cc]))  # keeps a NaN gap


def _vanishing_arg(b: DualSeries, c: DualSeries) -> DualSeries:
    """B = [[b, c], [0, b]] as the dual series b + eps c, at the common order."""
    B = DualSeries.recombine(b, c)
    if B.body[0] != 0 or B.eps[0] != 0:
        raise InvalidInputError("matrix argument must vanish at 0 in both entries")
    return B


# -- block transforms ---------------------------------------------------------


def block_transform(kind: TransformKind, law: InfLaw, b, c) -> UT2:
    """f(B) for B = [[b, c], [0, b]]: the dual transform series at b + eps c.

    psi gives the moment block E~ sum_{n>=1} (B X)^n; the matrix eta, kappa
    and rho coincide for scalar laws, and T is the inverse of the matrix S.
    Truncated to min(order of the transform, order of B).
    """
    if kind is TransformKind.ETA_TILDE:
        raise InvalidInputError(f"no matrix form for transform kind {kind}")
    return UT2.from_dual_series(transform(kind, law).compose(_vanishing_arg(b, c)))


def block_transform_formula(kind: TransformKind, law: InfLaw, b, c) -> UT2:
    """Diagonal f(b), corner f'(b) c + (df)(b) from scalar series calculus."""
    if kind is TransformKind.ETA_TILDE:
        raise InvalidInputError(f"no matrix form for transform kind {kind}")
    b, c = _vanishing_arg(b, c).eps_split()
    body, _ = transform(kind, law).eps_split()
    dform = d_transform(kind, law)
    diag = body.compose(b)
    corner = body.derivative().compose(b) * c + dform.compose(b)
    return UT2.from_dual_series(DualSeries.recombine(diag, corner))


# -- centered alternating words ------------------------------------------------


def centered_alternating_check(moment_fn: MomentFn, max_len: int = 6) -> WordCheckReport:
    """Dual expectations of centered alternating words under a mixed-moment model.

    Centers each letter by its dual mean moment_fn((letter,)) and expands
    the product of centered factors over subsets.  Under infinitesimal
    freeness every alternating word vanishes in both components; under
    Boolean independence words of length three and beyond generically do not.
    """
    if not 2 <= max_len <= MAX_CENTERED_LEN:
        raise SizeLimitError(f"max_len must be in 2..{MAX_CENTERED_LEN}")
    mu = {letter: moment_fn((letter,)) for letter in LETTERS}

    def centered(word: tuple) -> DualScalar:
        L = len(word)
        total = DualScalar(0.0)
        for mask in range(1 << L):
            kept = tuple(word[i] for i in range(L) if (mask >> i) & 1)
            weight = DualScalar(1.0)
            for i in range(L):
                if not (mask >> i) & 1:
                    weight = weight * (-mu[word[i]])
            total = total + weight * moment_fn(kept)
        return total

    # x y x ... then y x y ..., for each length
    words = ((LETTERS * L)[s: s + L] for L in range(2, max_len + 1) for s in (0, 1))
    return scan_words(centered, words)
