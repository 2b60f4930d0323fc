"""Two-by-two upper-triangular embedding of infinitesimal laws.

An infinitesimal element a + eps a' embeds as [[a, a'], [0, a]], and the
dual functional embeds as an ordinary functional on such matrices.  This
module realizes the matrix-argument transforms: entries are plain (eps-free)
truncated power series, the matrix argument is B = [[b, c], [0, b]], and
each transform is computed two ways:

* direct: evaluate the dual-coefficient transform series at B with
  matrix Horner (dual coefficients act as f_k I + f'_k E with E the
  upper-right unit), or build the transform from the moment block by
  matrix ring operations;
* formula: diagonal f(b), corner f'(b) c + (df)(b) assembled from scalar
  series composition plus the closed-form infinitesimal transform.

The named block operations return the direct computation; tests pin the
equality of the two routes.  Corner entries at b = z, c = 0 reduce to the
scalar infinitesimal transforms.

``centered_alternating_check`` verifies the embedding's defining property:
for infinitesimally free pairs, centered alternating words have vanishing
dual expectation in both components.  Boolean pairs violate it from word
length three on, which serves as the negative control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .convolve import boolean_mixed_moments, free_mixed_moments
from .dual import DualScalar
from .errors import InvalidInputError, SizeLimitError
from .laws import InfLaw, TransformKind, d_transform, psi, s_transform, transform
from .series import DualSeries

MAX_CENTERED_LEN = 12


def _as_plain(s, order: int | None = None) -> DualSeries:
    if isinstance(s, DualSeries):
        out = s
    else:
        out = DualSeries.from_coeffs(list(s))
    if np.any(out.eps != 0):
        raise InvalidInputError("matrix entries must be plain (eps-free) series")
    if order is not None and order < out.order:
        out = out.truncated(order)
    return out


@dataclass(frozen=True)
class UT2:
    """[[diag, corner], [0, diag]] over plain truncated power series."""

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
    def of(diag, corner) -> "UT2":
        d = _as_plain(diag)
        c = _as_plain(corner)
        m = min(d.order, c.order)
        return UT2(d.truncated(m) if d.order > m else d,
                   c.truncated(m) if c.order > m else c)

    @staticmethod
    def identity(order: int) -> "UT2":
        return UT2(DualSeries.constant(1.0, order), DualSeries(order))

    @staticmethod
    def zero(order: int) -> "UT2":
        return UT2(DualSeries(order), DualSeries(order))

    @staticmethod
    def dual_constant(v, order: int) -> "UT2":
        """Embed a dual scalar: eps maps to the upper-right unit matrix."""
        v = DualScalar.of(v)
        return UT2(DualSeries.constant(v.body, order),
                   DualSeries.constant(v.eps, order))

    @staticmethod
    def from_dual_series(f: DualSeries) -> "UT2":
        body, eps = f.eps_split()
        return UT2(body, eps)

    def to_dual_series(self) -> DualSeries:
        return DualSeries.recombine(self.diag, self.corner)

    @property
    def order(self) -> int:
        return self.diag.order

    def truncated(self, order: int) -> "UT2":
        return UT2(self.diag.truncated(order), self.corner.truncated(order))

    def _match(self, other: "UT2") -> tuple["UT2", "UT2"]:
        m = min(self.order, other.order)
        a = self if self.order == m else self.truncated(m)
        b = other if other.order == m else other.truncated(m)
        return a, b

    def __add__(self, other: "UT2") -> "UT2":
        a, b = self._match(other)
        return UT2(a.diag + b.diag, a.corner + b.corner)

    def __sub__(self, other: "UT2") -> "UT2":
        a, b = self._match(other)
        return UT2(a.diag - b.diag, a.corner - b.corner)

    def __neg__(self) -> "UT2":
        return UT2(-self.diag, -self.corner)

    def __mul__(self, other: "UT2") -> "UT2":
        # equal diagonals keep the product in the class
        a, b = self._match(other)
        return UT2(a.diag * b.diag, a.diag * b.corner + a.corner * b.diag)

    def inv(self) -> "UT2":
        di = self.diag.inv()
        return UT2(di, -(di * self.corner * di))

    def max_abs_diff(self, other: "UT2") -> float:
        dd = self.diag.max_abs_diff(other.diag)
        cc = self.corner.max_abs_diff(other.corner)
        return max(dd[0], dd[1], cc[0], cc[1])

    def almost_equal(self, other: "UT2", tol: float = 1e-10) -> bool:
        return self.max_abs_diff(other) <= tol


def _vanishing_arg(b, c) -> UT2:
    B = UT2.of(b, c)
    if B.diag.body[0] != 0 or B.corner.body[0] != 0:
        raise InvalidInputError("matrix argument must vanish at 0 in both entries")
    return B


def apply_series(f: DualSeries, arg: UT2) -> UT2:
    """f(arg) by matrix Horner; arg must vanish at 0 entry-wise.

    Dual coefficients embed as dual_constant, so the eps parts of f feed the
    corner.  Result is truncated to min(f.order, arg.order), the largest
    order both inputs determine.
    """
    if arg.diag.body[0] != 0 or arg.corner.body[0] != 0:
        raise InvalidInputError("series argument must vanish at 0 in both entries")
    m = min(f.order, arg.order)
    at = arg.truncated(m) if arg.order > m else arg
    acc = UT2.dual_constant(f.coeff(f.order), m)
    for k in range(f.order - 1, -1, -1):
        acc = acc * at + UT2.dual_constant(f.coeff(k), m)
    return acc


@dataclass(frozen=True)
class TildeFunctional:
    """Dual expectation on upper-triangular polynomials in one element.

    E~ of [[p, q], [0, p]] is [[E(p), E'(p) + E(q)], [0, E(p)]]; on powers of
    the embedded element this is the dual moment acting as a matrix.
    """

    law: InfLaw

    def dual_moment(self, n: int) -> DualScalar:
        return self.law.dual_moment(n)

    def moment_matrix(self, n: int) -> np.ndarray:
        v = self.law.dual_moment(n)
        return np.array([[v.body, v.eps], [0.0, v.body]], dtype=complex)

    def expect_poly(self, coeffs: Sequence[UT2]) -> UT2:
        """E~ of sum_n coeffs[n] X^n with series-matrix coefficients."""
        if len(coeffs) - 1 > self.law.K:
            raise SizeLimitError(
                f"law holds {self.law.K} moments, polynomial needs {len(coeffs) - 1}"
            )
        order = min(C.order for C in coeffs)
        acc = UT2.zero(order)
        for n, C in enumerate(coeffs):
            acc = acc + C * UT2.dual_constant(self.law.dual_moment(n), order)
        return acc


# -- block transforms ---------------------------------------------------------


def psi_block(law: InfLaw, b, c) -> UT2:
    """Moment block: E~ of sum_{n>=1} (B X)^n with B = [[b, c], [0, b]].

    B commutes with the element, so the sum is sum_n B^n M~_n, evaluated
    with matrix arithmetic.
    """
    B = _vanishing_arg(b, c)
    powers = [UT2.identity(B.order)]
    for _ in range(law.K):
        powers.append(powers[-1] * B)
    coeffs = [UT2.zero(B.order)] + powers[1:]
    out = TildeFunctional(law).expect_poly(coeffs)
    m = min(law.K, B.order)
    return out.truncated(m) if out.order > m else out


def eta_block(law: InfLaw, b, c) -> UT2:
    """Matrix eta in the plain normalization: Psi (I + Psi)^{-1}.

    The matrix kappa and rho transforms coincide with it for scalar laws.
    """
    P = psi_block(law, b, c)
    return P * (UT2.identity(P.order) + P).inv()


kappa_block = rho_block = eta_block


def t_block(law: InfLaw, w, v) -> UT2:
    """Matrix T: inverse of the matrix S evaluated at W = [[w, v], [0, w]]."""
    W = _vanishing_arg(w, v)
    S = apply_series(s_transform(law), W)
    return S.inv()


def block_transform(kind: TransformKind, law: InfLaw, b, c) -> UT2:
    if kind is TransformKind.PSI:
        return psi_block(law, b, c)
    if kind in (TransformKind.ETA_PLAIN, TransformKind.KAPPA, TransformKind.RHO):
        return eta_block(law, b, c)
    if kind is TransformKind.T:
        return t_block(law, b, c)
    if kind is TransformKind.S:
        W = _vanishing_arg(b, c)
        return apply_series(s_transform(law), W)
    raise InvalidInputError(f"no matrix form for transform kind {kind}")


def block_transform_formula(kind: TransformKind, law: InfLaw, b, c) -> UT2:
    """Diagonal f(b), corner f'(b) c + (df)(b) from scalar series calculus."""
    if kind is TransformKind.ETA_TILDE:
        raise InvalidInputError(f"no matrix form for transform kind {kind}")
    B = _vanishing_arg(b, c)
    body, _ = transform(kind, law).eps_split()
    dform = d_transform(kind, law)
    diag = body.compose(B.diag)
    corner = body.derivative().compose(B.diag) * B.corner + dform.compose(B.diag)
    return UT2.of(diag, corner)


# -- centered alternating words ------------------------------------------------


@dataclass(frozen=True)
class CenteredWordReport:
    model: str
    words_checked: int
    max_body: float
    max_eps: float
    worst_body_word: str
    worst_eps_word: str

    def to_json_obj(self) -> dict:
        return {
            "model": self.model,
            "words_checked": self.words_checked,
            "max_body": self.max_body,
            "max_eps": self.max_eps,
            "worst_body_word": self.worst_body_word,
            "worst_eps_word": self.worst_eps_word,
        }


def centered_alternating_check(
    lawX: InfLaw, lawY: InfLaw, max_word_len: int = 6, model: str = "free"
) -> CenteredWordReport:
    """Dual expectations of centered alternating words.

    Centers each letter by its dual mean and expands the product of centered
    factors over subsets.  Under infinitesimal freeness every alternating
    word vanishes in both components; under Boolean independence words of
    length three and beyond generically do not.
    """
    if not 2 <= max_word_len <= MAX_CENTERED_LEN:
        raise SizeLimitError(f"max_word_len must be in 2..{MAX_CENTERED_LEN}")
    if model == "free":
        phi = free_mixed_moments(lawX, lawY)
    elif model == "boolean":
        phi = boolean_mixed_moments(lawX, lawY)
    else:
        raise InvalidInputError("model must be 'free' or 'boolean'")
    mu = {"x": lawX.dual_moment(1), "y": lawY.dual_moment(1)}

    max_body = 0.0
    max_eps = 0.0
    worst_body = ""
    worst_eps = ""
    checked = 0
    for L in range(2, max_word_len + 1):
        for start in ("x", "y"):
            word = tuple(("x", "y")[(i + (start == "y")) % 2] for i in range(L))
            total = DualScalar(0.0)
            for mask in range(1 << L):
                kept = tuple(word[i] for i in range(L) if (mask >> i) & 1)
                weight = DualScalar(1.0)
                for i in range(L):
                    if not (mask >> i) & 1:
                        weight = weight * (-mu[word[i]])
                total = total + weight * phi(kept)
            checked += 1
            if abs(total.body) > max_body:
                max_body = abs(total.body)
                worst_body = "".join(word)
            if abs(total.eps) > max_eps:
                max_eps = abs(total.eps)
                worst_eps = "".join(word)
    return CenteredWordReport(model, checked, max_body, max_eps, worst_body, worst_eps)
