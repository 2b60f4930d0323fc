"""Scalar infinitesimal laws and their analytic transforms.

An ``InfLaw`` of order K is the moment data of a pair (phi, phi'):
dual moments m~_n = m_n + eps m'_n for n = 1..K.  All transforms are
truncated formal power series in one variable with dual coefficients.

With psi(z) = sum m~_n z^n the transforms are

    eta_plain(z) = psi / (1 + psi)
    eta_tilde(z) = eta_plain(z) / z         (constant term m~_1)
    kappa(z)     = psi / (1 + psi)          (via the theta form, same scalar value)
    rho(z)       = psi / (1 + psi)          (via the varrho form)
    S(w)         = w^{-1} (1 + w) psi^{<-1>}(w)
    T(w)         = 1 / S(w)

Every kind is defined for every K >= 1; eta_tilde, S and T have order K - 1
(at K = 1, S = 1/m~_1 and T = m~_1).  S and T need an invertible first
moment.  ``d_transform`` returns the infinitesimal part computed from
explicit body-level formulas; it must agree with the eps part of the
dual-coefficient transform, which the tests treat as the central identity
of this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dual import DualRecord, DualScalar, json_complex, json_order
from .errors import InvalidInputError, MathDomainError
from .series import DualSeries

DEFAULT_ORDER = 8


class TransformKind(Enum):
    PSI = "psi"
    ETA_TILDE = "eta_tilde"
    ETA_PLAIN = "eta_plain"
    KAPPA = "kappa"
    RHO = "rho"
    S = "s"
    T = "t"

    @staticmethod
    def from_name(name: str) -> "TransformKind":
        key = name.strip().lower().replace("-", "_")
        for kind in TransformKind:
            if kind.value == key:
                return kind
        raise InvalidInputError(f"unknown transform kind: {name!r}")


@dataclass(frozen=True)
class InfLaw(DualRecord):
    """Dual moments m~_1..m~_K of a scalar infinitesimal law."""

    ARRAYS = ("m", "m_prime")
    m: np.ndarray
    m_prime: np.ndarray

    @staticmethod
    def from_moments(moments) -> "InfLaw":
        vals = [DualScalar.of(v) for v in moments]
        return InfLaw(len(vals), [v.body for v in vals], [v.eps for v in vals])

    @staticmethod
    def point_mass(value, K: int = DEFAULT_ORDER) -> "InfLaw":
        v = DualScalar.of(value)
        return InfLaw.from_moments([v ** n for n in range(1, K + 1)])

    def dual_moment(self, n: int) -> DualScalar:
        if n == 0:
            return DualScalar(1.0)
        if not 1 <= n <= self.K:
            raise IndexError(f"moment {n} outside 1..{self.K}")
        return DualScalar(self.m[n - 1], self.m_prime[n - 1])

    def truncated(self, K: int) -> "InfLaw":
        if K > self.K:
            raise InvalidInputError("cannot extend a law by truncation")
        return InfLaw(K, self.m[:K], self.m_prime[:K])

    # -- serialization ----------------------------------------------------

    @staticmethod
    def from_json_obj(obj: dict) -> "InfLaw":
        try:
            K = json_order(obj["K"])
            m = [json_complex(x) for x in obj["m"]]
            mp = [json_complex(x) for x in obj.get("m_prime", [0.0] * len(m))]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad law JSON: {exc}") from exc
        if len(m) != K or len(mp) != K:
            raise InvalidInputError("law JSON needs K moments in m and m_prime")
        return InfLaw(K, m, mp)

    @staticmethod
    def from_json(text: str) -> "InfLaw":
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise InvalidInputError(f"malformed law JSON: {exc}") from exc
        return InfLaw.from_json_obj(obj)


def shifted(law: InfLaw, c) -> InfLaw:
    """Law of x + c for a dual or complex constant c (binomial transform).

    Runs on raw (body, eps) pairs in DualScalar's operation order.
    """
    cv = DualScalar.of(c)
    cb, ce = cv.body, cv.eps
    powers = [(1.0, 0.0)]
    for _ in range(law.K):
        pb, pe = powers[-1]
        powers.append((pb * cb, pb * ce + pe * cb))
    moments = [(1.0, 0.0)] + law.pairs()
    out = []
    for n in range(1, law.K + 1):
        ab = ae = 0.0
        for j in range(0, n + 1):
            pb, pe = powers[n - j]
            b = complex(math.comb(n, j))  # DualScalar.of(comb) is (b, 0.0)
            pb, pe = pb * b, pb * 0.0 + pe * b
            mb, me = moments[j]
            ab, ae = ab + pb * mb, ae + (pb * me + pe * mb)
        out.append((ab, ae))
    return InfLaw(law.K, *zip(*out))


def scaled(law: InfLaw, c) -> InfLaw:
    """Law of c*x for a dual or complex constant c."""
    cv = DualScalar.of(c)
    return InfLaw.from_moments(
        [(cv ** n) * law.dual_moment(n) for n in range(1, law.K + 1)]
    )


# -- forward transforms ----------------------------------------------------


def psi(law: InfLaw) -> DualSeries:
    """psi(z) = sum_{n>=1} m~_n z^n, order K."""
    s = DualSeries(law.K)
    s.body[1:] = law.m
    s.eps[1:] = law.m_prime
    return s


def _one_plus(f: DualSeries) -> DualSeries:
    return f + DualSeries.constant(1.0, f.order)


def eta_plain(law: InfLaw) -> DualSeries:
    """psi / (1 + psi); vanishes at 0, order K."""
    p = psi(law)
    return p * _one_plus(p).inv()


def eta_tilde(law: InfLaw) -> DualSeries:
    """eta_plain / z; constant term m~_1, order K-1."""
    return eta_plain(law).shift_down()


# kappa = theta / (1 + theta) and rho = varrho (1 + varrho)^{-1}; theta and
# varrho both collapse to psi for scalar laws, so both are eta_plain.
kappa_transform = eta_plain
rho_transform = eta_plain


def _require_mean(law: InfLaw) -> None:
    if law.m[0] == 0:
        raise MathDomainError("S/T transforms need an invertible first moment")


def s_transform(law: InfLaw) -> DualSeries:
    """S(w) = w^{-1} (1 + w) psi^{<-1>}(w), order K-1."""
    _require_mean(law)
    pinv = psi(law).reversion()
    return pinv.shift_down() * _one_plus(DualSeries.identity(pinv.order - 1))


def t_transform(law: InfLaw) -> DualSeries:
    """T = 1/S; T(0) = m~_1."""
    return s_transform(law).inv()


_FORWARD = {
    TransformKind.PSI: psi,
    TransformKind.ETA_TILDE: eta_tilde,
    TransformKind.ETA_PLAIN: eta_plain,
    TransformKind.KAPPA: kappa_transform,
    TransformKind.RHO: rho_transform,
    TransformKind.S: s_transform,
    TransformKind.T: t_transform,
}


def transform(kind: TransformKind, law: InfLaw) -> DualSeries:
    return _FORWARD[kind](law)


# -- infinitesimal transforms (explicit body-level formulas) -----------------


def d_transform(kind: TransformKind, law: InfLaw) -> DualSeries:
    """Infinitesimal transform from explicit formulas on body data + m'_n.

    Returned as a plain (eps-free) series.  Must coincide with the eps part
    of transform(kind, law) on their shared order.
    """
    pb, dp = psi(law).eps_split()
    if kind is TransformKind.PSI:
        return dp
    if kind in (TransformKind.ETA_PLAIN, TransformKind.KAPPA, TransformKind.RHO):
        inv1p = _one_plus(pb).inv()
        return dp * inv1p * inv1p
    if kind is TransformKind.ETA_TILDE:
        return d_transform(TransformKind.ETA_PLAIN, law).shift_down()
    if kind is TransformKind.S:
        return _d_s(law, pb, dp)
    if kind is TransformKind.T:
        ds = _d_s(law, pb, dp)
        t = t_transform(InfLaw(law.K, law.m, np.zeros(law.K)))
        return -1.0 * t * ds * t
    raise InvalidInputError(f"no infinitesimal formula for {kind}")


def _d_s(law: InfLaw, pb: DualSeries, dp: DualSeries) -> DualSeries:
    # dS(w) = -w^{-1}(1+w) g'(w) dpsi(g(w)) with g = psi^{<-1>}, written as
    # -g'(w) (g(w)/w) (dpsi/z)(g(w)) (1+w): g and dpsi both vanish at 0, so
    # dividing each by its variable keeps order K-1, the order of S.
    # The w^{-1}(1+w) prefactor makes this the corner of the triangular
    # S-block at vanishing corner argument; without it the formula would
    # describe the infinitesimal part of psi^{<-1>} instead of S.
    _require_mean(law)
    g = pb.reversion()
    core = g.derivative() * g.shift_down() * dp.shift_down().compose(g)
    return -1.0 * core * _one_plus(DualSeries.identity(core.order))


# -- inverse direction -------------------------------------------------------


def law_from_transform(kind: TransformKind, f: DualSeries) -> InfLaw:
    """Recover the law whose transform of the given kind equals f.

    The recovered order follows the information content: psi and the
    vanishing-at-zero kinds return K = order(f); eta_tilde, S and T return
    K = order(f) + 1.
    """
    if kind is TransformKind.PSI:
        _require_vanishing(f)
        return _law_from_psi(f)
    if kind in (TransformKind.ETA_PLAIN, TransformKind.KAPPA, TransformKind.RHO):
        _require_vanishing(f)
        one_minus = DualSeries.constant(1.0, f.order) - f
        return _law_from_psi(f * one_minus.inv())
    if kind is TransformKind.ETA_TILDE:
        return law_from_transform(TransformKind.ETA_PLAIN, f.shift_up())
    if kind is TransformKind.S:
        return _law_from_s(f)
    if kind is TransformKind.T:
        _require_origin(f, "T")
        return _law_from_s(f.inv())
    raise InvalidInputError(f"unknown transform kind: {kind}")


def _require_vanishing(f: DualSeries) -> None:
    if f.body[0] != 0 or f.eps[0] != 0:
        raise InvalidInputError("this transform kind must vanish at 0")


def _law_from_psi(p: DualSeries) -> InfLaw:
    if p.order < 1:
        raise InvalidInputError("need at least order 1 to carry a moment")
    return InfLaw(p.order, p.body[1:], p.eps[1:])


def _require_origin(f: DualSeries, name: str) -> None:
    """f(0) needs a nonzero body; a zero beside a non-finite entry is an overflow."""
    if f.body[0] == 0:
        if not (np.isfinite(f.body).all() and np.isfinite(f.eps).all()):
            raise MathDomainError(f"the {name} transform overflowed: it holds a non-finite entry")
        raise MathDomainError(f"{name} must not vanish at 0")


def _law_from_s(s: DualSeries) -> InfLaw:
    _require_origin(s, "S")
    w = DualSeries.identity(s.order)
    pinv = (s * _one_plus(w).inv()).shift_up()
    return _law_from_psi(pinv.reversion())
