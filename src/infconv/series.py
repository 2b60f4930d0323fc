"""Truncated formal power series with dual-number coefficients.

A ``DualSeries`` of order K carries coefficients 0..K of z^k, each a dual
number stored as a pair of complex numpy arrays (body, eps).  Operations
between series of different orders truncate to the smaller order, which the
result records; multiplying or dividing by the variable z shifts the order
up or down by one, since the shifted coefficients are exactly known.

Composition requires the inner series to vanish at 0 (in both components),
reversion additionally an invertible linear coefficient.
"""

from __future__ import annotations

import json

import numpy as np

from .dual import DualScalar, json_complex, json_order
from .errors import InvalidInputError, MathDomainError


def _conv(a: np.ndarray, b: np.ndarray, upto: int) -> np.ndarray:
    return np.convolve(a, b)[: upto + 1]


class DualSeries:
    __slots__ = ("order", "body", "eps")

    def __init__(self, order: int, body=None, eps=None):
        """Copies body and eps, each of exactly order + 1 coefficients; None is zero."""
        if order < 0:
            raise InvalidInputError("series order must be >= 0")
        self.order = order
        n = order + 1
        self.body = np.zeros(n, dtype=complex) if body is None else np.array(body, dtype=complex)
        self.eps = np.zeros(n, dtype=complex) if eps is None else np.array(eps, dtype=complex)
        if self.body.shape != (n,) or self.eps.shape != (n,):
            raise InvalidInputError(f"a series of order {order} takes {n} coefficients")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, order: int) -> "DualSeries":
        v = DualScalar.of(value)
        s = DualSeries(order)
        s.body[0] = v.body
        s.eps[0] = v.eps
        return s

    @staticmethod
    def identity(order: int) -> "DualSeries":
        s = DualSeries(order)
        if order >= 1:
            s.body[1] = 1.0
        return s

    @staticmethod
    def from_coeffs(coeffs, order: int | None = None) -> "DualSeries":
        """Exactly order + 1 coefficients (all of them when order is None)."""
        vals = [DualScalar.of(c) for c in coeffs]
        if order is None:
            order = len(vals) - 1
        return DualSeries(order, [v.body for v in vals], [v.eps for v in vals])

    def copy(self) -> "DualSeries":
        return DualSeries(self.order, self.body, self.eps)

    def truncated(self, order: int) -> "DualSeries":
        if order > self.order:
            raise InvalidInputError("cannot truncate upward")
        return DualSeries(order, self.body[: order + 1], self.eps[: order + 1])

    # -- access ------------------------------------------------------------

    def coeff(self, k: int) -> DualScalar:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} outside order {self.order}")
        return DualScalar(self.body[k], self.eps[k])

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "DualSeries":
        if isinstance(other, DualSeries):
            return other
        return DualSeries.constant(other, self.order)

    def __add__(self, other):
        o = self._coerce(other)
        m = min(self.order, o.order)
        return DualSeries(m, self.body[: m + 1] + o.body[: m + 1],
                          self.eps[: m + 1] + o.eps[: m + 1])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return DualSeries(self.order, -self.body, -self.eps)

    def __mul__(self, other):
        if isinstance(other, (DualScalar, int, float, complex)):
            v = DualScalar.of(other)
            return DualSeries(
                self.order,
                v.body * self.body,
                v.body * self.eps + v.eps * self.body,
            )
        o = self._coerce(other)
        m = min(self.order, o.order)
        fb, fe = self.body[: m + 1], self.eps[: m + 1]
        gb, ge = o.body[: m + 1], o.eps[: m + 1]
        return DualSeries(m, _conv(fb, gb, m), _conv(fb, ge, m) + _conv(fe, gb, m))

    __rmul__ = __mul__

    def inv(self) -> "DualSeries":
        """Multiplicative inverse; needs an invertible constant term."""
        if self.body[0] == 0:
            raise MathDomainError("series with zero constant body is not invertible")
        m = self.order
        gb = np.zeros(m + 1, dtype=complex)
        gb[0] = 1.0 / self.body[0]
        for n in range(1, m + 1):
            gb[n] = -gb[0] * np.dot(self.body[1 : n + 1], gb[n - 1 :: -1][: n])
        ge = -_conv(_conv(gb, self.eps, m), gb, m)
        return DualSeries(m, gb, ge)

    def __truediv__(self, other):
        if isinstance(other, (DualScalar, int, float, complex)):
            return self * DualScalar.of(other).inv()
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    # -- composition and friends --------------------------------------------

    def compose(self, g: "DualSeries") -> "DualSeries":
        """self(g(z)); g must vanish at 0 in body and eps."""
        if g.body[0] != 0 or g.eps[0] != 0:
            raise MathDomainError("composition needs inner series with g(0) = 0")
        m = min(self.order, g.order)
        acc = DualSeries.constant(self.coeff(m), m)
        gt = g.truncated(m) if g.order > m else g
        for k in range(m - 1, -1, -1):
            acc = acc * gt
            acc.body[0] += self.body[k]
            acc.eps[0] += self.eps[k]
        return acc

    def derivative(self) -> "DualSeries":
        """Termwise d/dz; one order lower."""
        if self.order == 0:
            return DualSeries(0)
        ks = np.arange(1, self.order + 1)
        return DualSeries(self.order - 1, ks * self.body[1:], ks * self.eps[1:])

    def reversion(self) -> "DualSeries":
        """Compositional inverse g = f^{<-1>} by Lagrange inversion.

        Needs f(0) = 0 and an invertible linear term.  With h(w) = w / f(w),
        [z^n] g = (1/n) [w^(n-1)] h^n, which holds over any commutative ring
        containing the rationals, dual numbers included.
        """
        if self.body[0] != 0 or self.eps[0] != 0:
            raise MathDomainError("reversion needs f(0) = 0")
        if self.order < 1 or self.body[1] == 0:
            raise MathDomainError("reversion needs an invertible linear coefficient")
        m = self.order
        h = self.shift_down().inv()
        g = DualSeries(m)
        for n in range(1, m + 1):
            hn = h if n == 1 else hn * h
            g.body[n] = hn.body[n - 1] / n
            g.eps[n] = hn.eps[n - 1] / n
        return g

    def shift_up(self) -> "DualSeries":
        """Multiply by z; the order rises by one (all coefficients known)."""
        return DualSeries(self.order + 1,
                          np.concatenate(([0.0], self.body)),
                          np.concatenate(([0.0], self.eps)))

    def shift_down(self) -> "DualSeries":
        """Divide by z; requires a vanishing constant term."""
        if self.body[0] != 0 or self.eps[0] != 0:
            raise MathDomainError("shift_down needs a vanishing constant term")
        if self.order == 0:
            raise MathDomainError("cannot shift a constant down")
        return DualSeries(self.order - 1, self.body[1:], self.eps[1:])

    # -- eps bookkeeping -----------------------------------------------------

    def eps_split(self) -> tuple["DualSeries", "DualSeries"]:
        """Split into two plain series (body part, eps part)."""
        return DualSeries(self.order, self.body), DualSeries(self.order, self.eps)

    @staticmethod
    def recombine(body: "DualSeries", eps: "DualSeries") -> "DualSeries":
        m = min(body.order, eps.order)
        if np.any(body.eps != 0) or np.any(eps.eps != 0):
            raise InvalidInputError("recombine expects plain (eps-free) series")
        return DualSeries(m, body.body[: m + 1], eps.body[: m + 1])

    # -- comparison and serialization ----------------------------------------

    def max_abs_diff(self, other: "DualSeries") -> tuple[float, float]:
        m = min(self.order, other.order)
        db = float(np.max(np.abs(self.body[: m + 1] - other.body[: m + 1])))
        de = float(np.max(np.abs(self.eps[: m + 1] - other.eps[: m + 1])))
        return db, de

    def almost_equal(self, other: "DualSeries", tol: float = 1e-10) -> bool:
        db, de = self.max_abs_diff(other)
        return db <= tol and de <= tol

    def to_json_obj(self) -> dict:
        return {
            "K": self.order,
            "coeffs": [
                [c.real, c.imag, e.real, e.imag]
                for c, e in zip(self.body, self.eps)
            ],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "DualSeries":
        try:
            order = json_order(obj["K"])
            coeffs = obj["coeffs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad series JSON: {exc}") from exc
        if not isinstance(coeffs, list) or len(coeffs) != order + 1:
            raise InvalidInputError("series JSON needs K+1 coefficient rows")
        s = DualSeries(order)
        for k, row in enumerate(coeffs):
            if not isinstance(row, list) or len(row) != 4:
                raise InvalidInputError("coefficient rows are [re, im, re', im']")
            s.body[k] = json_complex(row[:2])
            s.eps[k] = json_complex(row[2:])
        return s

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @staticmethod
    def from_json(text: str) -> "DualSeries":
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise InvalidInputError(f"bad JSON: {exc}") from exc
        return DualSeries.from_json_obj(obj)

    def __repr__(self) -> str:
        return f"DualSeries(order={self.order}, body={self.body!r}, eps={self.eps!r})"
