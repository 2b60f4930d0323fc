"""Dual numbers a + eps*a' with eps^2 = 0, and records of K of them.

Dual numbers are the scalar shadow of the upper triangular 2x2 embedding
[[a, a'], [0, a]]: addition and multiplication agree entrywise, and the
eps component of a product obeys the Leibniz rule.

``DualRecord`` is the one shape of the package's K-long dual sequences
(moments, free cumulants, t-coefficients): K and two complex arrays, body
and eps, with one order and length check, one comparison and one JSON encoding.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from numbers import Number
from typing import ClassVar

import numpy as np

from .errors import InvalidInputError, MathDomainError


def json_order(x) -> int:
    """An order K read from JSON: an integer or an integral float, never a bool."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise InvalidInputError(f"K must be an integer, got {x!r}")


def json_complex(x) -> complex:
    """A finite complex number read from JSON: a number or [re, im], with no bool part."""
    parts = x if isinstance(x, list) and len(x) == 2 else [x]
    if all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        try:
            z = complex(*parts)
        except OverflowError:  # an integer beyond the float range, rejected below
            z = complex("nan")
        if cmath.isfinite(z):  # json reads NaN, Infinity and 1e400 as floats
            return z
    raise InvalidInputError(f"bad number entry: {x!r}")


@dataclass(frozen=True)
class DualScalar:
    body: complex = 0.0
    eps: complex = 0.0

    @staticmethod
    def of(value) -> "DualScalar":
        if isinstance(value, DualScalar):
            return value
        # numpy's scalar types included; bools are not numbers here, as in JSON
        if isinstance(value, Number) and not isinstance(value, bool):
            return DualScalar(complex(value), 0.0)
        raise TypeError(f"cannot coerce {type(value).__name__} to DualScalar")

    def __add__(self, other):
        o = DualScalar.of(other)
        return DualScalar(self.body + o.body, self.eps + o.eps)

    __radd__ = __add__

    def __sub__(self, other):
        o = DualScalar.of(other)
        return DualScalar(self.body - o.body, self.eps - o.eps)

    def __rsub__(self, other):
        return DualScalar.of(other) - self

    def __neg__(self):
        return DualScalar(-self.body, -self.eps)

    def __mul__(self, other):
        o = DualScalar.of(other)
        return DualScalar(self.body * o.body, self.body * o.eps + self.eps * o.body)

    __rmul__ = __mul__

    def inv(self) -> "DualScalar":
        if self.body == 0:
            raise MathDomainError("dual number with zero body is singular")
        ib = 1.0 / self.body
        return DualScalar(ib, -self.eps * ib * ib)

    def __truediv__(self, other):
        return self * DualScalar.of(other).inv()

    def __rtruediv__(self, other):
        return DualScalar.of(other) * self.inv()

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        acc = DualScalar(1.0)
        for _ in range(k):
            acc = acc * self
        return acc

    def almost_equal(self, other, tol: float = 1e-12) -> bool:
        o = DualScalar.of(other)
        return abs(self.body - o.body) <= tol and abs(self.eps - o.eps) <= tol

    def __repr__(self) -> str:
        return f"DualScalar({self.body!r}, {self.eps!r})"


@dataclass(frozen=True)
class DualRecord:
    """K dual numbers held as two complex arrays of shape (K,).

    A subclass declares the two array fields after K and names them, body
    first, in ARRAYS; JSON writes K and then both arrays under those names,
    each entry a number or [re, im].
    """

    ARRAYS: ClassVar[tuple[str, str]]
    K: int

    def __post_init__(self) -> None:
        if self.K < 1:
            raise InvalidInputError("order K must be >= 1")
        body, eps = self.ARRAYS
        b = np.asarray(getattr(self, body), dtype=complex)
        e = np.asarray(getattr(self, eps), dtype=complex)
        if b.shape != (self.K,) or e.shape != (self.K,):
            raise InvalidInputError(f"{body} and {eps} must have length K")
        object.__setattr__(self, body, b)
        object.__setattr__(self, eps, e)

    def pairs(self) -> list[tuple[complex, complex]]:
        """The K entries as raw (body, eps) pairs of Python complex numbers."""
        return list(zip(*(getattr(self, a).tolist() for a in self.ARRAYS)))

    def max_abs_diff(self, other: "DualRecord") -> tuple[float, float]:
        """Largest |body| and |eps| gaps over the first min(K) entries."""
        k = min(self.K, other.K)
        body, eps = ((getattr(self, a)[:k] - getattr(other, a)[:k]) for a in self.ARRAYS)
        return float(np.max(np.abs(body))), float(np.max(np.abs(eps)))

    def to_json_obj(self) -> dict:
        obj = {"K": self.K}
        for name in self.ARRAYS:
            obj[name] = [x.real if x.imag == 0 else [x.real, x.imag]
                         for x in getattr(self, name)]
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())
