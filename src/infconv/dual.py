"""Dual numbers a + eps*a' with eps^2 = 0.

These are the scalar shadow of the upper triangular 2x2 embedding
[[a, a'], [0, a]]: addition and multiplication agree entrywise, and the
eps component of a product obeys the Leibniz rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MathDomainError

_NUMS = (int, float, complex)


@dataclass(frozen=True)
class DualScalar:
    body: complex = 0.0
    eps: complex = 0.0

    @staticmethod
    def of(value) -> "DualScalar":
        if isinstance(value, DualScalar):
            return value
        if isinstance(value, _NUMS):
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
