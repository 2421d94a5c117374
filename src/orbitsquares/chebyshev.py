"""The Chebyshev polynomials T_d over exact integers, and their reduction
mod p: the exceptional families (d) and (e) are conjugates of +-T_d."""

from __future__ import annotations

from functools import lru_cache

from .fpoly import Poly


class IntPoly:
    """Dense integer-coefficient polynomial, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + IntPoly([-c for c in other.coeffs])

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly([])
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    def reduce_mod(self, field) -> Poly:
        """Reduction into F_q[x] (coefficients through the prime subfield)."""
        return Poly.from_ints(field, self.coeffs)

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"


X = IntPoly([0, 1])


@lru_cache(maxsize=None)
def chebyshev(d: int) -> IntPoly:
    """T_d under the standard recurrence T_0=1, T_1=x, T_{n+1}=2x T_n - T_{n-1}."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d == 0:
        return IntPoly([1])
    if d == 1:
        return X
    two_x = IntPoly([0, 2])
    a, b = IntPoly([1]), X
    for _ in range(d - 1):
        a, b = b, two_x * b - a
    return b
