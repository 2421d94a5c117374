"""Chebyshev polynomials, their monic normalization, cyclotomic polynomials
and the psi factor polynomials, all over exact integers."""

from __future__ import annotations

from functools import lru_cache

from .field import prime_factors
from .fpoly import Poly


class IntPoly:
    """Dense integer-coefficient polynomial, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

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

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

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

    def __pow__(self, e: int) -> "IntPoly":
        result = IntPoly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Exact polynomial division over the integers; raises if inexact."""
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        q = [0] * max(0, len(a) - db)
        while len(a) - 1 >= db and any(a):
            lead, dd = a[-1], len(a) - 1
            if lead % b[-1]:
                raise ValueError("division is not exact over the integers")
            c = lead // b[-1]
            q[dd - db] = c
            for i, bi in enumerate(b):
                a[dd - db + i] -= c * bi
            while a and a[-1] == 0:
                a.pop()
        if any(a):
            raise ValueError("division is not exact over the integers")
        return IntPoly(q)

    def compose(self, other: "IntPoly") -> "IntPoly":
        acc = IntPoly([])
        for c in reversed(self.coeffs):
            acc = acc * other + IntPoly([c])
        return acc

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def reduce_mod(self, field) -> Poly:
        """Reduction into F_q[x] (coefficients through the prime subfield)."""
        return Poly.from_ints(field, self.coeffs)

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs) if self.coeffs else "0"

    def __repr__(self):
        return f"IntPoly({self})"


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


@lru_cache(maxsize=None)
def tilde_chebyshev(d: int) -> IntPoly:
    """Monic integer normalization 2 T_d(x/2), i.e. the unique monic integer
    polynomial with tilde_T_d(y + 1/y) = y^d + y^(-d); recurrence
    tilde_T_0 = 2, tilde_T_1 = x, tilde_T_{n+1} = x tilde_T_n - tilde_T_{n-1}."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d == 0:
        return IntPoly([2])
    a, b = IntPoly([2]), X
    for _ in range(d - 1):
        a, b = b, X * b - a
    return b


def euler_phi(n: int) -> int:
    out = n
    for r in prime_factors(n):
        out -= out // r
    return out


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """n-th cyclotomic polynomial via exact division of x^n - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    num = IntPoly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num = num.exact_div(cyclotomic(d))
    return num


@lru_cache(maxsize=None)
def psi(n: int) -> IntPoly:
    """The minimal-type factor polynomial of the primitive 2cos(2 pi k/n).

    For n > 2, Phi_n(x) = x^m psi_n(x + 1/x) with m = phi(n)/2.  Phi_n is
    palindromic of degree 2m, so Phi_n(x)/x^m = c_m + sum_j c_(m+j)(x^j + x^(-j))
    over its coefficients c_i, and x^j + x^(-j) = tilde_T_j(x + 1/x).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return IntPoly([-2, 1])
    if n == 2:
        return IntPoly([2, 1])
    m = euler_phi(n) // 2
    c = cyclotomic(n).coeffs
    out = IntPoly([c[m]])
    for j in range(1, m + 1):
        out = out + IntPoly([c[m + j]]) * tilde_chebyshev(j)
    return out
