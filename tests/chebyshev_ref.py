"""Reference integer polynomials for the Chebyshev identity tests: the monic
normalization tilde_T_d (by its own recurrence, and read from chebyshev(d)),
cyclotomic polynomials, the psi factor polynomials, and the IntPoly
operations only these need.  No src/ path uses them."""

from __future__ import annotations

from functools import lru_cache

from orbitsquares.chebyshev import X, IntPoly, chebyshev
from orbitsquares.field import prime_factors


def degree(a: IntPoly) -> int:
    return len(a.coeffs) - 1


def neg(a: IntPoly) -> IntPoly:
    return IntPoly([-c for c in a.coeffs])


def power(a: IntPoly, e: int) -> IntPoly:
    result = IntPoly([1])
    while e:
        if e & 1:
            result = result * a
        a = a * a
        e >>= 1
    return result


def product(items) -> IntPoly:
    out = IntPoly([1])
    for it in items:
        out = out * it
    return out


def compose(a: IntPoly, b: IntPoly) -> IntPoly:
    """a(b(x)) by Horner's rule."""
    acc = IntPoly([])
    for c in reversed(a.coeffs):
        acc = acc * b + IntPoly([c])
    return acc


def exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact polynomial division over the integers; raises if inexact."""
    r = list(a.coeffs)
    bc = b.coeffs
    db = len(bc) - 1
    q = [0] * max(0, len(r) - db)
    while len(r) - 1 >= db and any(r):
        lead, dd = r[-1], len(r) - 1
        if lead % bc[-1]:
            raise ValueError("division is not exact over the integers")
        c = lead // bc[-1]
        q[dd - db] = c
        for i, bi in enumerate(bc):
            r[dd - db + i] -= c * bi
        while r and r[-1] == 0:
            r.pop()
    if any(r):
        raise ValueError("division is not exact over the integers")
    return IntPoly(q)


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


def monic_chebyshev(d: int) -> IntPoly:
    """2 T_d(x/2), read from the coefficients c_j of chebyshev(d): 2 c_0 and
    c_j / 2^(j-1) for j >= 1, each exact as 2^(j-1) divides c_j."""
    c = chebyshev(d).coeffs
    if any(cj % 2 ** (j - 1) for j, cj in enumerate(c) if j):
        raise ValueError("2^(j-1) does not divide c_j")
    return IntPoly([2 * c[0]] + [cj // 2 ** (j - 1) for j, cj in enumerate(c) if j])


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
            num = exact_div(num, cyclotomic(d))
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
