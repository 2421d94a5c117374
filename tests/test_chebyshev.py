"""Exact integer Chebyshev polynomials, and the cyclotomic and psi-factor
identities on the test-local reference."""

import pytest
from chebyshev_ref import (
    IntPoly,
    compose,
    cyclotomic,
    degree,
    euler_phi,
    exact_div,
    monic_chebyshev,
    power,
    product,
    psi,
    tilde_chebyshev,
)

from orbitsquares.classify import chebyshev
from orbitsquares.field import make_field
from orbitsquares.fpoly import Poly


class TestChebyshev:
    def test_first_values(self):
        assert chebyshev(0) == (1,)
        assert chebyshev(1) == (0, 1)
        assert chebyshev(2) == (-1, 0, 2)
        assert chebyshev(3) == (0, -3, 0, 4)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            chebyshev(-1)

    def test_composition_identity(self):
        t2 = IntPoly(chebyshev(2))
        for n in range(21):
            assert compose(t2, IntPoly(chebyshev(n))) == IntPoly(chebyshev(2 * n))

    def test_tilde_monic_integer(self):
        assert tilde_chebyshev(2) == IntPoly([-2, 0, 1])
        for d in range(1, 12):
            t = tilde_chebyshev(d)
            assert degree(t) == d and t.coeffs[-1] == 1

    def test_tilde_is_twice_t_d_at_half_x(self):
        # the normalization criterion 5 derives from chebyshev(d) agrees
        # with the tilde_T recurrence
        for d in range(30):
            assert monic_chebyshev(d) == tilde_chebyshev(d)

    def test_tilde_sum_of_powers_identity(self):
        # tilde_T_d(y + 1/y) = y^d + y^(-d), checked as polynomials in y
        # after clearing denominators: y^d * tilde_T_d(y + 1/y) = y^(2d) + 1
        for d in range(1, 9):
            t = tilde_chebyshev(d)
            acc = IntPoly([])
            # y^d * (y + 1/y)^j = y^(d-j) (y^2+1)^j
            for j, c in enumerate(t.coeffs):
                term = IntPoly([0] * (d - j) + [1]) * power(IntPoly([1, 0, 1]), j)
                acc = acc + IntPoly([c]) * term
            assert acc == IntPoly([1] + [0] * (2 * d - 1) + [1])


class TestCyclotomic:
    def test_small(self):
        assert cyclotomic(1) == IntPoly([-1, 1])
        assert cyclotomic(2) == IntPoly([1, 1])
        assert cyclotomic(4) == IntPoly([1, 0, 1])
        assert cyclotomic(6) == IntPoly([1, -1, 1])
        assert cyclotomic(12) == IntPoly([1, 0, -1, 0, 1])

    def test_product_recovers_power(self):
        for n in (6, 10, 12):
            acc = IntPoly([1])
            for d in range(1, n + 1):
                if n % d == 0:
                    acc = acc * cyclotomic(d)
            assert acc == IntPoly([-1] + [0] * (n - 1) + [1])

    def test_euler_phi(self):
        assert [euler_phi(n) for n in (1, 2, 6, 9, 10, 12)] == [1, 1, 2, 6, 4, 4]


class TestPsi:
    def test_pinned_values(self):
        assert psi(1) == IntPoly([-2, 1])
        assert psi(2) == IntPoly([2, 1])
        assert psi(3) == IntPoly([1, 1])  # 2cos(2pi/3) = -1
        assert psi(4) == IntPoly([0, 1])  # 2cos(pi/2) = 0

    def test_degree_is_half_phi(self):
        for n in range(3, 20):
            assert degree(psi(n)) == euler_phi(n) // 2

    def test_factorizations_odd_d(self):
        for d in (3, 5, 7, 9, 11, 13, 15):
            t = tilde_chebyshev(d)
            ks = [k for k in range(2, d + 1) if d % k == 0]
            assert t - IntPoly([2]) == psi(1) * power(product(psi(k) for k in ks), 2)
            assert t + IntPoly([2]) == psi(2) * power(product(psi(2 * k) for k in ks), 2)


class TestReduction:
    def test_reduce_mod(self):
        F7 = make_field(7)
        assert Poly.from_ints(F7, chebyshev(2)) == Poly(F7, [6, 0, 2])
        assert Poly.from_ints(F7, [-c for c in chebyshev(2)]) == Poly(F7, [1, 0, 5])


@pytest.mark.parametrize(
    "call",
    [
        lambda: exact_div(IntPoly([0, 1]), IntPoly([0, 2])),  # x / 2x: 2 does not divide 1
        lambda: exact_div(IntPoly([1, 1]), IntPoly([0, 1])),  # (x + 1) / x leaves 1
        lambda: tilde_chebyshev(-1),
        lambda: cyclotomic(0),
        lambda: psi(0),
    ],
    ids=["inexact-leading", "inexact-remainder", "tilde-negative-degree", "cyclotomic-0", "psi-0"],
)
def test_refuses_invalid_input(call):
    with pytest.raises(ValueError):
        call()
