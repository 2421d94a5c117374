"""Polynomial arithmetic, composition, iteration and factorization."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitsquares.errors import DegreeBudgetExceeded
from orbitsquares.field import make_field
from orbitsquares.fpoly import (
    Poly,
    constant_times_square,
    factor,
    gcd,
    is_irreducible,
    sqrt_part,
    square_root,
)

F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)


def P(field, *ints):
    return Poly.from_ints(field, ints)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert P(F7, 1, 1) * P(F7, 6, 1) == P(F7, 6, 0, 1)

    def test_divmod(self):
        q, r = divmod(P(F7, 1, 0, 1), P(F7, 0, 1))
        assert q == P(F7, 0, 1) and r == P(F7, 1)

    def test_add_zero(self):
        f = P(F7, 3, 2, 1)
        assert f + Poly.zero(F7) == f

    def test_scale_and_monic(self):
        f = P(F7, 2, 0, 3)
        assert f.monic().leading() == F7.one
        assert f.monic().scale(f.leading()) == f

    def test_parse_and_str_roundtrip(self):
        f = Poly.parse(F7, "0,4,5")
        assert str(f) == "0,4,5"
        assert f == P(F7, 0, 4, 5)

    def test_parse_rejects_index_out_of_range(self):
        for text in ("7", "1,-1", "0,0,12"):
            with pytest.raises(ValueError):
                Poly.parse(F7, text)


class TestCompose:
    def test_identity(self):
        f = P(F7, 1, 2, 3)
        assert f.compose(Poly.x(F7)) == f

    def test_f3_quadratic(self):
        f = P(F3, 1, 0, 1)
        assert f.compose(f) == P(F3, 2, 0, 2, 0, 1)

    def test_monomials(self):
        assert P(F7, 0, 0, 1).compose(P(F7, 0, 0, 0, 1)) == Poly.x(F7) ** 6


class TestIterate:
    def test_zero_is_x(self):
        assert P(F7, 1, 2, 3).iterate(0) == Poly.x(F7)

    def test_monomial(self):
        assert P(F7, 0, 0, 1).iterate(3) == Poly.x(F7) ** 8

    def test_f3_quadratic(self):
        assert P(F3, 1, 0, 1).iterate(2) == P(F3, 2, 0, 2, 0, 1)

    def test_budget(self):
        with pytest.raises(DegreeBudgetExceeded):
            P(F7, 0, 0, 1).iterate(5, budget=10)


class TestDerivative:
    def test_constant(self):
        assert P(F7, 5).derivative().is_zero()

    def test_char_p_vanishing(self):
        assert P(F3, 0, 1, 0, 1).derivative() == Poly.one(F3)

    def test_quadratic(self):
        assert P(F7, 1, 0, 1).derivative() == P(F7, 0, 2)


class TestGcd:
    def test_with_zero(self):
        f = P(F7, 2, 4)
        assert gcd(f, Poly.zero(F7)) == f.monic()

    def test_common_root(self):
        assert gcd(P(F7, 6, 0, 1), P(F7, 6, 1)) == P(F7, 6, 1)

    def test_coprime(self):
        assert gcd(P(F7, 0, 1), P(F7, 1, 1)) == Poly.one(F7)


class TestFactor:
    def test_split_quadratic(self):
        fac = factor(P(F7, 6, 0, 1))
        assert fac.unit == F7.one
        assert fac.factors == ((P(F7, 1, 1), 1), (P(F7, 6, 1), 1))

    def test_irreducible_quadratic(self):
        fac = factor(P(F3, 1, 0, 1))
        assert fac.factors == ((P(F3, 1, 0, 1), 1),)

    def test_repeated_root(self):
        fac = factor(P(F7, 1, 1) * P(F7, 1, 1))
        assert fac.factors == ((P(F7, 1, 1), 2),)

    def test_char_p_perfect_power(self):
        # (x+1)^3 = x^3 + 1 over F_3: squarefree step needs p-th roots
        fac = factor(P(F3, 1, 0, 0, 1))
        assert fac.factors == ((P(F3, 1, 1), 3),)

    def test_expand_roundtrip_exhaustive_f3(self):
        for c0 in range(3):
            for c1 in range(3):
                for c2 in range(3):
                    for lead in range(1, 3):
                        f = P(F3, c0, c1, c2, lead)
                        assert factor(f).expand() == f

    def test_constant_rejected(self):
        from orbitsquares.errors import ConstantInput

        with pytest.raises(ConstantInput):
            factor(P(F7, 5))

    def test_seed_independence(self):
        f = P(F5, 2, 0, 1, 1, 3, 1)
        assert factor(f, seed=0).factors == factor(f, seed=99).factors


def _mobius(n):
    out, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    return -out if m > 1 else out


def _gauss_count(q, n):
    """Number of monic irreducibles of degree n over F_q: (1/n) sum_{d|n} mu(d) q^(n/d)."""
    return sum(_mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


class TestIsIrreducible:
    @pytest.mark.parametrize("p,k,max_n", [(3, 1, 5), (5, 1, 4), (7, 1, 3), (3, 2, 2)])
    def test_counts_match_gauss(self, p, k, max_n):
        F = make_field(p, k)
        for n in range(1, max_n + 1):
            count = sum(
                is_irreducible(Poly(F, lower + (F.one_idx,)))
                for lower in itertools.product(range(F.q), repeat=n)
            )
            assert count == _gauss_count(F.q, n), (F.q, n)


class TestConstantTimesSquare:
    def test_nonsquare_unit(self):
        dec = constant_times_square(P(F7, 3, 6, 3))  # 3(x+1)^2
        assert dec is not None
        assert dec.c == F7.from_int(3) and dec.h == P(F7, 1, 1)
        assert not dec.c_is_square

    def test_absent(self):
        assert constant_times_square(P(F7, 1, 0, 1)) is None

    def test_square_unit(self):
        dec = constant_times_square(P(F7, 0, 0, 4))
        assert dec is not None
        assert dec.c == F7.from_int(4) and dec.h == P(F7, 0, 1)
        assert dec.c_is_square

    def test_reconstruction(self):
        f = P(F5, 3) * (P(F5, 1, 2, 1, 1) ** 2)
        dec = constant_times_square(f)
        assert Poly.constant(dec.c) * dec.h * dec.h == f


def _monic_polys(F, degree):
    for lower in itertools.product(range(F.q), repeat=degree):
        yield Poly(F, lower + (F.one_idx,))


class TestSquareRoot:
    @pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (3, 2), (5, 2)])
    def test_root_of_a_square(self, p, k):
        F = make_field(p, k)
        rng = random.Random(p * 10 + k)
        for n in range(6):
            for _ in range(20):
                h = Poly(F, [rng.randrange(F.q) for _ in range(n)] + [F.one_idx])
                assert square_root(h * h) == h
                assert sqrt_part(h * h) == h

    @pytest.mark.parametrize("p,k,degree", [
        (3, 1, 2), (3, 1, 4), (5, 1, 2), (5, 1, 4), (3, 2, 2), (3, 2, 4),
    ])
    def test_none_exactly_when_a_multiplicity_is_odd(self, p, k, degree):
        F = make_field(p, k)
        for f in _monic_polys(F, degree):
            odd = any(m % 2 for _, m in factor(f).factors)
            assert (square_root(f) is None) == odd, f

    @pytest.mark.parametrize("p,k,degree", [(3, 1, 1), (3, 1, 3), (5, 1, 3), (3, 2, 3)])
    def test_odd_degree_has_no_root(self, p, k, degree):
        F = make_field(p, k)
        assert all(square_root(f) is None for f in _monic_polys(F, degree))

    def test_sqrt_part_ignores_the_low_half(self):
        # deg(f - h*h) < n for every monic quartic over F_5: h reads only the top half
        for f in _monic_polys(F5, 4):
            h = sqrt_part(f)
            assert h.degree == 2 and h.leading() == F5.one
            assert (f - h * h).degree < 2

    def test_not_monic(self):
        assert square_root(P(F7, 0, 0, 4)) is None  # 4x^2 has no monic root
        assert square_root(Poly.one(F7)) == Poly.one(F7)


class TestEvaluate:
    def test_identity(self):
        a = F7.from_int(5)
        assert Poly.x(F7).evaluate(a) == a

    def test_quadratic(self):
        assert P(F7, 1, 0, 1).evaluate(F7.from_int(3)) == F7.from_int(3)

    def test_constant(self):
        assert P(F7, 4).evaluate(F7.from_int(6)) == F7.from_int(4)


@st.composite
def f5_poly(draw, max_degree=4):
    n = draw(st.integers(1, max_degree + 1))
    coeffs = [draw(st.integers(0, 4)) for _ in range(n)]
    return Poly.from_ints(F5, coeffs)


@settings(max_examples=60, deadline=None)
@given(f=f5_poly(), g=f5_poly())
def test_divmod_identity(f, g):
    if g.is_zero():
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree


@settings(max_examples=40, deadline=None)
@given(f=f5_poly(), g=f5_poly())
def test_factor_expand(f, g):
    h = f * g
    if h.degree < 1:
        return
    assert factor(h).expand() == h


@settings(max_examples=40, deadline=None)
@given(f=f5_poly(), g=f5_poly(), a=st.integers(0, 4))
def test_compose_evaluate_commute(f, g, a):
    x = F5.from_int(a)
    assert f.compose(g).evaluate(x) == f.evaluate(g.evaluate(x))
