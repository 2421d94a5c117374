"""Polynomial arithmetic, composition, iteration and factorization."""

import contextlib
import itertools
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitsquares.errors import BothZero, DegreeBudgetExceeded, DivisionByZero, MixedFields
from orbitsquares.field import FieldElement, FieldSpec, make_field
from orbitsquares.fpoly import (
    Poly,
    _pack,
    _pth_root,
    _squarefree_decomposition,
    _unpack,
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

    def test_multiplicity_degree_sum(self):
        # over the closure f^n - alpha has d^n roots counted with multiplicity
        f = P(F7, 1, 3, 1)
        for n in (1, 2, 3):
            g = f.iterate(n) - Poly.constant(F7.from_int(2))
            assert sum(p.degree * m for p, m in factor(g).factors) == 2**n


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

    @pytest.mark.parametrize("spec", ["3", "7", "3^2", "3^2/(2,1,1)", "5^2", "3^3"])
    def test_value_table_on_every_quadratic(self, spec):
        # every polynomial of degree <= 2, monic or not, zero and constants included
        F = FieldSpec.parse(spec)
        for coeffs in itertools.product(range(F.q), repeat=3):
            f = Poly(F, coeffs)
            assert f.value_table() == [f.eval_i(x) for x in range(F.q)]

    @pytest.mark.parametrize("spec", ["13^2", "7^3", "101"])
    def test_value_table_on_constants_and_samples(self, spec):
        F = FieldSpec.parse(spec)
        for c in range(F.q):
            f = Poly(F, [c])
            assert f.value_table() == [f.eval_i(x) for x in range(F.q)]
        rng = random.Random(F.q)
        for degree in range(2, 6):
            for _ in range(6):
                f = _random_poly(F, rng, degree)
                assert f.value_table() == [f.eval_i(x) for x in range(F.q)]


# --- the list kernels against the method-call schoolbook -------------------

PRIMES = (3, 5, 7, 31, 101)
# long division and gcd run one loop for both field kinds
FIELDS = tuple(map(str, PRIMES)) + ("3^2", "3^2/(2,1,1)", "5^2", "3^3")


def _ref_mul(a: Poly, b: Poly) -> Poly:
    """Schoolbook product through the field's index kernels."""
    F = a.field
    if a.is_zero() or b.is_zero():
        return Poly.zero(F)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] = F.add_i(out[i + j], F.mul_i(ai, bj))
    return Poly(F, out)


def _ref_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division that reduces every coefficient at every step."""
    F = a.field
    r, lb = list(a.coeffs), b.coeffs
    db = len(lb) - 1
    inv = F.inv_i(lb[-1])
    q = [0] * max(0, len(r) - db)
    while r and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        c = F.mul_i(r[-1], inv)
        q[shift] = c
        for i, bi in enumerate(lb):
            r[shift + i] = F.sub_i(r[shift + i], F.mul_i(c, bi))
        while r and r[-1] == 0:
            r.pop()
    return Poly(F, q), Poly(F, r)


def _ref_pow_mod(a: Poly, e: int, m: Poly) -> Poly:
    """Right-to-left square and multiply, one reference division per product."""
    result = _ref_divmod(Poly.one(a.field), m)[1]
    base = _ref_divmod(a, m)[1]
    while e:
        if e & 1:
            result = _ref_divmod(_ref_mul(result, base), m)[1]
        base = _ref_divmod(_ref_mul(base, base), m)[1]
        e >>= 1
    return result


def _random_poly(F, rng, degree, monic=False):
    """Degree exactly `degree` (the zero polynomial for -1)."""
    if degree < 0:
        return Poly.zero(F)
    lead = 1 if monic else rng.randrange(1, F.q)
    return Poly(F, [rng.randrange(F.q) for _ in range(degree)] + [lead])


def _slot_boundaries(p):
    """Lengths n at which n(p-1)^2, the largest coefficient of a product of
    two length-n lists, first needs a wider packing slot (up to n = 80)."""
    return [n for n in range(2, 81)
            if any((n - 1) * (p - 1) ** 2 < 2**bits <= n * (p - 1) ** 2 for bits in (8, 16))]


class TestFpKernelAgainstReference:
    @pytest.mark.parametrize("nb", [1, 2, 3, 4, 8, 9])
    def test_pack_roundtrip(self, nb):
        # widths 3 and 9 take the bytes path that big-endian hosts use
        rng = random.Random(nb)
        c = [rng.randrange(256**nb) for _ in range(50)] + [256**nb - 1, 0]
        assert list(_unpack(_pack(c, nb), len(c), nb)) == c

    @pytest.mark.parametrize("p", PRIMES)
    def test_mul(self, p):
        F = make_field(p)
        rng = random.Random(p)
        for _ in range(40):
            a = _random_poly(F, rng, rng.randrange(-1, 70))
            b = _random_poly(F, rng, rng.randrange(-1, 70))
            assert a * b == _ref_mul(a, b), (a, b)
            assert a * a == _ref_mul(a, a), a
        for n in _slot_boundaries(p) + [64, 75]:
            # every coefficient p - 1: the convolution sums reach n(p-1)^2
            for m in (n - 1, n, n + 1):
                top = Poly(F, [p - 1] * m)
                assert top * top == _ref_mul(top, top), (p, m)
                assert top * Poly(F, [p - 1] * (m + 3)) == _ref_mul(top, Poly(F, [p - 1] * (m + 3)))

    @pytest.mark.parametrize("spec", FIELDS)
    def test_divmod(self, spec):
        F = FieldSpec.parse(spec)
        rng = random.Random(100 + F.q)
        cases = []
        for monic in (True, False):
            for _ in range(30):
                b = _random_poly(F, rng, rng.randrange(0, 30), monic)
                cases.append((_random_poly(F, rng, rng.randrange(-1, 70)), b))
            b = _random_poly(F, rng, 6, monic)
            cases.append((Poly.zero(F), b))  # zero dividend
            cases.append((_random_poly(F, rng, 3), b))  # deg a < deg b
            cases.append((_random_poly(F, rng, 6), b))  # equal degrees
            cases.append((_random_poly(F, rng, 9), _random_poly(F, rng, 0, monic)))  # constant
        for a, b in cases:
            expected = _ref_divmod(a, b)
            assert divmod(a, b) == expected, (a, b)
            assert a // b == expected[0] and a % b == expected[1], (a, b)

    @pytest.mark.parametrize("spec", FIELDS)
    def test_gcd(self, spec):
        F = FieldSpec.parse(spec)
        rng = random.Random(150 + F.q)
        for _ in range(30):
            g = _random_poly(F, rng, rng.randrange(0, 8))
            a = _ref_mul(g, _random_poly(F, rng, rng.randrange(-1, 30)))
            b = _ref_mul(g, _random_poly(F, rng, rng.randrange(0, 30)))
            x, y = a, b  # Euclid through the reference division
            while not y.is_zero():
                x, y = y, _ref_divmod(x, y)[1]
            assert gcd(a, b) == x.monic() == gcd(b, a), (a, b)

    @pytest.mark.parametrize("p", PRIMES)
    def test_pow_mod(self, p):
        F = make_field(p)
        rng = random.Random(200 + p)
        for monic in (True, False):
            for n in (1, 2, 3, 5, 8, 13, 17, 24):
                m = _random_poly(F, rng, n, monic)
                exponents = {0, 1, 2, p, (p - 1) // 2, (p**2 - 1) // 2, (p**3 - 1) // 2,
                             (p**n - 1) // 2 if n <= 5 else rng.randrange(2, 10**6)}
                for e in sorted(exponents):
                    for degree in (n - 1, n, 2 * n + 3):  # base at and above deg m
                        a = _random_poly(F, rng, degree)
                        assert a.pow_mod(e, m) == _ref_pow_mod(a, e, m), (a, e, m)
        assert Poly.zero(F).pow_mod(0, Poly.x(F)) == Poly.one(F)
        assert Poly.zero(F).pow_mod(5, Poly.x(F)).is_zero()
        assert P(F, 3, 1).pow_mod(7, P(F, 2)).is_zero()  # everything is 0 mod a unit


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in a call still running after seconds (where SIGALRM exists)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: P(F7, 1, 1) + 3, TypeError),
        (lambda: P(F7, 1, 1) + P(F5, 1, 1), MixedFields),
        (lambda: divmod(P(F7, 1, 1), Poly.zero(F7)), DivisionByZero),
        (lambda: P(F7, 1, 1).evaluate(FieldElement(F5, 1)), MixedFields),
        (lambda: P(F7, 1, 1).iterate(-1), ValueError),
        (lambda: gcd(Poly.zero(F7), Poly.zero(F7)), BothZero),
    ],
    ids=["add-int", "add-mixed-fields", "divmod-by-zero", "evaluate-mixed-fields",
         "negative-iterate", "gcd-of-zeros"],
)
def test_refuses_invalid_input(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2)])
def test_negative_exponent_rejected(p, k):
    F = make_field(p, k)
    x = Poly.x(F)
    m = x * x + Poly.one(F)
    with _deadline(2):
        for call in (lambda: x.pow_mod(-3, m), lambda: x.pow_mod(-1, m),
                     lambda: x ** -1, lambda: m ** -2):
            with pytest.raises(ValueError, match="negative exponent"):
                call()
    assert x.pow_mod(0, m) == Poly.one(F) and x**0 == Poly.one(F)


# --- factoring compositions g(inner), g irreducible or squarefree ---------

def _random_irreducible(F, rng, degree):
    while True:
        g = _random_poly(F, rng, degree, monic=True)
        if is_irreducible(g):
            return g


def test_composition_factor_matches_sympy():
    # compositions g(inner) with g irreducible, factored by plain factor
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for p in (3, 5, 7):
        F = make_field(p)
        rng = random.Random(400 + p)
        for _ in range(24):
            g = _random_irreducible(F, rng, rng.randrange(2, 5))
            inner = _random_poly(F, rng, rng.randrange(1, 5))
            comp = g.compose(inner)
            _, theirs = sympy.Poly(list(reversed(comp.coeffs)), x, modulus=p).factor_list()
            expected = []
            for h, m in theirs:
                c = [int(v) % p for v in reversed(h.all_coeffs())]
                inv = pow(c[-1], -1, p)
                expected.append((tuple(v * inv % p for v in c), m))
            ours = sorted((h.coeffs, m) for h, m in factor(comp).factors)
            assert ours == sorted(expected), (str(g), str(inner))


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2)])
def test_composition_with_pth_power_inner(p, k):
    # inner = (x - b)^p has inner' = 0, so g(inner) is a p-th power
    F = make_field(p, k)
    rng = random.Random(p * k)
    b = Poly(F, [rng.randrange(1, F.q)])
    inner = (Poly.x(F) - b) ** p
    assert inner.derivative().is_zero()
    for degree in (1, 2, 3):
        g = _random_irreducible(F, rng, degree)
        comp = g.compose(inner)
        fac = factor(comp)
        assert fac.expand() == comp
        assert all(m % p == 0 and is_irreducible(h) for h, m in fac.factors)


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2)])
def test_squarefree_inner_shortcut_for_reducible_g(p, k):
    # the inner shortcut needs g squarefree, not irreducible: here g is a
    # product of 2-3 distinct irreducibles, and the last three inner have
    # inner' = 0, which takes the p-th-root branch
    F = make_field(p, k)
    rng = random.Random(700 + p * k)
    x = Poly.x(F)
    pth = [(x - Poly(F, [rng.randrange(1, F.q)])) ** p,
           x**p + Poly(F, [rng.randrange(1, F.q)]), x ** (2 * p) + x**p]
    for _ in range(12):
        parts = set()
        count = rng.choice((2, 3))
        while len(parts) < count:
            parts.add(_random_irreducible(F, rng, rng.randrange(1, 4)))
        g = Poly.one(F)
        for h in parts:
            g = g * h
        assert _squarefree_decomposition(g) == [(g, 1)]
        inners = [_random_poly(F, rng, rng.randrange(1, 5)) for _ in range(3)] + pth
        for inner in inners:
            comp = g.compose(inner).monic()
            fast = _squarefree_decomposition(comp, inner)
            assert fast == _squarefree_decomposition(comp), (str(g), str(inner))
            if inner in pth:
                assert all(m % p == 0 for _, m in fast)


def _ref_compose(f: Poly, g: Poly) -> Poly:
    """Horner over Poly arguments, acc * g + c per coefficient, through the
    schoolbook product."""
    F = f.field
    acc = Poly.zero(F)
    for c in reversed(f.coeffs):
        acc = _ref_mul(acc, g) + Poly(F, [c])
    return acc


@pytest.mark.parametrize("spec", ["5", "3^2", "3^2/(2,1,1)", "3^3"])
def test_compose_matches_reference(spec):
    F = FieldSpec.parse(spec)
    rng = random.Random(500 + F.q)
    small = [Poly.zero(F), Poly.one(F), Poly(F, [rng.randrange(1, F.q)]), Poly.x(F)]
    pairs = [(f, g) for f in small for g in small]
    for _ in range(40):
        f = _random_poly(F, rng, rng.randrange(-1, 10))
        g = _random_poly(F, rng, rng.randrange(-1, 10))
        pairs += [(f, g), (f, rng.choice(small)), (rng.choice(small), g)]
    for f, g in pairs:
        comp = f.compose(g)
        assert comp == _ref_compose(f, g), (str(f), str(g))
        assert comp.value_table() == [f.eval_i(g.eval_i(x)) for x in range(F.q)], (str(f), str(g))


def _ref_squarefree_decomposition(f: Poly, inner: Poly | None = None) -> list[tuple[Poly, int]]:
    """Yun's loop with no early return: a squarefree f still divides by 1."""
    F = f.field
    p = F.p
    out = []
    fd = (f if inner is None else inner).derivative()
    if fd.is_zero():
        return [(g, m * p) for g, m in _ref_squarefree_decomposition(_pth_root(f))]
    c = gcd(f, fd)
    w = f // c
    i = 1
    while not w.is_one():
        y = gcd(w, c)
        z = w // y
        if not z.is_one():
            out.append((z, i))
        i += 1
        w = y
        c = c // y
    if not c.is_one():
        out += [(g, m * p) for g, m in _ref_squarefree_decomposition(_pth_root(c))]
    return out


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2)])
def test_squarefree_decomposition_matches_reference(p, k):
    F = make_field(p, k)
    rng = random.Random(800 + p * k)
    x = Poly.x(F)
    irreducibles = sorted({_random_irreducible(F, rng, rng.randrange(1, 4)) for _ in range(12)},
                          key=Poly.sort_key)
    inners = [_random_poly(F, rng, d, monic=True) for d in (1, 2, 3)]
    inners += [(x - Poly(F, [rng.randrange(1, F.q)])) ** p, x ** (2 * p) + x**p]  # inner' = 0
    squarefree = 0
    for _ in range(30):
        parts = rng.sample(irreducibles, rng.randrange(1, 4))
        g = Poly.one(F)
        for h in parts:
            g = g * h
        # squarefree, a square or cube part, and a p-th power part
        cases = [g, g * parts[0] ** rng.randrange(2, 4), g * parts[-1] ** p * parts[0]]
        for f in cases:
            ours = _squarefree_decomposition(f)
            assert ours == _ref_squarefree_decomposition(f), str(f)
            squarefree += ours == [(f, 1)]
        for inner in rng.sample(inners, 2):
            comp = g.compose(inner).monic()
            assert _squarefree_decomposition(comp, inner) == \
                _ref_squarefree_decomposition(comp, inner), (str(g), str(inner))
    assert 0 < squarefree < 90


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3)])
def test_extension_pow_mod_matches_reference(p, k):
    F = make_field(p, k)
    rng = random.Random(250 + p * k)
    q = F.q
    for n in (1, 2, 5, 9):
        m = _random_poly(F, rng, n, monic=n % 2 == 0)
        for e in (0, 1, 2, 3, q, q**3, (q**2 - 1) // 2, rng.randrange(2, 10**5)):
            for a in (Poly.x(F), _random_poly(F, rng, n - 1), _random_poly(F, rng, 2 * n + 1)):
                assert a.pow_mod(e, m) == _ref_pow_mod(a, e, m), (str(a), e, str(m))


def test_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for p in (3, 5, 7):
        F = make_field(p)
        rng = random.Random(300 + p)
        for _ in range(60):
            f = _random_poly(F, rng, rng.randrange(1, 13))
            _, theirs = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).factor_list()
            expected = []
            for g, m in theirs:
                c = [int(v) % p for v in reversed(g.all_coeffs())]
                inv = pow(c[-1], -1, p)
                expected.append((tuple(v * inv % p for v in c), m))
            ours = sorted((g.coeffs, m) for g, m in factor(f).factors)
            assert ours == sorted(expected), f


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
