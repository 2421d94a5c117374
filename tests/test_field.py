"""Field construction, index arithmetic and the quadratic character."""

import itertools
import operator
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitsquares import field
from orbitsquares.cli import main
from orbitsquares.errors import DivisionByZero
from orbitsquares.field import (
    MAX_FIELD_ORDER,
    FieldElement,
    FieldSpec,
    make_field,
    power_within,
    smallest_irreducible,
)
from orbitsquares.fpoly import Poly, factor

F3 = make_field(3)
F7 = make_field(7)
F9 = make_field(3, 2)

# smallest_irreducible's pick for each field, as first recorded
PINNED_MODULI = {
    "13^2": (1, 3, 1), "101^2": (1, 1, 1), "5^4": (1, 0, 1, 1, 1), "7^4": (1, 0, 0, 1, 1),
    "3^6": (1, 0, 0, 0, 1, 1, 1), "3^8": (1, 0, 0, 0, 0, 1, 1, 0, 1),
    "7^5": (1, 0, 0, 0, 3, 1), "5^6": (1, 0, 0, 0, 1, 1, 1),
}


def el(field, idx):
    return FieldElement(field, idx)


class TestConstruction:
    def test_prime_field(self):
        assert F7.p == 7 and F7.k == 1 and F7.q == 7

    def test_f9_default_modulus_is_x2_plus_1(self):
        # smallest monic irreducible quadratic over F_3 in the canonical order
        assert F9.modulus == (1, 0, 1)
        assert smallest_irreducible(3, 2) == (1, 0, 1)

    def test_modulus_degree_mismatch(self):
        message = "modulus must be monic of degree 1, got [1, 0, 1]"
        with pytest.raises(ValueError, match=re.escape(message)):
            FieldSpec(5, 1, (1, 0, 1))

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError, match=re.escape("modulus [2, 0, 1] is reducible over F_3")):
            FieldSpec(3, 2, (2, 0, 1))  # x^2 + 2 = (x-1)(x+1) over F_3

    def test_square_of_linear_modulus_rejected(self):
        with pytest.raises(ValueError, match=re.escape("modulus [1, 2, 1] is reducible over F_3")):
            FieldSpec(3, 2, (1, 2, 1))  # (x + 1)^2, not squarefree

    @pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3),
                                     (7, 2), (7, 3), (11, 2), (13, 2)])
    def test_smallest_irreducible_is_first_single_simple_factor(self, p, k):
        # candidates in coefficient-tuple order (c_0, ..., c_{k-1}), c_0 first
        Fp = make_field(p)
        for lower in itertools.product(range(p), repeat=k):
            f = Poly(Fp, lower + (1,))
            if factor(f).factors == ((f, 1),):
                break
        assert smallest_irreducible(p, k) == lower + (1,)

    @pytest.mark.parametrize("spec", PINNED_MODULI)
    def test_default_modulus_is_pinned(self, spec):
        # every F_{p^k} index, so every output byte, depends on the modulus;
        # __wrapped__ searches again instead of reading the cache
        p, k = map(int, spec.split("^"))
        assert smallest_irreducible.__wrapped__(p, k) == PINNED_MODULI[spec]

    @pytest.mark.parametrize("text", ["3^2/(4,0,1)", "3^2/(-2,0,1)", "3^2/(1,0,4)"])
    def test_modulus_coefficients_are_not_reduced(self, text):
        # each would read as x^2 + 1 if its coefficients were taken mod 3
        with pytest.raises(ValueError):
            FieldSpec.parse(text)

    def test_not_prime(self):
        with pytest.raises(ValueError, match="^9 is not prime$"):
            make_field(9)

    def test_even_characteristic(self):
        with pytest.raises(ValueError, match="^characteristic 2 is not supported$"):
            make_field(2)

    def test_make_field_is_cached(self):
        assert make_field(7) is make_field(7)

    def test_a_field_name_is_checked_once(self, monkeypatch):
        # make_field's cache key and the constructor share one resolution
        checked, check = [], field._check_order
        monkeypatch.setattr(field, "_check_order", lambda p, k: checked.append((p, k)) or check(p, k))
        field._field_key.cache_clear()
        for build in (make_field, FieldSpec, make_field):
            assert build(5, 2, [2, 0, 1]) == build(5, 2, (2, 0, 1))
        assert checked.count((5, 2)) == 1

    def test_parse(self):
        assert FieldSpec.parse("7").q == 7
        assert FieldSpec.parse("3^2").q == 9
        assert FieldSpec.parse("3^2/(1,0,1)").modulus == (1, 0, 1)

    def test_pickle_roundtrip(self):
        g = pickle.loads(pickle.dumps(F9))
        assert g == F9 and g.q == 9
        # unpickling looks the field up in make_field's cache, tables and all
        assert g is make_field(*F9._key) and pickle.loads(pickle.dumps(g)) is g
        # one instance per field, however it is named: a default modulus is
        # resolved before the cache lookup
        assert g is F9 is FieldSpec.parse("3^2") is make_field(3, 2, (1, 0, 1))
        assert pickle.loads(pickle.dumps(FieldSpec.parse("3^2"))) is F9
        assert pickle.loads(pickle.dumps(F7)) is F7 is make_field(7, 1, (0, 1))
        f = Poly(F9, [2, 5, 0, 1])
        h = pickle.loads(pickle.dumps(f))
        assert h == f and h.field is g

    @pytest.mark.parametrize("text", ["7/(3,1)", "7/(0,1)", "7/(6,1)"])
    def test_prime_field_written_with_a_modulus_is_the_prime_field(self, text):
        # every monic linear modulus names F_7 itself: one instance, and
        # polynomials over the two names add
        F = FieldSpec.parse(text)
        assert F is F7 and F == F7 and str(F) == "7"
        assert Poly(F, [1, 2]) + Poly(F7, [3, 4]) == Poly(F7, [4, 6])

    @pytest.mark.parametrize("modulus", [(3, 1), (0, 1), [6, 1]])
    def test_constructor_reads_a_linear_modulus_as_the_prime_field(self, modulus):
        # built directly, uncached, but the same field as make_field's F_7
        F = FieldSpec(7, 1, modulus)
        assert F is not F7 and F == F7 and hash(F) == hash(F7)
        assert Poly(F, [1, 2]) + Poly(F7, [3, 4]) == Poly(F7, [4, 6])

    def test_modulus_given_as_a_list_is_keyed_as_its_tuple(self):
        assert make_field(3, 2, [1, 0, 1]) is F9
        assert make_field(7, 1, [3, 1]) is F7

    def test_prime_field_modulus_out_of_range_is_refused(self):
        with pytest.raises(ValueError):
            FieldSpec.parse("7/(9,1)")

    def test_prime_field_modulus_not_monic_is_refused(self):
        message = "modulus must be monic of degree 1, got [1, 2]"
        with pytest.raises(ValueError, match=re.escape(message)):
            FieldSpec.parse("7/(1,2)")


class TestArithmetic:
    def test_mul_f7(self):
        assert (el(F7, 3) * el(F7, 5)).idx == 1

    def test_mul_f9_generator_squares_to_minus_one(self):
        # t = residue of x; t^2 = -1 = 2 with modulus x^2 + 1
        t = FieldElement(F9, F9.index((0, 1)))
        assert (t * t) == F9.from_int(2)

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZero):
            el(F7, 1) / el(F7, 0)

    def test_pow_fermat(self):
        assert (el(F7, 3) ** 6).idx == 1

    def test_pow_direct(self):
        assert (el(F7, 3) ** 3).idx == 6

    def test_pow_zero_zero(self):
        assert (el(F7, 0) ** 0).idx == F7.one_idx

    def test_add_sub_neg(self):
        a, b = el(F7, 5), el(F7, 4)
        assert (a + b).idx == 2
        assert (a - b).idx == 1
        assert (-a).idx == 2

    def test_int_coercion(self):
        assert el(F7, 3) + 4 == F7.zero
        assert 2 * el(F7, 4) == el(F7, 1)

    def test_reflected_division(self):
        assert 2 / el(F7, 3) == el(F7, 3)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv],
                             ids=lambda op: op.__name__)
    def test_a_str_operand_is_refused_on_either_side(self, op):
        for left, right in [(el(F7, 1), "a"), ("a", el(F7, 1))]:
            with pytest.raises(TypeError):
                op(left, right)

    def test_order_leaves_an_operand_it_cannot_coerce_to_python(self):
        assert el(F7, 1) < 2 and not el(F7, 2) < 1
        with pytest.raises(TypeError, match="'FieldElement' and 'str'"):
            el(F7, 1) < "a"
        with pytest.raises(ValueError, match="different fields"):
            el(F7, 1) < el(F3, 2)


def _schoolbook_mul(F, a, b):
    """Coordinate product of two element indices, reduced by F's monic modulus."""
    p, k, mod = F.p, F.k, F.modulus
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(F.coords(a)):
        for j, y in enumerate(F.coords(b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        for j in range(k + 1):
            prod[top - k + j] = (prod[top - k + j] - c * mod[j]) % p
    return F.index(prod[:k])


@pytest.mark.parametrize("spec", ["3^2", "5^2", "3^3", "3^4", "3^2/(2,1,1)"])
def test_mul_matches_schoolbook_product(spec):
    F = FieldSpec.parse(spec)
    for a in range(F.q):
        for b in range(F.q):
            assert F.mul_i(a, b) == _schoolbook_mul(F, a, b), (spec, a, b)


@pytest.mark.parametrize("p", [3, 5, 31, 10007])
def test_prime_field_tables_match_powers_and_euler(p):
    # the smallest g whose powers reach every unit, g^i by pow, chi(x) by
    # Euler's criterion x^((p-1)/2) = +-1, and -x mod p
    F = FieldSpec(p)
    g = next(g for g in range(2, p) if len({pow(g, i, p) for i in range(p - 1)}) == p - 1)
    exp = [pow(g, i, p) for i in range(p - 1)]
    log = [0] * p
    for i, x in enumerate(exp):
        log[x] = i
    euler = [0] + [1 if pow(x, (p - 1) // 2, p) == 1 else -1 for x in range(1, p)]
    assert F._exp == exp and F._log == log
    assert F.signs == tuple(euler)
    assert F._neg == [-x % p for x in range(p)]


def _coordinate_add(F, a, b, sign=1):
    """a + sign*b, added coordinate by coordinate."""
    return F.index([(x + sign * y) % F.p for x, y in zip(F.coords(a), F.coords(b))])


@pytest.mark.parametrize("spec", ["3^2", "5^2", "3^3", "3^4", "3^2/(2,1,1)", "13^2"])
def test_zech_add_matches_coordinate_add(spec):
    F = FieldSpec.parse(spec)
    for a in range(F.q):
        for b in range(F.q):
            assert F.add_i(a, b) == _coordinate_add(F, a, b), (spec, a, b)
            assert F.sub_i(a, b) == _coordinate_add(F, a, b, -1), (spec, a, b)


class TestCharacter:
    def test_chi_zero(self):
        assert F7.chi_i(0) == 0

    def test_chi_f7(self):
        # nonzero squares mod 7 are {1, 2, 4}
        assert [F7.chi_i(i) for i in range(7)] == [0, 1, 1, -1, 1, -1, -1]

    def test_chi_f9_of_t(self):
        t = FieldElement(F9, F9.index((1, 0)))
        assert t.chi() == 1  # t^4 = (t^2)^2 = 1

    def test_sign_list_is_read_only(self):
        assert F7.signs == (0, 1, 1, -1, 1, -1, -1)
        assert F9.signs == tuple(F9.chi_i(a) for a in range(9))
        with pytest.raises(AttributeError):
            F7.signs = ()

    def test_chi_multiplicative(self):
        for a in range(1, 7):
            for b in range(1, 7):
                assert F7.chi_i(F7.mul_i(a, b)) == F7.chi_i(a) * F7.chi_i(b)


def test_equal_values_hash_equal():
    # an element equals no int: 3 and 10 name one element of F_7 but hash apart
    fields = [F7, F9, FieldSpec.parse("3^2/(2,1,1)")]
    values = [e for F in fields for e in F.elements()] + list(range(-3, 12))
    values += [Poly(F, c) for F in fields for c in ([], [1], [3], [0, 1], [2, 0, 1])]
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)
    assert make_field(7).from_int(3) != 3 and 3 not in {make_field(7).from_int(3)}


class TestRepr:
    def test_element_repr(self):
        # a prime-field element shows its residue, an extension one its coordinates
        assert repr(el(F7, 3)) == "3"
        assert repr(el(F9, 5)) == "(1, 2)" and repr(el(F9, 0)) == "(0, 0)"

    def test_field_repr(self):
        assert repr(F7) == "FieldSpec(p=7, k=1, modulus=[0, 1])"
        assert repr(F9) == "FieldSpec(p=3, k=2, modulus=[1, 0, 1])"
        assert str(F7) == "7" and str(make_field(3, 2)) == "3^2"

    def test_poly_repr(self):
        assert repr(Poly(F7, [1, 0, 3])) == "Poly(7; 1,0,3)"
        assert repr(Poly(F9, [5, 0, 3])) == "Poly(3^2; 5,0,3)"
        assert repr(Poly.zero(F9)) == "Poly(3^2; 0)"


class TestElements:
    def test_f3_stream(self):
        assert [e.idx for e in F3.elements()] == [0, 1, 2]

    def test_f9_stream(self):
        es = list(F9.elements())
        assert len(es) == 9 and len(set(es)) == 9 and es[0].is_zero()

    def test_f7_no_repeats(self):
        es = list(F7.elements())
        assert len(es) == 7 and len(set(es)) == 7


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: FieldSpec.parse("3^0"), ValueError, "extension degree must be >= 1"),
        (lambda: F7.inv_i(0), DivisionByZero, "inverse of zero"),
        (lambda: 1 / el(F7, 0), DivisionByZero, "division by zero"),
        (lambda: F7.div_i(1, 0), DivisionByZero, "division by zero"),
        (lambda: F7.pow_i(3, -1), ValueError, "negative exponent"),
        (lambda: FieldSpec.parse("3^2/1,0,1"), ValueError, "bad modulus syntax"),
        (lambda: el(F7, 1) + el(F3, 1), ValueError, "elements belong to different fields"),
    ],
    ids=["degree-0", "inverse-of-0", "int-over-0", "div-by-0", "negative-exponent",
         "modulus-without-parens", "mixed-fields"],
)
def test_refuses_invalid_input(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class FieldWorkBegan(Exception):
    pass


def _stop_field_work(monkeypatch):
    """Make the modulus search and the table build raise FieldWorkBegan."""
    def began(*args):
        raise FieldWorkBegan

    monkeypatch.setattr("orbitsquares.field.smallest_irreducible", began)
    monkeypatch.setattr(FieldSpec, "_build_tables", began)


@pytest.mark.parametrize("text", ["1000000007", "3^40", "3^100000000", "2000003", "3^14"])
def test_field_too_large_to_tabulate_is_refused(text, monkeypatch, capsys):
    # refused before is_prime, the modulus search, any table or p^k itself
    _stop_field_work(monkeypatch)
    p, _, k = text.partition("^")
    for call in (lambda: FieldSpec.parse(text), lambda: FieldSpec(int(p), int(k or 1))):
        with pytest.raises(ValueError, match="MAX_FIELD_ORDER"):
            call()
    assert main(["classify", "--field", text, "--poly", "0,0,1"]) == 1
    assert "error: field" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("0^2", "0 is not prime"), ("0^3", "0 is not prime"), ("1^2", "1 is not prime"),
    ("9^2", "9 is not prime"), ("2^3", "characteristic 2 is not supported"),
])
def test_invalid_characteristic_is_refused_before_the_modulus_search(text, message, monkeypatch,
                                                                     capsys):
    # a p = 0 search finds no irreducible at all, and 9^2 or 2^3 would be
    # refused only inside the search, by its make_field(p)
    _stop_field_work(monkeypatch)
    p, k = map(int, text.split("^"))
    for call in (lambda: FieldSpec.parse(text), lambda: make_field(p, k)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
    assert main(["classify", "--field", text, "--poly", "1,0,1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text", ["100000000000031^0", "9^0", "0^0", "2^0"])
def test_degree_0_is_refused_before_p_is_trial_divided(text, monkeypatch, capsys):
    # a 20-digit p would take hours to trial-divide; 9^0 is refused for its
    # degree, not for 9
    def trial_division(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr("orbitsquares.field.prime_factors", trial_division)
    _stop_field_work(monkeypatch)
    p = int(text.split("^")[0])
    for call in (lambda: FieldSpec.parse(text), lambda: make_field(p, 0)):
        with pytest.raises(ValueError, match="^extension degree must be >= 1$"):
            call()
    assert main(["classify", "--field", text, "--poly", "1,0,1"]) == 1
    assert capsys.readouterr().err == "error: extension degree must be >= 1\n"


@pytest.mark.parametrize("p,k", [(1999993, 1), (3, 13)])
def test_largest_tabulated_fields_are_accepted(p, k, monkeypatch):
    # the largest prime and power of 3 at most MAX_FIELD_ORDER reach the field
    # work, which is stopped there, before any table is built
    assert p**k <= MAX_FIELD_ORDER
    _stop_field_work(monkeypatch)
    for call in (lambda: make_field(p, k), lambda: FieldSpec(p, k)):
        with pytest.raises(FieldWorkBegan):
            call()


class TestPowerWithin:
    @pytest.mark.parametrize("base", [0, 1])
    def test_bases_below_two_pass_at_any_exponent(self, base):
        assert all(power_within(base, exp, 4096) for exp in (0, 1, 13, 10**9))

    @pytest.mark.parametrize("base, exp, within", [
        (2, 12, True), (4096, 1, True), (2, 13, False), (4097, 1, False),
    ])
    def test_the_cap_is_inclusive(self, base, exp, within):
        assert power_within(base, exp, 4096) == within

    def test_a_huge_exponent_is_refused_without_its_power(self):
        class Exponent(int):
            """An exponent whose power base ** exp fails the test."""

            def __rpow__(self, base):
                pytest.fail(f"computed {base} ** {int(self)}")

        assert not power_within(2, Exponent(10**7), 4096)
        assert not power_within(3, Exponent(13), 4096)  # 13 is 4096's bit length


@settings(max_examples=60)
@given(a=st.integers(0, 8), b=st.integers(0, 8), c=st.integers(0, 8))
def test_f9_ring_axioms(a, b, c):
    x, y, z = el(F9, a), el(F9, b), el(F9, c)
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x + y == y + x and x * y == y * x


@settings(max_examples=30)
@given(a=st.integers(1, 8))
def test_f9_inverse(a):
    x = el(F9, a)
    assert x * x.inverse() == F9.one
    assert (F9.one / x) == x.inverse()
