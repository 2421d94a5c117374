"""Exceptional-shape classification, family generation, oracles, conjugacy."""

import json
import pickle
import random
import re
import sys
from collections import Counter

import pytest

import orbitsquares.classify
import orbitsquares.fpoly
from orbitsquares.bounds import weil_check
from orbitsquares.classify import (
    NOT_ORDINARY,
    NOT_TWO_ORDINARY,
    ORDINARY,
    TWO_ORDINARY,
    ClassificationReport,
    ConjugacyWitness,
    FormMatch,
    OracleResult,
    _open_levels,
    are_conjugate,
    chebyshev,
    chebyshev_conjugacy,
    classify_2_ordinary,
    generate_family,
    hn_sequence,
    oracle_2_ordinary,
    oracle_ordinary,
)
from orbitsquares.dynamics import forward_orbit
from orbitsquares.errors import DegreeBudgetExceeded
from orbitsquares.field import FieldElement, FieldSpec, make_field
from orbitsquares.fpoly import (
    DEFAULT_DEGREE_BUDGET,
    Poly,
    _squarefree_decomposition,
    check_degree_budget,
    factor,
    is_constant_times_square,
)
from orbitsquares.scan import enumerate_polys

F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)


def P(field, *ints):
    return Poly.from_ints(field, ints)


def el(field, idx):
    return FieldElement(field, idx)


class TestClassify2Ordinary:
    def test_form_a_cube(self):
        rep = classify_2_ordinary(P(F3, 2, 0, 0, 1))  # (x - 1)^3
        assert rep.verdict == NOT_TWO_ORDINARY and rep.matched("a")
        m = next(m for m in rep.matched_forms if m.form == "a")
        assert m.witness["A"] == F3.one
        assert m.witness["B"] == F3.one
        assert m.witness["e"] == 1

    def test_form_a_x3_plus_1(self):
        rep = classify_2_ordinary(P(F3, 1, 0, 0, 1))  # (x + 1)^3
        assert rep.matched("a")

    def test_form_b_square(self):
        rep = classify_2_ordinary(P(F7, 0, 0, 1))
        assert rep.verdict == NOT_TWO_ORDINARY and rep.matched("b")
        m = next(m for m in rep.matched_forms if m.form == "b")
        assert m.witness["g"] == Poly.x(F7)

    def test_form_c_x_times_square(self):
        f = Poly.constant(el(F7, 3)) * Poly.x(F7) * P(F7, 1, 0, 1) ** 2
        rep = classify_2_ordinary(f)
        assert rep.matched("c")
        m = next(m for m in rep.matched_forms if m.form == "c")
        assert Poly.constant(m.witness["A"]) * Poly.x(F7) * m.witness["g"] ** 2 == f

    def test_form_d_pinned_example(self):
        rep = classify_2_ordinary(P(F7, 0, 4, 5))  # -2x^2 + 4x
        assert rep.verdict == NOT_TWO_ORDINARY and rep.matched("d")
        m = next(m for m in rep.matched_forms if m.form == "d")
        assert m.witness["A"] == el(F7, 5) and m.witness["B"] == el(F7, 2)
        assert m.witness["h"] == P(F7, 6, 1)

    def test_two_ordinary(self):
        rep = classify_2_ordinary(P(F7, 1, 0, 1))
        assert rep.verdict == TWO_ORDINARY and not rep.matched_forms

    def test_witness_soundness_exhaustive_f5(self):
        for f in enumerate_polys(F5, 2, "all"):
            rep = classify_2_ordinary(f)
            for m in rep.matched_forms:
                w = m.witness
                if m.form == "a":
                    lin = Poly.from_elements(F5, [-w["B"], F5.one])
                    assert Poly.constant(w["A"]) * lin ** f.degree == f
                elif m.form == "b":
                    assert Poly.constant(w["A"]) * w["g"] ** 2 == f
                elif m.form == "d":
                    assert Poly.constant(w["A"]) * w["h"] ** 2 \
                        + Poly.constant(w["B"]) == f

    def test_odd_degree_witness_soundness_f3(self):
        for f in enumerate_polys(F3, 3, "all"):
            rep = classify_2_ordinary(f)
            for m in rep.matched_forms:
                w = m.witness
                if m.form == "c":
                    assert Poly.constant(w["A"]) * Poly.x(F3) * w["g"] ** 2 == f
                elif m.form == "e":
                    lin = Poly.from_elements(F3, [-w["B"], F3.one])
                    assert Poly.constant(w["A"]) * lin * w["g"] ** 2 == f


class TestDerivedVerdicts:
    """A report holds only its matched shapes; the verdicts are read from them."""

    def test_no_shape_is_two_ordinary_and_ordinary(self):
        rep = ClassificationReport(())
        assert (rep.verdict, rep.ordinary_verdict, rep.ordinary_witness) == \
            (TWO_ORDINARY, ORDINARY, None)

    def test_shape_b_alone_is_ordinary(self):
        rep = classify_2_ordinary(P(F7, 0, 0, 1))  # x^2
        assert [m.form for m in rep.matched_forms] == ["b"]
        assert (rep.verdict, rep.ordinary_verdict, rep.ordinary_witness) == \
            (NOT_TWO_ORDINARY, ORDINARY, None)

    def test_shape_a_is_not_ordinary_with_its_witness(self):
        rep = classify_2_ordinary(P(F3, 0, 0, 0, 1))  # x^3: (a) with B = 0, and (c) as x 1^2
        assert [m.form for m in rep.matched_forms] == ["a", "c"]
        assert rep.verdict == NOT_TWO_ORDINARY and rep.ordinary_verdict == NOT_ORDINARY
        assert rep.ordinary_witness == rep.matched_forms[0].witness == \
            {"A": F3.one, "B": F3.zero, "e": 1}

    def test_witnesses_are_read_only(self):
        rep = classify_2_ordinary(P(F3, 0, 0, 0, 1))  # x^3: (a) and (c)
        before = json.dumps(rep.to_json())
        with pytest.raises(TypeError):
            rep.ordinary_witness["e"] = 99
        with pytest.raises(TypeError):
            rep.matched_forms[1].witness["g"] = P(F3, 1, 1)
        assert json.dumps(rep.to_json()) == before
        assert json.dumps(pickle.loads(pickle.dumps(rep)).to_json()) == before


def ordinary(f: Poly):
    """The ordinary verdict and witness of f's classification report."""
    rep = classify_2_ordinary(f)
    return rep.ordinary_verdict, rep.ordinary_witness


class TestClassifyOrdinary:
    def test_linear_power_char_p(self):
        v, w = ordinary(P(F3, 2) * P(F3, -3 % 3, 1) ** 9)  # 2(x-3)^9 = 2x^9
        assert v == NOT_ORDINARY and w["e"] == 2

    def test_degree_not_p_power(self):
        v, _ = ordinary(P(F7, 0, 0, 0, 1))  # x^3, 3 not a power of 7
        assert v == ORDINARY

    def test_squarefree(self):
        v, _ = ordinary(P(F3, 1, 0, 1))
        assert v == ORDINARY


@pytest.mark.parametrize(
    "spec, d",
    [("5", 2), ("7", 2), ("5", 3), ("7", 3), ("3", 3), ("3", 4), ("3^2", 2)],
    ids=["F5-quadratics", "F7-quadratics", "F5-cubics", "F7-cubics", "F3-cubics",
         "F3-quartics", "F9-quadratics"],
)
def test_ordinary_verdicts_disagree_only_on_monomials(spec, d):
    """The classifier's ordinary verdict and oracle_ordinary agree on every
    polynomial of the cell, every leading coefficient, except the q - 1
    monomials A x^d when d is not a power of p: the classifier reads them as
    Ordinary (they are not shape (a)), while the oracle certifies level 1,
    as f(0) = 0 and x divides f with multiplicity d.  Which verdict is right
    is open until the paper's definition of "ordinary" is at hand; this pins
    the disagreement, and neither verdict is changed to fit the other."""
    F = FieldSpec.parse(spec)
    q = F.q
    depth = max(n for n in range(q + 1) if d**n <= DEFAULT_DEGREE_BUDGET)
    disagree = []
    for f in enumerate_polys(F, d, "all"):
        oracle = oracle_ordinary(f, depth)
        if (classify_2_ordinary(f).ordinary_verdict == NOT_ORDINARY) != oracle.certified_not:
            assert ordinary(f)[0] == ORDINARY and oracle.level == 1, str(f)
            disagree.append(f.coeffs)
    monomials = [(0,) * d + (A,) for A in range(1, q)]
    assert disagree == ([] if d in {F.p**e for e in range(d)} else monomials)


# --- a factorization-based reference -----------------------------------------
#
# The shapes used to be read off complete factorizations: f's multiplicities
# for (a), (b), (c), (e) and is_constant_times_square, and one factorization of
# f - B per nonzero B for (d).  That logic is kept here as the reference the
# coefficient tests in classify/fpoly must agree with.


def _ref_root(fac, odd=None):
    """Monic h with monic(f) == h^2, or == odd * h^2 with odd's multiplicity odd."""
    h = Poly.one(fac.unit.field)
    for g, m in fac.factors:
        if m % 2 != (g == odd):
            return None
        h = h * g ** (m // 2)
    return h if odd is None or any(g == odd for g, _ in fac.factors) else None


def _ref_form_a(fac):
    if len(fac.factors) != 1:
        return None
    g, m = fac.factors[0]
    p = fac.unit.field.p
    e = next((e for e in range(1, m.bit_length() + 1) if p**e == m), None)
    if g.degree != 1 or e is None:
        return None
    return {"A": fac.unit, "B": -g.coefficient(0), "e": e}


def _ref_classify_2(f, fac):
    F, d = f.field, f.degree
    matches = []
    ordinary_verdict, ordinary_witness = ORDINARY, None
    witness = _ref_form_a(fac)
    if witness is not None:
        matches.append(FormMatch("a", witness))
        ordinary_verdict, ordinary_witness = NOT_ORDINARY, dict(witness)
    if d % 2 == 0:
        h = _ref_root(fac)
        if h is not None:
            matches.append(FormMatch("b", {"A": fac.unit, "g": h}))
        if f.coefficient(0).is_zero():
            for B in F.elements():
                if B.is_zero():
                    continue
                hfac = factor(f - Poly.constant(B))
                hroot = _ref_root(hfac)
                if hroot is None or hfac.unit * hroot.coefficient(0) ** 2 != -B:
                    continue
                if generate_family(B, d) == f:
                    matches.append(FormMatch("d", {"A": hfac.unit, "B": B, "h": hroot}))
    else:
        g = _ref_root(fac, odd=Poly.x(F))
        if g is not None:
            matches.append(FormMatch("c", {"A": fac.unit, "g": g}))
        B = f.coefficient(0)
        if not B.is_zero() and f.evaluate(B).is_zero():
            g = _ref_root(fac, odd=Poly.from_elements(F, [-B, F.one]))
            if (
                g is not None
                and fac.unit * g.coefficient(0) ** 2 == F.from_int(-1)
                and generate_family(B, d) == f
            ):
                matches.append(FormMatch("e", {"A": fac.unit, "B": B, "g": g}))
    report = ClassificationReport(tuple(matches))
    # the report reads its verdicts from the shapes; they must agree with the
    # bookkeeping kept here
    assert report.verdict == (NOT_TWO_ORDINARY if matches else TWO_ORDINARY)
    assert report.ordinary_verdict == ordinary_verdict
    assert report.ordinary_witness == ordinary_witness
    return report


def _ref_constant_times_square(f, fac):
    """The monic h with f == unit * h^2, else None."""
    return _ref_root(fac) if f.degree % 2 == 0 else None


DIFFERENTIAL_CELLS = [
    ("3", 3), ("3", 4), ("3", 5), ("5", 2), ("5", 3), ("5", 4), ("7", 2), ("7", 3),
    ("3^2", 2), ("3^2", 3), ("3^2/(2,1,1)", 3),
]


@pytest.mark.parametrize("field,degree", DIFFERENTIAL_CELLS)
def test_coefficient_shapes_match_factorization_reference(field, degree):
    F = FieldSpec.parse(field)
    for f in enumerate_polys(F, degree, "all"):
        fac = factor(f)
        expected = _ref_classify_2(f, fac)
        assert classify_2_ordinary(f).to_json() == expected.to_json(), f
        assert is_constant_times_square(f) == (_ref_constant_times_square(f, fac) is not None), f


def record_calls(monkeypatch, *functions) -> list[str]:
    """Wrap each function under every name that a package module or Poly
    binds it to; the returned list gets the function's name at each call."""
    calls = []
    holders = [m for n, m in list(sys.modules.items())
               if n == "orbitsquares" or n.startswith("orbitsquares.")] + [Poly]
    for fn in functions:
        def wrapper(*args, fn=fn, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is fn:
                    monkeypatch.setattr(holder, name, wrapper)
    return calls


def test_shape_decisions_never_factor(monkeypatch):
    calls = record_calls(monkeypatch, factor)
    seen = set()
    for field, degree in [("3", 3), ("3", 5), ("7", 2), ("5", 4), ("3^2", 3)]:
        for f in enumerate_polys(FieldSpec.parse(field), degree, "all"):
            seen.update(m.form for m in classify_2_ordinary(f).matched_forms)
            is_constant_times_square(f)
            weil_check(f)
    assert calls == [] and seen == {"a", "b", "c", "d", "e"}


def test_classification_takes_at_most_one_square_root_part(monkeypatch):
    calls = record_calls(monkeypatch, orbitsquares.fpoly.sqrt_part)
    for field, degree in [("3", 3), ("7", 2), ("5", 4), ("3^2", 3)]:
        for f in enumerate_polys(FieldSpec.parse(field), degree, "all"):
            calls.clear()
            classify_2_ordinary(f)
            assert len(calls) <= 1, f


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_classify_ordinary_recovers_every_linear_power(p, k):
    # B comes back through the inverse Frobenius; (-e) mod k is 0 for F_9 at
    # e = 2 and nonzero for F_9 at e = 1 and F_27 at e = 1, 2
    F = make_field(p, k)
    for e in range(1, 3):
        if p**e > 9:
            break
        for A in F.elements():
            if A.is_zero():
                continue
            for B in F.elements():
                f = Poly.constant(A) * Poly.from_elements(F, [-B, F.one]) ** (p**e)
                assert ordinary(f) == (NOT_ORDINARY, {"A": A, "B": B, "e": e})


class TestHnSequence:
    def test_b_zero(self):
        hs = hn_sequence(el(F3, 1), F3.zero, 2)
        assert hs.repeat == (0, 1)
        assert all(v.is_zero() for v in hs.values)

    def test_pinned_f3_degree3(self):
        hs = hn_sequence(F3.one, F3.one, 3)
        assert hs.repeat == (0, 3)
        assert [v.idx for v in hs.values] == [2, 1, 0]

    def test_pigeonhole(self):
        for Ai in range(1, 5):
            for Bi in range(5):
                hs = hn_sequence(el(F5, Ai), el(F5, Bi), 2)
                assert hs.repeat[1] <= F5.q

    @pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2), (5, 2)])
    def test_repeat_is_the_root_chain_level(self, p, k):
        # f = A(x-b)^(p^e) is g = A x^d - A b^d; walk f's root chain
        # C_0 = 0, f(C_n) = C_(n-1) through the inverse of its value table
        F = make_field(p, k)
        checked = 0
        for e in range(1, 3):
            d = p**e
            if d > 9:
                break
            for A in F.elements():
                if A.is_zero():
                    continue
                for b in F.elements():
                    f = Poly.constant(A) * Poly.from_elements(F, [-b, F.one]) ** d
                    inverse = {f.eval_i(x): x for x in range(F.q)}
                    chain = [0]
                    while (r := inverse[chain[-1]]) not in chain:
                        chain.append(r)
                    hs = hn_sequence(A, A * b**d, d)
                    assert hs.repeat == (chain.index(r), len(chain)), (str(f), hs.repeat)
                    chain.append(r)
                    for n, H in enumerate(hs.values):  # C_(n+1)^(d^(n+1)) = -H_n
                        assert el(F, chain[n + 1]) ** (d ** (n + 1)) == -H, (str(f), n)
                    checked += 1
        assert checked == (F.q - 1) * F.q * (2 if p == 3 else 1)

    def test_extension_degree_must_be_a_power_of_p(self):
        F9 = make_field(3, 2)
        with pytest.raises(ValueError):
            hn_sequence(F9.one, F9.one, 2)
        with pytest.raises(ValueError):
            hn_sequence(F5.one, F5.one, 0)
        assert hn_sequence(F9.one, F9.one, 9).repeat[1] <= F9.q


def _recurrence_member(A, B, sign, d):
    """The (d) member A h^2 + B (even d) or (e) member A(x - B) g^2 (odd d)
    whose monic root's coefficients a_0..a_n, n = d // 2, follow the
    recurrence i(2i-1) B a_i = c a_(i-1) from a_0 = sign * sqrt(-B/A) (d) or
    sign * sqrt(-1/A) (e), with c = -2(n+i-1)(n-i+1) (d) or -2(n-i+1)(n+i) (e);
    None where that root does not exist or some i(2i-1) B vanishes."""
    F = B.field
    even, n = d % 2 == 0, d // 2
    seed_sq = -B / A if even else -F.one / A
    if seed_sq.chi() == -1:
        return None
    root = next(r for r in F.elements() if r * r == seed_sq)  # the smallest-index root
    a = [root if sign == 1 else -root]
    for i in range(1, n + 1):
        div = F.from_int(i * (2 * i - 1)) * B
        if div.is_zero():
            return None
        c = -2 * (n - i + 1) * (n + i - 1 if even else n + i)
        a.append(F.from_int(c) * a[i - 1] / div)
    core = Poly.from_elements(F, a)
    if even:
        return core * core * Poly.constant(A) + Poly.constant(B)
    return Poly.constant(A) * Poly.from_elements(F, [-B, F.one]) * core * core


class TestGenerateFamily:
    def test_pinned_even_family(self):
        f = generate_family(el(F7, 2), 2)
        assert f == P(F7, 0, 4, 5)
        assert classify_2_ordinary(f).matched("d")

    @pytest.mark.parametrize(
        "field, degrees",
        [(F7, range(2, 8)), (make_field(3, 2), (2, 3)), (make_field(11), range(2, 10))],
        ids=["F7", "F9", "F11"],
    )
    def test_equals_the_recurrence_wherever_it_is_defined(self, field, degrees):
        # A and the root's sign never change the recurrence's member: only B does
        nonzero = [a for a in field.elements() if not a.is_zero()]
        defined = 0
        for d in degrees:
            for B in nonzero:
                f = generate_family(B, d)
                for A in nonzero:
                    for sign in (1, -1):
                        g = _recurrence_member(A, B, sign, d)
                        if g is not None:
                            assert g == f, (d, A.idx, B.idx, sign)
                            defined += 1
        assert defined

    def test_odd_family_constant_term_is_B(self):
        for Bi in range(1, 7):
            f = generate_family(el(F7, Bi), 3)
            assert f.coefficient(0) == el(F7, Bi)
            assert f.evaluate(el(F7, Bi)).is_zero()
            assert classify_2_ordinary(f).matched("e")

    def test_even_family_ode(self):
        # 2n^2 h = (2x - B) h' + 2x(x - B) h''
        f = generate_family(el(F7, 2), 6)
        rep = classify_2_ordinary(f)
        h = next(m for m in rep.matched_forms if m.form == "d").witness["h"]
        n = 3
        B = el(F7, 2)
        x = Poly.x(F7)
        lhs = Poly.constant(F7.from_int(2 * n * n)) * h
        two_x_x_minus_B = Poly.constant(F7.from_int(2)) * x * (x - Poly.constant(B))
        rhs = (P(F7, 0, 2) - Poly.constant(B)) * h.derivative() \
            + two_x_x_minus_B * h.derivative().derivative()
        assert lhs == rhs

    def test_odd_family_ode(self):
        # ((2n+1)^2 - 1) g = (8x - 2B) g' + (4x^2 - 4Bx) g''
        f = generate_family(el(F7, 1), 5)
        rep = classify_2_ordinary(f)
        g = next(m for m in rep.matched_forms if m.form == "e").witness["g"]
        n = 2
        B = el(F7, 1)
        x = Poly.x(F7)
        lhs = Poly.constant(F7.from_int((2 * n + 1) ** 2 - 1)) * g
        rhs = (Poly.constant(F7.from_int(8)) * x - Poly.constant(F7.from_int(2) * B)) \
            * g.derivative() \
            + (Poly.constant(F7.from_int(4)) * x * x
               - Poly.constant(F7.from_int(4) * B) * x) \
            * g.derivative().derivative()
        assert lhs == rhs


CENSUS_CELLS = [("3", 4, "all"), ("3", 5, "all"), ("3", 6, "all"), ("5", 4, "all"),
                ("7", 3, "all"), ("3^2", 3, "all"), ("3^2", 4, "monic")]


@pytest.mark.parametrize("field,degree,kind", CENSUS_CELLS)
def test_recognised_family_members_are_the_generated_ones(field, degree, kind):
    # the (d)/(e) set of a cell is S_d, one member per B != 0, also where
    # p <= 2n - 1 (the F_3 cells and F_9 quartics)
    F = FieldSpec.parse(field)
    recognised = {
        f: m.witness["B"]
        for f in enumerate_polys(F, degree, kind)
        for m in classify_2_ordinary(f).matched_forms
        if m.form in "de"
    }
    generated = {generate_family(B, degree): B for B in F.elements() if not B.is_zero()}
    if kind == "monic":
        generated = {f: B for f, B in generated.items() if f.leading() == F.one}
    assert recognised == generated


# --- the oracle's slow definition, as a reference --------------------------

def iterate_factor_levels(f: Poly, depth: int, budget: int = DEFAULT_DEGREE_BUDGET):
    """Yield (n, {irreducible -> multiplicity}) for f^n, n = 1..depth.

    The factors of f^n are the factors of g(f(x)) over the irreducible
    factors g of f^(n-1), from f^0 = x."""
    d = f.degree
    level = {Poly.x(f.field): 1}
    for n in range(1, depth + 1):
        check_degree_budget(d, n, budget)
        nxt: dict[Poly, int] = {}
        for g, m in level.items():
            for h, e in factor(g.compose(f)).factors:
                nxt[h] = nxt.get(h, 0) + m * e
        level = nxt
        yield n, level


def reference_oracles(f: Poly, depth: int) -> tuple[OracleResult, OracleResult]:
    """The 2-ordinary and ordinary verdicts from one walk of f's levels.

    Each is the first level n <= depth at which f^n has no irreducible
    factor (of odd multiplicity, for the 2-ordinary one) that divides none
    of x, f, ..., f^(n-1).  A level that certifies the ordinary verdict
    certifies the 2-ordinary one too, so the walk stops there."""
    seen = {Poly.x(f.field)}
    first = {True: None, False: None}  # need_odd -> first certifying level
    for n, level in iterate_factor_levels(f, depth):
        for need_odd, found in first.items():
            if found is None and all(g in seen or need_odd and m % 2 == 0 for g, m in level.items()):
                first[need_odd] = n
        if first[False] is not None:
            break
        seen.update(level)
    return tuple(OracleResult(certified_not=n is not None, level=n, depth=depth)
                 for n in first.values())


def exact_certified_levels(
    f: Poly, depth: int, need_odd: bool, budget: int = DEFAULT_DEGREE_BUDGET
):
    """Yield each level n <= depth that certifies, by the oracle's level loop
    alone, with no level ruled out by f's values first; it meets the degree
    budget at each level before building it."""
    x = Poly.x(f.field)
    a, r = f.field.zero, None
    for n in range(1, depth + 1):
        a = f.evaluate(a)
        if a.is_zero():
            r = n
            break
    level = [(x, 1, False)]
    for n in range(1, depth + 1):
        check_degree_budget(f.degree, n, budget)
        level = [(h, m * e, old) for g, m, old in level
                 for h, e in _squarefree_decomposition(g.compose(f).monic(), f)]
        if n == r:
            i = next(i for i, (h, _, _) in enumerate(level) if h.coefficient(0).is_zero())
            h, m, _ = level[i]
            level[i:i + 1] = [(x, m, True)] + ([(h // x, m, False)] if h.degree > 1 else [])
        if all(old or need_odd and m % 2 == 0 for _, m, old in level):
            yield n


def exact_oracle(
    f: Poly, depth: int, need_odd: bool, budget: int = DEFAULT_DEGREE_BUDGET
) -> OracleResult:
    """The verdict of the level loop alone: its first certifying level."""
    n = next(exact_certified_levels(f, depth, need_odd, budget), None)
    return OracleResult(certified_not=n is not None, level=n, depth=depth)


class TestOracles:
    def test_square_certified_immediately(self):
        assert str(oracle_2_ordinary(P(F7, 0, 0, 1), 4)) == "CertifiedNot(1)"

    def test_generic_consistent(self):
        assert str(oracle_2_ordinary(P(F7, 1, 0, 1), 4)) == "ConsistentUpTo(4)"
        # depth 0 checks no level (a negative depth is refused)
        for oracle in (oracle_2_ordinary, oracle_ordinary):
            assert str(oracle(P(F7, 1, 0, 1), 0)) == "ConsistentUpTo(0)"

    def test_form_d_certified(self):
        res = oracle_2_ordinary(P(F7, 0, 4, 5), 4)
        assert res.certified_not and res.level <= 4

    def test_power_map_ordinary(self):
        res = oracle_ordinary(P(F7, 0, 0, 0, 0, 0, 0, 0, 1), 4, budget=7**5)  # x^7
        assert res.certified_not

    def test_ordinary_consistent(self):
        assert not oracle_ordinary(P(F3, 1, 0, 1), 4).certified_not

    def test_first_level_is_the_factorization_of_f(self):
        # level 1 is factor(x o f) from f^0 = x, which is factor(f) itself
        for f in list(enumerate_polys(F5, 3, "monic")) + [P(F5, 1, 2, 0, 3), P(F5, 0, 0, 4)]:
            assert next(iterate_factor_levels(f, 1)) == (1, dict(factor(f).factors))

    def test_oracle_work_does_not_depend_on_seed(self, monkeypatch):
        # the oracle decides from squarefree decompositions: it calls neither
        # factor nor pow_mod, so no seed can reach its work
        calls = record_calls(monkeypatch, factor, Poly.pow_mod)
        cubics = [P(F5, *c, 1) for c in [(1, 0, 0), (2, 1, 0), (3, 0, 1), (4, 2, 3), (1, 1, 1)]]
        runs = [[str(oracle_2_ordinary(f, 4, seed=seed)) for f in cubics] for seed in (0, 99)]
        assert calls == [] and runs[0] == runs[1]
        orbitsquares.fpoly.factor(cubics[3])  # the wrappers do see both
        assert {"factor", "pow_mod"} <= set(calls)

    def test_the_ordinary_oracle_builds_no_level(self, monkeypatch):
        # its open levels are exactly those where N_n is constant, so it
        # certifies at the first of them from f's values alone
        calls = record_calls(monkeypatch, orbitsquares.fpoly._squarefree_decomposition)
        verdicts = [str(oracle_ordinary(f, 4)) for f in enumerate_polys(F3, 3, "all")]
        assert calls == [] and len(verdicts) == 54
        assert sum(v.startswith("CertifiedNot") for v in verdicts) == 6

    def test_a_squarefree_input_costs_one_gcd(self, monkeypatch):
        # a guard by count, not by time: Yun's loop divided a squarefree
        # input by 1 three times (f // 1, gcd(w, 1), w // 1), 4,744 _divmod
        # calls in this pass; building every level to depth 4, with none
        # ruled out by f's values, ran 663 decompositions and 2,440 _divmod;
        # decomposing the descendants of x past the period of 0, which are
        # no part of N_n, ran 84 more and 363 _divmod; keeping the pieces of
        # even multiplicity, which decide no later level, ran 40 more and 154
        fpoly = orbitsquares.fpoly
        gcd, divmod_, decompose = fpoly.gcd, fpoly._divmod, fpoly._squarefree_decomposition
        calls, in_gcd, squarefree_costs = Counter(), [False], Counter()

        def counted_gcd(f, g):
            calls["gcd"] += 1
            outer, in_gcd[0] = in_gcd[0], True
            try:
                return gcd(f, g)
            finally:
                in_gcd[0] = outer

        def counted_divmod(F, a, b):
            calls["_divmod"] += 1
            calls["_divmod outside gcd"] += not in_gcd[0]
            return divmod_(F, a, b)

        def counted_decompose(f, inner=None):
            calls["decompose"] += 1
            before = calls.copy()
            out = decompose(f, inner)
            if out == [(f, 1)]:
                spent = calls - before
                squarefree_costs[spent["gcd"], spent["_divmod outside gcd"]] += 1
            return out

        monkeypatch.setattr(fpoly, "gcd", counted_gcd)
        monkeypatch.setattr(fpoly, "_divmod", counted_divmod)
        monkeypatch.setattr(fpoly, "_squarefree_decomposition", counted_decompose)
        monkeypatch.setattr(orbitsquares.classify, "_squarefree_decomposition", counted_decompose)
        cubics = list(enumerate_polys(F5, 3, "monic"))
        assert len(cubics) == 125
        for f in cubics:
            oracle_2_ordinary(f, 4)
        assert squarefree_costs == {(1, 0): 200}
        assert calls["decompose"] <= 239
        assert calls["_divmod"] <= 938

    def test_a_linear_f_costs_at_most_its_field(self, monkeypatch):
        # 2x + 1 permutes F_5 and 0 has period 4, where both oracles certify;
        # no level past q is looked at, whatever the depth
        calls = record_calls(monkeypatch, Poly.eval_i)
        for oracle in (oracle_2_ordinary, oracle_ordinary):
            assert str(oracle(P(F5, 1, 2), 10**4)) == "CertifiedNot(4)"
            assert len(calls) <= 2 * F5.q
            calls.clear()

    def test_the_level_scan_evaluates_f_once_per_point(self, monkeypatch):
        # at depth 4 all five points of F_5 are read, and their orbits
        # overlap: a walk per start evaluated f 4 times at each
        calls = record_calls(monkeypatch, Poly.eval_i)
        for f in enumerate_polys(F5, 3, "monic"):
            for need_odd in (True, False):
                _open_levels(f, 4, need_odd)
                assert len(calls) <= F5.q, (str(f), need_odd)
                calls.clear()
        # x^2 refutes no level, so all 2^6 points of F_100003 are read, each
        # walked 6 steps: f is evaluated along the walks, never on the field
        _, left = _open_levels(P(make_field(100003), 0, 0, 1), 6, True)
        assert left == set(range(1, 7))
        assert len(calls) <= 64 * 7

    def test_distinct_roots_never_certified(self):
        for f in enumerate_polys(F5, 2, "monic"):
            roots = [a for a in F5.elements() if f.evaluate(a).is_zero()]
            if len(roots) == 2:
                assert not oracle_ordinary(f, 3).certified_not


@pytest.mark.parametrize(
    "spec, degree, depth, kind",
    [("5", 3, 4, "monic"), ("3^2", 2, 4, "monic"), ("3", 4, 3, "all"),
     ("3", 3, 4, "monic"), ("7", 2, 4, "all"), ("5", 1, 4, "all"), ("3^2", 1, 4, "all")],
    ids=["F5-cubics", "F9-quadratics", "F3-all-quartics", "F3-cubics", "F7-all-quadratics",
         "F5-all-linear", "F9-all-linear"],
)
def test_oracle_matches_the_factoring_reference(spec, degree, depth, kind):
    # F_3's cubics hold x^3 + c, whose derivative is 0
    F = FieldSpec.parse(spec)
    certified = 0
    for f in enumerate_polys(F, degree, kind):
        fast = (oracle_2_ordinary(f, depth), oracle_ordinary(f, depth))
        for need_odd, ours, ref in zip((True, False), fast, reference_oracles(f, depth)):
            assert str(ours) == str(ref), (str(f), need_odd)
            certified += ours.certified_not
    assert certified


@pytest.mark.parametrize(
    "spec, degree, depth, kind",
    [("5", 1, 4, "all"), ("3^2", 1, 4, "all"), ("3", 2, 6, "all"), ("3", 3, 4, "all"),
     ("3", 4, 3, "all"), ("3", 5, 3, "all"), ("5", 2, 6, "all"), ("7", 2, 6, "all"),
     ("5", 3, 4, "all"), ("3^2", 2, 6, "monic"), ("5^2", 2, 5, "monic")],
    ids=lambda v: str(v),
)
def test_oracle_matches_its_level_loop(spec, degree, depth, kind):
    # the oracle builds levels only up to the deepest one f's values leave
    # open; no level the loop certifies may be ruled out, and the verdicts
    # must be those of the loop run to depth
    F = FieldSpec.parse(spec)
    certified = 0
    for f in enumerate_polys(F, degree, kind):
        for need_odd, oracle in ((True, oracle_2_ordinary), (False, oracle_ordinary)):
            levels = set(exact_certified_levels(f, depth, need_odd))
            assert levels <= _open_levels(f, depth, need_odd)[1], (str(f), need_odd)
            ours = oracle(f, depth)
            assert str(ours) == str(exact_oracle(f, depth, need_odd)), (str(f), need_odd)
            certified += ours.certified_not
    assert certified


@pytest.mark.parametrize("budget", [3, 9, 27, 80])
def test_oracle_meets_the_budget_where_its_level_loop_does(budget):
    raised = 0
    for f in enumerate_polys(F5, 3, "monic"):
        for need_odd, oracle in ((True, oracle_2_ordinary), (False, oracle_ordinary)):
            outcomes = []
            for run in (lambda: oracle(f, 4, budget=budget),
                        lambda: exact_oracle(f, 4, need_odd, budget)):
                try:
                    outcomes.append(str(run()))
                except DegreeBudgetExceeded as err:
                    outcomes.append(f"raised {err}")
            assert outcomes[0] == outcomes[1], (str(f), need_odd)
            raised += outcomes[0].startswith("raised")
    assert raised


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: classify_2_ordinary(P(F7, 1, 1)).ordinary_verdict, ValueError,
         "classification needs degree >= 2"),
        (lambda: classify_2_ordinary(P(F7, 1, 1)), ValueError,
         "classification needs degree >= 2"),
        (lambda: oracle_2_ordinary(P(F7, 3), 2), ValueError,
         "oracle needs a nonconstant polynomial"),
        (lambda: hn_sequence(F7.zero, F7.one, 2), ValueError, "A must be nonzero"),
        (lambda: generate_family(F7.zero, 2), ValueError, "family parameter B must be nonzero"),
        (lambda: generate_family(F7.one, 0), ValueError, "exceptional families have degree >= 2"),
        (lambda: generate_family(F7.one, 1), ValueError, "exceptional families have degree >= 2"),
        (lambda: generate_family(F7.one, -1), ValueError,
         "exceptional families have degree >= 2"),
        (lambda: generate_family(F3.one, DEFAULT_DEGREE_BUDGET + 1), DegreeBudgetExceeded,
         "deg 4097^1 exceeds degree budget 4096"),
        (lambda: classify_2_ordinary(P(F7, *[0] * 2049, 2, *[0] * 2048, 1)),  # x^4098 + 2x^2049
         DegreeBudgetExceeded, "deg 4098^1 exceeds degree budget 4096"),
        (lambda: are_conjugate(P(F7, 1, 1), P(F7, 2, 3)), ValueError,
         "conjugacy needs degree >= 2"),
        (lambda: oracle_2_ordinary(P(F7, 1, 0, 0, 0, 0, 1), 1, budget=4), DegreeBudgetExceeded,
         "deg 5^1 exceeds degree budget 4"),
        (lambda: next(iterate_factor_levels(P(F7, 1, 0, 0, 0, 0, 1), 1, budget=4)),
         DegreeBudgetExceeded, "deg 5^1 exceeds degree budget 4"),
        (lambda: oracle_2_ordinary(P(F7, 1, 0, 1), -3), ValueError,
         "oracle depth must be >= 0, got -3"),
        (lambda: oracle_ordinary(P(F7, 1, 0, 1), -1), ValueError,
         "oracle depth must be >= 0, got -1"),
    ],
    ids=["ordinary-linear", "2-ordinary-linear", "oracle-constant", "hn-A-zero",
         "family-B-zero", "family-d-degree-0", "family-e-degree-1", "family-e-degree-minus-1",
         "family-degree-over-budget", "classify-degree-over-budget", "conjugacy-degree-1",
         "oracle-level-1-over-budget", "levels-level-1-over-budget", "oracle-negative-depth",
         "ordinary-oracle-negative-depth"],
)
def test_refuses_invalid_input(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestConjugacy:
    def test_self_identity(self):
        f = P(F7, 1, 2, 3)
        w = are_conjugate(f, f)
        assert w.a == F7.one and w.b.is_zero()

    def test_pinned_pair(self):
        w = are_conjugate(P(F7, 0, 4, 5), P(F7, 1, 0, 5))
        assert w is not None
        assert w.apply(P(F7, 0, 4, 5)) == P(F7, 1, 0, 5)

    def test_absent(self):
        assert are_conjugate(P(F3, 0, 0, 1), P(F3, 1, 0, 1)) is None

    def test_mixed_fields(self):
        with pytest.raises(ValueError, match="^conjugacy requires a common field$"):
            are_conjugate(P(F3, 0, 0, 1), P(F5, 0, 0, 1))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="^conjugacy preserves degree$"):
            are_conjugate(P(F7, 0, 0, 1), P(F7, 0, 0, 0, 1))

    def test_conjugation_preserves_orbit_shape(self):
        f = P(F7, 1, 3, 1)
        w = are_conjugate(f, f)  # identity; then a nontrivial map
        w = ConjugacyWitness(el(F7, 3), el(F7, 5))
        g = w.apply(f)
        for a in F7.elements():
            of = forward_orbit(f, a)
            og = forward_orbit(g, w.map_point(a))
            assert (of.tail, of.period) == (og.tail, og.period)

    def test_chebyshev_conjugacy_even_family(self):
        res = chebyshev_conjugacy(P(F7, 0, 4, 5))
        assert res is not None
        sign, w = res
        target = Poly.from_ints(F7, chebyshev(2))
        if sign == "-":
            target = -target
        assert w.apply(P(F7, 0, 4, 5)) == target

    def test_chebyshev_conjugacy_odd_family_is_minus(self):
        f = generate_family(el(F7, 1), 3)
        res = chebyshev_conjugacy(f)
        assert res is not None and res[0] == "-"

    @pytest.mark.parametrize("field", ["5", "7", "11", "3^2"])
    def test_x_squared_is_conjugate_to_neither_chebyshev(self, field):
        # every quadratic is conjugate to x^2 + C, and C is a conjugacy
        # invariant: +-T_2 both give C = -2, and x^2 gives C = 0
        F = FieldSpec.parse(field)
        assert chebyshev_conjugacy(Poly.x(F) * Poly.x(F)) is None


def _first_conjugacies(g):
    """{f: the first phi(x) = a x + b, a and b in enumeration order, with
    phi o f o phi^(-1) = g}, found by trying every map: the brute force that
    are_conjugate's coefficient solve replaces."""
    F = g.field
    first = {}
    for a in F.elements():
        if a.is_zero():
            continue
        for b in F.elements():
            w = ConjugacyWitness(a, b)
            f = ConjugacyWitness(a.inverse(), -b / a).apply(g)  # phi^(-1) o g o phi
            assert w.apply(f) == g
            first.setdefault(f, w)
    return first


def _key(w):
    return None if w is None else (w.a.idx, w.b.idx)


# p divides d in the F_3 cubics and sextics, F_5 quintics and F_9 cubics
CONJUGACY_CELLS = [
    ("3", 2, "all"), ("3", 3, "all"), ("3", 4, "all"), ("3", 6, "all"), ("5", 2, "all"),
    ("5", 3, "all"), ("5", 5, "monic"), ("7", 2, "all"), ("7", 3, "all"), ("3^2", 2, "all"),
    ("3^2", 3, "all"), ("3^2/(2,1,1)", 3, "monic"),
]


@pytest.mark.parametrize("field,degree,kind", CONJUGACY_CELLS)
def test_conjugacy_solve_matches_brute_force(field, degree, kind):
    F = FieldSpec.parse(field)
    t = Poly.from_ints(F, chebyshev(degree))
    found = 0
    for g in (t, -t):
        first = _first_conjugacies(g)
        for f in enumerate_polys(F, degree, kind):
            w = are_conjugate(f, g)
            assert _key(w) == _key(first.get(f)), (str(f), str(g))
            found += w is not None
    assert found
    rng = random.Random(degree)
    elements = list(F.elements())
    for _ in range(30):
        f = Poly(F, [rng.randrange(F.q) for _ in range(degree)] + [rng.randrange(1, F.q)])
        g = ConjugacyWitness(rng.choice(elements[1:]), rng.choice(elements)).apply(f)
        assert _key(are_conjugate(f, g)) == _key(_first_conjugacies(g)[f]), (str(f), str(g))
