"""Character sums, windowed sums, and the orbit/run inequalities."""

from fractions import Fraction
from itertools import combinations

import pytest

from orbitsquares.bounds import (
    char_sum,
    choose_L,
    compute_B,
    envelope_check,
    orbit_bound_check,
    run_bound_check,
    t_set_size,
    weil_check,
)
from orbitsquares.dynamics import sign_sequence
from orbitsquares.errors import NotPurelyPeriodic, NotTwoOrdinary
from orbitsquares.field import FieldElement, make_field
from orbitsquares.fpoly import Poly
from orbitsquares.scan import enumerate_polys

F3 = make_field(3)
F7 = make_field(7)
F9 = make_field(3, 2)
F25 = make_field(5, 2)


def P(field, *ints):
    return Poly.from_ints(field, ints)


def el(field, idx):
    return FieldElement(field, idx)


def horner_iterates(f, x, n):
    """Reference iterates x, f(x), ..., f^n(x): one f.eval_i per step, no table."""
    ys = [x]
    for _ in range(n):
        ys.append(f.eval_i(ys[-1]))
    return ys


class TestCharSum:
    def test_identity_map(self):
        assert char_sum(P(F7, 0, 1)) == 0

    def test_square(self):
        assert char_sum(P(F7, 0, 0, 1)) == 6

    def test_irreducible_quadratic(self):
        assert char_sum(P(F7, 1, 0, 1)) == -1

    def test_matches_pointwise_sum(self):
        # char_sum reads f's values from its orbit table
        for F, d in ((F7, 3), (F9, 2)):
            for f in enumerate_polys(F, d, "monic"):
                assert char_sum(f) == sum(F.chi_i(f.eval_i(x)) for x in range(F.q))

    def test_affine_invariance(self):
        f = P(F7, 1, 3, 0, 1)
        for a in range(1, 7):
            for b in range(7):
                sub = Poly.from_ints(F7, [b, a])
                assert char_sum(f.compose(sub)) == char_sum(f)


class TestWeil:
    def test_applies_pass(self):
        w = weil_check(P(F7, 1, 0, 1))
        assert w.applies and w.passed
        assert w.sum == -1 and w.margin_sq == 7 - 1

    def test_constant_times_square_excluded(self):
        w = weil_check(P(F7, 0, 0, 3))
        assert not w.applies and w.reason == "constant-times-square"

    def test_degree_one_equality_edge(self):
        w = weil_check(Poly.x(F9))
        assert w.applies and w.passed and w.sum == 0 and w.margin_sq == 0

    def test_exhaustive_cubics_f7(self):
        for ci in range(7**3):
            f = P(F7, ci % 7, (ci // 7) % 7, ci // 49, 1)
            w = weil_check(f)
            if w.applies:
                assert w.passed


class TestComputeB:
    def test_pinned_square_map(self):
        # six nonzero x contribute 1, and x = 0 contributes (1/2)^2
        assert compute_B(P(F7, 0, 0, 1), el(F7, 2), 0, 2) == Fraction(25, 4)

    def test_window_length_validated(self):
        with pytest.raises(ValueError):
            compute_B(P(F7, 0, 0, 1), el(F7, 2), 0, 0)

    def test_upper_bounded_by_q(self):
        for ai in range(7):
            b = compute_B(P(F7, 2, 0, 1), el(F7, ai), 1, 3)
            assert 0 <= b <= 7

    def test_expansion_identity(self):
        # B_i = (q + sum over nonempty windows T of prod s(t+i) * sum_x
        # chi(prod f^t(x))) / 2^L
        for field, fc in ((F7, (1, 3, 1)), (F9, (1, 0, 1)), (F3, (2, 1, 1))):
            f = Poly.from_ints(field, fc)
            for ai in range(field.q):
                a = el(field, ai)
                ss = sign_sequence(f, a)
                for L in (1, 2, 3):
                    for i in (0, 1):
                        expanded = Fraction(field.q)
                        for r in range(1, L + 1):
                            for T in combinations(range(1, L + 1), r):
                                coef = 1
                                for t in T:
                                    coef *= ss.sign_at(t + i)
                                if coef == 0:
                                    continue
                                s = 0
                                for x in range(field.q):
                                    y, prodc = x, 1
                                    vals = {}
                                    for ell in range(1, L + 1):
                                        y = f.eval_i(y)
                                        vals[ell] = y
                                    for t in T:
                                        prodc = field.mul_i(prodc, vals[t])
                                    s += field.chi_i(prodc)
                                expanded += coef * s
                        expanded /= 2**L
                        assert compute_B(f, a, i, L) == expanded


class TestTableAgainstHorner:
    """compute_B and t_set_size against sums over Horner-walked iterates."""

    def check(self, f):
        F = f.field
        chi = F.chi_i
        walks = [[chi(y) for y in horner_iterates(f, x, 3)] for x in range(F.q)]
        for L in range(4):
            for target in (1, -1):
                expected = sum(all(w[ell] == target for ell in range(1, L + 1)) for w in walks)
                assert t_set_size(f, L, target=target) == expected
        for a in F.elements():
            ss = sign_sequence(f, a)
            s_a = [chi(y) for y in horner_iterates(f, a.idx, ss.sign_period + 2)]
            for i in range(ss.sign_period):
                for L in (1, 2):
                    total = 0
                    for w in walks:
                        num = 1
                        for ell in range(1, L + 1):
                            num *= 1 + s_a[ell + i] * w[ell]
                        total += num
                    assert compute_B(f, a, i, L) == Fraction(total, 2**L)

    def test_every_monic_quadratic_f9(self):
        for f in enumerate_polys(F9, 2):
            self.check(f)

    def test_every_monic_quadratic_f25(self):
        for f in enumerate_polys(F25, 2):
            self.check(f)


class TestOrbitBound:
    def test_pinned_square_map(self):
        r = orbit_bound_check(P(F7, 0, 0, 1), el(F7, 2), 2)
        assert r.orbit_size == 2 and r.m == 1
        assert r.rhs_sum == Fraction(45, 4)
        assert r.passed and r.passed_uniform

    def test_fixed_point_always_passes(self):
        r = orbit_bound_check(Poly.x(F7), el(F7, 4), 1)
        assert r.orbit_size == 1 and r.passed

    def test_requires_purely_periodic(self):
        with pytest.raises(NotPurelyPeriodic):
            orbit_bound_check(P(F7, 0, 0, 1), el(F7, 3), 1)

    def test_theorem_holds_exhaustively_f7(self):
        for fi in range(49):
            f = P(F7, fi % 7, fi // 7, 1)
            for ai in range(7):
                a = el(F7, ai)
                if not sign_sequence(f, a).purely_periodic:
                    continue
                for L in (1, 2):
                    r = orbit_bound_check(f, a, L)
                    assert r.passed and r.passed_uniform


class TestEnvelope:
    def test_gate_on_exceptional_shape(self):
        with pytest.raises(NotTwoOrdinary):
            envelope_check(P(F7, 0, 0, 1), el(F7, 2), 0, 1)

    def test_small_parameters_pass(self):
        f = P(F7, 1, 0, 1)
        for ai in range(7):
            a = el(F7, ai)
            ss = sign_sequence(f, a)
            if not ss.purely_periodic:
                continue
            for i in range(ss.sign_period):
                assert envelope_check(f, a, i, 1).passed


class TestTSetSize:
    def test_empty_window(self):
        assert t_set_size(P(F7, 0, 0, 1), 0) == 7

    def test_square_map_one_step(self):
        assert t_set_size(P(F7, 0, 0, 1), 1) == 6

    def test_nonsquare_variant(self):
        assert t_set_size(P(F7, 0, 0, 1), 1, target=-1) == 0

    def test_monotone_in_L(self):
        f = P(F7, 2, 0, 1)
        sizes = [t_set_size(f, L) for L in range(5)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize("target", [0, 2, -2])
    def test_target_must_be_a_sign(self, target):
        with pytest.raises(ValueError):
            t_set_size(P(F7, 0, 0, 1), 1, target=target)

    @staticmethod
    def check_every_window(f):
        # L runs past q, where only orbits ending on an all-target cycle stay in T(L)
        F = f.field
        walks = [[F.chi_i(y) for y in horner_iterates(f, x, F.q + 1)] for x in range(F.q)]
        for L in range(1, F.q + 2):
            for target in (1, -1):
                expected = sum(all(s == target for s in w[1:L + 1]) for w in walks)
                assert t_set_size(f, L, target=target) == expected, (str(f), L, target)

    def test_matches_horner_on_f7_cubics(self):
        for f in enumerate_polys(F7, 3):
            self.check_every_window(f)

    def test_matches_horner_on_f9_quadratics(self):
        for f in enumerate_polys(F9, 2):
            self.check_every_window(f)


class TestRunBound:
    def test_cycle_constant_excluded(self):
        r = run_bound_check(P(F7, 0, 0, 1), el(F7, 3))
        assert r.square.run.cycle_constant
        assert r.square.excluded and r.square.passed
        assert not r.nonsquare.excluded and r.nonsquare.S == 0
        assert r.passed

    def test_holds_exhaustively_f7(self):
        for fi in range(49):
            f = P(F7, fi % 7, fi // 7, 1)
            for ai in range(7):
                assert run_bound_check(f, el(F7, ai)).passed


class TestChooseL:
    def test_pinned_large_q(self):
        assert choose_L(10**6, 2) == 4

    def test_clamped_to_one(self):
        assert choose_L(9, 2) == 1

    def test_monotone_in_q(self):
        for d in (2, 3):
            prev = 0
            for q in (9, 10**2, 10**4, 10**6, 10**8):
                L = choose_L(q, d)
                assert L >= prev
                prev = L
