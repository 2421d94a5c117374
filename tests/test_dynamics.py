"""Orbits, sign sequences and runs, all read from the orbit table."""

import pytest

from orbitsquares.dynamics import forward_orbit, longest_run, orbit_table, sign_sequence
from orbitsquares.field import FieldElement, FieldSpec, make_field
from orbitsquares.fpoly import Poly
from orbitsquares.scan import _ratio_rows, enumerate_polys, sample_polys

F3 = make_field(3)
F7 = make_field(7)
F9 = make_field(3, 2)
F25 = make_field(5, 2)


def P(field, *ints):
    return Poly.from_ints(field, ints)


def el(field, idx):
    return FieldElement(field, idx)


class TestForwardOrbit:
    def test_squaring_map(self):
        o = forward_orbit(P(F7, 0, 0, 1), el(F7, 3))
        assert o.tail == 1 and o.period == 2
        assert [e.idx for e in o.elements] == [3, 2, 4]

    def test_identity_map(self):
        for a in F7.elements():
            o = forward_orbit(Poly.x(F7), a)
            assert o.tail == 0 and o.period == 1

    def test_zero_in_orbit(self):
        o = forward_orbit(P(F3, 1, 0, 1), F3.zero)
        assert o.tail == 2 and o.period == 1
        assert [e.idx for e in o.elements] == [0, 1, 2]
        assert o.contains_zero_at == 0

    def test_size(self):
        o = forward_orbit(P(F7, 0, 0, 1), el(F7, 3))
        assert o.size == 3 == len(o.elements)


class TestSignSequence:
    def test_squaring_map(self):
        ss = sign_sequence(P(F7, 0, 0, 1), el(F7, 3))
        assert ss.signs == (-1, 1, 1)
        assert ss.sign_tail == 1 and ss.sign_period == 1
        assert not ss.purely_periodic
        assert [ss.sign_at(ell) for ell in range(6)] == [-1, 1, 1, 1, 1, 1]

    def test_positive_fixed_point(self):
        ss = sign_sequence(P(F7, 0, 0, 1), el(F7, 2))  # 2 -> 4 -> 2, both squares
        assert ss.purely_periodic and ss.sign_period == 1

    def test_zero_fixed_point(self):
        ss = sign_sequence(P(F7, 0, 0, 1), F7.zero)
        assert ss.signs == (0,) and ss.sign_period == 1 and ss.purely_periodic

    def test_sign_period_divides_orbit_period(self):
        for fi in range(49):
            f = P(F7, fi % 7, fi // 7, 1)
            for a in F7.elements():
                ss = sign_sequence(f, a)
                assert ss.orbit.period % ss.sign_period == 0
                assert ss.purely_periodic == (ss.sign_tail == 0)


class TestLongestRun:
    def test_cycle_constant(self):
        # 2 -> 4 -> 2 over F_7 under x^2: all-square cycle, approached from 3
        r = longest_run(P(F7, 0, 0, 1), el(F7, 3), 1)
        assert r.cycle_constant and r.length == 2

    def test_zero_breaks_runs(self):
        # x^2 - 1 from 3 over F_7: signs -1, +1 then cycle (0, -1)
        f = P(F7, 6, 0, 1)
        ss = sign_sequence(f, el(F7, 3))
        assert ss.signs == (-1, 1, 0, -1)
        assert [ss.sign_at(ell) for ell in range(6)] == [-1, 1, 0, -1, 0, -1]
        r = longest_run(f, el(F7, 3), 1)
        assert not r.cycle_constant and r.length == 1

    def test_window_covers_wraparound(self):
        f = P(F7, 6, 0, 1)
        r = longest_run(f, el(F7, 3), -1)
        assert r.length == 1  # -1 signs are isolated by the zeros

    @pytest.mark.parametrize("target", [0, 2, -2, None])
    def test_target_must_be_a_sign(self, target):
        with pytest.raises(ValueError):
            longest_run(P(F7, 6, 0, 1), el(F7, 3), target)

    @pytest.mark.parametrize("ell", [-1, -2, -4])
    def test_sign_at_refuses_a_negative_index(self, ell):
        # unchecked, a negative index would read the stored signs from the end
        with pytest.raises(ValueError):
            sign_sequence(P(F7, 0, 0, 1), el(F7, 3)).sign_at(ell)


def horner_orbit(f, a_idx):
    """Reference walk with no table: one f.eval_i per step to the first repeat.

    Returns (elements, tail, signs), the signs running on for three more laps
    of the cycle so that every run and period is visible in them."""
    seen, xs, cur = {}, [], a_idx
    while cur not in seen:
        seen[cur] = len(xs)
        xs.append(cur)
        cur = f.eval_i(cur)
    tail, period = seen[cur], len(xs) - seen[cur]
    walk = list(xs)
    while len(walk) < tail + 4 * period:
        walk.append(f.eval_i(walk[-1]))
    return xs, tail, [f.field.chi_i(x) for x in walk]


def reference_sign_data(tail, period, signs):
    """(sign_tail, sign_period) from the definition of an eventual period."""
    m = next(m for m in range(1, period + 1)
             if all(signs[ell + m] == signs[ell] for ell in range(tail, tail + period)))
    t = tail
    while t > 0 and signs[t - 1 + m] == signs[t - 1]:
        t -= 1
    return t, m


def reference_run(tail, period, signs, target):
    """(length, cycle_constant) of the longest run of target in the signs."""
    if all(s == target for s in signs[tail:tail + period]):
        r = 0
        while r < tail and signs[tail - 1 - r] == target:
            r += 1
        return period + r, True
    best = cur = 0
    for s in signs:
        cur = cur + 1 if s == target else 0
        best = max(best, cur)
    return best, False


class TestSuccessorTable:
    """The table-backed walks against a Horner walk with no table."""

    def check_against_horner(self, f):
        F = f.field
        for a in F.elements():
            xs, tail, signs = horner_orbit(f, a.idx)
            period = len(xs) - tail
            o = forward_orbit(f, a)
            assert [e.idx for e in o.elements] == xs
            assert (o.tail, o.period) == (tail, period)
            assert o.contains_zero_at == (xs.index(0) if 0 in xs else None)
            ss = sign_sequence(f, a)
            assert list(ss.signs) == signs[:len(xs)]
            assert [ss.sign_at(ell) for ell in range(len(signs))] == signs
            sign_tail, sign_period = reference_sign_data(tail, period, signs)
            assert (ss.sign_tail, ss.sign_period) == (sign_tail, sign_period)
            assert ss.purely_periodic == (sign_tail == 0)
            for target in (1, -1):
                r = longest_run(f, a, target)
                assert (r.length, r.cycle_constant) == reference_run(tail, period, signs, target)

    def test_every_monic_quadratic_f9(self):
        for f in enumerate_polys(F9, 2):
            self.check_against_horner(f)

    def test_every_monic_quadratic_f25(self):
        for f in enumerate_polys(F25, 2):
            self.check_against_horner(f)

    def test_every_monic_cubic_f7(self):
        for f in enumerate_polys(F7, 3):
            self.check_against_horner(f)

    def test_every_quadratic_over_user_modulus(self):
        for f in enumerate_polys(FieldSpec.parse("3^2/(2,1,1)"), 2, "all"):
            self.check_against_horner(f)

    def test_interleaved_polynomials(self):
        # f, then g, then f again; h has f's coefficient indices over another
        # field, so a memo keyed on the coefficients alone would hand it f's table
        f = Poly(F9, [1, 2, 1])
        g = Poly(F9, [4, 0, 1])
        h = Poly(F7, [1, 2, 1])
        for p in (f, g, f, h, f):
            self.check_against_horner(p)

    def test_seeded_quadratics_f169(self):
        for f in sample_polys(make_field(13, 2), 2, 3, seed=169):
            self.check_against_horner(f)

    @staticmethod
    def count_value_tables(monkeypatch):
        """Patch Poly.value_table to log the polynomial of every call."""
        calls = []
        value_table = Poly.value_table

        def counted(self):
            calls.append(self)
            return value_table(self)

        monkeypatch.setattr(Poly, "value_table", counted)
        return calls

    def test_ratio_item_evaluates_each_point_once(self, monkeypatch):
        # one whole-field value table per memo miss, none on the second read
        calls = self.count_value_tables(monkeypatch)
        orbit_table.cache_clear()
        f = Poly(F9, (2, 5, 1))
        rows = _ratio_rows(f, None)
        assert calls == [f]
        assert _ratio_rows(f, None) == rows and calls == [f]

    def test_orbit_table_evaluates_each_point_once(self, monkeypatch):
        calls = self.count_value_tables(monkeypatch)
        for F in (F7, F25):
            f = P(F, 0, 1, 0, 1)
            orbit_table.cache_clear()
            calls.clear()
            table = orbit_table(f)
            assert calls == [f]
            assert table.succ == [f.eval_i(x) for x in range(F.q)]
            assert orbit_table(f) is table and calls == [f]
