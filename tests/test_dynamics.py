"""Orbits, sign sequences, runs, embeddings and preimage trees."""

import pytest

from orbitsquares.dynamics import (
    embed,
    embed_poly,
    forward_orbit,
    longest_run,
    orbit_table,
    preimages,
    roots_in_field,
    sign_sequence,
    tree_is_repeating,
)
from orbitsquares.field import FieldElement, FieldSpec, make_field
from orbitsquares.fpoly import Poly
from orbitsquares.scan import _ratio_rows, enumerate_polys

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

    def test_ratio_item_evaluates_each_point_once(self, monkeypatch):
        calls = []
        eval_i = Poly.eval_i

        def counted(self, x):
            calls.append(x)
            return eval_i(self, x)

        monkeypatch.setattr(Poly, "eval_i", counted)
        orbit_table.cache_clear()
        f = Poly(F9, (2, 5, 1))
        rows = _ratio_rows(f, None)
        assert sorted(calls) == list(range(F9.q))
        assert _ratio_rows(f, None) == rows and len(calls) == F9.q

    def test_orbit_table_evaluates_each_point_once(self, monkeypatch):
        calls = []
        eval_i = Poly.eval_i

        def counted(self, x):
            calls.append(x)
            return eval_i(self, x)

        monkeypatch.setattr(Poly, "eval_i", counted)
        for F in (F7, F25):
            f = P(F, 0, 1, 0, 1)
            orbit_table.cache_clear()
            calls.clear()
            table = orbit_table(f)
            assert sorted(calls) == list(range(F.q))
            assert table.succ == [eval_i(f, x) for x in range(F.q)]
            assert orbit_table(f) is table and len(calls) == F.q


class TestEmbedding:
    def test_embed_is_homomorphism(self):
        for a in range(7):
            for b in range(7):
                x, y = el(F7, a), el(F7, b)
                assert embed(x * y, 2) == embed(x, 2) * embed(y, 2)
                assert embed(x + y, 2) == embed(x, 2) + embed(y, 2)

    def test_embed_extension_base(self):
        for a in range(9):
            for b in range(9):
                x, y = el(F9, a), el(F9, b)
                assert embed(x * y, 2) == embed(x, 2) * embed(y, 2)
                assert embed(x + y, 2) == embed(x, 2) + embed(y, 2)

    def test_identity_degree(self):
        for a in F9.elements():
            assert embed(a, 1) == a

    def test_embed_poly_respects_evaluation(self):
        f = P(F7, 1, 2, 1)
        g = embed_poly(f, 2)
        for a in F7.elements():
            assert g.evaluate(embed(a, 2)) == embed(f.evaluate(a), 2)


class TestRoots:
    def test_split_quadratic(self):
        rs = roots_in_field(P(F7, 6, 0, 1))
        assert [r.idx for r in rs] == [1, 6]

    def test_no_roots(self):
        assert roots_in_field(P(F3, 1, 0, 1)) == []


class TestPreimages:
    def test_level_zero(self):
        lvl = preimages(P(F7, 0, 0, 1), el(F7, 5), 0)
        assert lvl.points == (el(F7, 5),)

    def test_square_roots(self):
        lvl = preimages(P(F7, 0, 0, 1), el(F7, 4), 1)
        assert [p.idx for p in lvl.points] == [2, 5]

    def test_nonresidue_counted(self):
        lvl = preimages(P(F7, 0, 0, 1), el(F7, 3), 1, max_ext=1)
        assert lvl.points == ()
        assert lvl.unresolved_degrees == {2: 1}

    def test_nonresidue_resolved_in_extension(self):
        lvl = preimages(P(F7, 0, 0, 1), el(F7, 3), 1, max_ext=2)
        pts = lvl.ext_points[2]
        assert len(pts) == 2
        target = embed(el(F7, 3), 2)
        for p in pts:
            assert p * p == target

    def test_multiplicity_degree_sum(self):
        # over the closure the preimage multiset of level n has size d^n
        f = P(F7, 1, 3, 1)
        for n in (1, 2, 3):
            g = f.iterate(n) - Poly.constant(el(F7, 2))
            from orbitsquares.fpoly import factor

            assert sum(p.degree * m for p, m in factor(g).factors) == 2**n


class TestTreeRepeating:
    def test_fixed_point(self):
        res = tree_is_repeating(P(F7, 0, 0, 1), F7.one, depth=2)
        assert res.repeating and res.witness == F7.one
        assert res.levels == (0, 1)

    def test_vacuous_false(self):
        # alpha = 0 under x^2+1: no rational preimages at any level
        res = tree_is_repeating(P(F7, 1, 0, 1), F7.zero, depth=3, max_ext=1)
        assert not res.repeating

    def test_periodic_zero_forces_repetition(self):
        # f = x^2 - 1 over F_7: 0 <-> -1 is a 2-cycle, so the tree over
        # alpha on that cycle repeats.
        f = P(F7, 6, 0, 1)
        res = tree_is_repeating(f, el(F7, 6), depth=4, max_ext=2)
        assert res.repeating

    def test_negative_answer_is_depth_bounded(self):
        res = tree_is_repeating(P(F7, 1, 0, 1), el(F7, 2), depth=0, max_ext=1)
        assert res.depth == 0

    def test_early_witness_stops_evaluating(self, monkeypatch):
        # x^2 fixes 1, so the walk from x = 1 finds levels (0, 1) after one
        # evaluation; only the points walked are evaluated, never all of F_49
        calls = []
        eval_i = Poly.eval_i

        def counted(self, x):
            calls.append(x)
            return eval_i(self, x)

        monkeypatch.setattr(Poly, "eval_i", counted)
        res = tree_is_repeating(P(F7, 0, 0, 1), F7.one, depth=4, max_ext=2)
        assert res.levels == (0, 1) and res.witness == F7.one
        assert calls == [0, F7.one_idx]

    @staticmethod
    def _horner_walk(f, alpha, depth, max_ext):
        """The truncated search, walking each embedded f by Horner evaluation."""
        for j in range(1, max_ext + 1):
            fj = embed_poly(f, j)
            E = fj.field
            target = embed(alpha, j).idx
            for x in range(E.q):
                y, hits = x, []
                for n in range(depth + 1):
                    if y == target:
                        hits.append(n)
                        if len(hits) == 2:
                            return True, x, tuple(hits)
                    acc = 0
                    for c in reversed(fj.coeffs):
                        acc = E.add_i(E.mul_i(acc, y), c)
                    y = acc
        return False, None, None

    def test_matches_horner_walk_on_small_quadratics(self):
        for F in (F3, make_field(5)):
            for f in enumerate_polys(F, 2, "monic"):
                for alpha in F.elements():
                    for depth in range(5):
                        for max_ext in (1, 2):
                            res = tree_is_repeating(f, alpha, depth, max_ext)
                            witness = None if res.witness is None else res.witness.idx
                            assert (res.repeating, witness, res.levels) == self._horner_walk(
                                f, alpha, depth, max_ext
                            ), (F.q, str(f), alpha.idx, depth, max_ext)
                            assert res.depth == depth

    def test_periodic_alpha_repeats_at_its_period(self):
        # with depth equal to alpha's period r, only alpha itself meets alpha
        # twice within depth steps: at levels 0 and r
        checked = 0
        for F in (F3, make_field(5)):
            for f in enumerate_polys(F, 2, "monic"):
                for alpha in F.elements():
                    orbit = forward_orbit(f, alpha)
                    r = orbit.period
                    if orbit.tail or r > 4:
                        continue
                    res = tree_is_repeating(f, alpha, depth=r, max_ext=2)
                    assert res.repeating and res.witness == alpha and res.levels == (0, r)
                    checked += 1
        assert checked > 0
