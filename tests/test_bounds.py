"""Character sums, windowed sums, and the orbit/run inequalities."""

import json
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations
from math import isqrt, prod
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitsquares import bounds
from orbitsquares.bounds import (
    char_sum,
    choose_L,
    compute_B,
    envelope_check,
    envelope_holds,
    orbit_bound_check,
    run_bound_check,
    run_bound_part,
    t_set_size,
    weil_check,
)
from orbitsquares.classify import TWO_ORDINARY
from orbitsquares.cli import main
from orbitsquares.dynamics import forward_orbit, longest_run, orbit_table, sign_sequence
from orbitsquares.errors import NotPurelyPeriodic, NotTwoOrdinary
from orbitsquares.field import FieldElement, FieldSpec, make_field
from orbitsquares.fpoly import Poly
from orbitsquares.scan import enumerate_polys, sample_polys

F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2)
F25 = make_field(5, 2)
F9_OTHER = FieldSpec.parse("3^2/(2,1,1)")


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

    def test_index_reduced_onto_the_cycle(self):
        # x^2 + 3 over F_31 from 5: B at i = 10^12 is B at the index of the
        # same orbit point within one tail plus one cycle
        F31 = make_field(31)
        f, a = P(F31, 3, 0, 1), el(F31, 5)
        o = forward_orbit(f, a)
        i = 10**12
        reduced = o.tail + (i - o.tail) % o.period
        assert reduced < o.tail + o.period
        assert compute_B(f, a, i, 2) == compute_B(f, a, reduced, 2)
        # and at every i through three laps of F_7, B_i is B_0 at f^i(a) walked point by point
        for g in (P(F7, 3, 0, 1), P(F7, 2, 1, 0, 1)):
            for start in F7.elements():
                y = start
                for i in range(3 * F7.q):
                    assert compute_B(g, start, i, 2) == compute_B(g, y, 0, 2), (str(g), start, i)
                    y = g.evaluate(y)

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


def walk_B(walks, signs, L):
    """Reference B: the per-x L-step walk, sum_x prod_{l=1..L} (1 + signs[l] w_x[l]) / 2^L,
    with w_x = walks[x] the Horner-walked signs chi(f^l(x)), l = 0, 1, ..."""
    total = 0
    for w in walks:
        num = 1
        for ell in range(1, L + 1):
            num *= 1 + signs[ell] * w[ell]
            if num == 0:
                break
        total += num
    return Fraction(total, 2**L)


class TestTableAgainstHorner:
    """compute_B, orbit_bound_check's B_i and t_set_size against sums over
    Horner-walked iterates."""

    def check(self, f):
        """Every start, periodic or not, with i = 0..3 and L = 1..4.  Returns
        whether a start's window held a 0, and whether, for a zero-free one,
        some x's window did: the table's two zero-window branches."""
        F = f.field
        chi = F.chi_i
        walks = [[chi(y) for y in horner_iterates(f, x, 4)] for x in range(F.q)]
        for L in range(4):
            for target in (1, -1):
                expected = sum(all(w[ell] == target for ell in range(1, L + 1)) for w in walks)
                assert t_set_size(f, L, target=target) == expected
        memo = {}

        def reference(signs):  # walk_B depends on the start only through its signs
            if signs not in memo:
                memo[signs] = walk_B(walks, signs, len(signs) - 1)
            return memo[signs]

        x_window_zero = [any(0 in w[1:L + 1] for w in walks) for L in range(5)]
        zero_start = zero_x = False
        for a in F.elements():
            s_a = [chi(y) for y in horner_iterates(f, a.idx, 7)]
            for i in range(4):
                for L in range(1, 5):
                    signs = tuple(s_a[i:i + L + 1])
                    assert compute_B(f, a, i, L) == reference(signs), (str(f), a.idx, i, L)
                    if 0 in signs[1:]:
                        zero_start = True
                    else:
                        zero_x |= x_window_zero[L]
            if sign_sequence(f, a).purely_periodic:
                for L in (1, 2):
                    B = orbit_bound_check(f, a, L).B_values
                    s_a = [chi(y) for y in horner_iterates(f, a.idx, len(B) + L)]
                    assert list(B) == [reference(tuple(s_a[i:i + L + 1])) for i in range(len(B))]
        return zero_start, zero_x

    def check_cell(self, polys):
        reached = [self.check(f) for f in polys]
        assert any(z for z, _ in reached) and any(x for _, x in reached)

    def test_every_monic_quadratic_f9(self):
        self.check_cell(enumerate_polys(F9, 2))

    def test_every_monic_quadratic_f25(self):
        self.check_cell(enumerate_polys(F25, 2))

    @pytest.mark.parametrize("p", [31, 101])
    def test_seeded_quadratics_and_cubics(self, p):
        F = make_field(p)
        # x^2 has 0 as a fixed point, and x^2 - 1 has 0 on the 2-cycle 0 -> -1 -> 0
        special = [P(F, 0, 0, 1), P(F, p - 1, 0, 1)]
        self.check_cell(special + sample_polys(F, 2, 3, seed=p) + sample_polys(F, 3, 3, seed=p))


def reference_window_sums(walks, L):
    """_window_sums(f, L) from its definition on tuple windows: at each y,
    sum_x prod_{l=1..L} (1 + u_l v_l) with u_l = chi(f^l y) and v_l = chi(f^l x),
    and walks[x] = (chi(f^l x))_{l=1,2,...}.  x and y of one window add alike."""
    windows = [w[:L] for w in walks]
    count = Counter(windows)
    sums = {u: sum(n * prod(1 + a * b for a, b in zip(u, v)) for v, n in count.items())
            for u in count}
    return [sums[u] for u in windows]


class TestTwoBitWindowSums:
    """_window_sums, whose windows hold two bits per sign, against products of
    signs on tuple windows.  Orbits through 0 give windows that hold a 0."""

    @pytest.mark.parametrize("cell", ["7/2", "3^2/(2,1,1)/2", "7/3", "13^2/2"])
    def test_against_tuple_windows(self, cell):
        if cell == "13^2/2":
            polys = sample_polys(make_field(13, 2), 2, 20, seed=13)
        else:
            field, degree = cell.rsplit("/", 1)
            polys = enumerate_polys(FieldSpec.parse(field), int(degree), "all")
        zero_windows = 0
        for f in polys:
            chi = f.field.chi_i
            walks = [tuple(map(chi, horner_iterates(f, x, 6)[1:])) for x in range(f.field.q)]
            zero_windows += any(0 in w for w in walks)
            for L in range(1, 7):
                assert bounds._window_sums(f, L) == reference_window_sums(walks, L), (str(f), L)
        assert zero_windows


class TestWorkCounts:
    def test_bounds_scan_builds_each_window_table_once(self, monkeypatch, tmp_path):
        def unreachable(*args):
            raise AssertionError("the scan path ran the per-x walk")

        built = Counter()

        def counted(f, L):
            built[str(f), L] += 1
            return window_sums(f, L)

        window_sums = bounds._window_sums
        monkeypatch.setattr(sys.modules[__name__], "walk_B", unreachable)
        monkeypatch.setattr(bounds, "_window_sums", counted)
        orbit_table.cache_clear()
        rc = main([
            "scan", "--field", "31", "--degree", "2",
            "--checks", "classification,weil,orbit-bounds,run-bounds",
            "--sample", "300", "--seed", "4", "--out", str(tmp_path),
        ])
        assert rc == 0
        rows = [json.loads(line) for line in (tmp_path / "rows.jsonl").read_text().splitlines()]
        drawn = {(r["f"], r["L"]) for r in rows if "L" in r}
        assert len(drawn) > 100
        assert built == Counter(drawn)  # once per (drawn f, L), and for no other f
        assert orbit_table.cache_info().misses <= 1223


class TestOrbitBound:
    def test_rows_fail_where_the_check_fails(self, monkeypatch):
        # with every window sum 0 the bound reads |O| <= 2L + 1, which long
        # orbits break: each row must decide and print as orbit_bound_check
        monkeypatch.setattr(bounds, "_window_sums", lambda f, L: [0] * f.field.q)
        F31 = make_field(31)
        f = P(F31, 3, 0, 1)
        rows = bounds.orbit_bound_rows(f, bounds.periodic_starts(f),
                                       SimpleNamespace(verdict=TWO_ORDINARY))
        assert {r["pass"] for r in rows} == {True, False}
        for r in rows:
            ob = orbit_bound_check(f, el(F31, r["a"]), r["L"])
            assert (r["pass"], r["rhs"], r["maxB"]) == \
                (ob.passed, str(ob.rhs_sum), str(max(ob.B_values)))

    def test_pinned_square_map(self):
        r = orbit_bound_check(P(F7, 0, 0, 1), el(F7, 2), 2)
        assert r.lhs == 2 and r.m == 1
        assert r.rhs_sum == Fraction(45, 4)
        assert r.passed and r.lhs <= 2 * 2 + 1 + r.m * max(r.B_values)

    def test_fixed_point_always_passes(self):
        r = orbit_bound_check(Poly.x(F7), el(F7, 4), 1)
        assert r.lhs == 1 and r.passed

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
                    assert r.passed and r.lhs <= 2 * L + 1 + r.m * max(r.B_values)


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
        for L in range(F.q + 2):
            for target in (1, -1):
                expected = sum(all(s == target for s in w[1:L + 1]) for w in walks)
                assert t_set_size(f, L, target=target) == expected, (str(f), L, target)

    def test_matches_horner_on_f7_cubics(self):
        for f in enumerate_polys(F7, 3):
            self.check_every_window(f)

    def test_matches_horner_on_f9_quadratics(self):
        for f in enumerate_polys(F9, 2):
            self.check_every_window(f)

    def test_matches_horner_on_other_f9_modulus_quadratics(self):
        for f in enumerate_polys(F9_OTHER, 2):
            self.check_every_window(f)

    def test_matches_horner_on_f25_quadratics(self):
        for f in enumerate_polys(F25, 2):
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

    @pytest.mark.parametrize(
        "field, degree, t_sizes_split",
        [(F7, 3, False), (F9, 2, False), (F9_OTHER, 2, False), (F25, 2, True)],
        ids=["7-cubics", "9-quadratics", "9/(2,1,1)-quadratics", "25-quadratics"],
    )
    def test_per_f_rows_match_per_start_checks(self, field, degree, t_sizes_split):
        # scan's rows gate on the verdict only; this stub lets every f through.
        # The rows share one tail per pair of sides across every f.  Sides of
        # one (target, length) differ in cycle_constant in every cell, and on
        # 25-quadratics in t_sizes at S >= 1 too, so a sharing key that drops
        # either part hands some row a side of another content.
        two_ordinary = SimpleNamespace(verdict=TWO_ORDINARY)
        parts = defaultdict(set)
        for f in enumerate_polys(field, degree):
            expected = [run_bound_check(f, a).to_json() for a in field.elements()]
            assert list(run_bound_part(f, two_ordinary)) == expected, str(f)
            for side in (s for row in expected for s in (row["square"], row["nonsquare"])):
                parts[side["target"], side["run_length"]].add(
                    (side["cycle_constant"], tuple(side["t_sizes"]))
                )
        assert any(len({cc for cc, _ in seen}) > 1 for seen in parts.values())
        split = any(len({ts for _, ts in seen if ts}) > 1 for seen in parts.values())
        assert split == t_sizes_split

    @pytest.mark.parametrize(
        "field, polys",
        [
            (F7, lambda: enumerate_polys(F7, 2)),
            (F9, lambda: enumerate_polys(F9, 2)),
            (F9_OTHER, lambda: enumerate_polys(F9_OTHER, 2)),
            (make_field(31), lambda: sample_polys(make_field(31), 2, 12, 3)),
            (make_field(13, 2), lambda: sample_polys(make_field(13, 2), 2, 12, 3)),
        ],
        ids=["7-quadratics", "9-quadratics", "9/(2,1,1)-quadratics", "31-sample", "169-sample"],
    )
    def test_a_run_counts_into_every_t_set(self, field, polys):
        # A run of R target signs that is not cycle-constant is R distinct
        # points, and the first R - L of them lie in T(L): |T(L)| >= R - L, so
        # the check's S <= |T(L)| can fail only on a broken orbit table.
        # Every f is tried, 2-ordinary or not, and each cell reaches equality.
        tight = False
        for f in polys():
            for a in field.elements():
                for target in (1, -1):
                    run = longest_run(f, a, target)
                    if run.cycle_constant:
                        continue
                    for L in range(1, run.length + 1):
                        size = t_set_size(f, L, target)
                        assert size >= run.length - L, (str(f), a.idx, target, L)
                        tight |= size == run.length - L
        assert tight


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: t_set_size(P(F7, 0, 0, 1), -1), ValueError),
        # x^2 + 1 is 2-ordinary over F_7, and the signs from 0 have a tail
        (lambda: envelope_check(P(F7, 1, 0, 1), el(F7, 0), 0, 1), NotPurelyPeriodic),
        # the signs of x^2 + 1 from 3 are purely periodic, so only i < 0 is wrong
        (lambda: compute_B(P(F7, 1, 0, 1), el(F7, 3), -1, 2), ValueError),
        (lambda: compute_B(P(F7, 1, 0, 1), el(F7, 3), -5, 2), ValueError),
        (lambda: envelope_check(P(F7, 1, 0, 1), el(F7, 3), -3, 1), ValueError),
    ],
    ids=[
        "negative-L",
        "envelope-not-purely-periodic",
        "B-index-minus-1",
        "B-index-minus-5",
        "envelope-index-minus-3",
    ],
)
def test_refuses_invalid_input(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("check", [
    lambda f, a: longest_run(f, a, 1),
    forward_orbit,
    sign_sequence,
    lambda f, a: compute_B(f, a, 0, 1),
    lambda f, a: orbit_bound_check(f, a, 1),
    lambda f, a: envelope_check(f, a, 0, 1),
    run_bound_check,
], ids=["longest_run", "forward_orbit", "sign_sequence", "compute_B", "orbit_bound_check",
        "envelope_check", "run_bound_check"])
def test_refuses_a_start_from_another_field(check):
    # 3 over F_7 is a purely periodic start of the 2-ordinary x^2 + 1, so
    # only the field of the start is wrong
    f = P(F7, 1, 0, 1)
    check(f, el(F7, 3))
    with pytest.raises(ValueError, match="^point and polynomial over different fields$"):
        check(f, el(F5, 3))


@given(
    q=st.integers(1, 10**4),
    d=st.integers(1, 4),
    L=st.integers(1, 6),
    t=st.fractions(-2, 2, max_denominator=1000),
    drop=st.fractions(0, 2, max_denominator=1000),
)
def test_envelope_holds_is_monotone_in_b(q, d, L, t, drop):
    # b = q/2^L + t d^(L+1) isqrt(q) lies on both sides of the envelope
    # q/2^L + d^(L+1) sqrt(q) as t runs over [-2, 2]; b' = b - drop scale <= b
    scale = d ** (L + 1) * isqrt(q)
    b = Fraction(q, 2**L) + t * scale
    if envelope_holds(b, q, d, L):
        assert envelope_holds(b - drop * scale, q, d, L)


@given(
    q=st.integers(1, 10**4),
    d=st.integers(1, 4),
    L=st.integers(1, 6),
    t=st.fractions(-2, 2, max_denominator=1000),
)
def test_envelope_holds_matches_the_rational_definition(q, d, L, t):
    # the squared branch in Fractions: excess = b - q/2^L is <= 0, or
    # excess^2 <= d^(2(L+1)) q; b as in the monotone test, and b rounded down
    # to a multiple of 1/2^L, as every B_i is
    b = Fraction(q, 2**L) + t * d ** (L + 1) * isqrt(q)
    for b in (b, Fraction(b * 2**L // 1, 2**L)):
        excess = b - Fraction(q, 2**L)
        expected = excess <= 0 or excess * excess <= d ** (2 * (L + 1)) * q
        assert envelope_holds(b, q, d, L) == expected


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

    @pytest.mark.parametrize("d", [0, -1])
    def test_refuses_degree_below_one(self, d):
        # at d = 0 the loop's condition reads 0 <= q and never turns false
        with pytest.raises(ValueError):
            choose_L(10**6, d)
