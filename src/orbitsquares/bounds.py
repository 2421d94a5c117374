"""Exact character-sum computations and the proof-level inequalities:
Weil bound checks, the windowed sums B_i, the orbit-size bound, its
explicit envelope, the T(L) sets and the run-structure inequality, and the
scan rows of the orbit and run bounds, each gated on its hypothesis.

Every comparison involving sqrt(q) is squared into exact integer/rational
arithmetic; nothing here uses floating point for a pass/fail decision.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from math import prod

from .classify import TWO_ORDINARY, classify_2_ordinary
from .dynamics import RunReport, check_target, longest_run, orbit_table
from .errors import NotPurelyPeriodic, NotTwoOrdinary
from .field import FieldElement
from .fpoly import Poly, _index_in, is_constant_times_square


def char_sum(f: Poly) -> int:
    """Sum of chi(f(x)) over the whole field, read from f's orbit table and
    the field's sign list."""
    return sum(map(f.field.signs.__getitem__, orbit_table(f).succ))


class WeilCheck(namedtuple("WeilCheck", "applies reason sum passed margin_sq",
                           defaults=(None, None, None))):
    """Whether the Weil bound applies (else reason says why not) and, if so,
    the character sum, the verdict and margin_sq = (d-1)^2 q - sum^2."""

    __slots__ = ()

    def to_json(self):
        return self._asdict()


def weil_check(f: Poly) -> WeilCheck:
    """|sum chi(f)|^2 <= (d-1)^2 q for f that is not a constant times a square."""
    if is_constant_times_square(f):
        return WeilCheck(applies=False, reason="constant-times-square")
    s = char_sum(f)
    d = f.degree
    bound_sq = (d - 1) ** 2 * f.field.q
    return WeilCheck(
        applies=True,
        reason=None,
        sum=s,
        passed=s * s <= bound_sq,
        margin_sq=bound_sq - s * s,
    )


def _per_f(f: Poly, build, arg):
    """build(f, arg), kept with f's orbit table on first use, so every start of
    f reads one copy and it is dropped with the table."""
    memo = orbit_table(f).derived
    key = (build, arg)
    if key not in memo:
        memo[key] = build(f, arg)
    return memo[key]


def _sign_windows(f: Poly, L: int) -> list[tuple[int, ...]]:
    """(chi(f^l x))_{l=1..L} by x's index: chi(f(x)), then f(x)'s window of
    length L - 1, so each length is built once per f, from the next shorter."""
    succ = orbit_table(f).succ
    if L == 1:
        return [(s,) for s in map(f.field.signs.__getitem__, succ)]
    shorter = _per_f(f, _sign_windows, L - 1)
    return [(w[0], *shorter[y]) for w, y in zip(shorter, succ)]


def _window_sums(f: Poly, L: int) -> list[int]:
    """2^L H[y], H[y] = sum_x prod_{l=1..L} (1 + chi(f^l y) chi(f^l x)) / 2^L,
    by y's index, from one Counter of the sign windows (chi(f^l x))_{l=1..L}.

    A factor 1 + u v is 2 for equal nonzero signs, 0 for unequal ones and 1
    when either is 0, so each 2^L H[y] is an int.  A zero-free window gets
    2^L from each x with the same window, plus what the few x whose window
    holds a 0 add; a window that holds a 0 is summed over every window class."""
    if L < 1:
        raise ValueError("window length L must be >= 1")
    windows = _per_f(f, _sign_windows, L)
    count = Counter(windows)
    zeroed = [(w, n) for w, n in count.items() if 0 in w]

    def total(w, classes):
        return sum(n * prod(1 + u * s for u, s in zip(w, v)) for v, n in classes)

    scale = 2**L
    sums = {
        w: total(w, count.items()) if 0 in w else scale * n + total(w, zeroed)
        for w, n in count.items()
    }
    return [sums[w] for w in windows]


def compute_B(f: Poly, a: FieldElement, i: int, L: int) -> Fraction:
    """Exact B_i = sum_x prod_{l=1..L} (1 + s_a(l+i) chi(f^l(x)))/2.

    The signs s_a(i+1..i+L) are the sign window of f^i(a), so B_i is f's
    window sum at f^i(a): one lookup after fewer than tail + cycle steps, as
    f^i(a) = f^(t + (i - t) mod c)(a) for a's tail t and cycle length c when
    i >= t (an i < t is below that index and kept).  The result is a rational
    with denominator dividing 2^L.  Sign indices follow the l >= 1
    convention: s_a(l) = chi(f^l(a))."""
    if i < 0:
        raise ValueError(f"window index i must be >= 0, got {i}")
    y = _index_in(f.field, a)
    sums = _per_f(f, _window_sums, L)
    table = orbit_table(f)
    t, succ = table.tail[y], table.succ
    for _ in range(min(i, t + (i - t) % table.cycle[y])):
        y = succ[y]
    return Fraction(sums[y], 2**L)


def periodic_starts(f: Poly) -> list[int]:
    """The starts of f, by index, whose sign sequence is purely periodic: the
    orbit bound's hypothesis."""
    return [a for a, tail in enumerate(orbit_table(f).sign_tail) if tail == 0]


class OrbitBoundReport(namedtuple("OrbitBoundReport", "m B_values lhs rhs_sum")):
    """The sign period m, B_0..B_(m-1), |O_f(a)| and 2L + 1 + sum_i B_i."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs_sum


def _sign_period_points(table, x: int) -> list[int]:
    """x, f(x), ..., f^(m-1)(x) for x's sign period m, where B_0..B_(m-1) are
    read; x's sign sequence must be purely periodic (the orbit bound's
    hypothesis)."""
    if table.sign_tail[x]:
        raise NotPurelyPeriodic("orbit bound requires a purely periodic sign sequence")
    succ, ys = table.succ, [x]
    for _ in range(table.sign_period[x] - 1):
        ys.append(succ[ys[-1]])
    return ys


def orbit_bound_check(f: Poly, a: FieldElement, L: int) -> OrbitBoundReport:
    """|O_f(a)| <= 2L + 1 + sum_i B_i, which implies the uniform form with
    B = max B_i, since sum_i B_i <= m B.  The sign period m and |O_f(a)| are
    read from f's orbit table, and each B_i from f's window sums along a's
    orbit."""
    x = _index_in(f.field, a)
    table = orbit_table(f)
    ys = _sign_period_points(table, x)
    sums, scale = _per_f(f, _window_sums, L), 2**L
    bs = [sums[y] for y in ys]  # 2^L B_i: B_i is the window sum at f^i(a)
    return OrbitBoundReport(
        m=len(ys),
        B_values=tuple(Fraction(b, scale) for b in bs),
        lhs=table.tail[x] + table.cycle[x],
        rhs_sum=Fraction((2 * L + 1) * scale + sum(bs), scale),
    )


class EnvelopeCheck(namedtuple("EnvelopeCheck", "B_i i L passed")):
    __slots__ = ()


def envelope_holds(b: Fraction, q: int, d: int, L: int) -> bool:
    """The envelope b <= q/2^L + d^(L+1) sqrt(q), decided exactly on the squared
    branch in integers: with b = n/m, x = 2^L m (b - q/2^L) = 2^L n - q m is
    <= 0, or x^2 <= (2^L m)^2 d^(2(L+1)) q."""
    n, m = b.numerator, b.denominator
    x = n * 2**L - q * m
    return x <= 0 or x * x <= (2**L * m * d ** (L + 1)) ** 2 * q


def envelope_check(f: Poly, a: FieldElement, i: int, L: int) -> EnvelopeCheck:
    """B_i <= q/2^L + d^(L+1) sqrt(q), compared exactly on the squared branch."""
    x = _index_in(f.field, a)
    if classify_2_ordinary(f).verdict != TWO_ORDINARY:
        raise NotTwoOrdinary("envelope bound requires a dynamically 2-ordinary f")
    if orbit_table(f).sign_tail[x]:
        raise NotPurelyPeriodic("envelope bound requires a purely periodic sign sequence")
    b = compute_B(f, a, i, L)
    return EnvelopeCheck(B_i=b, i=i, L=L, passed=envelope_holds(b, f.field.q, f.degree, L))


def orbit_bound_rows(f: Poly, starts, report) -> list[dict]:
    """orbit_bound_check's rows for the purely periodic starts (by index) of f,
    at L = 1..max(choose_L(q, d), 3).  pass is the sum form, which implies the
    uniform one.  envelope_pass is None unless report says f is 2-ordinary, else
    the envelope at max B_i, which is monotone in b, so holds at every B_i.
    The sums and pass are decided on the int numerators 2^L B_i; each printed
    maxB and rhs is one Fraction."""
    F, d, name = f.field, f.degree, str(f)
    q, table = F.q, orbit_table(f)
    two_ordinary = report.verdict == TWO_ORDINARY
    levels = range(1, max(choose_L(q, d), 3) + 1)
    rows = []
    for a in starts:
        ys, size = _sign_period_points(table, a), table.tail[a] + table.cycle[a]
        for L in levels:
            sums, scale = _per_f(f, _window_sums, L), 2**L
            bs = [sums[y] for y in ys]
            max_b, rhs = Fraction(max(bs), scale), (2 * L + 1) * scale + sum(bs)
            rows.append(
                {
                    "q": q,
                    "d": d,
                    "f": name,
                    "a": a,
                    "m": len(ys),
                    "orbit": size,
                    "L": L,
                    "maxB": str(max_b),
                    "lhs": size,
                    "rhs": str(Fraction(rhs, scale)),
                    "pass": size * scale <= rhs,
                    "two_ordinary": two_ordinary,
                    "envelope_pass": envelope_holds(max_b, q, d, L) if two_ordinary else None,
                }
            )
    return rows


def _t_set_sizes(f: Poly, target: int) -> list[int]:
    """|T(L)| for L = 0, 1, ..., M, where every L > M has |T(M)|: one histogram
    of ahead[target][f(x)] (-1: unbounded), summed from the top."""
    table = orbit_table(f)
    ahead = table.ahead[target]
    hist = Counter(ahead[y] for y in table.succ)
    sizes = [hist[-1]]
    for n in range(max(hist), -1, -1):
        sizes.append(sizes[-1] + hist[n])
    return sizes[::-1]


def t_set_size(f: Poly, L: int, target: int = 1) -> int:
    """|T(L)|: x with chi(f^i(x)) == target (so in particular nonzero) for i=1..L,
    i.e. f(x) starts a run of at least L target signs; one lookup in f's
    |T(L)| counts for target."""
    check_target(target)
    if L < 0:
        raise ValueError("L must be nonnegative")
    sizes = _per_f(f, _t_set_sizes, target)
    return sizes[min(L, len(sizes) - 1)]


class RunBoundSide(namedtuple("RunBoundSide", "target run S t_sizes excluded")):
    """One target sign's side of the run bound: its longest run (a RunReport),
    S, t_sizes = |T(L)| for L = 1..S, and whether it is excluded from the
    check, as cycle-constant orbits are."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        if self.excluded:
            return True
        return all(self.S <= t for t in self.t_sizes)

    def to_json(self):
        return {
            "target": self.target,
            "run_length": self.run.length,
            "cycle_constant": self.run.cycle_constant,
            "S": self.S,
            "t_sizes": list(self.t_sizes),
            "excluded": self.excluded,
            "pass": self.passed,
        }


class RunBoundReport(namedtuple("RunBoundReport", "f a square nonsquare")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.square.passed and self.nonsquare.passed

    def to_json(self):
        return {
            "f": str(self.f),
            "a": self.a.idx,
            "q": self.f.field.q,
            "square": self.square.to_json(),
            "nonsquare": self.nonsquare.to_json(),
            "pass": self.passed,
        }


def _run_S(length: int) -> int:
    return max(0, (length - 1) // 4)


def _side_content(f: Poly, target: int, length: int, cycle_constant: bool) -> tuple:
    """(target, length, cycle_constant, t_sizes): everything a side of the run
    bound holds, with S = floor((length - 1)/4) and t_sizes = |T(L)| for
    L = 1..S, empty when the run is cycle-constant (excluded) or S = 0."""
    S = _run_S(length)
    if cycle_constant or S == 0:
        return target, length, cycle_constant, ()
    return target, length, cycle_constant, tuple(t_set_size(f, L, target) for L in range(1, S + 1))


def _side(target: int, length: int, cycle_constant: bool, t_sizes: tuple) -> RunBoundSide:
    return RunBoundSide(
        target=target, run=RunReport(target, length, cycle_constant),
        S=_run_S(length), t_sizes=t_sizes, excluded=cycle_constant,
    )


@lru_cache(maxsize=4096)
def _shared_side_json(*content) -> dict:
    """The side dict of one content, shared by every row that has it while it
    stays in this bounded cache, which is keyed by content alone."""
    return _side(*content).to_json()


def run_bound_check(f: Poly, a: FieldElement) -> RunBoundReport:
    """With R the longest run and S = floor((R-1)/4): S <= |T(L)| for L <= S."""
    square, nonsquare = (_side(*_side_content(f, *longest_run(f, a, t))) for t in (1, -1))
    return RunBoundReport(f=f, a=a, square=square, nonsquare=nonsquare)


def run_bound_rows(f: Poly, report) -> list[dict]:
    """run_bound_check(f, a).to_json() for every start a of f, by index, or
    none unless f's classification report says f is 2-ordinary.  Each side
    dict is shared by every row, of this f or any other, with the same
    content (a process keeps one per content while it stays in a bounded
    cache), so the rows are read-only."""
    if report.verdict != TWO_ORDINARY:
        return []
    table, sides = orbit_table(f), []
    for t in (1, -1):
        # one lookup per distinct (t, length, cycle_constant) of f; a cycle-
        # constant run, never empty, is keyed by minus its length
        keys = [n if s != t else -n for n, s in zip(table.run[t], table.cycle_sign)]
        side = {k: _shared_side_json(*_side_content(f, t, abs(k), k < 0)) for k in set(keys)}
        sides.append(map(side.__getitem__, keys))
    name, q = str(f), f.field.q
    return [
        {"f": name, "a": a, "q": q, "square": sq, "nonsquare": ns, "pass": sq["pass"] and ns["pass"]}
        for a, (sq, ns) in enumerate(zip(*sides))
    ]


def choose_L(q: int, d: int) -> int:
    """Largest L with 4^L d^(2L) d^2 <= q, clamped to >= 1 (floor tuning rule)."""
    if d < 1:
        raise ValueError(f"degree d must be at least 1, got {d}")
    L = 0
    while (4 ** (L + 1)) * d ** (2 * (L + 1)) * d * d <= q:
        L += 1
    return max(L, 1)
