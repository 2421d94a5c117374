"""Exact character-sum computations and the proof-level inequalities:
Weil bound checks, the windowed sums B_i, the orbit-size bound, its
explicit envelope, the T(L) sets and the run-structure inequality, and the
scan rows of the orbit and run bounds, each gated on its hypothesis.

Every comparison involving sqrt(q) is squared into exact integer/rational
arithmetic; nothing here uses floating point for a pass/fail decision.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class WeilCheck:
    applies: bool
    reason: str | None
    sum: int | None = None
    passed: bool | None = None
    margin_sq: int | None = None  # (d-1)^2 q - sum^2

    def to_json(self):
        return asdict(self)


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


def _window_sums(f: Poly, L: int) -> list[Fraction]:
    """H[y] = sum_x prod_{l=1..L} (1 + chi(f^l y) chi(f^l x)) / 2^L by y's index,
    from one Counter of the sign windows (chi(f^l x))_{l=1..L}.

    A factor 1 + u v is 2 for equal nonzero signs, 0 for unequal ones and 1
    when either is 0.  So a zero-free window gets 2^L from each x with the
    same window, plus what the few x whose window holds a 0 add; a window
    that holds a 0 is summed over every window class."""
    if L < 1:
        raise ValueError("window length L must be >= 1")
    succ = orbit_table(f).succ
    first = list(map(f.field.signs.__getitem__, succ))
    windows = [(s,) for s in first]
    for _ in range(L - 1):
        windows = [(s, *windows[y]) for s, y in zip(first, succ)]
    count = Counter(windows)
    zeroed = [(w, n) for w, n in count.items() if 0 in w]

    def total(w, classes):
        return sum(n * prod(1 + u * s for u, s in zip(w, v)) for v, n in classes)

    scale = 2**L
    sums = {
        w: Fraction(total(w, count.items()) if 0 in w else scale * n + total(w, zeroed), scale)
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
    t = table.tail[y]
    for _ in range(min(i, t + (i - t) % table.cycle[y])):
        y = table.succ[y]
    return sums[y]


def periodic_starts(f: Poly) -> list[int]:
    """The starts of f, by index, whose sign sequence is purely periodic: the
    orbit bound's hypothesis."""
    return [a for a, tail in enumerate(orbit_table(f).sign_tail) if tail == 0]


@dataclass(frozen=True)
class OrbitBoundReport:
    m: int
    B_values: tuple[Fraction, ...]
    lhs: int
    rhs_sum: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs_sum


def orbit_bound_check(f: Poly, a: FieldElement, L: int) -> OrbitBoundReport:
    """|O_f(a)| <= 2L + 1 + sum_i B_i, which implies the uniform form with
    B = max B_i, since sum_i B_i <= m B.  The sign period m and |O_f(a)| are
    read from f's orbit table, and each B_i from f's window sums along a's
    orbit."""
    x = _index_in(f.field, a)
    table = orbit_table(f)
    if table.sign_tail[x]:
        raise NotPurelyPeriodic("orbit bound requires a purely periodic sign sequence")
    m = table.sign_period[x]
    sums = _per_f(f, _window_sums, L)
    bs, y = [], x
    for _ in range(m):  # B_i is the window sum at f^i(a)
        bs.append(sums[y])
        y = table.succ[y]
    return OrbitBoundReport(
        m=m,
        B_values=tuple(bs),
        lhs=table.tail[x] + table.cycle[x],
        rhs_sum=2 * L + 1 + sum(bs),
    )


@dataclass(frozen=True)
class EnvelopeCheck:
    B_i: Fraction
    i: int
    L: int
    passed: bool


def envelope_holds(b: Fraction, q: int, d: int, L: int) -> bool:
    """The envelope b <= q/2^L + d^(L+1) sqrt(q), decided exactly on the squared
    branch: excess <= 0 or excess^2 <= d^(2(L+1)) q, with excess = b - q/2^L."""
    excess = b - Fraction(q, 2**L)
    return excess <= 0 or excess * excess <= d ** (2 * (L + 1)) * q


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
    the envelope at max B_i, which is monotone in b, so holds at every B_i."""
    F, d, name = f.field, f.degree, str(f)
    two_ordinary = report.verdict == TWO_ORDINARY
    rows = []
    for a in starts:
        for L in range(1, max(choose_L(F.q, d), 3) + 1):
            ob = orbit_bound_check(f, FieldElement(F, a), L)
            max_b = max(ob.B_values)
            rows.append(
                {
                    "q": F.q,
                    "d": d,
                    "f": name,
                    "a": a,
                    "m": ob.m,
                    "orbit": ob.lhs,
                    "L": L,
                    "maxB": str(max_b),
                    "lhs": ob.lhs,
                    "rhs": str(ob.rhs_sum),
                    "pass": ob.passed,
                    "two_ordinary": two_ordinary,
                    "envelope_pass": envelope_holds(max_b, F.q, d, L) if two_ordinary else None,
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


@dataclass(frozen=True)
class RunBoundSide:
    target: int
    run: RunReport
    S: int
    t_sizes: tuple[int, ...]  # |T(L)| for L = 1..S
    excluded: bool  # cycle-constant orbits are excluded from the check

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


def _run_bound_row(name: str, q: int, a: int, square: dict, nonsquare: dict) -> dict:
    return {
        "f": name,
        "a": a,
        "q": q,
        "square": square,
        "nonsquare": nonsquare,
        "pass": square["pass"] and nonsquare["pass"],
    }


@dataclass(frozen=True)
class RunBoundReport:
    f: Poly
    a: FieldElement
    square: RunBoundSide
    nonsquare: RunBoundSide

    @property
    def passed(self) -> bool:
        return self.square.passed and self.nonsquare.passed

    def to_json(self):
        return _run_bound_row(
            str(self.f), self.f.field.q, self.a.idx, self.square.to_json(), self.nonsquare.to_json()
        )


def _run_bound_side(f: Poly, run: RunReport) -> RunBoundSide:
    """One sign's side of the run bound: it depends on f and the run only."""
    S = max(0, (run.length - 1) // 4)
    if run.cycle_constant:
        return RunBoundSide(target=run.target, run=run, S=S, t_sizes=(), excluded=True)
    t_sizes = tuple(t_set_size(f, L, target=run.target) for L in range(1, S + 1))
    return RunBoundSide(target=run.target, run=run, S=S, t_sizes=t_sizes, excluded=False)


def run_bound_check(f: Poly, a: FieldElement) -> RunBoundReport:
    """With R the longest run and S = floor((R-1)/4): S <= |T(L)| for L <= S."""
    return RunBoundReport(
        f=f, a=a,
        square=_run_bound_side(f, longest_run(f, a, 1)),
        nonsquare=_run_bound_side(f, longest_run(f, a, -1)),
    )


def run_bound_rows(f: Poly, report) -> list[dict]:
    """run_bound_check(f, a).to_json() for every start a of f, by index, or
    none unless f's classification report says f is 2-ordinary.  The rows
    share one side dict per distinct run of f, so they are read-only."""
    if report.verdict != TWO_ORDINARY:
        return []
    run = orbit_table(f).run
    sides = {r: _run_bound_side(f, r).to_json() for r in {*run[1], *run[-1]}}
    name, q = str(f), f.field.q
    return [
        _run_bound_row(name, q, a, sides[sq], sides[ns])
        for a, (sq, ns) in enumerate(zip(run[1], run[-1]))
    ]


def choose_L(q: int, d: int) -> int:
    """Largest L with 4^L d^(2L) d^2 <= q, clamped to >= 1 (floor tuning rule)."""
    if d < 1:
        raise ValueError(f"degree d must be at least 1, got {d}")
    L = 0
    while (4 ** (L + 1)) * d ** (2 * (L + 1)) * d * d <= q:
        L += 1
    return max(L, 1)
