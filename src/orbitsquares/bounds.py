"""Exact character-sum computations and the proof-level inequalities:
Weil bound checks, the windowed sums B_i, the orbit-size bound, its
explicit envelope, the T(L) sets and the run-structure inequality.

Every comparison involving sqrt(q) is squared into exact integer/rational
arithmetic; nothing here uses floating point for a pass/fail decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classify import TWO_ORDINARY, classify_2_ordinary
from .dynamics import RunReport, check_target, longest_run, orbit_table
from .errors import NotPurelyPeriodic, NotTwoOrdinary
from .field import FieldElement
from .fpoly import Poly, constant_times_square


def char_sum(f: Poly) -> int:
    """Sum of chi(f(x)) over the whole field, read from f's orbit table."""
    return sum(map(f.field.chi_i, orbit_table(f).succ))


@dataclass(frozen=True)
class WeilCheck:
    applies: bool
    reason: str | None
    sum: int | None = None
    passed: bool | None = None
    margin_sq: int | None = None  # (d-1)^2 q - sum^2

    def to_json(self):
        return {
            "applies": self.applies,
            "reason": self.reason,
            "sum": self.sum,
            "passed": self.passed,
            "margin_sq": self.margin_sq,
        }


def weil_check(f: Poly) -> WeilCheck:
    """|sum chi(f)|^2 <= (d-1)^2 q for f that is not a constant times a square."""
    if constant_times_square(f) is not None:
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


def compute_B(f: Poly, a: FieldElement, i: int, L: int) -> Fraction:
    """Exact B_i = sum_x prod_{l=1..L} (1 + s_a(l+i) chi(f^l(x)))/2.

    The signs s_a(i+1..i+L) come from walking f's orbit table from a, and
    each x's iterates from walking it from x (cost O(i + qL) lookups); the
    result is a rational with denominator dividing 2^L.  Sign indices follow
    the l >= 1 convention: s_a(l) = chi(f^l(a))."""
    if L < 1:
        raise ValueError("window length L must be >= 1")
    F = f.field
    chi = F.chi_i
    succ = orbit_table(f).succ
    y = a.idx
    for _ in range(i):
        y = succ[y]
    s = [0]  # s[l] = s_a(l + i) for l = 1..L
    for _ in range(L):
        y = succ[y]
        s.append(chi(y))
    total = 0
    for x in range(F.q):
        y = x
        num = 1
        for ell in range(1, L + 1):
            y = succ[y]
            num *= 1 + s[ell] * chi(y)
            if num == 0:
                break
        total += num
    return Fraction(total, 2**L)


@dataclass(frozen=True)
class OrbitBoundReport:
    f: Poly
    a: FieldElement
    L: int
    m: int
    orbit_size: int
    B_values: tuple[Fraction, ...]
    lhs: int
    rhs_sum: Fraction
    rhs_uniform: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs_sum

    @property
    def passed_uniform(self) -> bool:
        return self.lhs <= self.rhs_uniform


def orbit_bound_check(f: Poly, a: FieldElement, L: int) -> OrbitBoundReport:
    """|O_f(a)| <= 2L + 1 + sum_i B_i, and the uniform form with B = max B_i;
    the sign period m and |O_f(a)| are read from f's orbit table."""
    table = orbit_table(f)
    if table.sign_tail[a.idx]:
        raise NotPurelyPeriodic("orbit bound requires a purely periodic sign sequence")
    m = table.sign_period[a.idx]
    bs = tuple(compute_B(f, a, i, L) for i in range(m))
    lhs = table.tail[a.idx] + table.cycle[a.idx]
    rhs_sum = 2 * L + 1 + sum(bs)
    rhs_uniform = 2 * L + 1 + m * max(bs)
    return OrbitBoundReport(
        f=f, a=a, L=L, m=m, orbit_size=lhs, B_values=bs,
        lhs=lhs, rhs_sum=rhs_sum, rhs_uniform=rhs_uniform,
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
    if classify_2_ordinary(f).verdict != TWO_ORDINARY:
        raise NotTwoOrdinary("envelope bound requires a dynamically 2-ordinary f")
    if orbit_table(f).sign_tail[a.idx]:
        raise NotPurelyPeriodic("envelope bound requires a purely periodic sign sequence")
    b = compute_B(f, a, i, L)
    return EnvelopeCheck(B_i=b, i=i, L=L, passed=envelope_holds(b, f.field.q, f.degree, L))


def t_set_size(f: Poly, L: int, target: int = 1) -> int:
    """|T(L)|: x with chi(f^i(x)) == target (so in particular nonzero) for i=1..L,
    i.e. f(x) starts a run of at least L target signs (ahead -1: unbounded)."""
    check_target(target)
    if L < 0:
        raise ValueError("L must be nonnegative")
    table = orbit_table(f)
    ahead = table.ahead[target]
    return sum(not 0 <= ahead[y] < L for y in table.succ)


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
        return {
            "f": str(self.f),
            "a": self.a.idx,
            "q": self.f.field.q,
            "square": self.square.to_json(),
            "nonsquare": self.nonsquare.to_json(),
            "pass": self.passed,
        }


def run_bound_check(f: Poly, a: FieldElement) -> RunBoundReport:
    """With R the longest run and S = floor((R-1)/4): S <= |T(L)| for L <= S."""
    sides = {}
    for target in (1, -1):
        run = longest_run(f, a, target)
        S = max(0, (run.length - 1) // 4)
        if run.cycle_constant:
            sides[target] = RunBoundSide(
                target=target, run=run, S=S, t_sizes=(), excluded=True
            )
            continue
        sizes = tuple(t_set_size(f, L, target=target) for L in range(1, S + 1))
        sides[target] = RunBoundSide(
            target=target, run=run, S=S, t_sizes=sizes, excluded=False
        )
    return RunBoundReport(f=f, a=a, square=sides[1], nonsquare=sides[-1])


def choose_L(q: int, d: int) -> int:
    """Largest L with 4^L d^(2L) d^2 <= q, clamped to >= 1 (floor tuning rule)."""
    L = 0
    while (4 ** (L + 1)) * d ** (2 * (L + 1)) * d * d <= q:
        L += 1
    return max(L, 1)
