"""Exact character-sum computations and the proof-level inequalities:
Weil bound checks, the windowed sums B_i, the orbit-size bound, its
explicit envelope, the T(L) sets and the run-structure inequality, and the
scan rows of the orbit and run bounds, each gated on its hypothesis.

Every comparison involving sqrt(q) is squared into exact integer/rational
arithmetic; nothing here uses floating point for a pass/fail decision.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

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


def _sign_windows(f: Poly, L: int) -> list[int]:
    """(chi(f^l x))_{l=1..L} by x's index, two bits per place, place l at bit
    2(l - 1): chi % 3, so 01 for +1, 10 for -1 and 00 for 0.  x's window is
    d | w << 2, d = chi(f(x)) % 3 and w f(x)'s window of length L - 1, so each
    length is built once per f, from the next shorter."""
    succ = orbit_table(f).succ
    if L == 1:
        return [s % 3 for s in map(f.field.signs.__getitem__, succ)]
    firsts, shorter = _per_f(f, _sign_windows, 1), _per_f(f, _sign_windows, L - 1)
    return [d | shorter[y] << 2 for d, y in zip(firsts, succ)]


def _window_sums(f: Poly, L: int) -> list[int]:
    """2^L H[y], H[y] = sum_x prod_{l=1..L} (1 + chi(f^l y) chi(f^l x)) / 2^L,
    by y's index, from one Counter of the two-bit sign windows (chi(f^l x))_l.

    A factor 1 + u v is 2 for equal nonzero signs, 0 for unequal ones and 1
    when either is 0, so each 2^L H[y] is an int.  With low = 01 at every
    place, the product of windows a and b is 0 if a place of c = a | b holds
    11 (c & c >> 1 & low != 0), else 2^popcount(a & b); w is zero-free iff
    (w | w >> 1) & low == low.  A zero-free window gets 2^L from each x with
    the same window, plus what the few x whose window holds a 0 add; a window
    that holds a 0 is summed over every window class."""
    if L < 1:
        raise ValueError("window length L must be >= 1")
    windows = _per_f(f, _sign_windows, L)
    count = Counter(windows)
    low = (4**L - 1) // 3
    zeroed = {w: n for w, n in count.items() if (w | w >> 1) & low != low}

    def total(w, classes):
        return sum(n << (w & v).bit_count() for v, n in classes if not (c := w | v) & c >> 1 & low)

    scale = 2**L
    sums = {
        w: total(w, count.items()) if w in zeroed else scale * n + total(w, zeroed.items())
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
    for _ in range(min(i, t + (i - t) % table.cycle_of(y).length)):
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
    for _ in range(table.cycle_of(x).sign_period - 1):
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
        lhs=table.tail[x] + table.cycle_of(x).length,
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
        ys, size = _sign_period_points(table, a), table.tail[a] + table.cycle_of(a).length
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
    i.e. f(x) starts a run of at least L target signs; one lookup in f's one
    list of |T(L)| counts for target, the list _side_values slices."""
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


def _side_values(f: Poly, target: int, length: int, cycle_constant: bool) -> tuple:
    """(target, length, cycle_constant, S, t_sizes): the values a side of the
    run bound is built from, with S = floor((length - 1)/4) and t_sizes =
    |T(L)| for L = 1..S, empty when the run is cycle-constant (excluded) or
    S = 0, else a slice of the one list of |T(L)| that t_set_size reads."""
    S = _run_S(length)
    sizes = () if cycle_constant or not S else _per_f(f, _t_set_sizes, target)
    t_sizes = tuple(sizes[1:S + 1] + sizes[-1:] * (S + 1 - len(sizes)))
    return target, length, cycle_constant, S, t_sizes


def _side(target: int, length: int, cycle_constant: bool, S: int, t_sizes: tuple) -> RunBoundSide:
    run = RunReport(target, length, cycle_constant)
    return RunBoundSide(target, run, S, t_sizes, excluded=cycle_constant)


def run_bound_check(f: Poly, a: FieldElement) -> RunBoundReport:
    """With R the longest run and S = floor((R-1)/4): S <= |T(L)| for L <= S,
    a counting identity.  A run of R target signs that is not cycle-constant
    is R distinct points, the first R - L of them in T(L), so |T(L)| >= R - L
    >= S.  It fails only on a broken orbit table, and never uses 2-ordinarity."""
    square, nonsquare = (_side(*_side_values(f, *longest_run(f, a, t))) for t in (1, -1))
    return RunBoundReport(f=f, a=a, square=square, nonsquare=nonsquare)


@lru_cache(maxsize=4096)
def _pair_tail(square: tuple, nonsquare: tuple, q: int) -> tuple[str, bool]:
    """(tail, passed) of every run-bound row whose sides are built from the
    values square and nonsquare, and whose field has q elements: the tail is
    what follows a and f in the row's JSON line, the row's other keys as
    json.dumps(..., sort_keys=True) writes them, less the opening brace.  One
    tail per pair while it stays in this bounded cache, which is keyed by
    every value the sides are built from, S included."""
    sq, ns = _side(*square), _side(*nonsquare)
    passed = sq.passed and ns.passed
    row = {"nonsquare": ns.to_json(), "pass": passed, "q": q, "square": sq.to_json()}
    return json.dumps(row, sort_keys=True)[1:], passed


class RunBoundPart:
    """json.dumps(run_bound_check(f, a).to_json(), sort_keys=True) for every
    start a of one f, by index, held as its lines' text: f's name f, one tail
    per start, each shared by every start (of any f) with the same pair of
    sides, and the number of failed rows.  Iterating a part decodes its
    lines into row dicts."""

    __slots__ = ("f", "tails", "failures")

    def __init__(self, f: str, tails: tuple[str, ...], failures: int):
        self.f, self.tails, self.failures = f, tails, failures

    def lines(self):
        head = ', "f": ' + encode_basestring_ascii(self.f) + ", "
        for a, tail in enumerate(self.tails):
            yield f'{{"a": {a}{head}{tail}'

    def __iter__(self):
        return map(json.loads, self.lines())


def run_bound_part(f: Poly, report) -> RunBoundPart | None:
    """f's run-bound rows as one part, or None unless f's classification
    report says f is 2-ordinary."""
    if report.verdict != TWO_ORDINARY:
        return None
    table, keys, sides = orbit_table(f), [], []
    for t in (1, -1):
        # one side per distinct (t, length, cycle_constant) of f; a cycle-
        # constant run, never empty, is keyed by minus its length
        run, constant = table.run[t], [c.sign == t for c in table.cycles]
        if any(constant):
            run = [-n if constant[r] else n for n, r in zip(run, table.root)]
        keys.append(run)
        sides.append({k: _side_values(f, t, abs(k), k < 0) for k in set(keys[-1])})
    (square, nonsquare), pairs = sides, list(zip(*keys))
    tails, failures = {}, 0
    for (k, j), n in Counter(pairs).items():
        tails[k, j], passed = _pair_tail(square[k], nonsquare[j], f.field.q)
        failures += 0 if passed else n
    return RunBoundPart(str(f), tuple(map(tails.__getitem__, pairs)), failures)


def choose_L(q: int, d: int) -> int:
    """Largest L with 4^L d^(2L) d^2 <= q, clamped to >= 1 (floor tuning rule)."""
    if d < 1:
        raise ValueError(f"degree d must be at least 1, got {d}")
    L = 0
    while (4 ** (L + 1)) * d ** (2 * (L + 1)) * d * d <= q:
        L += 1
    return max(L, 1)
