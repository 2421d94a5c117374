"""Orbit structure under polynomial iteration: tails, cycles, character
sign sequences and longest sign runs, all read from one orbit table per f."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .field import FieldElement
from .fpoly import Poly, _index_in


@dataclass(frozen=True)
class OrbitSummary:
    """Tail/cycle data of one starting point; elements in visit order."""

    start: FieldElement
    tail: int
    period: int
    elements: tuple[FieldElement, ...]
    contains_zero_at: int | None

    @property
    def size(self) -> int:
        return self.tail + self.period

    def to_json(self):
        return {
            "start": self.start.idx,
            "tail": self.tail,
            "period": self.period,
            "elements": [e.idx for e in self.elements],
            "contains_zero_at": self.contains_zero_at,
        }


class RunReport(NamedTuple):
    """Longest block of consecutive iterates with the target character sign.

    When the whole cycle carries the target sign the index run is unbounded;
    length then counts distinct elements (trailing tail run plus the cycle)
    and cycle_constant is set.
    """

    target: int
    length: int
    cycle_constant: bool


@dataclass(frozen=True)
class OrbitTable:
    """Orbit and sign data of every start x under one f, by element index.

    From x, tail[x] steps reach a cycle of length cycle[x]; chi(f^l(x)) has
    minimal eventual period sign_period[x] from l = sign_tail[x] on.  For a
    target sign t, ahead[t][x] counts the iterates x, f(x), ... before the
    first one without sign t (-1 if there is none), and run[t][x] is
    longest_run's report.  Read-only except derived, where bounds keeps the
    window sums and |T(L)| counts it builds from the table on first use, so
    they live exactly as long as the table."""

    succ: list[int]
    tail: list[int]
    cycle: list[int]
    sign_tail: list[int]
    sign_period: list[int]
    ahead: dict[int, list[int]]
    run: dict[int, list[RunReport]]
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@lru_cache(maxsize=1)
def orbit_table(f: Poly) -> OrbitTable:
    """f's whole-field value table and the field's sign list, then one O(q)
    pass over f's functional graph; a one-entry memo, so every start of one f
    reads the same table.  Each point joins exactly one walk, which ends at a
    point placed earlier or closes a new cycle.  A new cycle gets its sign
    period and runs from two laps of its signs; the walk's tail points are
    then placed from the cycle outward, each from its successor."""
    q = f.field.q
    succ = f.value_table()
    chi = f.field._chi
    tail = [-1] * q  # -1: not walked yet, -2: on the current walk
    cycle = [0] * q
    sign_tail = [0] * q
    sign_period = [0] * q
    ahead = {1: [0] * q, -1: [0] * q}
    run = {1: [None] * q, -1: [None] * q}
    ahead_sq, ahead_ns, run_sq, run_ns = ahead[1], ahead[-1], run[1], run[-1]
    # A purely periodic x has the signs of cyc_of[x][phase[x]], a point on its
    # cycle (phase[x] is -1 otherwise).  A tail point x is purely periodic iff
    # its successor y is and chi(x) is the sign one phase before y's.
    cyc_of = [None] * q
    phase = [-1] * q
    for start in range(q):
        if tail[start] != -1:
            continue
        path = []
        x = start
        while tail[x] == -1:
            tail[x] = -2
            path.append(x)
            x = succ[x]
        if tail[x] == -2:  # the walk closed a new cycle at x
            k = path.index(x)
            cyc = path[k:]
            del path[k:]
            p = len(cyc)
            signs = [chi[c] for c in cyc]
            lap = bytes(s + 1 for s in signs)
            m = (lap + lap).find(lap, 1)  # least self-matching shift: the sign period
            for j, c in enumerate(cyc):
                tail[c], cycle[c], sign_period[c] = 0, p, m
                cyc_of[c], phase[c] = cyc, j
            for t in (1, -1):
                if m == 1 and signs[0] == t:
                    ahead_t, rep = [-1] * p, RunReport(t, p, cycle_constant=True)
                else:
                    ahead_t, cur = [0] * p, 0
                    for j in range(2 * p - 1, -1, -1):  # two laps, backwards
                        cur = cur + 1 if signs[j % p] == t else 0
                        ahead_t[j % p] = cur  # the first lap's counts, written last, are exact
                    rep = RunReport(t, max(ahead_t), cycle_constant=False)
                for c, a in zip(cyc, ahead_t):
                    ahead[t][c], run[t][c] = a, rep
        for x in reversed(path):
            y = succ[x]
            tail[x], cycle[x], sign_period[x] = tail[y] + 1, cycle[y], sign_period[y]
            s = chi[x]
            cyc = cyc_of[y]
            if phase[y] >= 0 and s == chi[cyc[phase[y] - 1]]:
                cyc_of[x], phase[x] = cyc, (phase[y] - 1) % len(cyc)
            else:
                sign_tail[x] = sign_tail[y] + 1
            # x breaks every run of the other sign: that side keeps y's report
            # and an ahead count of 0; only the side of chi(x) is extended
            run_sq[x], run_ns[x] = run_sq[y], run_ns[y]
            if s:
                ahead_s, run_s = (ahead_sq, run_sq) if s == 1 else (ahead_ns, run_ns)
                a = ahead_s[y]
                a = ahead_s[x] = -1 if a < 0 else a + 1
                rep = run_s[x]
                if a < 0:  # x's whole orbit has sign s: the run counts every point
                    run_s[x] = RunReport(s, tail[x] + cycle[x], cycle_constant=True)
                elif a > rep.length and not rep.cycle_constant:
                    run_s[x] = RunReport(s, a, cycle_constant=False)
    return OrbitTable(succ, tail, cycle, sign_tail, sign_period, ahead, run)


def forward_orbit(f: Poly, a: FieldElement) -> OrbitSummary:
    """The tail + period points of a's orbit, read from f's orbit table."""
    x = _index_in(f.field, a)
    table = orbit_table(f)
    tail, period = table.tail[x], table.cycle[x]
    xs = [x]
    while len(xs) < tail + period:
        xs.append(table.succ[xs[-1]])
    return OrbitSummary(
        start=a,
        tail=tail,
        period=period,
        elements=tuple(FieldElement(f.field, x) for x in xs),
        contains_zero_at=xs.index(0) if 0 in xs else None,
    )


@dataclass(frozen=True)
class SignSequence:
    """chi(f^l(a)) for l = 0, 1, ...; stored for one tail plus one cycle lap.

    sign_period is the minimal eventual period, sign_tail the minimal tail
    for that period; purely_periodic means sign_tail == 0.
    """

    orbit: OrbitSummary
    signs: tuple[int, ...]
    sign_tail: int
    sign_period: int
    purely_periodic: bool

    def sign_at(self, ell: int) -> int:
        """chi(f^ell(a)) for any ell >= 0 (periodic extension)."""
        t, p = self.orbit.tail, self.orbit.period
        if ell < len(self.signs):
            return self.signs[ell]
        return self.signs[t + (ell - t) % p]

    def to_json(self):
        return {
            "signs": list(self.signs),
            "sign_tail": self.sign_tail,
            "sign_period": self.sign_period,
            "purely_periodic": self.purely_periodic,
        }


def sign_sequence(f: Poly, a: FieldElement) -> SignSequence:
    orbit = forward_orbit(f, a)
    table = orbit_table(f)
    chi = f.field._chi
    return SignSequence(
        orbit=orbit,
        signs=tuple(chi[e.idx] for e in orbit.elements),
        sign_tail=table.sign_tail[a.idx],
        sign_period=table.sign_period[a.idx],
        purely_periodic=table.sign_tail[a.idx] == 0,
    )


def check_target(target: int) -> None:
    """Refuse a target sign other than 1 (squares) or -1 (non-squares)."""
    if target not in (1, -1):
        raise ValueError(f"target sign must be 1 or -1, got {target!r}")


def longest_run(f: Poly, a: FieldElement, target: int) -> RunReport:
    """Longest run of iterates of a with character sign target."""
    check_target(target)
    return orbit_table(f).run[target][_index_in(f.field, a)]
