"""Orbit structure under polynomial iteration: tails, cycles, character
sign sequences and longest sign runs, all read from one orbit table per f."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .field import FieldElement
from .fpoly import Poly, _index_in


class OrbitSummary(namedtuple("OrbitSummary", "start tail period elements contains_zero_at")):
    """Tail/cycle data of one starting point; elements in visit order, and
    contains_zero_at the index of 0 among them, or None."""

    __slots__ = ()

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


class RunReport(namedtuple("RunReport", "target length cycle_constant")):
    """Longest block of consecutive iterates with the target character sign.

    When the whole cycle carries the target sign the index run is unbounded;
    length then counts distinct elements (trailing tail run plus the cycle)
    and cycle_constant is set.
    """

    __slots__ = ()


class OrbitTable(namedtuple(
    "OrbitTable", "succ tail cycle sign_tail sign_period cycle_sign ahead run"
)):
    """Orbit and sign data of every start x under one f, by element index.

    From x, tail[x] steps reach a cycle of length cycle[x]; chi(f^l(x)) has
    minimal eventual period sign_period[x] from l = sign_tail[x] on, and
    cycle_sign[x] is the one sign of that cycle's points (0 if they differ).
    For a target sign t, ahead[t][x] counts the iterates x, f(x), ... before
    the first one without sign t (-1 if there is none), and run[t][x] is the
    length of longest_run's report, which is cycle-constant iff
    cycle_sign[x] == t.  The fields are read-only and are all that == and
    repr see.  derived, the one attribute beside them, is a fresh dict per
    table, where bounds keeps the window sums and |T(L)| counts it builds
    from the table on first use, so they live exactly as long as the table."""

    # no __slots__ = (): derived lives in the instance's own __dict__
    def __new__(cls, *fields, **named):
        table = super().__new__(cls, *fields, **named)
        table.derived = {}
        return table

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace gets a derived too


@lru_cache(maxsize=1)
def orbit_table(f: Poly) -> OrbitTable:
    """f's whole-field value table and the field's sign list, then one O(q)
    pass over f's functional graph; a one-entry memo, so every start of one f
    reads the same table.  Each point joins exactly one walk, which ends at a
    point placed earlier or closes a new cycle.  A new cycle gets an id, its
    sign period and runs from two laps of its signs; the walk's tail points
    are then placed from the cycle outward, each from its successor, and the
    per-cycle data is spread over the points by cycle id at the end."""
    q = f.field.q
    succ = f.value_table()
    chi = f.field.signs
    tail = [-1] * q  # -1: not walked yet, -2: on the current walk
    root = [0] * q  # the id of the cycle each point reaches
    sign_tail = [0] * q
    ahead = {1: [0] * q, -1: [0] * q}
    run = {1: [0] * q, -1: [0] * q}
    ahead_sq, ahead_ns, run_sq, run_ns = ahead[1], ahead[-1], run[1], run[-1]
    rings, cycles = [], []  # by cycle id: its signs; its length, sign period and one sign
    # A purely periodic x has the signs of rings[root[x]][ring[x]], a point on
    # its cycle (ring[x] is -1 otherwise).  A tail point x is purely periodic
    # iff its successor y is and chi(x) is the sign one place before y's.
    ring = [-1] * q
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
            p, r = len(cyc), len(rings)
            signs = [chi[c] for c in cyc]
            lap = bytes(s + 1 for s in signs)
            m = (lap + lap).find(lap, 1)  # least self-matching shift: the sign period
            rings.append(signs)
            cycles.append((p, m, signs[0] if m == 1 else 0))
            for j, c in enumerate(cyc):
                tail[c], root[c], ring[c] = 0, r, j
            for t in (1, -1):
                if m == 1 and signs[0] == t:
                    ahead_t, longest = [-1] * p, p
                else:
                    ahead_t, cur = [0] * p, 0
                    for j in range(2 * p - 1, -1, -1):  # two laps, backwards
                        cur = cur + 1 if signs[j % p] == t else 0
                        ahead_t[j % p] = cur  # the first lap's counts, written last, are exact
                    longest = max(ahead_t)
                for c, a in zip(cyc, ahead_t):
                    ahead[t][c], run[t][c] = a, longest
        r = root[x]
        signs, cs = rings[r], cycles[r][2]
        for x in reversed(path):
            y = succ[x]
            tail[x], root[x] = tail[y] + 1, r
            s = chi[x]
            j = ring[y]
            if j >= 0 and s == signs[j - 1]:
                ring[x] = j - 1 if j else len(signs) - 1
            else:
                sign_tail[x] = sign_tail[y] + 1
            # x breaks every run of the other sign: that side keeps y's length
            # and an ahead count of 0; only the side of chi(x) is extended
            run_sq[x], run_ns[x] = run_sq[y], run_ns[y]
            if s:
                ahead_s, run_s = (ahead_sq, run_sq) if s == 1 else (ahead_ns, run_ns)
                a = ahead_s[y]
                if a < 0:  # x's whole orbit has sign s: the run counts every point
                    ahead_s[x], run_s[x] = -1, run_s[y] + 1
                else:
                    a = ahead_s[x] = a + 1
                    if a > run_s[x] and cs != s:
                        run_s[x] = a
    cycle, sign_period, cycle_sign = ([col[r] for r in root] for col in zip(*cycles))
    return OrbitTable(succ, tail, cycle, sign_tail, sign_period, cycle_sign, ahead, run)


def forward_orbit(f: Poly, a: FieldElement) -> OrbitSummary:
    """The tail + period points of a's orbit, read from f's orbit table."""
    x = _index_in(f.field, a)
    table = orbit_table(f)
    tail, period, succ = table.tail[x], table.cycle[x], table.succ
    xs = [x]
    while len(xs) < tail + period:
        xs.append(succ[xs[-1]])
    return OrbitSummary(
        start=a,
        tail=tail,
        period=period,
        elements=tuple(FieldElement(f.field, x) for x in xs),
        contains_zero_at=xs.index(0) if 0 in xs else None,
    )


class SignSequence(namedtuple("SignSequence", "orbit signs sign_tail sign_period purely_periodic")):
    """chi(f^l(a)) for l = 0, 1, ...; stored for one tail plus one cycle lap.

    sign_period is the minimal eventual period, sign_tail the minimal tail
    for that period; purely_periodic means sign_tail == 0.
    """

    __slots__ = ()

    def sign_at(self, ell: int) -> int:
        """chi(f^ell(a)) for any ell >= 0 (periodic extension)."""
        if ell < 0:
            raise ValueError(f"orbit index must be nonnegative, got {ell}")
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
    chi = f.field.signs
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
    table, x = orbit_table(f), _index_in(f.field, a)
    return RunReport(target, table.run[target][x], table.cycle_sign[x] == target)
