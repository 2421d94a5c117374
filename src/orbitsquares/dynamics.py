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


class Cycle(namedtuple("Cycle", "length sign_period sign depth")):
    """One cycle of f's functional graph: its length, the sign period of its
    points, their one sign (0 if they differ), and depth, the largest tail
    among the starts that reach it with a purely periodic sign sequence (0
    when only its own points do)."""

    __slots__ = ()


class OrbitTable(namedtuple("OrbitTable", "succ tail root sign_tail cycles ahead run")):
    """Orbit and sign data of every start x under one f, by element index,
    and of every cycle, by cycle id.

    From x, tail[x] steps reach the cycle cycles[root[x]], cycle_of(x), and
    chi(f^l(x)) has minimal eventual period cycle_of(x).sign_period from
    l = sign_tail[x] on.  Per-cycle data is held once per cycle, not copied
    onto its points: a random map on q points has about (1/2) ln q cycles.
    For a target sign t, ahead[t][x] counts the iterates x, f(x), ... before
    the first one without sign t (-1 if there is none), and run[t][x] is the
    length of longest_run's report, which is cycle-constant iff x's cycle
    has sign t.  The fields are read-only and are all that == and repr see.
    derived, the one attribute beside them, is a fresh dict per table, where
    bounds keeps the window sums and |T(L)| counts it builds from the table
    on first use, so they live exactly as long as the table."""

    # no __slots__ = (): derived lives in the instance's own __dict__
    def __new__(cls, *fields, **named):
        table = super().__new__(cls, *fields, **named)
        table.derived = {}
        return table

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace gets a derived too

    def cycle_of(self, x: int) -> Cycle:
        """The cycle x's orbit reaches."""
        return self.cycles[self.root[x]]


def _cycle_data(word: bytes) -> tuple:
    """(m, sign, sides) of a cycle whose signs in walk order are word[j] - 1:
    its sign period m, its one sign (0 if they differ) and, for t = 1, -1, a
    side (ahead, longest): ahead[j] counts the signs t from place j on before
    the first other one (-1: none), and longest is the longest run of t."""
    p = len(word)
    m = (word + word).find(word, 1)  # least self-matching shift: the sign period
    sign = word[0] - 1 if m == 1 else 0
    sides = []
    for t in (1, -1):
        if sign == t:
            sides.append(((-1,) * p, p))
            continue
        ahead, cur = [0] * p, 0
        for j in range(2 * p - 1, -1, -1):  # two laps, backwards
            cur = cur + 1 if word[j % p] == t + 1 else 0
            ahead[j % p] = cur  # the first lap's counts, written last, are exact
        sides.append((tuple(ahead), max(ahead)))
    return m, sign, tuple(sides)


_cycle_memo = lru_cache(maxsize=1024)(_cycle_data)
CYCLE_WORD_CAP = 64  # the longest sign word orbit_table looks up in _cycle_memo


@lru_cache(maxsize=1)
def orbit_table(f: Poly) -> OrbitTable:
    """f's whole-field value table and the field's sign list, then one O(q)
    pass over f's functional graph; a one-entry memo, so every start of one f
    reads the same table.  Each point joins exactly one walk, which ends at a
    point placed earlier or closes a new cycle.  A new cycle gets an id and
    the _cycle_data of its sign word, memoized in a bounded lru_cache for
    words of up to CYCLE_WORD_CAP signs: a random map on q points has about
    (1/2) ln q cycles on about sqrt(pi q / 2) points (Flajolet and Odlyzko,
    "Random mapping statistics", EUROCRYPT 1989), so short words repeat
    across the f of a scan, and the rare longer ones are not kept.  The
    walk's tail points are then placed from the cycle outward, each from its
    successor, whose values the loop carries in locals."""
    q = f.field.q
    succ = f.value_table()
    chi = f.field.signs
    tail = [-1] * q  # -1: not walked yet, -2: on the current walk
    root = [0] * q  # the id of the cycle each point reaches
    sign_tail = [0] * q
    ahead = {1: [0] * q, -1: [0] * q}
    run = {1: [0] * q, -1: [0] * q}
    ahead_sq, ahead_ns, run_sq, run_ns = ahead[1], ahead[-1], run[1], run[-1]
    rings, cycles, depth = [], [], []  # by cycle id: its signs; (length, sign period, sign); depth
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
            word = bytes([s + 1 for s in signs])
            m, cs, sides = (_cycle_memo if p <= CYCLE_WORD_CAP else _cycle_data)(word)
            rings.append(signs)
            cycles.append((p, m, cs))
            depth.append(0)
            for j, c in enumerate(cyc):
                tail[c], root[c], ring[c] = 0, r, j
            for t, (ahead_t, longest) in zip((1, -1), sides):
                for c, a in zip(cyc, ahead_t):
                    ahead[t][c], run[t][c] = a, longest
        r = root[x]
        signs, (p, _, cs) = rings[r], cycles[r]
        # the successor's tail, ring place, sign tail, ahead counts and runs
        n, j, st = tail[x], ring[x], sign_tail[x]
        a_sq, a_ns, r_sq, r_ns = ahead_sq[x], ahead_ns[x], run_sq[x], run_ns[x]
        for x in reversed(path):
            n += 1
            tail[x], root[x] = n, r
            s = chi[x]
            if j >= 0 and s == signs[j - 1]:
                j = ring[x] = j - 1 if j else p - 1
                if n > depth[r]:
                    depth[r] = n
            else:
                j, st = -1, st + 1
                sign_tail[x] = st
            # x breaks every run of the other sign: that side keeps its
            # successor's run and an ahead count of 0; only chi(x)'s side grows
            if s == 1:
                a_ns = 0
                if a_sq < 0:  # x's whole orbit has sign s: the run counts every point
                    r_sq += 1
                else:
                    a_sq += 1
                    if a_sq > r_sq and cs != 1:
                        r_sq = a_sq
                ahead_sq[x] = a_sq
            elif s:
                a_sq = 0
                if a_ns < 0:
                    r_ns += 1
                else:
                    a_ns += 1
                    if a_ns > r_ns and cs != -1:
                        r_ns = a_ns
                ahead_ns[x] = a_ns
            else:
                a_sq = a_ns = 0
            run_sq[x], run_ns[x] = r_sq, r_ns
    cycles = [Cycle(*c, d) for c, d in zip(cycles, depth)]
    return OrbitTable(succ, tail, root, sign_tail, cycles, ahead, run)


def forward_orbit(f: Poly, a: FieldElement) -> OrbitSummary:
    """The tail + period points of a's orbit, read from f's orbit table."""
    x = _index_in(f.field, a)
    table = orbit_table(f)
    tail, period, succ = table.tail[x], table.cycle_of(x).length, table.succ
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
        sign_period=table.cycle_of(a.idx).sign_period,
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
    return RunReport(target, table.run[target][x], table.cycle_of(x).sign == target)
