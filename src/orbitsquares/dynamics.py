"""Orbit structure under polynomial iteration: tails, cycles, character
sign sequences, longest sign runs, and truncated preimage sets/trees."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .field import FieldElement, FieldSpec
from .fpoly import Poly, factor


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


@lru_cache(maxsize=1)
def _successor_table(f: Poly) -> list[int]:
    """f's value at each element index, or -1 where f is not evaluated yet.

    One entry: only the polynomial walked last keeps its table.  Scans
    generate their (f, a) items f-major, so consecutive starts share it."""
    return [-1] * f.field.q


def successors(f: Poly) -> list[int]:
    """The complete table x -> f(x) over element indices; read-only."""
    succ = _successor_table(f)
    for x, y in enumerate(succ):
        if y < 0:
            succ[x] = f.eval_i(x)
    return succ


def forward_orbit(f: Poly, a: FieldElement) -> OrbitSummary:
    """Exact tail and period by hashing iterates until the first repeat.

    Each f(x) comes from f's successor table; f is evaluated at a point
    only the first time any walk reaches it."""
    succ = _successor_table(f)
    seen: dict[int, int] = {}
    elements: list[FieldElement] = []
    F = f.field
    cur = a.idx
    while cur not in seen:
        seen[cur] = len(elements)
        elements.append(FieldElement(F, cur))
        nxt = succ[cur]
        if nxt < 0:
            nxt = succ[cur] = f.eval_i(cur)
        cur = nxt
    tail = seen[cur]
    period = len(elements) - tail
    zero_at = seen.get(0)
    return OrbitSummary(
        start=a,
        tail=tail,
        period=period,
        elements=tuple(elements),
        contains_zero_at=zero_at,
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
    F = f.field
    signs = tuple(F.chi_i(e.idx) for e in orbit.elements)
    tail, period = orbit.tail, orbit.period
    cycle = signs[tail:]
    sign_period = period
    for t in range(1, period + 1):
        if period % t:
            continue
        if all(cycle[(j + t) % period] == cycle[j] for j in range(period)):
            sign_period = t
            break
    s = tail
    while s > 0:
        ahead = s - 1 + sign_period
        ahead_sign = signs[ahead] if ahead < len(signs) else cycle[(ahead - tail) % period]
        if signs[s - 1] != ahead_sign:
            break
        s -= 1
    return SignSequence(
        orbit=orbit,
        signs=signs,
        sign_tail=s,
        sign_period=sign_period,
        purely_periodic=(s == 0),
    )


@dataclass(frozen=True)
class RunReport:
    """Longest block of consecutive iterates with the target character sign.

    When the whole cycle carries the target sign the index run is unbounded;
    length then counts distinct elements (trailing tail run plus the cycle)
    and cycle_constant is set.
    """

    target: int
    length: int
    cycle_constant: bool


def longest_run(
    f: Poly, a: FieldElement, target: int, signs: SignSequence | None = None
) -> RunReport:
    ss = signs if signs is not None else sign_sequence(f, a)
    tail, period = ss.orbit.tail, ss.orbit.period
    cycle = ss.signs[tail:]
    if all(c == target for c in cycle):
        r = 0
        i = tail - 1
        while i >= 0 and ss.signs[i] == target:
            r += 1
            i -= 1
        return RunReport(target=target, length=period + r, cycle_constant=True)
    best = cur = 0
    for s in ss.signs + cycle:  # the tail, then two laps of the cycle
        cur = cur + 1 if s == target else 0
        if cur > best:
            best = cur
    return RunReport(target=target, length=best, cycle_constant=False)


# --- preimages and trees ---------------------------------------------------

def roots_in_field(f: Poly) -> list[FieldElement]:
    """Distinct roots of f in its own coefficient field, ascending."""
    if f.degree < 1:
        return []
    out = []
    for g, _m in factor(f).factors:
        if g.degree == 1:
            out.append(-g.coefficient(0))
    return sorted(out, key=lambda e: e.idx)


@lru_cache(maxsize=None)
def _embedding(base_key, ext_degree: int):
    """(ext_field, root) realizing base -> F_{q^ext_degree}; deterministic."""
    p, k, modulus = base_key
    from .field import make_field

    if ext_degree == 1:
        base = make_field(p, k, modulus)
        return base, base.gen
    ext = make_field(p, k * ext_degree)
    if k == 1:
        return ext, ext.one
    mod_poly = Poly.from_ints(ext, modulus)
    rs = roots_in_field(mod_poly)
    return ext, rs[0]


def embed(el: FieldElement, ext_degree: int) -> FieldElement:
    """Image of el under the canonical embedding into F_{q^ext_degree}."""
    base = el.field
    ext, root = _embedding(base._key, ext_degree)
    acc = ext.zero
    power = ext.one
    for c in el.coeffs:
        acc = acc + ext.from_int(c) * power
        power = power * root
    return acc


def embed_poly(f: Poly, ext_degree: int) -> Poly:
    ext, _ = _embedding(f.field._key, ext_degree)
    return Poly(ext, [embed(FieldElement(f.field, c), ext_degree).idx for c in f.coeffs])


@dataclass(frozen=True)
class PreimageLevel:
    """R_{n,alpha} restricted to the base field plus small extensions."""

    n: int
    base: FieldElement
    points: tuple[FieldElement, ...]
    ext_points: dict[int, tuple[FieldElement, ...]] = dc_field(default_factory=dict)
    unresolved_degrees: dict[int, int] = dc_field(default_factory=dict)


def preimages(
    f: Poly,
    alpha: FieldElement,
    n: int,
    max_ext: int = 1,
    budget: int | None = None,
) -> PreimageLevel:
    """All beta with f^n(beta) = alpha, rational over extensions <= max_ext.

    Factors of larger degree are only counted (degree -> count with
    multiplicity of distinct factors)."""
    if n == 0:
        return PreimageLevel(n=0, base=alpha, points=(alpha,))
    g = f.iterate(n, budget) - Poly.constant(alpha)
    rational = []
    ext_points: dict[int, list[FieldElement]] = {}
    unresolved: dict[int, int] = {}
    for irr, _m in factor(g).factors:
        e = irr.degree
        if e == 1:
            rational.append(-irr.coefficient(0))
        elif e <= max_ext:
            lifted = embed_poly(irr, e)
            ext_points.setdefault(e, []).extend(roots_in_field(lifted))
        else:
            unresolved[e] = unresolved.get(e, 0) + 1
    return PreimageLevel(
        n=n,
        base=alpha,
        points=tuple(sorted(rational, key=lambda x: x.idx)),
        ext_points={e: tuple(sorted(v, key=lambda x: x.idx)) for e, v in ext_points.items()},
        unresolved_degrees=unresolved,
    )


@dataclass(frozen=True)
class TreeRepeat:
    """Outcome of the truncated repeating-tree search."""

    repeating: bool
    witness: FieldElement | None
    levels: tuple[int, int] | None
    depth: int


def tree_is_repeating(
    f: Poly,
    alpha: FieldElement,
    depth: int,
    max_ext: int = 2,
) -> TreeRepeat:
    """Search for beta in R_{n,alpha} with distinct levels n != m sharing beta.

    Points are restricted to extensions of degree <= max_ext.  Instead of
    expanding the tree downward, every candidate point x of each small
    extension is pushed forward through the embedded f's successor table,
    filled as the walks reach points so that the search can stop at the
    first witness: the levels containing x are exactly the n <= depth with
    f^n(x) = alpha.
    A negative answer only covers the truncated, bounded-degree tree.
    """
    for j in range(1, max_ext + 1):
        fj = embed_poly(f, j)
        E = fj.field
        target = embed(alpha, j).idx
        succ = _successor_table(fj)
        for x in range(E.q):
            y = x
            hits = []
            for n in range(depth + 1):
                if y == target:
                    hits.append(n)
                    if len(hits) == 2:
                        return TreeRepeat(
                            repeating=True,
                            witness=FieldElement(E, x),
                            levels=(hits[0], hits[1]),
                            depth=depth,
                        )
                if n < depth:
                    nxt = succ[y]
                    if nxt < 0:
                        nxt = succ[y] = fj.eval_i(y)
                    y = nxt
    return TreeRepeat(repeating=False, witness=None, levels=None, depth=depth)
