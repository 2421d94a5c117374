"""Classification machinery: the five exceptional shapes that break
dynamical 2-ordinarity, finite-depth oracles, the exceptional families (d)
and (e) as conjugates of the Chebyshev polynomials +-T_d, and linear
conjugacy solved from coefficients (including conjugacy to +-T_d).  T_d's
integer coefficients come from its three-term recurrence here, and are
reduced into F_q.

The 2-ordinary oracle decides from the odd part of N_n, the part of f^n
whose roots are new; the ordinary oracle from the period r of 0 under f
and whether 0 has order d^r in f^r.  Neither factors into irreducibles.

Shapes (d) and (e) are membership in S_d = {a(eps T_d(x/a + 1) - 1)}.  Where
p <= 2n - 1, n = d // 2, some f outside S_d meet the square-root conditions;
their TwoOrdinary verdict rests on oracle evidence only (fresh odd factors
through depth 3-6), with no proof for every level."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from .field import FieldElement, power_within
from .fpoly import (
    DEFAULT_DEGREE_BUDGET,
    Poly,
    _squarefree_decomposition,
    check_degree_budget,
    sqrt_part,
    square_root,
)

TWO_ORDINARY = "TwoOrdinary"
NOT_TWO_ORDINARY = "NotTwoOrdinary"
ORDINARY = "Ordinary"
NOT_ORDINARY = "NotOrdinary"


def _witness_json(witness: Mapping) -> dict:
    """A witness with field elements as indices and polynomials as strings."""
    return {
        k: v.idx if isinstance(v, FieldElement) else str(v) if isinstance(v, Poly) else v
        for k, v in witness.items()
    }


class FormMatch(namedtuple("FormMatch", "form witness")):
    """The shape form, one of "a".."e", that f matches, and its witness: a
    read-only copy of the mapping given, so a caller's edit cannot reach the
    report."""

    __slots__ = ()

    def __new__(cls, form, witness):
        return super().__new__(cls, form, MappingProxyType(dict(witness)))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace copies too

    def __reduce__(self):  # a mappingproxy does not pickle
        return FormMatch, (self.form, dict(self.witness))

    def to_json(self):
        return {"form": self.form, **_witness_json(self.witness)}


class ClassificationReport(namedtuple("ClassificationReport", "matched_forms")):
    """The shapes f matches, a tuple of FormMatch.  f is 2-ordinary exactly when
    it matches none, and ordinary exactly when it does not match (a), whose
    witness is the ordinary one."""

    __slots__ = ()

    def matched(self, form: str) -> bool:
        return any(m.form == form for m in self.matched_forms)

    @property
    def verdict(self) -> str:
        return NOT_TWO_ORDINARY if self.matched_forms else TWO_ORDINARY

    @property
    def ordinary_verdict(self) -> str:
        return NOT_ORDINARY if self.matched("a") else ORDINARY

    @property
    def ordinary_witness(self) -> Mapping | None:
        return next((m.witness for m in self.matched_forms if m.form == "a"), None)

    def to_json(self):
        ow = self.ordinary_witness
        return {
            "verdict": self.verdict,
            "forms": [m.to_json() for m in self.matched_forms],
            "ordinary": {
                "verdict": self.ordinary_verdict,
                "witness": None if ow is None else _witness_json(ow),
            },
        }


def _form_a(f: Poly) -> dict | None:
    """Witness {A, B, e} when f = A(x-B)^(p^e), else None.

    In characteristic p, (x-B)^(p^e) = x^(p^e) - B^(p^e), so f must be
    A x^d + f(0) with d = p^e.  Then B^(p^e) = y = -f(0)/A, and B is y under
    the inverse Frobenius of F_(p^k): B = y^(p^((-e) mod k))."""
    F, d = f.field, f.degree
    e = next((e for e in range(1, d.bit_length()) if F.p**e == d), None)
    if e is None or any(f.coeffs[1:-1]):
        return None
    A = f.leading()
    y = -f.coefficient(0) / A
    return {"A": A, "B": y ** (F.p ** (-e % F.k)), "e": e}


def classify_2_ordinary(f: Poly, seed: int = 0) -> ClassificationReport:
    """Closed-form membership tests for the five exceptional shapes.

    Every shape is read from coefficients without factoring, so seed is
    ignored.  (b), (c) ask for a monic square root of f/A, f/(A x).  (d), (e)
    read B (-A h(0)^2 for the monic h that f/A's top half fixes; f(0) with
    f(B) = 0) and are membership in S_d: f must equal generate_family(B, d).
    """
    d = f.degree
    if d < 2:
        raise ValueError("classification needs degree >= 2")
    check_degree_budget(d, 1)
    F = f.field
    A = f.leading()
    monic = f.monic()
    matches: list[FormMatch] = []

    # (a) f = A(x-B)^(p^e)
    witness = _form_a(f)
    if witness is not None:
        matches.append(FormMatch("a", witness))

    if d % 2 == 0:
        h = sqrt_part(monic)
        # (b) f = A h^2
        if h * h == monic:
            matches.append(FormMatch("b", {"A": A, "g": h}))
        # (d) f = A h^2 + B; the conditions force f(0) = 0
        if f.coefficient(0).is_zero():
            B = -A * h.coefficient(0) ** 2
            if not B.is_zero() and generate_family(B, d) == f:
                matches.append(FormMatch("d", {"A": A, "B": B, "h": h}))
    else:
        # (c) f = A x g^2
        if f.coefficient(0).is_zero():
            g = square_root(monic // Poly.x(F))
            if g is not None:
                matches.append(FormMatch("c", {"A": A, "g": g}))
        # (e) f = A(x-B)g^2; the conditions force B = f(0)
        B = f.coefficient(0)
        if not B.is_zero() and f.evaluate(B).is_zero() and generate_family(B, d) == f:
            g = square_root(monic // Poly.from_elements(F, [-B, F.one]))
            matches.append(FormMatch("e", {"A": A, "B": B, "g": g}))

    return ClassificationReport(tuple(matches))


# --- single-root power-map diagnostics -------------------------------------

class HnSequence(namedtuple("HnSequence", "values repeat")):
    """values is H_0, ..., H_(j-1), and repeat the first (i, j), i < j, with
    C_i == C_j."""

    __slots__ = ()


def hn_sequence(A: FieldElement, B: FieldElement, d: int) -> HnSequence:
    """H_n = W_n/Z_n with Z_0=A, W_0=-B, Z_n=A Z_{n-1}^d, W_n=A W_{n-1}^d - B,
    and the first repeat of the root chain C_n they determine.

    For g = A x^d - B, g^(n+1) = Z_n x^(d^(n+1)) + W_n.  When d = p^e (the
    shape A(x-b)^(p^e), with B = A b^d), that is Z_n (x - C_(n+1))^(d^(n+1))
    with C_(n+1)^(d^(n+1)) = -H_n, so the root is the Frobenius-untwisted
    C_(n+1) = (-H_n)^(p^((-e(n+1)) mod k)), and C_0 = 0 starts the chain
    g(C_n) = C_(n-1).  repeat compares these C_n, so j is the root-chain
    level; comparing the H_n themselves would compare twisted roots.  Over
    F_p the twist is the identity and any d >= 1 is accepted; over F_{p^k},
    k > 1, d must be a power of p.

    Runs until the first repeat, which the pigeonhole guarantees within q
    steps."""
    if A.is_zero():
        raise ValueError("A must be nonzero")
    F = A.field
    p, k = F.p, F.k
    if d < 1:
        raise ValueError(f"degree d = {d} must be positive")
    e, rest = 0, d
    while rest % p == 0:
        rest //= p
        e += 1
    if k > 1 and rest != 1:
        raise ValueError(f"d = {d} is not a power of p = {p} over F_{F.q}")
    Z, W = A, -B
    values: list[FieldElement] = []
    seen = {0: 0}  # C_0 = 0
    for n in range(F.q):
        H = W / Z
        values.append(H)
        C = (-H) ** (p ** ((-e * (n + 1)) % k))
        if C.idx in seen:
            return HnSequence(values=tuple(values), repeat=(seen[C.idx], n + 1))
        seen[C.idx] = n + 1
        Z = A * Z**d
        W = A * W**d - B
    raise AssertionError("no repeat within the pigeonhole cap")  # pragma: no cover


# --- exceptional family generation -----------------------------------------

@lru_cache(maxsize=None)
def chebyshev(d: int) -> tuple[int, ...]:
    """T_d's integer coefficients, constant term first, from T_0 = 1, T_1 = x
    and T_{n+1} = 2x T_n - T_{n-1}, i.e. c_{n+1}[j] = 2 c_n[j-1] - c_{n-1}[j]."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    a, b = (1,), (0, 1)
    for _ in range(d):
        a, b = b, tuple(2 * x - y for x, y in zip((0,) + b, a + (0, 0)))
    return a


def generate_family(B: FieldElement, d: int) -> Poly:
    """The member a(eps T_d(x/a + 1) - 1), a = -B/2, eps = (-1)^d, of shape (d)
    for even d and (e) for odd d: +-T_d conjugated by phi(x) = a(x - 1).  The
    identity holds over Z, so it holds in every odd characteristic."""
    if B.is_zero():
        raise ValueError("family parameter B must be nonzero")
    if d < 2:
        raise ValueError("exceptional families have degree >= 2")
    check_degree_budget(d, 1)
    F = B.field
    eps = F.one if d % 2 == 0 else -F.one
    a = -B / F.from_int(2)
    t = Poly.from_ints(F, chebyshev(d)).compose(Poly.from_elements(F, [F.one, a.inverse()]))
    return t.shift_const(-eps).scale(eps * a)


# --- finite-depth oracles ---------------------------------------------------

class OracleResult(namedtuple("OracleResult", "certified_not level depth")):
    """CertifiedNot(level) when certified_not, else ConsistentUpTo(depth);
    level is None unless certified_not."""

    __slots__ = ()

    def __str__(self):
        if self.certified_not:
            return f"CertifiedNot({self.level})"
        return f"ConsistentUpTo({self.depth})"


def _open_levels(f: Poly, top: int, need_odd: bool) -> tuple[int | None, set[int]]:
    """r, the period of 0 under f when it is at most top (else None), and
    the levels n <= top that f's values leave open: no other level n <= top
    certifies, by the rule in _oracle.

    By the chain rule for orders of vanishing, e is the product over j < r
    of the order of t_j = f^j(0) as a root of f - f(t_j): the first k >= 1
    with a nonzero x^k coefficient in f(x + t_j).  N_n has degree d^n for
    n < r and d^(n-r) (d^r - e) from r on, so it is constant exactly when
    n >= r and e = d^r: in ordinary mode those levels are open, and no
    other.  A constant times a square, c h^2 with h monic, is 0 or of sign
    chi(c) = chi(lc N_n) at each point; so a point x refutes level n in
    2-ordinary mode when chi(N_n(x)) = -chi(lc N_n).  For n < r,
    chi(N_n(x)) = chi(f^n(x)); for n >= r, with y = f^(n-r)(x) != 0, it is
    chi(f^n(x)) chi(y)^e, as f^n(x) = y^e N_n(x).  lc(f^n) = A lc(f^(n-1))^d,
    A = lc(f), and lc(N_n) = lc(f^n) / lc(f^(n-r))^e.  The points are the
    first min(q, d^top) indices, top the deepest level within the degree
    budget, so d^top is the degree of the largest iterate _oracle builds."""
    F, d = f.field, f.degree
    values = {}  # f at each index walked, so overlapping orbits evaluate f once per point

    def orbit(xi):  # xi, f(xi), ..., f^top(xi) as indices
        out = [xi]
        for _ in range(top):
            x = out[-1]
            if x not in values:
                values[x] = f.eval_i(x)
            out.append(values[x])
        return out

    zero = orbit(0)
    r = next((n for n in range(1, top + 1) if zero[n] == 0), None)
    e = 1  # the order of 0 in f^r
    for t in zero[:r or 0]:
        taylor = f.compose(Poly(F, [t, F.one_idx])).coeffs
        e *= next(k for k in range(1, d + 1) if taylor[k])
    if not need_odd:
        return r, set(range(r, top + 1)) if r is not None and e == d**r else set()
    chi = F.chi_i
    lc = [1]  # chi(lc f^n)
    for _ in range(top):
        lc.append(chi(f.coeffs[-1]) * lc[-1] ** d)

    def refutes(o, n):
        if r is None or n < r:
            return chi(o[n]) == -lc[n]
        # 0 when y = f^(n-r)(x) is 0, which refutes nothing
        return chi(o[n]) * chi(o[n - r]) ** e == -lc[n] * lc[n - r] ** e

    left = set(range(1, top + 1))
    for xi in range(min(F.q, d**top)):
        if not left:
            break
        o = zero if xi == 0 else orbit(xi)
        left = {n for n in left if not refutes(o, n)}
    return r, left


def _oracle(f: Poly, depth: int, budget: int, need_odd: bool) -> OracleResult:
    """Level n certifies when N_n, the part of f^n whose roots are new (no
    root of f^j, j < n), is a constant (ordinary mode) or a constant times a
    square (2-ordinary mode).  A root a of f^j and f^n, j < n, has
    f^(n-j)(0) = f^n(a) = 0, so N_n = f^n before the period r of 0.  From r
    on, f^r = x^e N_r with N_r(0) != 0, f^n = (f^(n-r))^e N_r(f^(n-r)) and
    N_n = N_r(f^(n-r)).  So N_n = N_(n-1)(f) from N_0 = x, with x^e divided
    out at level r.  N_(n-1) = c S H^2, S the product of its odd-multiplicity
    pieces, gives N_n = c S(f) H(f)^2, each prime's parity as in S(f).  So the
    loop holds only S, as pairwise coprime monic squarefree pieces (coprime G
    give coprime G(f)), to the deepest level f's values leave open, and
    certifies when none is left; ordinary mode, whose open levels have N_n
    constant, builds none.  Every level through top meets the degree budget,
    so the budget is checked once: at top + 1, when depth asks for it."""
    if f.degree < 1:
        raise ValueError("oracle needs a nonconstant polynomial")
    if depth < 0:
        raise ValueError(f"oracle depth must be >= 0, got {depth}")
    d = f.degree
    # A linear f permutes F_q, so 0 has a period r <= q.  N_n = f^n has degree
    # 1 for n < r, never c h^2, and f^r = c x gives e = 1 = d^r: level r
    # certifies in both modes, so no level past q is needed.
    last = min(depth, f.field.q) if d == 1 else depth
    top = 0
    while top < last and power_within(d, top + 1, budget):
        top += 1
    r, left = _open_levels(f, top, need_odd)
    if left and not need_odd:
        return OracleResult(certified_not=True, level=min(left), depth=depth)
    x = Poly.x(f.field)
    odd = [x]
    for n in range(1, max(left, default=0) + 1):
        odd = [h for g in odd
               for h, m in _squarefree_decomposition(g.compose(f).monic(), f) if m % 2]
        if n == r:  # N_r = f^r / x^e: x leaves its piece, which is here if e is odd
            odd = [h if h.coeffs[0] else h // x for h in odd if h != x]
        if not odd:
            return OracleResult(certified_not=True, level=n, depth=depth)
    if top < depth:
        check_degree_budget(d, top + 1, budget)
    return OracleResult(certified_not=False, level=None, depth=depth)


def oracle_2_ordinary(f: Poly, depth: int, seed: int = 0,
                      budget: int = DEFAULT_DEGREE_BUDGET) -> OracleResult:
    """Look for a level n <= depth at which no new odd-multiplicity factor appears.

    seed is ignored: the oracle draws nothing at random."""
    return _oracle(f, depth, budget, need_odd=True)


def oracle_ordinary(f: Poly, depth: int, budget: int = DEFAULT_DEGREE_BUDGET) -> OracleResult:
    """Look for a level n <= depth at which no new factor at all appears."""
    return _oracle(f, depth, budget, need_odd=False)


# --- linear conjugacy ------------------------------------------------------

class ConjugacyWitness(namedtuple("ConjugacyWitness", "a b")):
    """The linear map phi(x) = a x + b."""

    __slots__ = ()

    def apply(self, f: Poly) -> Poly:
        """phi o f o phi^(-1) for phi(x) = a x + b."""
        F = f.field
        phi = Poly.from_elements(F, [self.b, self.a])
        inv_a = self.a.inverse()
        phi_inv = Poly.from_elements(F, [-self.b * inv_a, inv_a])
        return phi.compose(f.compose(phi_inv))

    def map_point(self, x: FieldElement) -> FieldElement:
        return self.a * x + self.b


def are_conjugate(f: Poly, g: Poly) -> ConjugacyWitness | None:
    """First linear map phi (a, b in enumeration order) with phi o f o phi^(-1) = g.

    phi o f o phi^(-1) has x^d coefficient f_d a^(1-d), which leaves the a with
    a^(d-1) g_d = f_d, and x^(d-1) coefficient a^(2-d) f_(d-1) - d b f_d a^(1-d),
    which fixes b unless p | d; then it is a condition on a, and every b is
    tried."""
    if f.field != g.field:
        raise ValueError("conjugacy requires a common field")
    if f.degree != g.degree:
        raise ValueError("conjugacy preserves degree")
    d = f.degree
    if d < 2:
        raise ValueError("conjugacy needs degree >= 2")
    F = f.field
    fd, f1 = f.leading(), f.coefficient(d - 1)
    gd, g1 = g.leading(), g.coefficient(d - 1)
    for a in F.elements():
        ad = a ** (d - 1)
        if ad * gd != fd:  # a = 0 never passes, as f_d != 0
            continue
        r = a * f1 - g1 * ad  # d b f_d
        if d % F.p:
            bs = [r / (F.from_int(d) * fd)]
        else:
            bs = F.elements() if r.is_zero() else ()
        for b in bs:
            w = ConjugacyWitness(a, b)
            if w.apply(f) == g:
                return w
    return None


def chebyshev_conjugacy(f: Poly) -> tuple[str, ConjugacyWitness] | None:
    """Conjugacy of f to +T_d or -T_d reduced into the field; tries + first."""
    d = f.degree
    F = f.field
    t = Poly.from_ints(F, chebyshev(d))
    for sign, target in (("+", t), ("-", -t)):
        w = are_conjugate(f, target)
        if w is not None:
            return sign, w
    return None
