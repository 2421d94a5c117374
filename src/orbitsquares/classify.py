"""Classification machinery: the five exceptional shapes that break
dynamical 2-ordinarity, finite-depth oracles, the exceptional families (d)
and (e) as conjugates of the Chebyshev polynomials +-T_d, and linear
conjugacy solved from coefficients (including conjugacy to +-T_d).

The oracles decide from squarefree decompositions of G(f) and the period of
0 under f, with no irreducible factoring.

Shapes (d) and (e) are membership in S_d = {a(eps T_d(x/a + 1) - 1)}.  Where
p <= 2n - 1, n = d // 2, some f outside S_d meet the square-root conditions;
their TwoOrdinary verdict rests on oracle evidence only (fresh odd factors
through depth 3-6), with no proof for every level."""

from __future__ import annotations

from dataclasses import dataclass

from . import chebyshev as cheb
from .errors import DegreeMismatch, DegreeTooSmall, MixedFields, ZeroA
from .field import FieldElement
from .fpoly import Poly, _squarefree_decomposition, check_degree_budget, sqrt_part, square_root

TWO_ORDINARY = "TwoOrdinary"
NOT_TWO_ORDINARY = "NotTwoOrdinary"
ORDINARY = "Ordinary"
NOT_ORDINARY = "NotOrdinary"


def _witness_json(witness: dict) -> dict:
    """A witness with field elements as indices and polynomials as strings."""
    return {
        k: v.idx if isinstance(v, FieldElement) else str(v) if isinstance(v, Poly) else v
        for k, v in witness.items()
    }


@dataclass(frozen=True)
class FormMatch:
    form: str  # one of "a".."e"
    witness: dict

    def to_json(self):
        return {"form": self.form, **_witness_json(self.witness)}


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str
    matched_forms: tuple[FormMatch, ...]
    ordinary_verdict: str
    ordinary_witness: dict | None = None

    def matched(self, form: str) -> bool:
        return any(m.form == form for m in self.matched_forms)

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


def classify_ordinary(f: Poly):
    """(verdict, witness): NotOrdinary iff f = A(x-B)^(p^e)."""
    if f.degree < 2:
        raise DegreeTooSmall("classification needs degree >= 2")
    witness = _form_a(f)
    return (ORDINARY, None) if witness is None else (NOT_ORDINARY, witness)


def classify_2_ordinary(f: Poly, seed: int = 0) -> ClassificationReport:
    """Closed-form membership tests for the five exceptional shapes.

    Every shape is read from coefficients without factoring, so seed is
    ignored.  (b), (c) ask for a monic square root of f/A, f/(A x).  (d), (e)
    read B (-A h(0)^2 for the monic h that f/A's top half fixes; f(0) with
    f(B) = 0) and are membership in S_d: f must equal generate_family(B, d).
    """
    d = f.degree
    if d < 2:
        raise DegreeTooSmall("classification needs degree >= 2")
    check_degree_budget(d, 1)
    F = f.field
    A = f.leading()
    monic = f.monic()
    matches: list[FormMatch] = []

    # (a) f = A(x-B)^(p^e)
    ordinary_verdict, ordinary_witness = ORDINARY, None
    witness = _form_a(f)
    if witness is not None:
        matches.append(FormMatch("a", witness))
        ordinary_verdict, ordinary_witness = NOT_ORDINARY, dict(witness)

    if d % 2 == 0:
        # (b) f = A g^2
        g = square_root(monic)
        if g is not None:
            matches.append(FormMatch("b", {"A": A, "g": g}))
        # (d) f = A h^2 + B; the conditions force f(0) = 0
        if f.coefficient(0).is_zero():
            h = sqrt_part(monic)
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

    verdict = NOT_TWO_ORDINARY if matches else TWO_ORDINARY
    return ClassificationReport(
        verdict=verdict,
        matched_forms=tuple(matches),
        ordinary_verdict=ordinary_verdict,
        ordinary_witness=ordinary_witness,
    )


# --- single-root power-map diagnostics -------------------------------------

@dataclass(frozen=True)
class HnSequence:
    values: tuple[FieldElement, ...]  # H_0, ..., H_(j-1)
    repeat: tuple[int, int]  # first (i, j), i < j, with C_i == C_j


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
        raise ZeroA("A must be nonzero")
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

def generate_family(B: FieldElement, d: int) -> Poly:
    """The member a(eps T_d(x/a + 1) - 1), a = -B/2, eps = (-1)^d, of shape (d)
    for even d and (e) for odd d: +-T_d conjugated by phi(x) = a(x - 1).  The
    identity holds over Z, so it holds in every odd characteristic."""
    if B.is_zero():
        raise ValueError("family parameter B must be nonzero")
    if d < 2:
        raise DegreeTooSmall("exceptional families have degree >= 2")
    check_degree_budget(d, 1)
    F = B.field
    eps = F.one if d % 2 == 0 else -F.one
    a = -B / F.from_int(2)
    t = cheb.chebyshev(d).reduce_mod(F).compose(Poly.from_elements(F, [F.one, a.inverse()]))
    return t.shift_const(-eps).scale(eps * a)


# --- finite-depth oracles ---------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    """CertifiedNot(level) when certified_not, else ConsistentUpTo(depth)."""

    certified_not: bool
    level: int | None
    depth: int

    def __str__(self):
        if self.certified_not:
            return f"CertifiedNot({self.level})"
        return f"ConsistentUpTo({self.depth})"


def _oracle(f: Poly, depth: int, budget: int | None, need_odd: bool) -> OracleResult:
    """Level n holds pairwise coprime monic squarefree pieces H of f^n, from
    f^0 = x, each with its multiplicity m and whether its irreducibles are
    old, that is divide some f^j, j < n.  Coprime G give coprime G(f), so each
    irreducible of f^(n+1) lies in one H of one G(f)'s squarefree
    decomposition, with multiplicity m e there.

    A root a of f^j and f^n, j < n, has f^(n-j)(0) = f^n(a) = 0, so old roots
    need 0 periodic, of period r <= n.  Then a is old iff f^(n-r)(a) = 0: at
    level r only x is old, and past r, a is old iff f(a) was.  So each piece
    is all old or all new: x is split off at level r, and later pieces
    inherit the flag of the G they come from."""
    if f.degree < 1:
        raise DegreeTooSmall("oracle needs a nonconstant polynomial")
    if depth < 0:
        raise ValueError(f"oracle depth must be >= 0, got {depth}")
    x = Poly.x(f.field)
    a, r = f.field.zero, None
    for n in range(1, depth + 1):
        a = f.evaluate(a)
        if a.is_zero():
            r = n
            break
    level = [(x, 1, False)]
    for n in range(1, depth + 1):
        check_degree_budget(f.degree, n, budget)
        level = [(h, m * e, old) for g, m, old in level
                 for h, e in _squarefree_decomposition(g.compose(f).monic(), f)]
        if n == r:
            i = next(i for i, (h, _, _) in enumerate(level) if h.coefficient(0).is_zero())
            h, m, _ = level[i]
            level[i:i + 1] = [(x, m, True)] + ([(h // x, m, False)] if h.degree > 1 else [])
        # no new factor (of odd multiplicity, when need_odd) at level n
        if all(old or need_odd and m % 2 == 0 for _, m, old in level):
            return OracleResult(certified_not=True, level=n, depth=depth)
    return OracleResult(certified_not=False, level=None, depth=depth)


def oracle_2_ordinary(f: Poly, depth: int, seed: int = 0, budget: int | None = None) -> OracleResult:
    """Look for a level n <= depth at which no new odd-multiplicity factor appears.

    seed is ignored: the oracle draws nothing at random."""
    return _oracle(f, depth, budget, need_odd=True)


def oracle_ordinary(f: Poly, depth: int, budget: int | None = None) -> OracleResult:
    """Look for a level n <= depth at which no new factor at all appears."""
    return _oracle(f, depth, budget, need_odd=False)


# --- linear conjugacy ------------------------------------------------------

@dataclass(frozen=True)
class ConjugacyWitness:
    a: FieldElement
    b: FieldElement

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
        raise MixedFields("conjugacy requires a common field")
    if f.degree != g.degree:
        raise DegreeMismatch("conjugacy preserves degree")
    d = f.degree
    if d < 2:
        raise DegreeTooSmall("conjugacy needs degree >= 2")
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
    t = cheb.chebyshev(d).reduce_mod(F)
    for sign, target in (("+", t), ("-", -t)):
        w = are_conjugate(f, target)
        if w is not None:
            return sign, w
    return None
