"""Univariate polynomial algebra over a FieldSpec.

Coefficients are stored as element indices (constant term first, no
trailing zeros).  Includes composition/iteration with a degree budget,
gcd, complete factorization (squarefree / distinct-degree / equal-degree
splitting whose random draws are keyed by the polynomial alone) and monic
square roots, read from the top down.

The field kind enters only two list-level kernels and the value table.  The
product `_mul`, which `Poly.__mul__` and `Poly.compose`'s Horner loop share:
over F_p (k == 1) an index is the residue itself, so both coefficient lists
pack into one Python int, multiply once and unpack with `% p` (Kronecker
substitution); over F_{p^k} (k > 1) it loops over the field's index
kernels, whose addition reads Zech logarithms.  Long division in `_divmod`:
one fixed-shift loop, which over F_p reduces only the leading coefficient
per step and over F_{p^k} subtracts through the index kernels.  `divmod`,
`gcd`, `pow_mod` and `eval_i` are written once on top of these, for both
field kinds.  `_squarefree_decomposition` returns a squarefree input after
its one gcd, with no divisions by 1.

`Poly.value_table` evaluates f at every element at once, by one Horner
pass across the whole field; it is the successor list of every orbit
table, so no orbit walk evaluates f point by point.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass

from .errors import (
    BothZero,
    ConstantInput,
    DegreeBudgetExceeded,
    DivisionByZero,
    MixedFields,
)
from .field import FieldElement, FieldSpec

DEFAULT_DEGREE_BUDGET = 4096


def check_degree_budget(d: int, n: int, budget: int | None = None) -> None:
    """Refuse work on the n-th iterate of a degree-d polynomial when its
    degree d^n exceeds budget (DEFAULT_DEGREE_BUDGET when None)."""
    budget = DEFAULT_DEGREE_BUDGET if budget is None else budget
    if d >= 2 and d**n > budget:
        raise DegreeBudgetExceeded(f"deg {d}^{n} exceeds degree budget {budget}")


def _norm(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


# --- the F_p kernel: int lists of residues, Kronecker products ---------------

# array typecode per item size; a big-endian host packs through bytes instead
_TYPECODES = {array(t).itemsize: t for t in "QIHB"} if sys.byteorder == "little" else {}


def _slot_bytes(p: int, n: int) -> int:
    """Bytes per packed coefficient: room for a sum of n products of residues."""
    bits = (n * (p - 1) ** 2).bit_length()
    return 1 if bits <= 8 else 2 if bits <= 16 else 4 if bits <= 32 else (bits + 63) // 64 * 8


def _pack(c, nb: int) -> int:
    """sum c[i] * 2^(8 nb i) for 0 <= c[i] < 2^(8 nb)."""
    if nb in _TYPECODES:
        return int.from_bytes(array(_TYPECODES[nb], c).tobytes(), "little")
    return int.from_bytes(b"".join(x.to_bytes(nb, "little") for x in c), "little")


def _unpack(n: int, count: int, nb: int):
    """The first count slots of a packed n, as ints (not reduced mod p)."""
    raw = n.to_bytes(count * nb, "little")
    if nb in _TYPECODES:
        return array(_TYPECODES[nb], raw)
    return [int.from_bytes(raw[i:i + nb], "little") for i in range(0, len(raw), nb)]


def _mul(F: FieldSpec, a, b) -> list[int]:
    """Product of index lists.  Over F_p both lists pack into one int, which
    is multiplied once and unpacked with % p; over F_{p^k} a schoolbook loop
    runs over the index kernels."""
    if not a or not b:
        return []
    if F.k == 1:
        p = F.p
        nb = _slot_bytes(p, min(len(a), len(b)))
        prod = _pack(a, nb) * _pack(b, nb) if a is not b else _pack(a, nb) ** 2
        return [c % p for c in _unpack(prod, len(a) + len(b) - 1, nb)]
    out = [0] * (len(a) + len(b) - 1)
    mul, add = F.mul_i, F.add_i
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return out


def _divmod(F: FieldSpec, a: list[int], b) -> tuple[list[int], list[int]]:
    """Quotient and remainder of index lists, b nonzero, by long division
    with a fixed shift per step; a is consumed.  Over F_p each step reduces
    only the leading coefficient, and the remainder is reduced once at the
    end; over F_{p^k} each step adds -c * b through the index kernels."""
    db = len(b) - 1
    low = b[:db]
    q = [0] * max(0, len(a) - db)
    shifts = range(len(a) - 1 - db, -1, -1)
    if F.k == 1:
        p = F.p
        inv = pow(b[-1], -1, p)
        for shift in shifts:
            c = a[shift + db] * inv % p
            if c:
                q[shift] = c
                a[shift:shift + db] = [x - c * y for x, y in zip(a[shift:shift + db], low)]
        return _norm(q), _norm([x % p for x in a[:db]])
    inv = F.inv_i(b[-1])
    mul, add = F.mul_i, F.add_i
    for shift in shifts:
        c = mul(a[shift + db], inv)
        if c:
            q[shift] = c
            nc = F.neg_i(c)
            a[shift:shift + db] = [add(x, mul(nc, y)) for x, y in zip(a[shift:shift + db], low)]
    return _norm(q), _norm(a[:db])


class Poly:
    """Dense univariate polynomial over a FieldSpec; immutable value type."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs):
        self.field = field
        self.coeffs = tuple(_norm(list(coeffs)))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_elements(cls, field: FieldSpec, elems) -> "Poly":
        return cls(field, [e.idx if isinstance(e, FieldElement) else field.from_int(e).idx
                           for e in elems])

    @classmethod
    def from_ints(cls, field: FieldSpec, ints) -> "Poly":
        """Coefficients given as integers in the prime subfield."""
        return cls(field, [field.from_int(n).idx for n in ints])

    @classmethod
    def parse(cls, field: FieldSpec, text: str) -> "Poly":
        """Comma-separated coefficient list, constant term first.

        Each entry is an element index in [0, q); for prime fields that is
        the residue itself.
        """
        return cls(field, [field.parse_index(t) for t in text.strip().split(",")])

    @classmethod
    def zero(cls, field: FieldSpec) -> "Poly":
        return cls(field, [])

    @classmethod
    def one(cls, field: FieldSpec) -> "Poly":
        return cls(field, [field.one_idx])

    @classmethod
    def x(cls, field: FieldSpec) -> "Poly":
        return cls(field, [0, field.one_idx])

    @classmethod
    def constant(cls, c: FieldElement) -> "Poly":
        return cls(c.field, [c.idx])

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (self.field.one_idx,)

    def leading(self) -> FieldElement:
        if not self.coeffs:
            return self.field.zero
        return FieldElement(self.field, self.coeffs[-1])

    def coefficient(self, i: int) -> FieldElement:
        idx = self.coeffs[i] if 0 <= i < len(self.coeffs) else 0
        return FieldElement(self.field, idx)

    def _check(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.field != self.field:
            raise MixedFields("polynomials over different fields")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add_i(out[i], c)
        return Poly(F, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, [F.neg_i(c) for c in self.coeffs])

    def __mul__(self, other) -> "Poly":
        if isinstance(other, FieldElement):
            other = Poly.constant(other)
        self._check(other)
        return Poly(self.field, _mul(self.field, self.coeffs, other.coeffs))

    def scale(self, c: FieldElement) -> "Poly":
        F = self.field
        mul = F.mul_i
        return Poly(F, [mul(ci, c.idx) for ci in self.coeffs])

    def __divmod__(self, other: "Poly"):
        self._check(other)
        F = self.field
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        q, r = _divmod(F, list(self.coeffs), other.coeffs)
        return Poly(F, q), Poly(F, r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative exponent")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        if e < 0:
            raise ValueError("negative exponent")
        base = self % mod
        if e == 0:
            return Poly.one(self.field) % mod
        # left to right, so each multiply is by base, which is sparse when it
        # is x (the first Frobenius power in _distinct_degree)
        r = base
        for bit in bin(e)[3:]:
            r = r * r % mod
            if bit == "1":
                r = r * base % mod
        return r

    def monic(self) -> "Poly":
        if self.is_zero() or self.coeffs[-1] == self.field.one_idx:
            return self
        return self.scale(self.leading().inverse())

    # -- evaluation / composition / calculus --------------------------------

    def evaluate(self, a: FieldElement) -> FieldElement:
        if isinstance(a, FieldElement):
            if a.field != self.field:
                raise MixedFields("point and polynomial over different fields")
            ai = a.idx
        else:
            ai = self.field.from_int(a).idx
        return FieldElement(self.field, self.eval_i(ai))

    def eval_i(self, ai: int) -> int:
        F = self.field
        acc = 0
        mul, add = F.mul_i, F.add_i
        for c in reversed(self.coeffs):
            acc = add(mul(acc, ai), c)
        return acc

    def value_table(self) -> list[int]:
        """f(x) for every element index x, by one Horner pass across the whole
        field at once.  Over F_{p^k}, k > 1, each step multiplies by x through
        the log tables and adds a coefficient c through the translation
        y -> y + c, whose coordinates each shift mod p, so no step reads a
        Zech logarithm."""
        F = self.field
        p, q = F.p, F.q
        coeffs = self.coeffs[::-1] or (0,)
        acc = [coeffs[0]] * q
        if F.k == 1:
            xs = range(q)
            for c in coeffs[1:]:
                acc = [(a * x + c) % p for a, x in zip(acc, xs)]
            return acc
        exp2, log = F._exp * 2, F._log  # log[a] + log[x] < 2(q - 1): no reduction
        for c in coeffs[1:]:
            acc = [exp2[log[a] + lx] if a else 0 for a, lx in zip(acc, log)]
            acc[0] = 0  # log[0] is a placeholder: x = 0 sends every a to 0
            if c:
                shift = [0]
                for d in reversed(F.coords(c)):
                    # a new leading coordinate has weight w; (e + d) % p runs d, ..., d - 1
                    w = len(shift)
                    shift = [e * w + r for e in (*range(d, p), *range(d)) for r in shift]
                acc = list(map(shift.__getitem__, acc))
        return acc

    def compose(self, other: "Poly") -> "Poly":
        """self(other(x)) by Horner on the index list, through _mul."""
        self._check(other)
        F = self.field
        b = other.coeffs
        acc = []
        for c in reversed(self.coeffs):
            acc = _norm(_mul(F, acc, b)) or [0]
            if c:  # a zero on either side adds nothing, as in _mul
                acc[0] = F.add_i(acc[0], c) if acc[0] else c
        return Poly(F, acc)

    def iterate(self, n: int, budget: int | None = None) -> "Poly":
        """n-fold self-composition; iterate(0) is x."""
        if n < 0:
            raise ValueError("iteration count must be nonnegative")
        check_degree_budget(self.degree, n, budget)
        acc = Poly.x(self.field)
        for _ in range(n):
            acc = acc.compose(self)
        return acc

    def derivative(self) -> "Poly":
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(F.mul_i(self.coeffs[i], F.from_int(i).idx))
        return Poly(F, out)

    # -- misc ---------------------------------------------------------------

    def shift_const(self, c: FieldElement) -> "Poly":
        """self + c (constant)."""
        F = self.field
        out = list(self.coeffs) or [0]
        out[0] = F.add_i(out[0], c.idx)
        return Poly(F, out)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field._key, self.coeffs))

    def sort_key(self):
        return (self.degree, self.coeffs[::-1])

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs) if self.coeffs else "0"

    def __repr__(self):
        return f"Poly({self.field}; {self})"


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    f._check(g)
    F = f.field
    a, b = list(f.coeffs), list(g.coeffs)
    while b:
        a, b = b, _divmod(F, a, b)[1]
    return Poly(F, a).monic()


# --- factorization ---------------------------------------------------------

@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^mult) == input, factors monic irreducible, sorted."""

    unit: FieldElement
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        out = Poly.constant(self.unit)
        for g, m in self.factors:
            out = out * g**m
        return out


def _pth_root(f: Poly) -> Poly:
    """p-th root of f(x) = g(x^p); valid when the derivative vanishes."""
    F = f.field
    p, q = F.p, F.q
    out = []
    for i in range(0, len(f.coeffs), p):
        out.append(F.pow_i(f.coeffs[i], q // p))
    return Poly(F, out)


def _squarefree_decomposition(f: Poly, inner: Poly | None = None) -> list[tuple[Poly, int]]:
    """Monic nonconstant input; list of (squarefree part, multiplicity),
    handles char p.  A squarefree f, gcd(f, f') = 1, returns [(f, 1)] after
    that one gcd.

    With inner, the caller promises f = g(inner) up to a unit, g monic
    squarefree, irreducible or not.  Then f' = g'(inner) inner', and a
    squarefree g over F_q is separable, so a g + b g' = 1 for some a, b; at
    x = inner this makes g'(inner) prime to f, hence gcd(f, f') =
    gcd(f, inner'), the same gcd from a cofactor of degree deg inner - 1
    instead of deg f - 1.  g' != 0, so f' = 0 exactly when inner' = 0, and
    that p-th-root branch is the same either way."""
    F = f.field
    p = F.p
    out: list[tuple[Poly, int]] = []
    fd = (f if inner is None else inner).derivative()
    if fd.is_zero():
        for g, m in _squarefree_decomposition(_pth_root(f)):
            out.append((g, m * p))
        return out
    c = gcd(f, fd)
    if c.is_one():
        return [(f, 1)]
    w = f // c
    i = 1
    while not w.is_one():
        y = gcd(w, c)
        z = w // y
        if not z.is_one():
            out.append((z, i))
        i += 1
        w = y
        c = c // y
    if not c.is_one():
        for g, m in _squarefree_decomposition(_pth_root(c)):
            out.append((g, m * p))
    return out


def _distinct_degree(f: Poly):
    """Monic squarefree input; yields (product of irreducibles of degree e, e)
    by ascending e.  Once deg f < 2 e, every factor left has degree at least
    e, so f is irreducible and is yielded whole.

    Lazy, so is_irreducible stops at the first split; it also passes input
    that is not squarefree."""
    F = f.field
    frobenius = F.q
    x = Poly.x(F)
    h = x % f
    e = 0
    while f.degree > 0:
        e += 1
        if f.degree < 2 * e:
            yield f, f.degree
            return
        h = h.pow_mod(frobenius, f)
        g = gcd(h - x, f)
        if not g.is_one():
            yield g, e
            f = f // g
            h = h % f


def is_irreducible(f: Poly) -> bool:
    """Irreducibility of a monic f of degree k >= 1 (distinct-degree test).

    f is irreducible iff it has no irreducible factor of degree <= k/2
    (Rabin, SIAM J. Comput. 9, 1980), i.e. iff the first step of
    _distinct_degree yields f whole.  This holds even when f is not
    squarefree: a reducible f has an irreducible factor of degree e <= k/2,
    and unless a smaller-degree gcd step has already split off a factor, the
    degree-e step computes gcd(x^(q^e) - x, f), which that factor divides,
    and splits it off."""
    return next(_distinct_degree(f)) == (f, f.degree)


def _equal_degree_split(f: Poly, e: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus for a monic product of distinct degree-e irreducibles.

    Each draw a has 0 < deg a < deg f, so gcd(a, f) is 1 or a proper factor;
    only when it is 1 is gcd(a^((q^e-1)/2) - 1, f) tried."""
    F = f.field
    if f.degree == e:
        return [f]
    q = F.q
    exponent = (q**e - 1) // 2
    while True:
        a = Poly(F, [rng.randrange(q) for _ in range(f.degree)])
        if a.degree < 1:
            continue
        g = gcd(a, f)
        if g.is_one():
            g = gcd(a.pow_mod(exponent, f) - Poly.one(F), f)
        if 0 < g.degree < f.degree:
            return _equal_degree_split(g, e, rng) + _equal_degree_split(f // g, e, rng)


def factor(f: Poly) -> Factorization:
    """Complete irreducible factorization with deterministic output order.

    Randomized splitting draws from a generator keyed by the field and f
    alone, so the same f always costs the same work; the output order is
    sorted by (degree, coefficients) regardless.
    """
    if f.degree < 1:
        raise ConstantInput("cannot factor a constant polynomial")
    unit = f.leading()
    mf = f.monic()
    rng = random.Random(repr((0, f.field._key, f.coeffs)))
    found: dict[Poly, int] = {}
    for sf, mult in _squarefree_decomposition(mf):
        for prod, e in _distinct_degree(sf):
            for irr in _equal_degree_split(prod, e, rng):
                found[irr] = found.get(irr, 0) + mult
    ordered = tuple(sorted(found.items(), key=lambda t: t[0].sort_key()))
    return Factorization(unit=unit, factors=ordered)


# --- square roots ----------------------------------------------------------

def sqrt_part(f: Poly) -> Poly | None:
    """The monic h of degree n with deg(f - h*h) < n, for monic f of degree 2n;
    None for odd degree.  The x^(2n-j) coefficient of h*h is 2 h_(n-j) plus
    products of h_(n-1) .. h_(n-j+1), so f's coefficients of degree 2n-1 .. n
    fix h_(n-1) .. h_0 in turn (2 is invertible); lower ones never enter.
    h is unique: another h' would give deg((h - h')(h + h')) < n."""
    d = f.degree
    if d % 2:  # odd, or -1 for the zero polynomial
        return None
    F = f.field
    n = d // 2
    c = f.coeffs
    mul, sub = F.mul_i, F.sub_i
    half = F.inv_i(F.from_int(2).idx)
    h = [0] * n + [F.one_idx]
    for j in range(1, n + 1):
        acc = c[d - j]
        for i in range(1, j):
            acc = sub(acc, mul(h[n - i], h[n - j + i]))
        h[n - j] = mul(acc, half)
    return Poly(F, h)


def square_root(f: Poly) -> Poly | None:
    """The monic h with h*h == f, else None; sqrt_part is the only candidate."""
    h = sqrt_part(f)
    return h if h is not None and h * h == f else None


@dataclass(frozen=True)
class SquareDecomposition:
    """f == c * h^2 with h monic; c_is_square reports squareness of c in F_q."""

    c: FieldElement
    h: Poly
    c_is_square: bool


def constant_times_square(f: Poly) -> SquareDecomposition | None:
    """Detect f = c*h^2 (every irreducible factor with even multiplicity).

    Returns None when some factor has odd multiplicity.  Constants are
    treated as c * 1^2; the zero polynomial yields None.
    """
    if f.is_zero():
        return None
    h = square_root(f.monic())
    if h is None:
        return None
    c = f.leading()
    return SquareDecomposition(c=c, h=h, c_is_square=c.chi() >= 0)
