"""Arithmetic in F_{p^k} for odd prime p, with quadratic character and square roots.

Elements are encoded as integer indices.  An element with power-basis
coordinates (c_0, ..., c_{k-1}) (c_0 = constant coordinate) has index

    idx = c_0 * p^(k-1) + c_1 * p^(k-2) + ... + c_{k-1}

so that increasing index order coincides with lexicographic order on the
coordinate vector.  Multiplicative structure is handled with discrete
exp/log tables w.r.t. the smallest generator (in index order), which makes
the character, inverses and square roots O(1) and fully deterministic; the
character of every element is kept as one sign list, built with the tables.
Over F_p an index is the residue and adds mod p; over F_{p^k}, k > 1,
addition reads a table of Zech logarithms, so no arithmetic goes through
coordinates once the tables are built.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import (
    DivisionByZero,
    EvenCharacteristic,
    MixedFields,
    NonSquare,
    NotPrime,
    ReducibleModulus,
)


def _parse_decimal(text: str) -> int:
    """ASCII decimal digits only: int() also reads signs, "1_0" and "٥"."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected a decimal number, got {text!r}")
    return int(digits)


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# the largest field order whose tables are built: a field holds four or five
# q-entry lists, and one process at q = 1,000,003 peaked at 466 MB
MAX_FIELD_ORDER = 2 * 10**6


def _check_order(p: int, k: int) -> None:
    """Refuse p^k > MAX_FIELD_ORDER before any work on the field; for p >= 2
    a k above the bound's bit length alone decides, so p^k is never computed."""
    if p > 1 and k >= 1 and (k > MAX_FIELD_ORDER.bit_length() or p**k > MAX_FIELD_ORDER):
        name = p if k == 1 else f"{p}^{k}"
        raise ValueError(f"field {name} has more than MAX_FIELD_ORDER = {MAX_FIELD_ORDER} elements")


def _is_irreducible(p: int, coeffs) -> bool:
    """Irreducibility over F_p of the monic polynomial with these coefficients."""
    # fpoly imports this module, so it is imported here, at call time.
    from .fpoly import Poly, is_irreducible

    return is_irreducible(Poly(make_field(p), coeffs))


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Ordering is on the coefficient tuple (c_0, ..., c_{k-1}).
    """
    if k == 1:
        return (0, 1)
    for lower in product(range(p), repeat=k):
        if _is_irreducible(p, lower + (1,)):
            return lower + (1,)
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


def _named_modulus(p: int, k: int, modulus) -> tuple[int, ...] | None:
    """modulus as a tuple, or None when it names the default field: None
    itself, or any valid monic linear modulus, since each one names F_p."""
    if modulus is None:
        return None
    modulus = tuple(modulus)
    if k == 1 and len(modulus) == 2 and modulus[1] == 1 and 0 <= modulus[0] < p:
        return None
    return modulus


class FieldSpec:
    """A concrete realization of F_{p^k}; immutable after construction."""

    __slots__ = (
        "p", "k", "q", "modulus", "_exp", "_log", "_neg", "_zech", "_chi", "one_idx", "_key",
    )

    def __init__(self, p: int, k: int = 1, modulus=None):
        _check_order(p, k)
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p == 2:
            raise EvenCharacteristic("characteristic 2 is not supported")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        modulus = _named_modulus(p, k, modulus)
        if modulus is None:
            modulus = smallest_irreducible(p, k)
        elif not all(0 <= c < p for c in modulus):
            raise ValueError(f"modulus coefficients must lie in [0, {p}), got {list(modulus)}")
        elif len(modulus) != k + 1 or modulus[-1] != 1:
            raise ReducibleModulus(f"modulus must be monic of degree {k}, got {list(modulus)}")
        # k > 1 here, since every valid linear modulus named F_p above
        elif not _is_irreducible(p, modulus):
            raise ReducibleModulus(f"modulus {list(modulus)} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self._key = (p, k, modulus)
        self._build_tables()

    # -- encoding -----------------------------------------------------------

    def coords(self, idx: int) -> tuple[int, ...]:
        """Power-basis coordinates (c_0, ..., c_{k-1}) of an element index."""
        p, k = self.p, self.k
        out = []
        for i in range(k):
            w = p ** (k - 1 - i)
            out.append(idx // w)
            idx %= w
        return tuple(out)

    def index(self, coords) -> int:
        p, k = self.p, self.k
        return sum((c % p) * p ** (k - 1 - i) for i, c in enumerate(coords))

    def from_int(self, n: int):
        """The image of the integer n in the prime subfield."""
        return FieldElement(self, (n % self.p) * self.p ** (self.k - 1))

    def from_coords(self, coords):
        return FieldElement(self, self.index(coords))

    def parse_index(self, text: str) -> int:
        """An element index written in decimal; anything outside [0, q) is rejected."""
        idx = _parse_decimal(text)
        if not 0 <= idx < self.q:
            raise ValueError(f"element index {idx} is outside [0, {self.q})")
        return idx

    @property
    def zero(self):
        return FieldElement(self, 0)

    @property
    def one(self):
        return FieldElement(self, self.one_idx)

    def elements(self):
        """All q elements, in coordinate-lexicographic order."""
        for idx in range(self.q):
            yield FieldElement(self, idx)

    # -- table construction -------------------------------------------------

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        self.one_idx = one = p ** (k - 1)
        # negation, one coordinate at a time from the last: a new leading
        # coordinate c has weight len(neg) and negates to (-c) mod p
        neg = [0]
        for _ in range(k):
            neg = [(-c) % p * len(neg) + r for c in range(p) for r in neg]
        self._neg = neg
        mod = self.modulus
        one_c = [1] + [0] * (k - 1)

        def mul(a, b):
            """Product of two coordinate lists, reduced by the monic modulus."""
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        prod[i + j] += x * y
            for top in range(2 * k - 2, k - 1, -1):
                c = prod[top] % p
                if c:
                    for j in range(k):
                        prod[top - k + j] -= c * mod[j]
            return [c % p for c in prod[:k]]

        def power(a, e):
            result = one_c
            while e:
                if e & 1:
                    result = mul(result, a)
                a = mul(a, a)
                e >>= 1
            return result

        # find smallest generator of the multiplicative group
        rs = prime_factors(q - 1)
        for cand in range(1, q):
            gen = self.coords(cand)
            if all(power(gen, (q - 1) // r) != one_c for r in rs):
                break
        exp = [0] * (q - 1)
        log = [0] * q
        cur = one_c
        for i in range(q - 1):
            idx = 0
            for c in cur:
                idx = idx * p + c
            exp[i] = idx
            log[idx] = i
            cur = mul(cur, gen)
        self._exp = exp
        self._log = log
        # the quadratic character of every index: the parity of its log
        chi = [1 - 2 * (e & 1) for e in log]
        chi[0] = 0
        self._chi = chi
        # Zech logarithms, zech[n] = log(1 + g^n): the constant coordinate
        # leads the index, so adding one is adding one_idx mod q.  1 + g^n
        # vanishes only at n = (q-1)/2, where g^n = -1; -1 marks it.
        if k > 1:
            zech = [log[(x + one) % q] for x in exp]
            zech[(q - 1) // 2] = -1
            self._zech = zech
        else:
            self._zech = None

    # -- index-level kernels ------------------------------------------------

    def add_i(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        # Zech: g^i + g^j = g^i (1 + g^(j-i)) = g^(i + zech[j-i])
        if not a:
            return b
        if not b:
            return a
        log, n = self._log, self.q - 1
        i = log[a]
        z = self._zech[(log[b] - i) % n]
        return 0 if z < 0 else self._exp[(i + z) % n]

    def sub_i(self, a: int, b: int) -> int:
        return self.add_i(a, self._neg[b])

    def neg_i(self, a: int) -> int:
        return self._neg[a]

    def mul_i(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def div_i(self, a: int, b: int) -> int:
        return self.mul_i(a, self.inv_i(b))

    def pow_i(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        if a == 0:
            return self.one_idx if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def chi_i(self, a: int) -> int:
        """Quadratic character as a sign in {-1, 0, +1}."""
        return self._chi[a]

    def sqrt_i(self, a: int) -> int:
        """Canonical square root: the root with the smaller index."""
        if a == 0:
            return 0
        e = self._log[a]
        if e % 2:
            raise NonSquare(f"element {self.coords(a)} is not a square")
        r = self._exp[e // 2]
        return min(r, self._neg[r])

    # -- misc ---------------------------------------------------------------

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        """Parse "p", "p^k", or "p^k/(c0,c1,...,1)" into make_field's instance."""
        text = text.strip()
        modulus = None
        if "/" in text:
            head, tail = text.split("/", 1)
            tail = tail.strip()
            if not (tail.startswith("(") and tail.endswith(")")):
                raise ValueError(f"bad modulus syntax in field spec {text!r}")
            modulus = tuple(_parse_decimal(t) for t in tail[1:-1].split(","))
            text = head.strip()
        if "^" in text:
            p_s, k_s = text.split("^", 1)
            p, k = _parse_decimal(p_s), _parse_decimal(k_s)
        else:
            p, k = _parse_decimal(text), 1
        return make_field(p, k, modulus)

    def __str__(self):
        if self.k == 1:
            return str(self.p)
        return f"{self.p}^{self.k}"

    def __repr__(self):
        return f"FieldSpec(p={self.p}, k={self.k}, modulus={list(self.modulus)})"

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __reduce__(self):
        # unpickling looks the field up instead of rebuilding its tables
        return (make_field, self._key)


_FIELDS: dict[tuple, FieldSpec] = {}


def make_field(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """The one cached FieldSpec per field, however it is named: the cache is
    keyed by the modulus as a tuple, a missing one resolving to the smallest
    irreducible (which the constructor then need not test again), as does
    every name _named_modulus reads as the default; an invalid modulus
    reaches the constructor, which refuses it, and so does a field too large
    to tabulate, before the search for its modulus."""
    _check_order(p, k)
    modulus = _named_modulus(p, k, modulus)
    key = (p, k, smallest_irreducible(p, k) if modulus is None and k >= 1 else modulus)
    if key not in _FIELDS:
        _FIELDS[key] = FieldSpec(p, k, modulus)
    return _FIELDS[key]


class FieldElement:
    """An element of a FieldSpec; a thin immutable wrapper over its index."""

    __slots__ = ("field", "idx")

    def __init__(self, field: FieldSpec, idx: int):
        self.field = field
        self.idx = idx

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coords(self.idx)

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise MixedFields("elements belong to different fields")
            return other.idx
        if isinstance(other, int):
            return self.field.from_int(other).idx
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.add_i(self.idx, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.sub_i(self.idx, o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.sub_i(o, self.idx))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_i(self.idx))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.mul_i(self.idx, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o == 0:
            raise DivisionByZero("division by zero")
        return FieldElement(self.field, self.field.div_i(self.idx, o))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.idx == 0:
            raise DivisionByZero("division by zero")
        return FieldElement(self.field, self.field.div_i(o, self.idx))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow_i(self.idx, e))

    def inverse(self):
        return FieldElement(self.field, self.field.inv_i(self.idx))

    def chi(self) -> int:
        """Quadratic character: 0 at zero, +1 on nonzero squares, -1 otherwise."""
        return self.field.chi_i(self.idx)

    def sqrt(self) -> "FieldElement":
        return FieldElement(self.field, self.field.sqrt_i(self.idx))

    def is_zero(self) -> bool:
        return self.idx == 0

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.idx == other.idx
        if isinstance(other, int):
            return self.idx == self.field.from_int(other).idx
        return NotImplemented

    def __hash__(self):
        return hash((self.field._key, self.idx))

    def __lt__(self, other):
        # coordinate-lexicographic order == index order
        o = self._coerce(other)
        return self.idx < o

    def __repr__(self):
        if self.field.k == 1:
            return str(self.idx)
        return f"{self.coeffs}"
