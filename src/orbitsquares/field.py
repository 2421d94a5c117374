"""Arithmetic in F_{p^k} for odd prime p, with the quadratic character.

Elements are encoded as integer indices.  An element with power-basis
coordinates (c_0, ..., c_{k-1}) (c_0 = constant coordinate) has index

    idx = c_0 * p^(k-1) + c_1 * p^(k-2) + ... + c_{k-1}

so that increasing index order coincides with lexicographic order on the
coordinate vector.  Multiplicative structure is handled with discrete
exp/log tables w.r.t. the smallest generator (in index order), which makes
the character and inverses O(1) and fully deterministic; the character of
every element is kept as one read-only sign list, `FieldSpec.signs`.
Over F_p an index is the residue and adds mod p; over F_{p^k}, k > 1,
addition reads a table of Zech logarithms, in add_i and in value_table alike,
and in every field -x is read off the log table, so no arithmetic goes
through coordinates once the tables are built.  No other module reads the
encoding or the tables: they use the index kernels, `signs` and `value_table`.
`power_within` is the one size limit: field order, degree budget, scan cell.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import DivisionByZero


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


def power_within(base: int, exp: int, cap: int) -> bool:
    """base^exp <= cap, and every exp when base < 2; as 2^exp > cap once exp
    reaches cap's bit length, such an exp is refused with no power computed."""
    return base < 2 or exp < cap.bit_length() and base**exp <= cap


# the largest field order whose tables are built: a field holds four or five
# q-entry lists, and one process at q = 1,000,003 peaked at 466 MB
MAX_FIELD_ORDER = 2 * 10**6


def _check_order(p: int, k: int) -> None:
    """Refuse p^k > MAX_FIELD_ORDER, then k < 1 (before p is trial-divided),
    then a p that is not an odd prime, before any work on the field."""
    if k >= 1 and not power_within(p, k, MAX_FIELD_ORDER):
        name = p if k == 1 else f"{p}^{k}"
        raise ValueError(f"field {name} has more than MAX_FIELD_ORDER = {MAX_FIELD_ORDER} elements")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        raise ValueError("characteristic 2 is not supported")


def _is_irreducible(p: int, coeffs) -> bool:
    """Irreducibility over F_p of the monic polynomial with these coefficients."""
    # fpoly imports this module, so it is imported here, at call time.
    from .fpoly import Poly, is_irreducible

    return is_irreducible(Poly(make_field(p), coeffs))


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Ordering is on the coefficient tuple (c_0, ..., c_{k-1}); every tuple
    with c_0 = 0 leaves x as a factor, so c_0 starts at 1.
    """
    if k == 1:
        return (0, 1)
    for lower in product(range(1, p), *[range(p)] * (k - 1)):
        if _is_irreducible(p, lower + (1,)):
            return lower + (1,)
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


def _field_name(text: str) -> tuple[int, int, tuple[int, ...] | None]:
    """(p, k, modulus) as "p", "p^k", or "p^k/(c0,c1,...,1)" writes them, unchecked."""
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
        return _parse_decimal(p_s), _parse_decimal(k_s), modulus
    return _parse_decimal(text), 1, modulus


@lru_cache(maxsize=None)
def _field_key(p: int, k: int, modulus: tuple[int, ...] | None) -> tuple:
    """(p, k, modulus) of the field these name, after _check_order: a missing
    modulus, or any valid monic linear one (each names F_p), resolves to the
    smallest irreducible, untested; any other must be a monic irreducible of
    degree k over [0, p).  A list modulus is passed as a tuple."""
    _check_order(p, k)
    if modulus is None or k == 1 and len(modulus) == 2 and modulus[1] == 1 and 0 <= modulus[0] < p:
        return p, k, smallest_irreducible(p, k)
    if not all(0 <= c < p for c in modulus):
        raise ValueError(f"modulus coefficients must lie in [0, {p}), got {list(modulus)}")
    if len(modulus) != k + 1 or modulus[-1] != 1:
        raise ValueError(f"modulus must be monic of degree {k}, got {list(modulus)}")
    # k > 1 here, since every valid linear modulus named F_p above
    if not _is_irreducible(p, modulus):
        raise ValueError(f"modulus {list(modulus)} is reducible over F_{p}")
    return p, k, modulus


class FieldSpec:
    """A concrete realization of F_{p^k}; immutable after construction."""

    __slots__ = (
        "p", "k", "q", "modulus", "_exp", "_log", "_neg", "_zech", "_signs", "one_idx", "_key",
    )

    def __init__(self, p: int, k: int = 1, modulus=None):
        self._key = _field_key(p, k, None if modulus is None else tuple(modulus))
        self.p, self.k, self.modulus = self._key
        self.q = p**k
        self._build_tables()

    # -- encoding -----------------------------------------------------------

    def coords(self, idx: int) -> tuple[int, ...]:
        """Power-basis coordinates (c_0, ..., c_{k-1}) of an element index."""
        p, k = self.p, self.k
        return tuple(idx // p ** (k - 1 - i) % p for i in range(k))

    def index(self, coords) -> int:
        """The index of power-basis coordinates (c_0, ..., c_{k-1}); anything
        but k coordinates in [0, p) is rejected."""
        p, k = self.p, self.k
        if len(coords) != k or not all(0 <= c < p for c in coords):
            raise ValueError(f"{tuple(coords)} are not {k} coordinates in [0, {p}) of F_{self}")
        return sum(c * p ** (k - 1 - i) for i, c in enumerate(coords))

    def from_int(self, n: int):
        """The image of the integer n in the prime subfield."""
        return FieldElement(self, (n % self.p) * self.p ** (self.k - 1))

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
        exp = self._prime_powers() if k == 1 else self._extension_powers()
        half = (q - 1) // 2
        log, neg = [0] * q, [0] * q
        for i, x in enumerate(exp):
            log[x], neg[x] = i, exp[i - half]  # -x = x * g^((q-1)/2)
        self._exp, self._log, self._neg = exp, log, neg
        # the quadratic character of every index: the parity of its log
        signs = [1 - 2 * (e & 1) for e in log]
        signs[0] = 0
        self._signs = tuple(signs)
        # Zech logarithms, zech[n] = log(1 + g^n): the constant coordinate
        # leads the index, so adding one is adding one_idx mod q.  1 + g^n
        # vanishes only where g^n = -1, at n = (q-1)/2; the sentinel
        # 2(q-1), past every log and every sum of two logs, marks it.  The
        # list is stored twice over, so zech[n] is read for every n in
        # (-(q-1), 2(q-1)) with no reduction mod q - 1.
        self._zech = None
        if k > 1:
            zech = [log[(x + one) % q] for x in exp]
            zech[half] = 2 * (q - 1)
            self._zech = zech * 2

    def _prime_powers(self) -> list[int]:
        """g^i mod p for i < p - 1, g the smallest generator of F_p^*: the
        first g with g^((p-1)/r) != 1 for every prime r | p - 1."""
        p = self.p
        rs = prime_factors(p - 1)
        gen = next(g for g in range(1, p) if all(pow(g, (p - 1) // r, p) != 1 for r in rs))
        exp = [1] * (p - 1)
        for i in range(1, p - 1):
            exp[i] = exp[i - 1] * gen % p
        return exp

    def _extension_powers(self) -> list[int]:
        """g^i as indices for i < q - 1, g the first index with g^((q-1)/r) != 1
        for every prime r | q - 1.  An element is the polynomial over F_p of
        its coordinates, and fpoly multiplies it modulo the modulus.  z = g^m,
        m = (q-1)/(p-1), is in F_p, so g^(u + v m) is g^u scaled by z^v."""
        # fpoly imports this module, so it is imported here, at call time.
        from .fpoly import Poly

        p, k, q = self.p, self.k, self.q
        Fp = make_field(p)
        mod, one = Poly(Fp, self.modulus), Poly.one(Fp)
        rs = prime_factors(q - 1)
        gen = next(g for g in (Poly(Fp, self.coords(c)) for c in range(1, q))
                   if all(g.pow_mod((q - 1) // r, mod) != one for r in rs))
        powers = [one]
        for _ in range((q - 1) // (p - 1)):
            powers.append(powers[-1] * gen % mod)
        z = powers.pop().leading()
        scaled = (w.scale(zv).coeffs for zv in [z**v for v in range(p - 1)] for w in powers)
        return [self.index(c + (0,) * (k - len(c))) for c in scaled]

    @property
    def signs(self) -> tuple[int, ...]:
        """chi of every element by index: 0 at zero, +1 on nonzero squares, else -1."""
        return self._signs

    def value_table(self, coeffs) -> list[int]:
        """f(x) at every index x, for f's coefficient indices (constant first,
        with no zero leading one, as Poly keeps them), by one Horner pass
        across the field.  Its first step is lead * x + c for the constant
        leading coefficient lead, so it reads no accumulator: over F_p it is
        (lead * x + c) % p, and over F_{p^k} it reads log lead once and tests
        no point for zero.  Over F_{p^k}, k > 1, each step a * x + c is one
        list comprehension over the log, exp and Zech tables: a * x is
        g^(log a + log x), and a nonzero c is added as c * (1 + a * x / c),
        whose log is log c + zech[log a + log x - log c].  The exp list is
        read twice over and then padded with q - 1 zeros, so every such sum,
        and the Zech sentinel that marks a * x + c = 0, is read with no
        reduction mod q - 1."""
        p, q = self.p, self.q
        if len(coeffs) < 2:
            return [coeffs[0] if coeffs else 0] * q
        lead, c, *rest = coeffs[::-1]
        if self.k == 1:
            acc = [(lead * x + c) % p for x in range(q)]
            for c in rest:
                acc = [(a * x + c) % p for a, x in zip(acc, range(q))]
            return acc
        exp, log, zech = self._exp * 2 + [0] * (q - 1), self._log, self._zech
        la, lc = log[lead], log[c]
        if c:  # the first step: a = lead at every x
            d = la - lc
            acc = [exp[lc + zech[lx + d]] for lx in log]
        else:
            acc = [exp[la + lx] for lx in log]
        acc[0] = c  # log[0] is a placeholder: x = 0 sends every a to 0, then to c
        for c in rest:
            if c:
                lc = log[c]
                acc = [exp[lc + zech[log[a] + lx - lc]] if a else c for a, lx in zip(acc, log)]
            else:
                acc = [exp[log[a] + lx] if a else 0 for a, lx in zip(acc, log)]
            acc[0] = c
        return acc

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
        z = self._zech[log[b] - i]
        return self._exp[(i + z) % n] if z < n else 0

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
        if b == 0:
            raise DivisionByZero("division by zero")
        return self.mul_i(a, self.inv_i(b))

    def pow_i(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        if a == 0:
            return self.one_idx if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def chi_i(self, a: int) -> int:
        """Quadratic character as a sign in {-1, 0, +1}."""
        return self._signs[a]

    # -- misc ---------------------------------------------------------------

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        """Parse "p", "p^k", or "p^k/(c0,c1,...,1)" into make_field's instance."""
        return make_field(*_field_name(text))

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
    keyed by _field_key, which refuses an invalid p, k or modulus, or a field
    too large to tabulate, before the search for its modulus."""
    modulus = None if modulus is None else tuple(modulus)
    key = _field_key(p, k, modulus)
    if key not in _FIELDS:
        _FIELDS[key] = FieldSpec(p, k, modulus)
    return _FIELDS[key]


class FieldElement:
    """An element of a FieldSpec; a thin immutable wrapper over its index."""

    __slots__ = ("field", "idx")

    def __init__(self, field: FieldSpec, idx: int):
        self.field = field
        self.idx = idx

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements belong to different fields")
            return other.idx
        if isinstance(other, int):
            return self.field.from_int(other).idx
        return NotImplemented

    def _apply(self, kernel, other, reflected: bool = False):
        """kernel(self, other) on indices, or kernel(other, self) when reflected."""
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, kernel(o, self.idx) if reflected else kernel(self.idx, o))

    def __add__(self, other):
        return self._apply(self.field.add_i, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(self.field.sub_i, other)

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_i(self.idx))

    def __mul__(self, other):
        return self._apply(self.field.mul_i, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply(self.field.div_i, other)

    def __rtruediv__(self, other):
        return self._apply(self.field.div_i, other, reflected=True)

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow_i(self.idx, e))

    def inverse(self):
        return FieldElement(self.field, self.field.inv_i(self.idx))

    def chi(self) -> int:
        """Quadratic character: 0 at zero, +1 on nonzero squares, -1 otherwise."""
        return self.field.chi_i(self.idx)

    def is_zero(self) -> bool:
        return self.idx == 0

    def __eq__(self, other):
        # no int operand: 3 and 10 name one element of F_7 but hash apart
        if isinstance(other, FieldElement):
            return self.field == other.field and self.idx == other.idx
        return NotImplemented

    def __hash__(self):
        return hash((self.field._key, self.idx))

    def __lt__(self, other):
        # coordinate-lexicographic order == index order
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.idx < o

    def __repr__(self):
        if self.field.k == 1:
            return str(self.idx)
        return f"{self.field.coords(self.idx)}"
