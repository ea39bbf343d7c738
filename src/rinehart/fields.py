"""Exact scalar fields: the rationals and prime fields F_p.

Every computation in the engine runs over one of these; there is no floating
point anywhere.  Rational scalars are `fractions.Fraction`; F_p scalars are
`FpElement` instances carrying their modulus.  Both support the arithmetic
operators, so the linear algebra layer is written once against the operators
plus a small `Field` handle for constants, parsing and formatting.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


class FpElement:
    """An element of F_p, stored as the canonical representative in [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return FpElement(self.v + other.v, self.p)

    def __sub__(self, other):
        return FpElement(self.v - other.v, self.p)

    def __mul__(self, other):
        return FpElement(self.v * other.v, self.p)

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __truediv__(self, other):
        if other.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.v == other.v and self.p == other.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


# Miller-Rabin on the first 13 prime bases decides primality exactly below
# PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < PRIME_BOUND."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Handle for an exact coefficient field, either Q or F_p."""

    def __init__(self, kind: str, p: int | None = None):
        if kind == "prime":
            if p is not None and p >= PRIME_BOUND:
                raise ParseError(f"modulus {p} is too large: primality is decided "
                                 f"exactly only below {PRIME_BOUND}")
            if p is None or not _is_prime(p):
                raise ParseError(f"modulus {p!r} is not prime")
            self.zero = FpElement(0, p)
            self.one = FpElement(1, p)
        elif kind == "rational":
            self.zero = Fraction(0)
            self.one = Fraction(1)
        else:
            raise ParseError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p

    def from_int(self, k: int):
        if self.kind == "rational":
            return Fraction(k)
        return FpElement(k, self.p)

    def parse(self, s):
        """Accept ints, int strings and 'a/b' rational strings."""
        if isinstance(s, bool) or isinstance(s, float):
            raise ParseError(f"scalar {s!r} is not an exact value")
        if isinstance(s, int):
            return self.from_int(s)
        if isinstance(s, str):
            try:
                q = Fraction(s)
            except (ValueError, ZeroDivisionError) as e:
                raise ParseError(f"cannot parse scalar {s!r}") from e
            if self.kind == "rational":
                return q
            if q.denominator % self.p == 0:
                raise ParseError(f"denominator of {s!r} vanishes mod {self.p}")
            return FpElement(q.numerator, self.p) / FpElement(q.denominator, self.p)
        raise ParseError(f"cannot parse scalar {s!r}")

    def fmt(self, x):
        """Canonical serialization: ints stay ints, proper fractions become 'a/b'."""
        if self.kind == "prime":
            return x.v
        if x.denominator == 1:
            return x.numerator
        return f"{x.numerator}/{x.denominator}"

    def describe(self) -> str:
        return "Q" if self.kind == "rational" else f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"Field({self.describe()})"


QQ = Field("rational")

_gf_cache: dict[int, Field] = {}


def GF(p: int) -> Field:
    if p not in _gf_cache:
        _gf_cache[p] = Field("prime", p)
    return _gf_cache[p]
