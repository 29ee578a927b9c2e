"""Exact scalar arithmetic: the rationals and prime fields GF(p).

Every scalar the package hands out is either a ``fractions.Fraction`` (over
Q) or a ``ModInt`` (over GF(p)).  Both support the usual arithmetic
operators, are falsy exactly when zero, and compare exactly.  Inside the
kernel (``exactlin``) a GF(p) scalar is held as its residue, a plain ``int``
in [0, p), reduced mod ``characteristic`` by the kernel itself, and an
integral rational as a plain ``int``, which mixes exactly with ``Fraction``
and equals and hashes like it; the kernel turns every ``int`` back into a
field element through ``coerce`` before handing it out.
"""

from __future__ import annotations

import re
from fractions import Fraction


class BadRational(ValueError):
    """A scalar literal that does not match the accepted grammar."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class ModInt:
    """Residue in GF(p), stored in the canonical range [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, ModInt):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other.value
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(v - self.value, self.p)

    def __mul__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(self.value * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(v * pow(self.value, -1, self.p), self.p)

    def __neg__(self):
        return ModInt(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"ModInt({self.value}, {self.p})"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class RationalField:
    """The field Q; scalars are ``Fraction`` in lowest terms."""

    tag = "Q"
    characteristic = 0
    # One shared object each, so comparisons of kernel output short-cut on
    # identity.
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return self.parse(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def parse(self, text: str) -> Fraction:
        if not _RATIONAL_RE.match(text):
            raise BadRational(f"bad rational literal {text!r}")
        return Fraction(text)

    def format(self, value) -> str:
        return str(value)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a prime p < 2^31; scalars are ``ModInt``."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        if p >= 2**31:
            raise ValueError(f"modulus {p} too large (must be < 2^31)")
        self.p = p
        self.tag = f"GF({p})"
        self.characteristic = p
        self.zero = ModInt(0, p)
        self.one = ModInt(1, p)

    def coerce(self, value) -> ModInt:
        if isinstance(value, ModInt):
            if value.p != self.p:
                raise ValueError(f"residue mod {value.p} used in GF({self.p})")
            return value
        if isinstance(value, int):
            return ModInt(value, self.p)
        if isinstance(value, Fraction):
            return ModInt(value.numerator, self.p) / ModInt(value.denominator, self.p)
        if isinstance(value, str):
            return self.parse(value)
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def parse(self, text: str) -> ModInt:
        if not _RATIONAL_RE.match(text):
            raise BadRational(f"bad scalar literal {text!r}")
        if "/" in text:
            num, den = text.split("/")
            d = int(den) % self.p
            if d == 0:
                raise BadRational(f"denominator of {text!r} vanishes in GF({self.p})")
            return ModInt(int(num), self.p) / ModInt(d, self.p)
        return ModInt(int(text), self.p)

    def format(self, value) -> str:
        return str(self.coerce(value).value)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_FIELD_TAG_RE = re.compile(r"^GF\((\d+)\)$")


def field_from_tag(tag: str):
    """Resolve a field tag as written in structure files ("Q" or "GF(p)")."""
    if tag == "Q":
        return QQ
    m = isinstance(tag, str) and _FIELD_TAG_RE.match(tag)
    if m:
        return PrimeField(int(m.group(1)))
    raise ValueError(f"unknown field tag {tag!r}")
