"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain Python objects: ``Fraction`` over Q, ``int`` in
``range(p)`` over F_p.  No floating point exists anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


# Miller-Rabin to the first 13 prime bases is exact below this bound, the
# least strong pseudoprime to all of them; larger characteristics are refused.
MAX_CHARACTERISTIC = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class UnsupportedField(ValueError):
    """A field that is neither Q nor F_p with p a prime below
    MAX_CHARACTERISTIC (the CLI reports it as a usage error)."""


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < MAX_CHARACTERISTIC."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
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


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field: kind 'rationals' (char 0) or 'prime-field' (char p)."""

    kind: str
    characteristic: int

    def __post_init__(self):
        if self.kind == "rationals":
            if self.characteristic != 0:
                raise ValueError("rationals have characteristic 0")
        elif self.kind == "prime-field":
            p = self.characteristic
            if p >= MAX_CHARACTERISTIC:
                raise UnsupportedField("characteristic %r is not below the "
                                       "limit %d" % (p, MAX_CHARACTERISTIC))
            if not _is_prime(p):
                raise UnsupportedField("characteristic %r is not prime" % (p,))
        else:
            raise ValueError("unknown field kind %r" % (self.kind,))

    # -- scalar arithmetic ------------------------------------------------

    @property
    def p(self) -> int:
        return self.characteristic

    def zero(self):
        return 0 if self.p else Fraction(0)

    def one(self):
        return 1 if self.p else Fraction(1)

    def coerce(self, x):
        """Bring an int/Fraction/str into canonical scalar form."""
        if isinstance(x, str):
            x = Fraction(x)
        if self.p:
            if isinstance(x, Fraction):
                den = x.denominator % self.p
                if den == 0:
                    raise ZeroDivisionError("denominator divisible by %d" % self.p)
                return (x.numerator * pow(den, -1, self.p)) % self.p
            return int(x) % self.p
        return Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverting zero")
        return pow(a, -1, self.p) if self.p else 1 / a

    def is_zero(self, a) -> bool:
        return a == 0

    def is_one(self, a) -> bool:
        return a == self.one()

    # -- names -------------------------------------------------------------

    def name(self) -> str:
        return "Q" if not self.p else "F%d" % self.p

    def format_scalar(self, a) -> str:
        if self.p:
            return str(a % self.p)
        return str(Fraction(a))

    def parse_scalar(self, s: str):
        return self.coerce(Fraction(s))

    def __repr__(self):
        return "FieldSpec(%s)" % self.name()


def field_from_name(name: str) -> FieldSpec:
    name = name.strip()
    if name == "Q":
        return QQ
    digits = name[1:]
    if name.startswith("F") and digits.isdecimal():
        # a longer numeral is above the limit; skip converting it
        n = len(digits.lstrip("0"))
        if n > len(str(MAX_CHARACTERISTIC)):
            raise UnsupportedField("a characteristic of %d digits is not "
                                   "below the limit %d"
                                   % (n, MAX_CHARACTERISTIC))
        return FieldSpec("prime-field", int(digits))
    raise UnsupportedField("unrecognized field name %r" % (name,))


QQ = FieldSpec("rationals", 0)
F2 = FieldSpec("prime-field", 2)
F3 = FieldSpec("prime-field", 3)
