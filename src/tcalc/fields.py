"""Exact coefficient fields: the rationals and prime fields F_p.

A field is its characteristic p: ``FieldSpec(0)`` is Q and ``FieldSpec(p)``
is F_p.  Scalars are plain Python objects: ``int`` in ``range(p)`` over F_p,
and over Q an ``int`` when the value is integral and a ``Fraction``
otherwise.  Most rational entries (signs, structure constants, resolution
coefficients) are integers, and int arithmetic is several times faster than
``Fraction`` arithmetic, which is pure Python.  The two forms are
interchangeable to every reader: an int carries ``numerator``/
``denominator``, compares and hashes equal to the matching ``Fraction`` and
prints the same, so matrices, labels and output do not depend on which form
a value is in.  This module holds no arithmetic: a scalar is brought to its
canonical form only by ``FieldSpec.coerce`` and ``sparse._canonical``, and
every sum and product of scalars runs in `sparse`'s accumulate and
eliminate kernel.  No floating point exists anywhere in this package: a
document scalar is a string or an integer, never a float.
"""

from __future__ import annotations

from . import rationals


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


class FieldSpec:
    """A coefficient field, which is its characteristic p: FieldSpec(0) is
    Q and FieldSpec(p), p a prime below MAX_CHARACTERISTIC, is F_p."""

    def __init__(self, p: int):
        if p:
            if p >= MAX_CHARACTERISTIC:
                raise UnsupportedField("characteristic %r is not below the "
                                       "limit %d" % (p, MAX_CHARACTERISTIC))
            if not _is_prime(p):
                raise UnsupportedField("characteristic %r is not prime" % (p,))
        self.p = p

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash((self.p,))

    def coerce(self, x):
        """Bring an int/Fraction/str into canonical scalar form.

        A string of ASCII digits with an optional sign is read by `int`;
        any other string by Fraction (`rationals.parse`), whose grammar and
        errors are the reference, so an F_p job that reads plain integers
        never imports `fractions`."""
        if isinstance(x, str):
            digits = x[1:] if x.startswith(("+", "-")) else x
            x = int(x) if digits.isascii() and digits.isdigit() \
                else rationals.parse(x)
        p = self.p
        if p:
            if isinstance(x, int):
                return x % p
            den = x.denominator % p
            if den == 0:
                raise ZeroDivisionError("denominator divisible by %d" % p)
            return (x.numerator * pow(den, -1, p)) % p
        if x.__class__ is int:
            return x
        return rationals.parse(x)

    # -- names -------------------------------------------------------------

    def name(self) -> str:
        return "Q" if not self.p else "F%d" % self.p

    def format_scalar(self, a) -> str:
        if self.p:
            return str(a % self.p)
        return str(a)

    def parse_scalar(self, s):
        """A document scalar: a string such as "-2/3", or a JSON integer.
        A float or a bool is a TypeError, whatever its value."""
        if s.__class__ is bool or not isinstance(s, (str, int)):
            raise TypeError("scalar %r is neither a string nor an integer"
                            % (s,))
        return self.coerce(s)

    def __repr__(self):
        return "FieldSpec(%s)" % self.name()


def field_from_name(name: str) -> FieldSpec:
    name = name.strip()
    if name == "Q":
        return QQ
    digits = name[1:]
    if name.startswith("F") and digits.isascii() and digits.isdigit():
        # a longer numeral is above the limit; skip converting it
        n = len(digits.lstrip("0"))
        if n > len(str(MAX_CHARACTERISTIC)):
            raise UnsupportedField("a characteristic of %d digits is not "
                                   "below the limit %d"
                                   % (n, MAX_CHARACTERISTIC))
        if not n:
            raise UnsupportedField("characteristic 0 is not prime")
        return FieldSpec(int(digits))
    raise UnsupportedField("unrecognized field name %r" % (name,))


QQ = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
