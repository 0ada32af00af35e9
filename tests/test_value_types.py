"""The small value classes: equality, hashing and repr.

Their hashes are the hash of the field tuple, so sets and dicts keyed by
them iterate in the same order under a fixed PYTHONHASHSEED, and with them
the elimination order inside tcalc."""

from fractions import Fraction

import pytest

from tcalc.chain import DegreeWindow
from tcalc.coalgebras import FinitePointedSet
from tcalc.fields import F2, F3, QQ, FieldSpec
from tcalc.perms import YoungGroup


@pytest.mark.parametrize("make, fields, other, text", [
    (lambda: DegreeWindow(-1, 2), (-1, 2), DegreeWindow(-1, 3),
     "DegreeWindow(lo=-1, hi=2)"),
    (lambda: FieldSpec("prime-field", 3), ("prime-field", 3), F2,
     "FieldSpec(F3)"),
    (lambda: FieldSpec("rationals", 0), ("rationals", 0), F3,
     "FieldSpec(Q)"),
    (lambda: YoungGroup((2, 1)), ((2, 1),), YoungGroup((1, 2)),
     "YoungGroup(blocks=(2, 1))"),
    (lambda: FinitePointedSet(2), (2,), FinitePointedSet(3),
     "FinitePointedSet(size=2)"),
    (lambda: FinitePointedSet(0), (0,), FinitePointedSet(2),
     "FinitePointedSet(size=0)"),
])
def test_value_eq_hash_repr(make, fields, other, text):
    a, b = make(), make()
    assert a == b and a is not b
    assert a != other
    assert a != fields  # another class never compares equal
    assert hash(a) == hash(b) == hash(fields)
    assert len({a, b, other}) == 2
    assert repr(a) == text


def test_field_constants_are_values():
    assert FieldSpec("prime-field", 2) == F2
    assert {F2: 1}[FieldSpec("prime-field", 2)] == 1
    assert QQ != F2


@pytest.mark.parametrize("make", [
    lambda: DegreeWindow(1, 0),
    lambda: FieldSpec("prime-field", 4),
    lambda: FieldSpec("rationals", 2),
    lambda: FieldSpec("reals", 0),
    lambda: YoungGroup((2, 0)),
    lambda: FinitePointedSet(-1),
])
def test_value_checks_still_reject(make):
    with pytest.raises(ValueError):
        make()


def _as_fraction_reads(F, s):
    """s read by Fraction and brought into F by hand: over F_p the numerator
    times the inverse of the denominator, over Q an int when integral."""
    x = Fraction(s)
    if F.p:
        den = x.denominator % F.p
        if den == 0:
            raise ZeroDivisionError(s)
        return x.numerator * pow(den, -1, F.p) % F.p
    return x.numerator if x.denominator == 1 else x


def _outcome(read, *args):
    try:
        x = read(*args)
    except Exception as err:
        return "raises", type(err)
    return "value", type(x), x


@pytest.mark.parametrize("F", [F2, F3, FieldSpec("prime-field", 5), QQ],
                         ids=lambda F: F.name())
@pytest.mark.parametrize("s", [
    "0", "007", "+3", "-4", " 5 ",        # integers, read by int
    "1/2", "3/6", "1.5", "1e2",           # fractions and decimals
    "\u0663", "\u00b2",                   # non-ASCII digits: ٣ and ²
    "", "x", "1/3",
])
def test_parse_scalar_reads_a_string_as_fraction_does(F, s):
    # the int fast path for ASCII digits is checked against Fraction itself,
    # so the grammar it accepts cannot drift from Fraction's
    assert _outcome(F.parse_scalar, s) == _outcome(_as_fraction_reads, F, s)


def test_parse_scalar_refuses_a_denominator_the_characteristic_divides():
    with pytest.raises(ZeroDivisionError):
        F3.parse_scalar("1/3")
    assert F3.parse_scalar("\u0663") == 0 and QQ.parse_scalar("-4") == -4
