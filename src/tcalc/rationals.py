"""Non-integral rationals, loaded only by the jobs that meet one.

Over Q a scalar is an ``int`` when it is integral and a ``Fraction``
otherwise (`fields`); `parse` makes that form, and `FieldSpec.coerce`,
which `sparse._canonical` calls on every sum that is not an int, is its
one caller.  Importing `fractions` also imports `decimal`, and an
F_p job, whose scalars are ints in ``range(p)``, needs neither: `fields`
and `sparse` bind this module with ``from . import rationals`` and read it
only where a string is not a plain integer, a value is not an int, or a Q
row is divided by its lead, so the first such read imports `fractions`.
"""

from __future__ import annotations

from fractions import Fraction


def parse(x):
    """A string or a rational number as a canonical rational, its numerator
    when it is integral; the accepted strings and the errors raised are
    Fraction's."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x
