"""Non-integral rationals, loaded only by the jobs that meet one.

Over Q a scalar is an ``int`` when it is integral and a ``Fraction``
otherwise (`fields`).  Importing `fractions` also imports `decimal`, and an
F_p job, whose scalars are ints in ``range(p)``, needs neither: `fields`
and `sparse` bind this module with ``from . import rationals`` and read it
only where a string is not a plain integer, a value is not an int, or a Q
row is divided by its lead, so the first such read imports `fractions`.
"""

from __future__ import annotations

from fractions import Fraction


def canonical(x):
    """A rational in canonical form: its numerator when it is integral."""
    return x.numerator if x.denominator == 1 else x


def parse(x):
    """A string or a rational number as a canonical rational; the accepted
    strings and the errors raised are Fraction's."""
    return canonical(Fraction(x))
