"""Truncated symmetric sequences: the data a coalgebra and an operad are
built on.

A symmetric sequence A stores, for each arity 1 <= n <= N, an equivariant
complex A_n with a full Sigma_n action; zero terms are dropped.
"""

from __future__ import annotations

from .chain import ChainComplex
from .equivariant import EquivariantComplex
from .fields import FieldSpec


class SymmetricSequence:
    """N-truncated symmetric sequence of equivariant complexes."""

    def __init__(self, field: FieldSpec, truncation: int, terms):
        self.field = field
        self.truncation = truncation
        self.terms = {}
        for n, t in terms.items():
            if t is None or t.complex.is_zero():
                continue
            if not (1 <= n <= truncation):
                raise ValueError("term arity %d outside truncation %d" % (n, truncation))
            if t.group.blocks != (n,):
                raise ValueError("term %d must carry a full Sigma_%d action" % (n, n))
            self.terms[n] = t

    def term(self, n) -> EquivariantComplex | None:
        return self.terms.get(n)

    def term_complex(self, n) -> ChainComplex:
        t = self.terms.get(n)
        return t.complex if t else ChainComplex(self.field, {})

    def arities(self):
        return sorted(self.terms)

    def __repr__(self):
        return "SymmetricSequence(N=%d, arities %s)" % (self.truncation, self.arities())
