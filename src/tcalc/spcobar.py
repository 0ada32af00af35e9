"""The cobar construction Phi K^bullet A of an Sp-source coalgebra at the
zero sphere, truncation <= 3.

Phi(B)(S^0) is the sum over arities r of the Sigma_r homotopy fixed points
of the level pieces.  The pieces of K^m A and their models come from the
one rule in `tower` (`chain_model`, `cobar_pieces`): at level 1 they are the
coalgebra's own comonad components K_r A_n (`comonads.SpComponentModel`,
Tate models off the diagonal).  Every windowed model sizes its own
resolution by one rule (`equivariant._total_complex`), so every structural
map is slotwise.  The index walk of the cofaces and codegeneracies lives in
`tower._Levels`; this builder supplies the Phi term of a piece, the
fixed-to-Tate unit off the diagonal and theta at the innermost slot.  The
builder of stage n reads the coalgebra's own terms of arity <= n, comonad
and theta, which there are its n-truncation's, so no truncated copy is
built.
"""

from __future__ import annotations

from . import chainops, combinat, equivops
from .chain import ChainComplex, ChainMap, linear_map
from .comonads import coaugment_invariants
from .equivariant import homotopy_fixed
from .tower import _Levels, cobar_pieces, on_pieces, summands_by_value


def _sp_fixed_into_tate(src: ChainComplex, piece, q, n) -> ChainMap:
    """Map the Sigma_n homotopy-fixed model of A_n into the cone-target part
    of the Tate piece, through the structural carrier map:
    identity for (1, 2)-type, the singular-set vertex for (1, 3), the
    surjection diagonal for (2, 3)."""
    surjs = combinat.all_surjections(n, q)

    def image(k, lab):
        _, slot, gen, alab = lab
        inner = (("l3", "w"), alab) if (q, n) == (1, 3) else alab
        return [(("cone-tgt", ("hGf", slot, gen, ("sidx", alpha, inner))), 1)
                for alpha in surjs]
    return linear_map(src, piece.complex, image, partial=True).validate()


class SpCobarBuilder(_Levels):
    """Phi K^bullet A_{<= n} at the zero sphere, for a top arity n <= 3.

    The level pieces are K^m A's on the arities <= n, from the one rule in
    `tower` (`cobar_pieces`): the coalgebra's own comonad models, which on
    those arities are its n-truncation's.  So the strictly nested chains
    q < s < t, whose models the Sp comonad drops (acyclic targets, the swap
    permutes the two partition summands), have none.  The Phi term of a
    piece is the piece itself at arity 1, else its fixed model over
    Sigma_r at the expanded coalgebra window; each model sizes its own
    resolution, and the maps between them are slotwise."""

    def __init__(self, coalgebra, n):
        c = coalgebra
        if n > 3:
            raise ValueError("sp cobar bounded at truncation 3")
        self.c = c
        w_phi = c.window.expand(1)
        self.pieces = cobar_pieces(c.sequence, c.komonad, n)
        super().__init__(c.field, summands_by_value(self.pieces, lambda r, p: (
            p.complex if r == 1 else homotopy_fixed(p, w_phi))))

    def _outer(self, m, sk, tk) -> ChainMap:
        """The unit off the diagonal, out of a top-arity summand (n, ..., n)
        into (q, n, ..., n): the fixed-to-Tate map through the structural
        carrier map."""
        q, n = tk[0], tk[-1]
        src, tgt = self.summands[m][sk], self.summands[m + 1][tk]
        piece = self.pieces[m + 1][tk]
        g = _sp_fixed_into_tate(src, piece, q, n)
        if q == 1:
            return g
        _, incl = equivops.strict_fixed(piece)
        to_inv = chainops.factor_through(g, incl)
        coaug = coaugment_invariants(incl, tgt)
        return coaug.compose(to_inv).validate()

    def _inner(self, m, sk, tk):
        """theta_{s,n} at the innermost slot; K_s collapsed on an arity-s
        object, so it is theta itself, which lands on the piece model or a
        twin of it, and on the Phi terms: itself at arity 1, slotwise on
        the fixed models otherwise.  (The targets r < s < n are dropped:
        their blocks are zero.)"""
        th = self.c.theta_map(sk[-1], tk[-1])
        if th is None or sk[0] == 1:
            return th
        th = on_pieces(self.pieces, m, sk, tk, th)
        return equivops.slotwise_map(self.summands[m][sk],
                                     self.summands[m + 1][tk], th).validate()
