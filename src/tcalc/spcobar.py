"""The cobar construction Phi K^bullet A of an Sp-source coalgebra at the
zero sphere, truncation <= 3.

Phi(B)(S^0) is the sum over arities r of the Sigma_r homotopy fixed points
of the level pieces.  The level-1 pieces are the coalgebra's own comonad
components K_r A_n (`comonads.SpComponentModel`, Tate models off the
diagonal).  Every windowed model sizes its own resolution by one rule
(`equivariant._total_complex`), so every structural map is slotwise.  The
index walk of the cofaces and codegeneracies lives in `tower._Levels`; this
builder supplies the pieces, the fixed-to-Tate unit off the diagonal and
the transport of theta.
"""

from __future__ import annotations

from . import chainops, combinat, equivops
from .chain import ChainComplex, ChainMap, DegreeWindow, linear_map
from .comonads import coaugment_invariants
from .equivariant import homotopy_fixed
from .tower import _Levels, _piece_nonzero, _RawPiece


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
    return linear_map(src, piece.value.complex, image,
                      partial=True).validate()


class SpCobarBuilder(_Levels):
    """Phi K^bullet A at the zero sphere, truncation <= 3.

    Level pieces are keyed by index chains; the strictly nested keys
    r < s < n are dropped (acyclic targets, the swap permutes the two
    partition summands), and the comultiplication components into them are
    zero.  The level-1 pieces are the coalgebra's comonad components
    themselves, and every fixed model is taken at the expanded coalgebra
    window; each model sizes its own resolution, and the maps between them
    are slotwise."""

    def __init__(self, coalgebra, w: DegreeWindow):
        c = coalgebra
        if c.truncation > 3:
            raise ValueError("sp cobar bounded at truncation 3")
        if w != c.window:
            raise ValueError("sp cobar must run at the coalgebra window")
        self.c = c
        self.w = w
        F = c.field
        self.field = F
        self.D = max(c.truncation - 1, 0)
        self.w_phi = w.expand(1)
        seq = c.sequence
        self.pieces = {0: {}, 1: {}, 2: {}}
        for n in seq.arities():
            self.pieces[0][(n,)] = _RawPiece(seq.term(n))
        for n in seq.arities():
            for r in range(1, n + 1):
                piece = c.komonad.component(r, n)
                if _piece_nonzero(piece):
                    self.pieces[1][(r, n)] = piece
        if self.D >= 2:
            for n in seq.arities():
                for s in range(1, n + 1):
                    for r in range(1, s + 1):
                        if r < s < n:
                            continue
                        piece = self.pieces[1].get((r, n))
                        if piece is not None:
                            self.pieces[2][(r, s, n)] = piece
        # Phi terms, one per arity and piece value (a degenerate key shares
        # its copy's): the piece itself at arity 1, else its fixed model
        # over Sigma_r at the shared window
        self.phi = {0: {}, 1: {}, 2: {}}
        built = {}
        for lvl in range(self.D + 1):
            for key, piece in self.pieces[lvl].items():
                made = (key[0], id(piece.value))
                if made not in built:
                    built[made] = piece.value.complex if key[0] == 1 else \
                        homotopy_fixed(piece.value, self.w_phi)
                self.phi[lvl][key] = built[made]
        super().__init__(F, {lvl: dict(sorted(self.phi[lvl].items()))
                             for lvl in range(self.D + 1)})

    def _outer(self, m, sk, tk) -> ChainMap:
        """The unit off the diagonal, out of a top-arity summand (n, ..., n)
        into (q, n, ..., n): the fixed-to-Tate map through the structural
        carrier map."""
        q, n = tk[0], tk[-1]
        src, tgt = self.phi[m][sk], self.phi[m + 1][tk]
        piece = self.pieces[m + 1][tk]
        g = _sp_fixed_into_tate(src, piece, q, n)
        if q == 1:
            return ChainMap(src, tgt, g.components).validate()
        _, incl = equivops.strict_fixed(piece.value)
        to_inv = chainops.factor_through(g, incl)
        coaug = coaugment_invariants(incl, tgt)
        return coaug.compose(to_inv).validate()

    def _inner(self, m, sk, tk):
        """theta_{s,n} at the innermost slot; K_s collapsed on an arity-s
        object, so it is theta itself, transported into the piece model,
        and on the Phi terms: itself at arity 1, slotwise on the fixed
        models otherwise.  (The targets r < s < n are dropped: their
        blocks are zero.)"""
        th = self.c.theta_map(sk[-1], tk[-1])
        if th is None:
            return None
        f = chainops.transport(th, self.pieces[m][sk].value.complex,
                               self.pieces[m + 1][tk].value.complex)
        if sk[0] == 1:
            return f
        return equivops.slotwise_map(self.phi[m][sk], self.phi[m + 1][tk],
                                     f).validate()
