"""The cobar construction Phi K^bullet A of an Sp-source coalgebra at the
zero sphere, truncation <= 3.

Phi(B)(S^0) is the sum over arities r of the Sigma_r homotopy fixed points
of the level pieces; the pieces are the Sp comonad's Tate models
(`comonads.SpComponentModel`), rebuilt with shared resolution lengths so
every structural map is slotwise.  The index walk of the cofaces and
codegeneracies lives in `tower._Levels`; this builder supplies the pieces,
the fixed-to-Tate unit off the diagonal and the transport of theta.
"""

from __future__ import annotations

from .chain import (
    ChainComplex, ChainMap, DegreeWindow, factor_through, linear_map,
    transport,
)
from .comonads import SpComponentModel, coaugment_invariants
from .equivariant import homotopy_fixed, slotwise_map, strict_fixed
from .perms import all_surjections
from .tower import _Levels, _piece_nonzero, _RawPiece


class PhiTerm:
    """One arity-r summand of Phi(B)(S^0): a windowed homotopy-fixed model
    of the piece B over Sigma_r (the piece itself at r = 1)."""

    def __init__(self, piece_value, r, w, stages=None):
        self.r = r
        if piece_value.complex.is_zero():
            self.complex = ChainComplex(piece_value.field, {})
            self.kind = "zero"
            return
        if r == 1:
            # Sigma_1-fixed points: the piece itself
            self.complex = piece_value.complex
            self.kind = "identity"
            return
        self.fixed = homotopy_fixed(piece_value, w, stages=stages)
        self.complex = self.fixed.complex
        self.kind = "fixed"

    def apply(self, f: ChainMap, tgt: "PhiTerm") -> ChainMap:
        """Phi of an equivariant map between the wrapped pieces."""
        if self.kind == "zero" or tgt.kind == "zero":
            return ChainMap.zero(self.complex, tgt.complex, f.degree)
        if self.kind == "identity" and tgt.kind == "identity":
            return f
        if self.kind == "fixed" and tgt.kind == "fixed":
            return slotwise_map(self.complex, tgt.complex, f).validate()
        raise ValueError("mismatched Phi term kinds")


def _sp_fixed_into_tate(src_phi: PhiTerm, piece, q, n) -> ChainMap:
    """Map the Sigma_n homotopy-fixed model of A_n into the cone-target part
    of the Tate piece, through the structural carrier map:
    identity for (1, 2)-type, the singular-set vertex for (1, 3), the
    surjection diagonal for (2, 3)."""
    surjs = all_surjections(n, q)

    def image(k, lab):
        _, slot, gen, alab = lab
        inner = (("l3", "w"), alab) if (q, n) == (1, 3) else alab
        return [(("cone-tgt", ("hGf", slot, gen, ("sidx", alpha, inner))), 1)
                for alpha in surjs]
    return linear_map(src_phi.complex, piece.value.complex, image,
                      partial=True).validate()


class SpCobarBuilder(_Levels):
    """Phi K^bullet A at the zero sphere, truncation <= 3.

    Level pieces are keyed by index chains; the strictly nested keys
    r < s < n are dropped (acyclic targets, the swap permutes the two
    partition summands), and the comultiplication components into them are
    zero.  All fixed models share the expanded coalgebra window and a
    per-arity resolution length, and the Tate pieces are rebuilt with
    matching internal resolutions so every structural map is slotwise."""

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
        self._stage_table()
        for n in seq.arities():
            for r in range(1, n + 1):
                piece = self._build_piece(r, n)
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
        # Phi terms (fixed models over Sigma_r at the shared window), one
        # per arity and piece value: a degenerate key shares its copy's
        self.phi = {0: {}, 1: {}, 2: {}}
        built = {}
        for lvl in range(self.D + 1):
            for key, piece in self.pieces[lvl].items():
                r = key[0]
                made = (r, id(piece.value))
                if made not in built:
                    built[made] = PhiTerm(piece.value, r, self.w_phi,
                                          stages=self._stages.get(r))
                self.phi[lvl][key] = built[made]
        super().__init__(F, {lvl: {k: self.phi[lvl][k].complex
                                   for k in sorted(self.phi[lvl])}
                             for lvl in range(self.D + 1)})

    def _stage_table(self):
        seq = self.c.sequence
        self._stages = {}
        for n in seq.arities():
            t = seq.term_complex(n)
            if t.is_zero():
                continue
            if n > 1:
                self._stages[n] = max(
                    self._stages.get(n, 1), t.max_degree - self.w_phi.lo + 2)
        # outer fixed models over Sigma_2 of the K_2 A_3 Tate piece
        if 3 in seq.arities() and not seq.term_complex(3).is_zero():
            # the Tate model tops out around the orbit part's upper bound
            top = self.w_phi.hi + 2
            self._stages[2] = max(self._stages.get(2, 1),
                                  top - self.w_phi.lo + 2)

    def _build_piece(self, r, n):
        term = self.c.sequence.term(n)
        if term is None:
            return None
        base_max = term.complex.max_degree
        if (r, n) == (1, 3):
            base_max += 1
        natural = base_max - self.w_phi.lo + 2
        return SpComponentModel(term, r, self.w,
                                fixed_stages=max(natural,
                                                 self._stages.get(n, 1)))

    def _outer(self, m, sk, tk) -> ChainMap:
        """The unit off the diagonal, out of a top-arity summand (n, ..., n)
        into (q, n, ..., n): the fixed-to-Tate map through the structural
        carrier map."""
        q, n = tk[0], tk[-1]
        src_phi, tgt_phi = self.phi[m][sk], self.phi[m + 1][tk]
        piece = self.pieces[m + 1][tk]
        g = _sp_fixed_into_tate(src_phi, piece, q, n)
        if q == 1:
            return ChainMap(src_phi.complex, tgt_phi.complex,
                            g.components).validate()
        _, incl = strict_fixed(piece.value)
        to_inv = factor_through(g, incl)
        coaug = coaugment_invariants(incl, tgt_phi.complex)
        return coaug.compose(to_inv).validate()

    def _inner(self, m, sk, tk):
        """theta_{s,n} at the innermost slot; K_s collapsed on an arity-s
        object, so it is theta itself, transported into the rebuilt piece
        model.  (The targets r < s < n are dropped: their blocks are zero.)"""
        th = self.c.theta_map(sk[-1], tk[-1])
        if th is None:
            return None
        f = transport(th, self.pieces[m][sk].value.complex,
                      self.pieces[m + 1][tk].value.complex)
        return self.phi[m][sk].apply(f, self.phi[m + 1][tk])
