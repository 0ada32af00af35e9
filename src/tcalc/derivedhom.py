"""The derived mapping complex of two coalgebras and its Bousfield-Kan
E^1 page.

`DerivedHomBuilder` builds the Hom-side cobar: levels
m |-> (+)_r Hom_{Sigma_r}(A_r, (K^m A')_r) on the strict invariants of
equivariant hom complexes.  The pieces of K^m A' and their models come from
the one rule in `tower` (`chain_model`, `cobar_pieces`), and the index walk
of the cofaces and codegeneracies lives in `tower._Levels`; the builder
supplies the hom summand of a piece and the blocks off the diagonal:
postcomposition with the comultiplication for the middle cofaces and with
theta for the last, and for delta^0 the map h |-> K_q(h) o theta.  The
mapping complex uses the comonad only as a functor on maps, so that map is
linear in h: each block is one map read off theta's entries by the rule for
K on maps that the component model holds (`SlotwiseModel.on_homs`),
certified once as a block.
`tower.derived_hom` totalizes the levels; `bk_e1` reads the E^1 page off
the coface blocks between its strictly increasing index chains, and
`einf_dims` the abutment off the column filtration of the totalization.
"""

from __future__ import annotations

from . import chainops, equivops
from .chain import ChainMap, DegreeWindow
from .equivariant import EquivariantComplex
from .sparse import Echelon, SparseMatrix, nullspace
from .tower import (
    _Levels, chain_model, cobar_pieces, fat_tot, on_pieces,
    summands_by_value, tot_projection,
)


# ---------------------------------------------------------------------------
# Equivariant hom complexes and the Hom-side cobar
# ---------------------------------------------------------------------------


def equivariant_hom_complex(a, b):
    """(Hom(a, b), its strict invariants under conjugation, their
    inclusion).

    a, b are EquivariantComplexes over the same Young group.  A generator g
    acts by the conjugation E |-> g_b o E o g_a^{-1}.  g is an involution
    (the action is validated), so g_a^{-1} = g_a, and E_{x -> y} o g_a is
    the sum of g_a[x, z] E_{z -> y}: on the label ("hom", x, y) g acts by
    the transpose of g_a (its row at x) at the source slot and by g_b at
    the target slot."""
    if a.group != b.group:
        raise ValueError("group mismatch in equivariant hom")
    h = chainops.hom_complex(a.complex, b.complex)

    def transpose(f):
        return ChainMap(f.target, f.source, {
            k: m.transpose() for k, m in f.components.items()})
    action = {gi: equivops.slotwise_map(h, h, b.action[gi], slot=2).compose(
        equivops.slotwise_map(h, h, transpose(a.action[gi]), slot=1))
        for gi in a.group.generator_positions()}
    inv, incl = equivops.strict_fixed(EquivariantComplex(h, a.group, action))
    return h, inv, incl


class _HomLevels(_Levels):
    """Levels m |-> (+)_r Hom_{Sigma_r}(M_r, P)^{inv} over the pieces P of
    K^m A' (`tower.cobar_pieces` of the sequence seq up to the top arity
    top), keyed like the pieces (key[0] = r), each on the strict invariants
    of `equivariant_hom_complex`.  The middle cofaces postcompose the
    comonad K's comultiplication; a subclass supplies the other blocks off
    the diagonal."""

    def __init__(self, mseq, seq, K, top):
        self.K = K
        self.pieces = cobar_pieces(seq, K, top)

        def hom(r, piece):
            m_r = mseq.term(r)
            return None if m_r is None else dict(zip(
                ("full", "inv", "incl"), equivariant_hom_complex(m_r, piece)))
        self.hom = summands_by_value(self.pieces, hom)
        super().__init__(mseq.field, {lvl: {k: h["inv"] for k, h in by.items()}
                                      for lvl, by in self.hom.items()})

    def _post(self, m, sk, tk, g: ChainMap) -> ChainMap:
        """Hom(M, P)^{inv} -> Hom(M, Q)^{inv} induced by g : P -> Q, for g
        on the pieces P of sk and Q of tk (or twins of them)."""
        src, tgt = self.hom[m][sk], self.hom[m + 1][tk]
        g = on_pieces(self.pieces, m, sk, tk, g)
        big = equivops.slotwise_map(src["full"], tgt["full"], g, slot=2)
        return chainops.factor_through(big.compose(src["incl"]),
                                       tgt["incl"]).validate()

    def _middle(self, m, sk, tk):
        d = self.K.delta.get(tk)
        return None if d is None else self._post(m, sk, tk, d)


class DerivedHomBuilder(_HomLevels):
    """Levels m |-> (+)_r Hom_{Sigma_r}(A_r, (K^m A')_r), truncation <= 3.

    Cofaces follow the mapping-space cosimplicial structure: delta^0 applies
    the comonad to a map and precomposes the source coalgebra structure,
    middle cofaces insert the comultiplication, the top coface postcomposes
    the target coalgebra structure; codegeneracies postcompose counits.  The
    pieces of K^m A' come from `tower.cobar_pieces` and the index walk from
    `tower._Levels`; this builder supplies the blocks off the diagonal:
    `_outer` for delta^0, and postcomposition (`_post`) with delta or theta
    for the others."""

    def __init__(self, c, cprime, w: DegreeWindow):
        if c.source != cprime.source:
            raise ValueError("source tags differ")
        if c.truncation != cprime.truncation:
            raise ValueError("truncations differ")
        if c.truncation > 3:
            raise ValueError("derived hom bounded at truncation 3")
        self.c = c
        self.cp = cprime
        super().__init__(c.sequence, cprime.sequence, cprime.komonad,
                         c.truncation)
        # the window the derived hom and its E^1 page print: w with its top
        # lowered by D, or w itself when that leaves nothing
        D = self.D
        self.printed_window = DegreeWindow(w.lo, w.hi - D) \
            if w.hi - D >= w.lo else w

    # -- blocks off the diagonal ----------------------------------------------

    def _outer(self, m, sk, tk) -> ChainMap:
        """delta^0's block Phi : Hom(A_r, P)^{inv} -> Hom(A_q, K_q P)^{inv},
        h |-> K_q(h) o theta^A_{q,r}, for (q, r) = (tk[0], sk[0]).  Phi is
        linear in h: one map on the full hom complexes, read off theta's
        entries by the rule for K on maps of the model K_q A_r that theta
        lands in (`on_homs`), composed with the source inclusion, factored
        through the target invariants and validated once, as a block."""
        src, tgt = self.hom[m][sk], self.hom[m + 1][tk]
        theta = self.c.theta_map(tk[0], sk[0])
        if theta is None:
            return ChainMap.zero(src["inv"], tgt["inv"])
        phi = self.c.komonad.component(tk[0], sk[0]).on_homs(
            theta, chain_model(self.K, tk), src["full"], tgt["full"])
        return chainops.factor_through(phi.compose(src["incl"]),
                                       tgt["incl"]).validate()

    def _inner(self, m, sk, tk):
        """Postcompose theta of the target coalgebra at the innermost slot:
        theta itself out of level 0 (and, for sp, out of a collapsed outer
        index), K_q(theta~) for top at level 1."""
        cp, K = self.cp, self.K
        q, s, n = sk[0], sk[-1], tk[-1]
        th = cp.theta_map(s, n)
        if th is None:
            return None
        if m == 0 or (cp.source == "sp" and q == s):
            return self._post(m, sk, tk, th)
        kf = K.kq_theta(th, q, s, n)
        return None if kf is None else self._post(m, sk, tk, kf)


# ---------------------------------------------------------------------------
# The Bousfield-Kan E^1 page
# ---------------------------------------------------------------------------


class E1Page:
    """E^1_{-s,t} dims with d^1 matrices and the induced E^2."""

    def __init__(self, entries, d1, field):
        self.entries = entries      # {(s, t): dim}
        self.d1 = d1                # {(s, t): SparseMatrix to (s+1, t)}
        self.field = field

    def dims(self):
        return {st: dim for st, dim in self.entries.items() if dim}

    def d1_squared_zero(self) -> bool:
        for (s, t), m in self.d1.items():
            nxt = self.d1.get((s + 1, t))
            if nxt is not None and m is not None:
                if not (nxt * m).is_zero():
                    return False
        return True

    def e2_dims(self):
        out = {}
        for (s, t), dim in self.entries.items():
            if dim == 0:
                continue
            dout = self.d1.get((s, t))
            din = self.d1.get((s - 1, t))
            rk_out = Echelon(dout).rank if dout is not None else 0
            rk_in = Echelon(din).rank if din is not None else 0
            val = dim - rk_out - rk_in
            if val:
                out[(s, t)] = val
        return out


def bk_e1(c, cprime, w: DegreeWindow | None = None):
    """The E^1 page of the mapping spectral sequence, from the strictly
    increasing index chains of the derived-hom levels."""
    w = w or c.window
    builder = DerivedHomBuilder(c, cprime, w)
    F = c.field
    D = builder.D
    win = builder.printed_window
    strict = builder.strict_keys        # the keys of each column
    # homology dims per strict piece, on the degrees the page reads
    read = DegreeWindow(win.lo, win.hi + 1)
    hdims = {(lvl, key): builder.hom[lvl][key]["inv"].homology_dims(read)
             for lvl, keys in strict.items() for key in keys}
    entries, d1 = {}, {}
    for s in range(D + 1):
        for t in read.degrees():
            entries[(s, t)] = sum(hdims[(s, key)].get(t, 0)
                                  for key in strict[s])
    for s in range(D):
        for t in win.degrees():
            rows = [hdims[(s + 1, key)].get(t, 0) for key in strict[s + 1]]
            cols = [hdims[(s, key)].get(t, 0) for key in strict[s]]
            if not (any(rows) and any(cols)):
                if any(cols) or any(rows):
                    d1[(s, t)] = SparseMatrix(sum(rows), sum(cols), F)
                continue
            # the alternating sum of the cofaces on homology, block by block
            # between strict keys
            mats = {}
            for i in range(s + 2):
                for (sk, tk), blk in builder.coface_blocks[(s, i)].items():
                    if not hdims[(s, sk)].get(t, 0):
                        continue
                    ind = blk.induced_on_homology(t)
                    b = (strict[s + 1].index(tk), strict[s].index(sk))
                    cur = mats.get(b)
                    ind = ind if i % 2 == 0 else -ind
                    mats[b] = ind if cur is None else cur + ind
            d1[(s, t)] = SparseMatrix.block(mats, rows, cols, F)
    page = E1Page(entries, d1, F)
    tot = fat_tot(builder)
    return {"e1": page, "tot": tot, "window": win, "builder": builder}


def einf_dims(bk_result):
    """E-infinity dims from the column filtration of the Tot complex, on
    the page's window.

    F_p Tot = the subcomplex spanned by columns s >= p; the graded pieces of
    the image filtration on homology give the abutment."""
    builder = bk_result["builder"]
    tot = bk_result["tot"]
    w = bk_result["window"]
    F = tot.field
    D = builder.D
    # the boundaries of Tot in each degree, eliminated once for every p
    bnd = {k: Echelon(tot.d(k + 1).transpose()) for k in w.degrees()}
    # each column's coordinates: the projection of tot onto its pieces
    columns = [tot_projection(builder, tot, m, builder.strict_keys[m])
               for m in range(D + 1)]
    # ranks of im(H_k(F_p) -> H_k(Tot))
    out = {}
    im_rank = {}
    for p in range(D + 2):
        # the subcomplex of tot spanned by the columns s >= p: the joint
        # kernel of the coordinates of the lower columns
        sub, incl = chainops.subcomplex(
            tot, {k: [col.component(k) for col in columns[:p]]
                  for k in tot.labels}, lambda k, i: ("F", p, k, i))
        # image rank of H_k(sub) -> H_k(tot): the cycles of sub, pushed into
        # tot by one product, that grow the span of the boundaries of tot
        for k in w.degrees():
            span = bnd[k].span()
            cycles = incl.component(k) * SparseMatrix.from_columns(
                nullspace(sub.d(k)), sub.dim(k), F)
            im_rank[(p, k)] = sum(span.add(z)
                                  for z in cycles.nonzero_columns())
    for k in w.degrees():
        for s in range(D + 1):
            d = im_rank.get((s, k), 0) - im_rank.get((s + 1, k), 0)
            if d:
                out[(s, k + s)] = d
    return out
