"""Cosimplicial machinery shared by both sources: cosimplicial complexes,
conormalization, the fat totalization, the cobar construction and the
Taylor stages p_n by two routes, and the derived mapping complex.

The cobar's index walk is written once, in `_Levels`: which per-piece map
feeds each block of delta^0, the middle cofaces, delta^{m+1} and sigma^j
between the keys (n,), (q, n) and (q, s, n), with the relabelling of a piece
onto its copy wherever an index repeats.  The level builders supply their
pieces and the blocks off the diagonal: `topcobar` at a finite pointed set
(the unit and theta into the stratified-cone slot), `spcobar` at the zero
sphere (the fixed-to-Tate unit and the transported theta), `derivedhom` for
the derived mapping complex (K_q(h) o theta and postcomposition), which also
holds the Bousfield-Kan E^1 page.

Conventions: a cosimplicial complex stores chain-complex levels 0..M with
cofaces delta^i (0 <= i <= m+1) raising the level and codegeneracies sigma^j
(0 <= j <= m-1) lowering it.  The fat totalization of a degenerate-above-D
object is the finite total complex over levels <= D, with differential
d_int + (-1)^{internal degree} sum_i (-1)^i delta^i.
"""

from __future__ import annotations

from . import derivedhom, spcobar, topcobar
from .chain import (
    ChainComplex, ChainMap, DegreeWindow, block_map, cone, direct_sum,
    factor_through, label_map, linear_map, shift, subcomplex,
)
from .coalgebras import FinitePointedSet, truncate_coalgebra
from .sparse import SparseMatrix, nullspace, vanishes


def _agree(f, g, h=None, e=None) -> bool:
    """Whether f o g == h o e (h None: the identity), degree by degree of
    g's source; sparse.vanishes reads the difference, so no composite is
    built."""
    for k, n in g.source.dims.items():
        rhs = ((SparseMatrix.identity(n, g.field), None) if h is None
               else (h.component(k + e.degree), e.component(k)))
        if not vanishes([(1, f.component(k + g.degree), g.component(k)),
                         (-1,) + rhs]):
            return False
    return True


class CosimplicialComplex:
    """Levels 0..M of chain complexes with cofaces and codegeneracies."""

    def __init__(self, levels, cofaces, codegens, degenerate_above=None):
        self.levels = list(levels)
        self.cofaces = dict(cofaces)
        self.codegens = dict(codegens)
        self.M = len(self.levels) - 1
        self.degenerate_above = degenerate_above \
            if degenerate_above is not None else self.M

    @property
    def field(self):
        return self.levels[0].field

    def coface(self, m, i) -> ChainMap:
        f = self.cofaces.get((m, i))
        if f is None:
            raise KeyError("missing coface (%d, %d)" % (m, i))
        return f

    def codegen(self, m, j) -> ChainMap:
        f = self.codegens.get((m, j))
        if f is None:
            raise KeyError("missing codegeneracy (%d, %d)" % (m, j))
        return f

    def validate(self):
        """Check every present structure map and all cosimplicial identities
        among present maps.  Cofaces are mandatory; codegeneracies may be
        absent (the fat totalization ignores them), but whichever are present
        must satisfy the identities."""
        for m in range(self.M):
            for i in range(m + 2):
                self.coface(m, i).validate()
        for (m, j), f in self.codegens.items():
            f.validate()
        d, s, has = self.coface, self.codegen, self.codegens.__contains__
        for m in range(self.M - 1):
            for i in range(m + 2):
                for j in range(i + 1, m + 3):
                    if not _agree(d(m + 1, j), d(m, i), d(m + 1, i),
                                  d(m, j - 1)):
                        raise ValueError(
                            "coface identity fails at level %d (%d, %d)" %
                            (m, i, j))
        for m in range(1, self.M):
            for i in range(m + 2):
                for j in range(m):
                    if not has((m + 1, j)):
                        continue
                    if i in (j, j + 1):
                        if not _agree(s(m + 1, j), d(m, i)):
                            raise ValueError(
                                "sigma delta != id at (%d; %d, %d)" % (m, i, j))
                        continue
                    key = (m, j - 1) if i < j else (m, j)
                    if has(key) and not _agree(
                            s(m + 1, j), d(m, i),
                            d(m - 1, i if i < j else i - 1), s(*key)):
                        raise ValueError(
                            "mixed identity fails (%d; %d, %d)" % (m, i, j))
        for m in range(2, self.M + 1):
            for j in range(m - 1):
                for i in range(j, m - 1):
                    if not all(map(has, ((m, i + 1), (m - 1, j), (m, j),
                                         (m - 1, i)))):
                        continue
                    if not _agree(s(m - 1, j), s(m, i + 1), s(m - 1, i),
                                  s(m, j)):
                        raise ValueError(
                            "codegeneracy identity fails at %d (%d, %d)" %
                            (m, i, j))
        return self

    def verify_degeneracy(self) -> bool:
        """Levels above the bound carry no conormalized content: the joint
        kernel of the codegeneracies vanishes."""
        for m in range(self.degenerate_above + 1, self.M + 1):
            level = self.levels[m]
            for k in level.dims:
                if m == 0:
                    return level.dim(k) == 0
                stacked = SparseMatrix.vstack(
                    [self.codegen(m, j).component(k) for j in range(m)])
                if nullspace(stacked):
                    return False
        return True


def constant_cosimplicial(c: ChainComplex, levels: int) -> CosimplicialComplex:
    cofaces, codegens = {}, {}
    ident = ChainMap.identity(c)
    for m in range(levels):
        for i in range(m + 2):
            cofaces[(m, i)] = ident
    for m in range(1, levels + 1):
        for j in range(m):
            codegens[(m, j)] = ident
    return CosimplicialComplex([c] * (levels + 1), cofaces, codegens,
                               degenerate_above=0).validate()


def conormalized_level(x: CosimplicialComplex, m):
    """(subcomplex N^m = joint kernel of the codegeneracies, inclusion).
    chain.subcomplex eliminates the stacked codegeneracies once per degree
    and reads the differential of N^m off the free coordinates of its
    kernel basis, certifying it (ArithmeticError if a codegeneracy is not a
    chain map)."""
    lv = x.levels[m]
    sigmas = [x.codegens[(m, j)] for j in range(m) if (m, j) in x.codegens]
    if not sigmas:
        return lv, ChainMap.identity(lv)
    return subcomplex(lv, {k: [f.component(k) for f in sigmas]
                           for k in lv.support()},
                      lambda k, i: ("norm", m, k, i))


def fat_tot(x: CosimplicialComplex) -> ChainComplex:
    """Finite total complex of the conormalization over levels <= the
    degeneracy bound.  The conormalized levels N^m (joint kernels of the
    codegeneracies) carry the alternating coface sum; levels above the bound
    are verified to conormalize to zero."""
    if not x.verify_degeneracy():
        raise ValueError("degeneracy verification failed above level %d" %
                         x.degenerate_above)
    D = min(x.degenerate_above, x.M)
    F = x.field
    normed = [conormalized_level(x, m) for m in range(D + 1)]
    subs = [sub for sub, _ in normed]
    # Tot_k is the sum over m of N^m_{k+m}, labelled ("tot", m, lab)
    labels = {}
    for m, sub in enumerate(subs):
        for j in sub.support():
            labels.setdefault(j - m, []).extend(
                ("tot", m, lab) for lab in sub.labels[j])
    labels = {k: tuple(v) for k, v in labels.items()}
    # coface sums on conormalized levels: delta-sum o incl, solved back into
    # the next conormalized basis
    dsum = {}
    one = F.one()
    for m in range(D):
        src_sub, src_inc = normed[m]
        comps = {}
        for j in src_sub.dims:
            big = SparseMatrix(x.levels[m + 1].dim(j), src_sub.dim(j), F)
            sgn = one
            for i in range(m + 2):
                cf = x.coface(m, i).component(j)
                big = big + (cf * src_inc.component(j)).scale(sgn)
                sgn = F.neg(sgn)
            comps[j] = big
        dsum[m] = factor_through(
            ChainMap(src_sub, x.levels[m + 1], comps),
            normed[m + 1][1]).components
    # d_k: N^m's differential on the diagonal, (-1)^j times the coface sum
    # out of N^m_j below it
    diff = {}
    for k in labels:
        if k - 1 not in labels:
            continue
        blocks = {}
        for m, sub in enumerate(subs):
            blocks[(m, m)] = sub.diff.get(k + m)
            cf = dsum[m].get(k + m) if m < D else None
            if cf is not None:
                blocks[(m + 1, m)] = cf if (k + m) % 2 == 0 else -cf
        diff[k] = SparseMatrix.block(
            blocks, [sub.dim(k - 1 + m) for m, sub in enumerate(subs)],
            [sub.dim(k + m) for m, sub in enumerate(subs)], F)
    return ChainComplex(F, {k: len(v) for k, v in labels.items()}, diff,
                        labels).validate()


# ---------------------------------------------------------------------------
# Levels as direct sums of keyed pieces (shared by the level builders)
# ---------------------------------------------------------------------------


class _RawPiece:
    """A bare symmetric-sequence term presented with the piece interface."""

    def __init__(self, value):
        self.value = value


def _piece_nonzero(piece) -> bool:
    return piece is not None and not piece.value.complex.is_zero()


class _Levels:
    """Levels of a cosimplicial object built as direct sums of keyed
    summands, and the cobar index walk between them.

    parts[lvl] lists the summand complexes in the order of the keys
    level_keys[lvl], and levels[lvl] is their direct sum.  A key at level m
    is an index chain (i_0 <= ... <= i_m) of arities, and every structure
    map is a block map with one per-piece map from summand sk to summand tk:

    - the coface delta^i out of level m inserts an index x at position i of
      sk, between its neighbours: delta^0 puts q <= sk[0] in front, the
      middle cofaces insert s inside, delta^{m+1} appends n >= sk[-1];
    - the codegeneracy sigma^j drops the repeated index sk[j] = sk[j + 1].

    Where the inserted or dropped index repeats a neighbour, the block is
    `_same`, the relabelling of a piece onto its copy.  A builder supplies
    only the blocks off the diagonal: `_outer(m, sk, tk)` for delta^0,
    `_inner` for delta^{m+1} and, if its keys hold strictly nested chains
    q < s < n, `_middle`; None is a zero block."""

    def __init__(self, field, level_keys, parts):
        self.level_keys = level_keys
        self.parts = parts
        self.levels = [direct_sum(parts[lvl]) if parts[lvl] else
                       ChainComplex(field, {}) for lvl in range(len(parts))]

    def _part(self, lvl, key) -> ChainComplex:
        return self.parts[lvl][self.level_keys[lvl].index(key)]

    def _same(self, src_lvl, sk, tgt_lvl, tk) -> ChainMap:
        return label_map(self._part(src_lvl, sk), self._part(tgt_lvl, tk),
                         partial=True)

    def _coface_blocks(self, m, i):
        """{(sk, tk): per-piece map} of delta^i out of level m, built over
        the sorted source keys and ascending inserted index."""
        up = set(self.level_keys[m + 1])
        if not up:
            return {}
        top = max(k[-1] for k in up)
        blocks = {}
        for sk in self.level_keys[m]:
            near = sk[max(i - 1, 0):i + 1]      # the neighbours of x
            lo, hi = (sk[i - 1] if i else 1), (sk[i] if i <= m else top)
            for x in range(lo, hi + 1):
                tk = sk[:i] + (x,) + sk[i:]
                if tk not in up:
                    continue
                if x in near:
                    f = self._same(m, sk, m + 1, tk)
                elif i == 0:
                    f = self._outer(m, sk, tk)
                elif i == m + 1:
                    f = self._inner(m, sk, tk)
                else:
                    f = self._middle(m, sk, tk)
                if f is not None:
                    blocks[(sk, tk)] = f
        return blocks

    def _codegen_blocks(self, m, j):
        """{(sk, tk): map} of sigma^j out of level m."""
        down = set(self.level_keys[m - 1])
        blocks = {}
        for sk in self.level_keys[m]:
            tk = sk[:j] + sk[j + 1:]
            if sk[j] == sk[j + 1] and tk in down:
                blocks[(sk, tk)] = self._same(m, sk, m - 1, tk)
        return blocks

    def _block(self, src_lvl, tgt_lvl, blocks) -> ChainMap:
        """The map of levels whose block from summand sk to summand tk is
        blocks[(sk, tk)]."""
        src_keys, tgt_keys = self.level_keys[src_lvl], self.level_keys[tgt_lvl]
        return block_map(
            self.levels[src_lvl], self.levels[tgt_lvl], self.parts[src_lvl],
            self.parts[tgt_lvl],
            {(src_keys.index(sk), tgt_keys.index(tk)): f
             for (sk, tk), f in blocks.items() if not f.is_zero()}).validate()

    def _assemble(self) -> CosimplicialComplex:
        """The cosimplicial object of the walk, level by level: the cofaces
        out of level m, then the codegeneracies back onto it.  Of each
        coface, coface_blocks[(m, i)] keeps the blocks into strictly
        increasing index chains, which the pullback route and the E^1 page
        read; the others are dropped once assembled."""
        cofaces, codegens = {}, {}
        self.coface_blocks = {}
        M = len(self.levels) - 1
        for m in range(M):
            for i in range(m + 2):
                b = self._coface_blocks(m, i)
                self.coface_blocks[(m, i)] = {
                    (sk, tk): f for (sk, tk), f in b.items()
                    if all(a < c for a, c in zip(tk, tk[1:]))}
                cofaces[(m, i)] = self._block(m, m + 1, b)
            for j in range(m + 1):
                codegens[(m + 1, j)] = self._block(
                    m + 1, m, self._codegen_blocks(m + 1, j))
        return CosimplicialComplex(self.levels, cofaces, codegens,
                                   degenerate_above=M).validate()

    def pullback_corners(self):
        """For the pullback route: the level-0 summands by key, the blocks
        of the unit delta^0 and of theta delta^1 from level 0 into the
        off-diagonal level-1 slots (r, n), r < n, and those slots' models."""
        slot_of = {k: p for k, p in zip(self.level_keys.get(1, ()),
                                        self.parts.get(1, ())) if k[0] < k[1]}
        return (dict(zip(self.level_keys[0], self.parts[0])),
                self.coface_blocks.get((0, 0), {}),
                self.coface_blocks.get((0, 1), {}), slot_of)


# ---------------------------------------------------------------------------
# The cosimplicial cobar construction
# ---------------------------------------------------------------------------


def cobar(coalgebra, site, w: DegreeWindow | None = None) -> CosimplicialComplex:
    """The cosimplicial cobar construction Phi K^bullet A at a site.

    Top source: site is a FinitePointedSet.  Sp source: site is the sphere
    dimension d (S^0 supported at truncation <= 3; other d raise)."""
    return _cobar_builder(coalgebra, site, w or coalgebra.window).cosimplicial


def _cobar_builder(c, site, w: DegreeWindow):
    """The cobar construction's builder: its cosimplicial object, level
    pieces and structural maps."""
    if c.source == "top":
        if not isinstance(site, FinitePointedSet):
            raise ValueError("top-source sites are finite pointed sets")
    else:
        if not isinstance(site, int):
            raise ValueError("sp-source sites are sphere dimensions S^d")
        if site != 0:
            raise ValueError(
                "sp evaluation implemented at S^0 (nonzero sphere dimensions "
                "need equivariant twist models outside desk scale)")
    if c.source == "top":
        return topcobar.TopCobarBuilder(c, site, w)
    return spcobar.SpCobarBuilder(c, w)


# ---------------------------------------------------------------------------
# Taylor stages: Tot route and iterated-pullback route
# ---------------------------------------------------------------------------


def _fib(f: ChainMap) -> ChainComplex:
    """Homotopy fiber as a complex: shift(cone(f), -1)."""
    return shift(cone(f), -1)


def _fib_proj(f: ChainMap, fib: ChainComplex) -> ChainMap:
    """The projection fib(f) -> source(f)."""
    # fib labels: ("sh", -1, ("cone-src", src label) | ("cone-tgt", ...))
    return label_map(fib, f.source, partial=True, key=lambda lab: (
        lab[2][1] if lab[2][0] == "cone-src" else None)).validate()


def _tot_window(c, n) -> DegreeWindow:
    D = max(min(n, c.truncation) - 1, 0)
    w = c.window
    return DegreeWindow(w.lo, w.hi - D) if w.hi - D >= w.lo else \
        DegreeWindow(w.lo, w.lo)


def p_n(coalgebra, site, n, route="tot", builder=None):
    """Stage n of the Taylor tower at a site.

    Returns a dict with the stage complex, the certified window, the route,
    and the cobar builder of the stage (its slot models and structural
    maps).  Either route builds that builder unless ``builder``, the
    "builder" of an earlier result for the same coalgebra, site and n, is
    passed in to be reused."""
    c = coalgebra
    n = min(n, c.truncation)
    cn = truncate_coalgebra(c, n) if n < c.truncation else c
    if route not in ("tot", "pullback"):
        raise ValueError("route must be 'tot' or 'pullback'")
    # both routes read the cobar builder, which bounds the truncation
    if builder is None:
        builder = _cobar_builder(cn, site, cn.window)
    if route == "pullback":
        return _p_n_pullback(cn, builder)
    cs = builder.cosimplicial
    return {"complex": fat_tot(cs), "window": _tot_window(cn, n),
            "route": "tot", "cosimplicial": cs, "coalgebra": cn,
            "builder": builder}


def _p_n_pullback(c, builder):
    """Iterated homotopy pullback up the tower: P_j is the fiber of the map
    (P_{j-1} (+) diagonal summand) -> off-diagonal comonad corners, built
    from theta and the canonical unit maps (the fiber form of the McCarthy
    squares, with the comonad's own Tate / stratified-cone corner models).
    The cobar builder of c provides all slot models and structural maps."""
    F = c.field
    N = c.truncation
    phi0, ublocks, tblocks, slot_of = builder.pullback_corners()
    # P_1 = arity-1 summand of Phi(A)
    if (1,) in phi0:
        stage = phi0[(1,)]
    else:
        stage = ChainComplex(F, {})
    projections = {1: ChainMap.identity(stage)} if (1,) in phi0 else {}
    stages = {1: stage}
    for j in range(2, N + 1):
        # assemble the map (P_{j-1} (+) diag_j) -> (+)_{r<j} slot (r, j)
        offkeys = [k for k in slot_of if k[1] == j]
        offkeys.sort()
        diag_key = (j,)
        diag = phi0.get(diag_key)
        parts_src = [stages[j - 1]] + ([diag] if diag is not None else [])
        src = direct_sum(parts_src)
        if offkeys:
            tgt_parts = [slot_of[k] for k in offkeys]
            blocks = {}
            for t_i, key in enumerate(offkeys):
                # theta side out of P_{j-1} through its arity-r projection
                r = key[0]
                tb = tblocks.get(((r,), key))
                if tb is not None and r in projections:
                    blocks[(0, t_i)] = tb.compose(projections[r])
                ub = ublocks.get(((j,), key))
                if ub is not None and diag is not None:
                    blocks[(1, t_i)] = ub.scale(F.neg(F.one()))
            gmap = block_map(src, direct_sum(tgt_parts), parts_src,
                             tgt_parts, blocks).validate()
            fib = _fib(gmap)
            proj_to_src = _fib_proj(gmap, fib)
        else:
            fib = src
            proj_to_src = ChainMap.identity(src)
        stages[j] = fib
        # update arity projections: P_j -> A_r slots
        new_projections = {}
        for r, pr in projections.items():
            new_projections[r] = block_map(
                src, pr.target, parts_src, [pr.target],
                {(0, 0): pr}).compose(proj_to_src)
        if diag is not None:
            new_projections[j] = block_map(
                src, diag, parts_src, [diag],
                {(1, 0): ChainMap.identity(diag)}).compose(proj_to_src)
        projections = new_projections
    w = _tot_window(c, N)
    return {"complex": stages[N], "window": w, "route": "pullback",
            "stages": stages, "projections": projections, "builder": builder}


def tower_map(c, site, n, route="tot"):
    """The stage map p_n -> p_{n-1} induced by truncation (tot route)."""
    if n <= 1:
        raise ValueError("tower map needs n >= 2")
    hi = p_n(c, site, n, route=route)
    lo = p_n(c, site, n - 1, route=route)
    if route != "tot":
        raise ValueError("tower maps are provided on the tot route")
    f = _tot_truncation_map(hi["builder"], lo["builder"], hi["complex"],
                            lo["complex"])
    return {"map": f, "source": hi, "target": lo}


def _tot_truncation_map(bh, bl, tot_hi, tot_lo) -> ChainMap:
    """Project the Tot of the larger cobar (builder bh) onto the Tot of the
    truncation (builder bl) by dropping pieces with indices above the lower
    truncation (computed through the conormalized bases)."""
    cs_hi, cs_lo = bh.cosimplicial, bl.cosimplicial
    D_lo = min(cs_lo.degenerate_above, cs_lo.M)
    # level maps: project the direct sums by matching piece keys
    level_maps = {}
    for m in range(min(cs_hi.M, cs_lo.M) + 1):
        keys_hi, keys_lo = bh.level_keys.get(m, []), bl.level_keys.get(m, [])
        parts_hi, parts_lo = bh.parts.get(m, []), bl.parts.get(m, [])
        blocks = {}
        for i_lo, key in enumerate(keys_lo):
            if key in keys_hi:
                i_hi = keys_hi.index(key)
                blocks[(i_hi, i_lo)] = label_map(parts_hi[i_hi],
                                                 parts_lo[i_lo], partial=True)
        level_maps[m] = block_map(cs_hi.levels[m], cs_lo.levels[m], parts_hi,
                                  parts_lo, blocks)
    # induce on the conormalized total complexes
    normed_hi = [conormalized_level(cs_hi, m) for m in
                 range(min(cs_hi.degenerate_above, cs_hi.M) + 1)]
    normed_lo = [conormalized_level(cs_lo, m) for m in range(D_lo + 1)]
    # the Tot vector ("tot", m, lab) stands for the conormalized vector lab
    images = {}
    for m, (sub_h, inc_h) in enumerate(normed_hi):
        if m >= len(normed_lo):
            continue
        sub_l, inc_l = normed_lo[m]
        f = level_maps.get(m)
        if f is None:
            continue
        for j_deg, xsol in factor_through(f.compose(inc_h),
                                          inc_l).components.items():
            labs_h, labs_l = sub_h.labels[j_deg], sub_l.labels[j_deg]
            for (i, j), v in xsol.items():
                images.setdefault(("tot", m, labs_h[j]), []).append(
                    (("tot", m, labs_l[i]), v))
    return linear_map(tot_hi, tot_lo,
                      lambda k, lab: images.get(lab, ())).validate()


# ---------------------------------------------------------------------------
# Derived mapping complexes (the Hom-side cobar)
# ---------------------------------------------------------------------------


def derived_hom(c, cprime, w: DegreeWindow | None = None):
    """Derived K-coalgebra mapping complex and its H_0 count."""
    w = w or c.window
    builder = derivedhom.DerivedHomBuilder(c, cprime, w)
    t = fat_tot(builder.cosimplicial)
    D = builder.D
    win = DegreeWindow(w.lo, w.hi - D) if w.hi - D >= w.lo else w
    h0 = t.homology(0)[0]
    return {"complex": t, "h0": h0, "window": win,
            "cosimplicial": builder.cosimplicial, "builder": builder}
