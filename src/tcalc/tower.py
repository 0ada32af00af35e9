"""Cosimplicial machinery: cobar constructions, fat totalization, the box
product, derived mapping complexes, Taylor-stage reconstruction by two
routes, and the Bousfield-Kan E^1 page.

Conventions: a cosimplicial complex stores chain-complex levels 0..M with
cofaces delta^i (0 <= i <= m+1) raising the level and codegeneracies sigma^j
(0 <= j <= m-1) lowering it.  The fat totalization of a degenerate-above-D
object is the finite total complex over levels <= D, with differential
d_int + (-1)^{internal degree} sum_i (-1)^i delta^i.
"""

from __future__ import annotations

from itertools import combinations

from .chain import (
    ChainComplex, ChainMap, DegreeWindow, block_map, cone, direct_sum,
    factor_through, hom_complex, hom_element_to_map, homotopy_between,
    is_quasi_iso, label_map, map_to_hom_element, quotient, shift, subcomplex,
    tensor, tensor_map, transport,
)
from .coalgebras import (
    FinitePointedSet, _model_transport, injections, truncate_coalgebra,
)
from .comonads import (
    SpComponentModel, _model_stages, _rebuild_like, coaugment_invariants,
    equivariant_tensor, top_component_on_map,
)
from .equivariant import (
    EquivariantComplex, homotopy_fixed, homotopy_orbits, permutation_module,
    slotwise_map, strict_fixed, trivial_action,
)
from .perms import YoungGroup, all_surjections, transposition
from .sparse import Echelon, SparseMatrix, nullspace


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
        for m in range(self.M - 1):
            for i in range(m + 2):
                for j in range(i + 1, m + 3):
                    lhs = self.coface(m + 1, j).compose(self.coface(m, i))
                    rhs = self.coface(m + 1, i).compose(self.coface(m, j - 1))
                    if lhs.components != rhs.components:
                        raise ValueError(
                            "coface identity fails at level %d (%d, %d)" %
                            (m, i, j))
        for m in range(1, self.M):
            for i in range(m + 2):
                for j in range(m):
                    if (m + 1, j) not in self.codegens:
                        continue
                    ds = self.codegen(m + 1, j).compose(self.coface(m, i))
                    if i < j:
                        if (m, j - 1) not in self.codegens:
                            continue
                        rhs = self.coface(m - 1, i).compose(
                            self.codegen(m, j - 1))
                        if ds.components != rhs.components:
                            raise ValueError(
                                "mixed identity fails (%d; %d, %d)" % (m, i, j))
                    elif i in (j, j + 1):
                        ident = ChainMap.identity(self.levels[m])
                        if ds.components != ident.components:
                            raise ValueError(
                                "sigma delta != id at (%d; %d, %d)" % (m, i, j))
                    else:
                        if (m, j) not in self.codegens:
                            continue
                        rhs = self.coface(m - 1, i - 1).compose(
                            self.codegen(m, j))
                        if ds.components != rhs.components:
                            raise ValueError(
                                "mixed identity fails (%d; %d, %d)" % (m, i, j))
        for m in range(2, self.M + 1):
            for j in range(m - 1):
                for i in range(j, m - 1):
                    if (m, i + 1) not in self.codegens or \
                            (m - 1, j) not in self.codegens or \
                            (m, j) not in self.codegens or \
                            (m - 1, i) not in self.codegens:
                        continue
                    lhs = self.codegen(m - 1, j).compose(self.codegen(m, i + 1))
                    rhs = self.codegen(m - 1, i).compose(self.codegen(m, j))
                    if lhs.components != rhs.components:
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
# Box product
# ---------------------------------------------------------------------------


def box_product(x: CosimplicialComplex, y: CosimplicialComplex,
                max_level=None) -> CosimplicialComplex:
    """The box product of cosimplicial objects, levelwise the coequalizer of
    (delta^{p+1} (x) 1) and (1 (x) delta^0)."""
    if x.field != y.field:
        raise ValueError("field mismatch")
    F = x.field
    M = min(x.M, y.M) if max_level is None else max_level
    sums = []          # per level: list of (p, q, tensor complex)
    totals = []        # per level: direct sum complex
    quotients = []
    for m in range(M + 1):
        parts = []
        for p in range(m + 1):
            q = m - p
            parts.append((p, q, tensor(x.levels[p], y.levels[q])))
        total = direct_sum([c for _, _, c in parts])
        sums.append(parts)
        totals.append(total)
        # coequalizer relations from level m-1 summands
        spans = {}
        if m >= 1:
            prev = sums[m - 1]
            for (p, q, tc) in prev:
                f1 = tensor_map(x.coface(p, p + 1),
                                ChainMap.identity(y.levels[q]))
                f2 = tensor_map(ChainMap.identity(x.levels[p]),
                                y.coface(q, 0))
                # into the level-m summands (p+1, q) and (p, q+1), at
                # indices p + 1 and p
                g = block_map(tc, total, [tc], [c for _, _, c in parts],
                              {(0, p + 1): f1,
                               (0, p): f2.scale(F.neg(F.one()))})
                for k in tc.dims:
                    spans.setdefault(k, []).extend(
                        g.component(k).nonzero_columns())
        quotients.append(quotient(total, spans,
                                  lambda k, j: ("q", total.labels[k][j])))
    levels = [q for q, _ in quotients]
    cofaces, codegens = {}, {}
    for m in range(M):
        for i in range(m + 2):
            comps_map = _box_structure_map(
                x, y, sums, totals, quotients, m, i, kind="coface")
            cofaces[(m, i)] = comps_map
    for m in range(1, M + 1):
        for j in range(m):
            codegens[(m, j)] = _box_structure_map(
                x, y, sums, totals, quotients, m, j, kind="codegen")
    out = CosimplicialComplex(levels, cofaces, codegens,
                              degenerate_above=min(x.degenerate_above +
                                                   y.degenerate_above,
                                                   M)).validate()
    out._quotients = quotients
    return out


def _box_structure_map(x, y, sums, totals, quotients, m, i, kind):
    """The coface or codegeneracy i out of box level m: on the direct sums,
    the (p, q) summand goes to one summand of the target level, whose index
    is its x-level; then induced on the quotients."""
    tgt_level = m + 1 if kind == "coface" else m - 1
    blocks = {}
    for t, (p, q, _) in enumerate(sums[m]):
        if kind == "coface" and i <= p:
            blocks[(t, p + 1)] = tensor_map(x.coface(p, i),
                                            ChainMap.identity(y.levels[q]))
        elif kind == "coface":
            blocks[(t, p)] = tensor_map(ChainMap.identity(x.levels[p]),
                                        y.coface(q, i - p - 1))
        elif i <= p - 1:
            blocks[(t, p - 1)] = tensor_map(x.codegen(p, i),
                                            ChainMap.identity(y.levels[q]))
        else:
            blocks[(t, p)] = tensor_map(ChainMap.identity(x.levels[p]),
                                        y.codegen(q, i - p))
    big = block_map(totals[m], totals[tgt_level],
                    [c for _, _, c in sums[m]],
                    [c for _, _, c in sums[tgt_level]], blocks)
    # q_tgt o big o (the kept coordinates of the source quotient)
    src_q, _ = quotients[m]
    _, tgt_proj = quotients[tgt_level]
    return tgt_proj.compose(big.compose(_kept_coordinates(src_q, totals[m])))


def _kept_coordinates(q, total) -> ChainMap:
    """The box level q -> its direct sum, each basis vector ("q", lab) to
    the coordinate lab it keeps; a section of the projection."""
    return label_map(q, total, key=lambda lab: lab[1])


# ---------------------------------------------------------------------------
# The simplex cosimplicial complex and the collapse lemma
# ---------------------------------------------------------------------------


def simplex_cosimplicial(field, levels: int) -> CosimplicialComplex:
    """m |-> normalized chains of the m-simplex (basis: nonempty subsets)."""
    lvls = []
    subset_pos = []
    for m in range(levels + 1):
        dims, labels = {}, {}
        pos = {}
        for j in range(m + 1):
            subs = list(combinations(range(m + 1), j + 1))
            dims[j] = len(subs)
            labels[j] = tuple(("simp", s) for s in subs)
            for i, s in enumerate(subs):
                pos[s] = (j, i)
        diff = {}
        for j in range(1, m + 1):
            mm = SparseMatrix(dims[j - 1], dims[j], field)
            for col, lab in enumerate(labels[j]):
                s = lab[1]
                for t in range(len(s)):
                    face = s[:t] + s[t + 1:]
                    sgn = field.one() if t % 2 == 0 else field.neg(field.one())
                    mm.add_to(pos[face][1], col, sgn)
            diff[j] = mm
        lvls.append(ChainComplex(field, dims, diff, labels))
        subset_pos.append(pos)
    cofaces, codegens = {}, {}
    for m in range(levels):
        for i in range(m + 2):
            def dmap(v, i=i):
                return v if v < i else v + 1
            comps = {}
            for j in lvls[m].dims:
                mm = SparseMatrix(lvls[m + 1].dim(j), lvls[m].dim(j), field)
                for col, lab in enumerate(lvls[m].labels[j]):
                    s = tuple(sorted(dmap(v) for v in lab[1]))
                    mm[subset_pos[m + 1][s][1], col] = field.one()
                comps[j] = mm
            cofaces[(m, i)] = ChainMap(lvls[m], lvls[m + 1], comps)
    for m in range(1, levels + 1):
        for j in range(m):
            def smap(v, j=j):
                return v if v <= j else v - 1
            comps = {}
            for jj in lvls[m].dims:
                mm = SparseMatrix(lvls[m - 1].dim(jj), lvls[m].dim(jj), field)
                for col, lab in enumerate(lvls[m].labels[jj]):
                    img = [smap(v) for v in lab[1]]
                    if len(set(img)) != len(img):
                        continue  # degenerate: dies in normalized chains
                    s = tuple(sorted(img))
                    mm[subset_pos[m - 1][s][1], col] = field.one()
                comps[jj] = mm
            codegens[(m, j)] = ChainMap(lvls[m], lvls[m - 1], comps)
    return CosimplicialComplex(lvls, cofaces, codegens,
                               degenerate_above=0).validate()


def lemma_ij_check(x: CosimplicialComplex, max_level=None):
    """The collapse j : N(Delta) box X -> X is a levelwise quasi-iso with an
    explicit exact homotopy i j ~ id; returns a report.

    Corrupted inputs (non-cosimplicial structure maps) are reported as
    failures rather than raised."""
    F = x.field
    M = x.M if max_level is None else max_level
    delta = simplex_cosimplicial(F, M)
    try:
        bx = box_product(delta, x, max_level=M)
    except (ValueError, ArithmeticError) as e:
        return {"pass": False, "levels": {}, "error": str(e)}
    report = {"pass": True, "levels": {}}
    for m in range(M + 1):
        level = bx.levels[m]
        try:
            jmap = _collapse_map(delta, x, bx, m)
            imap = _collapse_section(x, bx, m)
        except (ValueError, ArithmeticError) as e:
            report["levels"][m] = {"error": str(e)}
            report["pass"] = False
            continue
        ji = jmap.compose(imap)
        ident_x = ChainMap.identity(x.levels[m])
        ok_ji = ji.components == ident_x.components
        ij = imap.compose(jmap)
        h = homotopy_between(ChainMap.identity(level), ij)
        w = DegreeWindow(min(level.support() or [0]) - 1,
                         max(level.support() or [0]) + 1)
        qi = is_quasi_iso(jmap, w)
        report["levels"][m] = {"section": ok_ji, "homotopy": h is not None,
                               "quasi_iso": qi}
        if not (ok_ji and h is not None and qi):
            report["pass"] = False
    return report


def _collapse_map(delta, x, bx, m) -> ChainMap:
    """(N Delta box X)^m -> X^m: augmentation, then push to level m by
    iterated 0-th cofaces."""
    tgt = x.levels[m]
    q, proj = bx._quotients[m]
    total = proj.source
    # on the (p, m-p)-summand of the presentation: aug (x) (delta^0)^p, where
    # aug keeps the vertices of the simplex
    summands = [tensor(delta.levels[p], x.levels[m - p]) for p in range(m + 1)]
    blocks = {}
    for p, tc in enumerate(summands):
        push = ChainMap.identity(x.levels[m - p])
        for t in range(m - p, m):
            push = x.coface(t, 0).compose(push)
        aug = label_map(
            tc, x.levels[m - p], partial=True,
            key=lambda lab: lab[1] if len(lab[0][1]) == 1 else None)
        blocks[(p, 0)] = push.compose(aug)
    big = block_map(total, tgt, summands, [tgt], blocks)
    # the map kills the coequalized subspace, so any section computes it
    return big.compose(_kept_coordinates(q, total)).validate()


def _collapse_section(x, bx, m) -> ChainMap:
    """X^m -> (N Delta box X)^m via the (0, m) summand with the vertex 0."""
    _, proj = bx._quotients[m]
    vertex = label_map(x.levels[m], proj.source,
                       key=lambda xl: (0, (("simp", (0,)), xl)))
    return proj.compose(vertex).validate()


# ---------------------------------------------------------------------------
# Evaluation of symmetric-sequence data at a site
# ---------------------------------------------------------------------------


def injections_module(field, r, m):
    """k[Inj({0..r-1}, {0..m-1})] as a free Sigma_r permutation module."""
    injs = injections(r, m)
    if not injs:
        return None
    group = YoungGroup.full(r)
    table = {}
    pos = {inj: i for i, inj in enumerate(injs)}
    for gi in group.generator_positions():
        sperm = transposition(r, gi)
        table[gi] = [pos[tuple(inj[sperm[i]] for i in range(r))]
                     for inj in injs]
    return permutation_module(field, group, [("inj", inj) for inj in injs],
                              table)


class PhiTerm:
    """One arity-r summand of Phi(B)(X): strict invariants of B (x) Inj_r in
    the Top case, a windowed homotopy-fixed model in the Sp case."""

    def __init__(self, source, piece_value, r, site, w, stages=None):
        F = piece_value.field
        self.source = source
        self.r = r
        self.site = site
        if source == "top":
            m = site.size
            inj = injections_module(F, r, m)
            if inj is None or piece_value.complex.is_zero():
                self.complex = ChainComplex(F, {})
                self.kind = "zero"
                return
            tensored = equivariant_tensor(piece_value, inj)
            self.tensored = tensored
            inv, incl = strict_fixed(tensored)
            self.complex = inv
            self.inclusion = incl
            self.kind = "strict"
        else:
            d = site  # sphere dimension, 0 unless extended
            if d != 0:
                raise ValueError("sp sites other than S^0 need truncation <= 2"
                                 " (see cobar_sp_s_d)")
            if piece_value.complex.is_zero():
                self.complex = ChainComplex(F, {})
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
        if self.source == "top":
            # f (x) id on the tensored complexes, then induce on invariants
            big = slotwise_map(self.tensored.complex, tgt.tensored.complex, f,
                               slot=0)
            return factor_through(big.compose(self.inclusion),
                                  tgt.inclusion).validate()
        if self.kind == "identity" and tgt.kind == "identity":
            return f
        if self.kind == "fixed" and tgt.kind == "fixed":
            return slotwise_map(self.complex, tgt.complex, f).validate()
        raise ValueError("mismatched Phi term kinds")


# ---------------------------------------------------------------------------
# The cosimplicial cobar construction
# ---------------------------------------------------------------------------


class _RawPiece:
    """A bare symmetric-sequence term presented with the piece interface."""

    def __init__(self, value):
        self.value = value
        self.kind = "raw"
        self.exact = True


def _piece_nonzero(piece) -> bool:
    return piece is not None and not piece.value.complex.is_zero()


def _sp_fixed_into_tate(src_phi: PhiTerm, a_n, piece, q, n, w, F,
                        src_stages) -> ChainMap:
    """Map the Sigma_n homotopy-fixed model of A_n into the cone-target part
    of the Tate piece, through the structural carrier map:
    identity for (1, 2)-type, the singular-set vertex for (1, 3), the
    surjection diagonal for (2, 3)."""
    src = src_phi.complex
    tgt = piece.value.complex
    surjs = all_surjections(n, q)
    comps = {}
    for k in src.dims:
        m = SparseMatrix(tgt.dim(k), src.dim(k), F)
        tidx = tgt.label_index(k)
        for col, lab in enumerate(src.labels[k]):
            tag, slot, gen, alab = lab
            for alpha in surjs:
                if (q, n) == (1, 3):
                    carrier_lab = ("sidx", alpha, (("l3", "w"), alab))
                else:
                    carrier_lab = ("sidx", alpha, alab)
                row = tidx.get(("cone-tgt", ("hGf", slot, gen, carrier_lab)))
                if row is None:
                    continue
                m.add_to(row, col, F.one())
        if not m.is_zero():
            comps[k] = m
    return ChainMap(src, tgt, comps).validate()


def cobar(coalgebra, site, w: DegreeWindow | None = None) -> CosimplicialComplex:
    """The cosimplicial cobar construction Phi K^bullet A at a site.

    Top source: site is a FinitePointedSet.  Sp source: site is the sphere
    dimension d (S^0 supported at truncation <= 3; other d raise)."""
    c = coalgebra
    w = w or c.window
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
        builder = TopCobarBuilder(c, site, w)
    else:
        builder = SpCobarBuilder(c, w)
    out = builder.cosimplicial
    out._builder = builder
    return out


def diagonal_phi_term(field, term, site_m):
    """(A_n (x) Inj_n)^{Sigma_n}: the exact diagonal summand of Phi(A)(X)."""
    n = term.group.degree
    inj = injections_module(field, n, site_m)
    if inj is None or term.complex.is_zero():
        return None
    tensored = equivariant_tensor(term, inj)
    inv, incl = strict_fixed(tensored)
    return {"complex": inv, "inclusion": incl, "tensored": tensored}


def stratified_cone(field, m):
    """St(1,2)(X): cone(k[2-tuples] -> k[injective 2-tuples]) as a
    Sigma_2-complex; quasi-isomorphic to the suspended diagonal."""
    tuples = [(a, b) for a in range(m) for b in range(m)]
    injs = [(a, b) for a in range(m) for b in range(m) if a != b]
    tpos = {t: i for i, t in enumerate(tuples)}
    ipos = {t: i for i, t in enumerate(injs)}
    dims = {1: len(tuples)}
    labels = {1: tuple(("tup", t) for t in tuples)}
    diff = {}
    if injs:
        dims[0] = len(injs)
        labels[0] = tuple(("itup", t) for t in injs)
        d1 = SparseMatrix(len(injs), len(tuples), field)
        for t, j in tpos.items():
            if t in ipos:
                d1[ipos[t], j] = field.neg(field.one())
        diff[1] = d1
    c = ChainComplex(field, dims, diff, labels).validate()
    group = YoungGroup.full(2)
    comps = {}
    m1 = SparseMatrix(dims[1], dims[1], field)
    for t, j in tpos.items():
        m1[tpos[(t[1], t[0])], j] = field.one()
    comps[1] = m1
    if injs:
        m0 = SparseMatrix(dims[0], dims[0], field)
        for t, j in ipos.items():
            m0[ipos[(t[1], t[0])], j] = field.one()
        comps[0] = m0
    act = {0: ChainMap(c, c, comps)}
    return EquivariantComplex(c, group, act).validate()


class _Levels:
    """Levels of a cosimplicial object built as direct sums of keyed
    summands: parts[lvl] lists the summand complexes in the order of the
    keys level_keys[lvl], and levels[lvl] is their direct sum."""

    def __init__(self, field, level_keys, parts):
        self.level_keys = level_keys
        self.parts = parts
        self.levels = [direct_sum(parts[lvl]) if parts[lvl] else
                       ChainComplex(field, {}) for lvl in range(len(parts))]

    def _block(self, src_lvl, tgt_lvl, blocks) -> ChainMap:
        """The map of levels whose block from summand sk to summand tk is
        blocks[(sk, tk)]."""
        src_keys, tgt_keys = self.level_keys[src_lvl], self.level_keys[tgt_lvl]
        return block_map(
            self.levels[src_lvl], self.levels[tgt_lvl], self.parts[src_lvl],
            self.parts[tgt_lvl],
            {(src_keys.index(sk), tgt_keys.index(tk)): f
             for (sk, tk), f in blocks.items()
             if f is not None and not f.is_zero()}).validate()


class TopCobarBuilder(_Levels):
    """Phi K^bullet A at a finite pointed set, truncation <= 2.

    The (1,2)-type slots use the stratified cone model
    orbit_{Sigma_2}(A_2 (x) cone(tuples -> injective tuples)): it receives
    the counit-side inclusion from the invariants summand and the theta-side
    translation from the tree model, so every coface is an honest chain map.
    (At arity gap >= 2 the unit has no strict small model; those towers run
    through the pullback route.)"""

    def __init__(self, coalgebra, site, w: DegreeWindow):
        c = coalgebra
        if c.truncation > 2:
            raise ValueError(
                "top-source tot route bounded at truncation 2; "
                "use route='pullback' for deeper towers")
        self.c = c
        self.site = site
        self.w = w
        F = c.field
        self.field = F
        m = site.size
        self.D = max(c.truncation - 1, 0)
        seq = c.sequence
        self.diag = {}
        for n in seq.arities():
            self.diag[n] = diagonal_phi_term(F, seq.term(n), m)
        self.slot12 = None
        if c.truncation >= 2 and seq.term(2) is not None and m >= 1 \
                and self.diag.get(2) is not None:
            st = stratified_cone(F, m)
            carrier = equivariant_tensor(seq.term(2), st)
            self.carrier12 = carrier
            comp12 = c.komonad.component(1, 2)
            self.comp12 = comp12
            base = max(self.w.hi - carrier.complex.min_degree + 2, 1)
            inferred = _model_stages(comp12) or 1
            self.stages12 = max(base, inferred)
            self.slot12 = homotopy_orbits(carrier, w, tag="slot12",
                                          stages=self.stages12)
        self._build_levels()
        self.cosimplicial = self._assemble()

    def _build_levels(self):
        keys0 = [(n,) for n in sorted(self.diag) if self.diag[n] is not None]
        keys1 = [(n, n) for n in sorted(self.diag)
                 if self.diag[n] is not None]
        if self.slot12 is not None:
            keys1.append((1, 2))
        keys1.sort()
        keys2 = []
        if self.D >= 1:
            for (r, n) in keys1:
                for s2 in range(r, n + 1):
                    if r < s2 < n:
                        continue
                    keys2.append((r, s2, n))
            keys2.sort()
        keys = [keys0, keys1, keys2][:self.D + 1]
        parts = [[self.diag[k[0]]["complex"] for k in keys0],
                 [self._slot(k[0], k[1]) for k in keys1],
                 [self._slot(k[0], k[2]) for k in keys2]][:self.D + 1]
        super().__init__(self.field, dict(enumerate(keys)),
                         dict(enumerate(parts)))

    def _slot(self, r, n):
        if r == n:
            return self.diag[n]["complex"]
        return self.slot12.complex

    def _u12_map(self) -> ChainMap:
        """(A_2 (x) I^2)^{inv} -> slot12: invariants into the injective-tuple
        cone part, at the resolution-0 slot."""
        d2 = self.diag[2]
        carrier = self.carrier12.complex
        to_carrier = label_map(d2["tensored"].complex, carrier,
                               key=lambda lab: (lab[0], ("itup", lab[1][1])),
                               partial=True)
        iota = label_map(carrier, self.slot12.complex,
                         key=lambda lab: ("hG", 0, 0, lab), partial=True)
        return iota.compose(to_carrier).compose(d2["inclusion"]).validate()

    def _theta12_map(self):
        """A_1 (x) X -> slot12 through theta_{1,2} and the tree-to-cone
        translation t (x) a (x) x -> (-1)^{|a|} a (x) (x,x)."""
        F = self.field
        th = self.c.theta_map(1, 2)
        if th is None or self.slot12 is None:
            return None
        comp12 = self.comp12
        tsum_eq = comp12.sursum.sigma_n_action()
        a2 = self.c.sequence.term_complex(2)
        carrier = self.carrier12.complex
        m = self.site.size
        xmod = ChainComplex(F, {0: m},
                            labels={0: tuple(("pt", x) for x in range(m))})
        xtriv = trivial_action(xmod, YoungGroup.full(2))
        wprime_eq = equivariant_tensor(tsum_eq, xtriv)
        wp = wprime_eq.complex
        comps = {}
        for k in wp.dims:
            mm = SparseMatrix(carrier.dim(k), wp.dim(k), F)
            cidx = carrier.label_index(k)
            for j, lab in enumerate(wp.labels[k]):
                wlab, xlab = lab
                _, alpha, inner = wlab
                a_lab = inner[-1]
                x = xlab[1]
                sgn = F.one() if a2.locate(a_lab)[0] % 2 == 0 else F.neg(F.one())
                row = cidx.get((a_lab, ("tup", (x, x))))
                if row is not None:
                    mm.add_to(row, j, sgn)
            if not mm.is_zero():
                comps[k] = mm
        g = ChainMap(wp, carrier, comps).validate()
        orb_wp = homotopy_orbits(wprime_eq, self.w, tag="theta-aux",
                                 stages=self.stages12)
        gfun = slotwise_map(orb_wp.complex, self.slot12.complex, g)
        src = self.diag[1]["complex"]
        def slot_outside(lab):
            # orbit(W) (x) X -> orbit(W (x) X): the point module sits in
            # degree zero with trivial action
            (tag, s, gen, wlab), xlab = lab
            return tag, s, gen, (wlab, xlab)

        ident = label_map(tensor(comp12.value.complex, xmod), orb_wp.complex,
                          key=slot_outside, partial=True).validate()
        th_x = self._theta_tensor_x(th, xmod, src, comp12.value.complex, F)
        return gfun.compose(ident).compose(th_x).validate()

    def _theta_tensor_x(self, th, xmod, src, model, F) -> ChainMap:
        """(A_1 (x) X-invariants) -> model (x) X, via theta on the A_1 part."""
        a1 = self.c.sequence.term_complex(1)
        tens = tensor(model, xmod)
        d1 = self.diag[1]
        comps = {}
        for k in src.dims:
            mm = SparseMatrix(tens.dim(k), src.dim(k), F)
            inc = d1["inclusion"].component(k)
            mid = d1["tensored"].complex
            tidx = tens.label_index(k)
            for (i, j), v in inc.entries.items():
                a_lab, inj_lab = mid.labels[k][i]
                x = inj_lab[1][0]
                ai = a1.label_index(k)[a_lab]
                thm = th.component(k)
                for (i2, jj), vv in thm.entries.items():
                    if jj != ai:
                        continue
                    row = tidx.get((th.target.labels[k][i2], ("pt", x)))
                    if row is None:
                        continue
                    mm.add_to(row, j, F.mul(v, vv))
            if not mm.is_zero():
                comps[k] = mm
        return ChainMap(src, tens, comps).validate()

    def _assemble(self) -> CosimplicialComplex:
        cofaces, codegens = {}, {}
        u12 = self._u12_map() if self.slot12 is not None else None
        th12 = self._theta12_map() if self.slot12 is not None else None
        if self.D >= 1:
            b = {}
            for (n,) in self.level_keys[0]:
                b[((n,), (n, n))] = ChainMap.identity(self.diag[n]["complex"])
            if u12 is not None:
                b[((2,), (1, 2))] = u12
            cofaces[(0, 0)] = self._block(0, 1, b)
            b2 = {}
            for (n,) in self.level_keys[0]:
                b2[((n,), (n, n))] = ChainMap.identity(self.diag[n]["complex"])
            if th12 is not None:
                b2[((1,), (1, 2))] = th12
            cofaces[(0, 1)] = self._block(0, 1, b2)
            be = {}
            for (r, n) in self.level_keys[1]:
                if r == n and (r,) in self.level_keys[0]:
                    be[((r, n), (r,))] = ChainMap.identity(
                        self.diag[n]["complex"])
            codegens[(1, 0)] = self._block(1, 0, be)
        if self.D >= 2:
            bu = {}
            for (r, n) in self.level_keys[1]:
                if (r, r, n) in self.level_keys[2]:
                    bu[((r, n), (r, r, n))] = ChainMap.identity(
                        self._slot(r, n))
            if (1, 2, 2) in self.level_keys[2] and u12 is not None:
                bu[((2, 2), (1, 2, 2))] = u12
            cofaces[(1, 0)] = self._block(1, 2, bu)
            bd = {}
            for (r, n) in self.level_keys[1]:
                for s2 in range(r, n + 1):
                    if (r, s2, n) in self.level_keys[2]:
                        bd[((r, n), (r, s2, n))] = ChainMap.identity(
                            self._slot(r, n))
            cofaces[(1, 1)] = self._block(1, 2, bd)
            bk = {}
            for (r, s) in self.level_keys[1]:
                for n in range(s, self.c.truncation + 1):
                    if (r, s, n) not in self.level_keys[2]:
                        continue
                    if s == n:
                        bk[((r, s), (r, s, n))] = ChainMap.identity(
                            self._slot(r, s))
                    elif r == s == 1 and n == 2 and th12 is not None:
                        bk[((1, 1), (1, 1, 2))] = th12
            cofaces[(1, 2)] = self._block(1, 2, bk)
            for j in (0, 1):
                bs = {}
                for (r, s, n) in self.level_keys[2]:
                    if j == 0 and s == r and (r, n) in self.level_keys[1]:
                        bs[((r, s, n), (r, n))] = ChainMap.identity(
                            self._slot(r, n))
                    if j == 1 and s == n and (r, n) in self.level_keys[1]:
                        bs[((r, s, n), (r, n))] = ChainMap.identity(
                            self._slot(r, n))
                codegens[(2, j)] = self._block(2, 1, bs)
        return CosimplicialComplex(self.levels[:self.D + 1], cofaces,
                                   codegens,
                                   degenerate_above=self.D).validate()


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
        # Phi terms (fixed models over Sigma_r at the shared window)
        self.phi = {0: {}, 1: {}, 2: {}}
        for lvl in range(self.D + 1):
            for key, piece in self.pieces[lvl].items():
                r = key[0]
                self.phi[lvl][key] = PhiTerm("sp", piece.value, r, 0,
                                             self.w_phi,
                                             stages=self._stages.get(r))
        keys = {lvl: sorted(self.phi[lvl]) for lvl in range(self.D + 1)}
        super().__init__(F, keys, {
            lvl: [self.phi[lvl][k].complex for k in ks]
            for lvl, ks in keys.items()})
        self.cosimplicial = self._assemble()

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

    def _phi_map(self, src_lvl, sk, tgt_lvl, tk, f) -> ChainMap:
        return self.phi[src_lvl][sk].apply(f, self.phi[tgt_lvl][tk])

    def _u_block(self, src_lvl, tgt_lvl):
        """The unit: identity into the freshly-inserted diagonal copy, plus
        the fixed-to-Tate maps out of top-arity summands."""
        blocks = {}
        for key, piece in self.pieces[src_lvl].items():
            r, n = key[0], key[-1]
            # fresh diagonal: K_q applied with q = r gives the same piece
            tk = (key[0],) + key
            if tk in self.pieces[tgt_lvl]:
                f = ChainMap.identity(piece.value.complex)
                blocks[(key, tk)] = self._phi_map(src_lvl, key, tgt_lvl, tk, f)
            if r == n:
                # off-diagonal unit components out of an arity-n object
                for q in range(1, n):
                    tk2 = (q,) + key
                    if tk2 in self.pieces[tgt_lvl]:
                        blocks[(key, tk2)] = self._sp_u(src_lvl, key,
                                                        tgt_lvl, tk2)
        return blocks

    def _sp_u(self, src_lvl, src_key, tgt_lvl, tgt_key) -> ChainMap:
        F = self.field
        q, n = tgt_key[0], tgt_key[-1]
        src_phi = self.phi[src_lvl][src_key]
        tgt_phi = self.phi[tgt_lvl][tgt_key]
        piece = self.pieces[tgt_lvl][tgt_key]
        a_n = self.pieces[src_lvl][src_key].value
        g = _sp_fixed_into_tate(src_phi, a_n, piece, q, n, self.w, F,
                                self._stages.get(n))
        if q == 1:
            return ChainMap(src_phi.complex, tgt_phi.complex,
                            g.components).validate()
        _, incl = strict_fixed(piece.value)
        to_inv = factor_through(g, incl)
        coaug = coaugment_invariants(incl, tgt_phi.complex)
        return coaug.compose(to_inv).validate()

    def _theta_block(self, src_lvl, tgt_lvl, at_inner):
        """theta applied at the innermost slot (the delta^{m+1} coface)."""
        blocks = {}
        c = self.c
        for key, piece in self.pieces[src_lvl].items():
            r = key[0]
            s = key[-1]
            for n in range(s, c.truncation + 1):
                tk = key + (n,)
                if tk not in self.pieces[tgt_lvl]:
                    continue
                th = c.theta_map(s, n)
                if th is None:
                    continue
                if s == n:
                    f = ChainMap.identity(piece.value.complex)
                    blocks[(key, tk)] = self._phi_map(src_lvl, key,
                                                      tgt_lvl, tk, f)
                elif src_lvl == 0 or r == s:
                    # K_s collapsed on an arity-s object: theta itself,
                    # transported into the rebuilt piece model
                    f = transport(th, piece.value.complex,
                                  self.pieces[tgt_lvl][tk].value.complex)
                    blocks[(key, tk)] = self._phi_map(src_lvl, key,
                                                      tgt_lvl, tk, f)
                # r < s < n targets are dropped: components are zero
        return blocks

    def _delta_block(self):
        """The comultiplication coface at level 1: insert K at the middle.
        With collapsed diagonals every kept component is the identity."""
        blocks = {}
        for (r, n), piece in self.pieces[1].items():
            for s in range(r, n + 1):
                tk = (r, s, n)
                if tk not in self.pieces[2]:
                    continue
                f = ChainMap.identity(piece.value.complex)
                blocks[((r, n), tk)] = self._phi_map(1, (r, n), 2, tk, f)
        return blocks

    def _eps_block(self, j):
        blocks = {}
        for (r, s, n), piece in self.pieces[2].items():
            keep = (j == 0 and s == r) or (j == 1 and s == n)
            if keep and (r, n) in self.pieces[1]:
                f = ChainMap.identity(piece.value.complex)
                blocks[((r, s, n), (r, n))] = self._phi_map(2, (r, s, n),
                                                            1, (r, n), f)
        return blocks

    def _eps_block_10(self):
        blocks = {}
        for (r, n), piece in self.pieces[1].items():
            if r == n and (r,) in self.pieces[0]:
                f = ChainMap.identity(piece.value.complex)
                blocks[((r, n), (r,))] = self._phi_map(1, (r, n), 0, (r,), f)
        return blocks

    def _assemble(self) -> CosimplicialComplex:
        cofaces, codegens = {}, {}
        if self.D >= 1:
            cofaces[(0, 0)] = self._block(0, 1, self._u_block(0, 1))
            cofaces[(0, 1)] = self._block(0, 1, self._theta_block(0, 1, True))
            codegens[(1, 0)] = self._block(1, 0, self._eps_block_10())
        if self.D >= 2:
            cofaces[(1, 0)] = self._block(1, 2, self._u_block(1, 2))
            cofaces[(1, 1)] = self._block(1, 2, self._delta_block())
            cofaces[(1, 2)] = self._block(1, 2, self._theta_block(1, 2, True))
            codegens[(2, 0)] = self._block(2, 1, self._eps_block(0))
            codegens[(2, 1)] = self._block(2, 1, self._eps_block(1))
        return CosimplicialComplex(self.levels, cofaces, codegens,
                                   degenerate_above=self.D).validate()


# ---------------------------------------------------------------------------
# Taylor stages: Tot route and iterated-pullback route
# ---------------------------------------------------------------------------


def _fib(f: ChainMap) -> ChainComplex:
    """Homotopy fiber as a complex: shift(cone(f), -1)."""
    return shift(cone(f), -1)


def _fib_proj(f: ChainMap, fib: ChainComplex) -> ChainMap:
    """The projection fib(f) -> source(f)."""
    F = f.field
    comps = {}
    src = f.source
    for k in fib.dims:
        mm = SparseMatrix(src.dim(k), fib.dim(k), F)
        for j, lab in enumerate(fib.labels[k]):
            # fib labels: ("sh", -1, ("cone-src", src label) | ("cone-tgt", ...))
            inner = lab[2]
            if inner[0] == "cone-src":
                slab = inner[1]
                idx = src.label_index(k)
                if slab in idx:
                    mm[idx[slab], j] = F.one()
        if not mm.is_zero():
            comps[k] = mm
    return ChainMap(fib, src, comps).validate()


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
    if route == "pullback" and cn.source == "top" and n > 2:
        raise ValueError("top pullback route bounded at truncation 2 "
                         "in this build")
    if builder is None:
        builder = cobar(cn, site, cn.window)._builder
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
    key_list0 = builder.level_keys[0]
    if c.source == "top":
        phi0 = {k: builder.diag[k[0]]["complex"] for k in key_list0}
    else:
        phi0 = {k: builder.phi[0][k].complex for k in key_list0}
    # P_1 = arity-1 summand of Phi(A)
    if (1,) in phi0:
        stage = phi0[(1,)]
    else:
        stage = ChainComplex(F, {})
    projections = {1: ChainMap.identity(stage)} if (1,) in phi0 else {}
    stages = {1: stage}
    # structural blocks out of the level-0 summands
    if c.source == "top":
        u12 = builder._u12_map() if builder.slot12 is not None else None
        th12 = builder._theta12_map() if builder.slot12 is not None else None
        ublocks = {}
        tblocks = {}
        if u12 is not None:
            ublocks[((2,), (1, 2))] = u12
        if th12 is not None:
            tblocks[((1,), (1, 2))] = th12
        slot_of = {(1, 2): builder.slot12.complex
                   if builder.slot12 is not None else None}
    else:
        ublocks = {}
        tblocks = {}
        slot_of = {}
        for key, piece in builder.pieces[1].items():
            r, nn = key
            if r < nn:
                slot_of[key] = builder.phi[1][key].complex
        raw_u = builder._u_block(0, 1)
        raw_t = builder._theta_block(0, 1, True)
        for (sk, tk), f in raw_u.items():
            if tk[0] < tk[1]:
                ublocks[(sk, tk)] = f
        for (sk, tk), f in raw_t.items():
            if tk[0] < tk[1]:
                tblocks[(sk, tk)] = f
    for j in range(2, N + 1):
        # assemble the map (P_{j-1} (+) diag_j) -> (+)_{r<j} slot (r, j)
        offkeys = [k for k in slot_of if k[1] == j and slot_of[k] is not None]
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
    f = _tot_truncation_map(hi["cosimplicial"], lo["cosimplicial"],
                            hi["complex"], lo["complex"])
    return {"map": f, "source": hi, "target": lo}


def _tot_truncation_map(cs_hi, cs_lo, tot_hi, tot_lo) -> ChainMap:
    """Project the Tot of the larger cobar onto the Tot of the truncation by
    dropping pieces with indices above the lower truncation (computed through
    the conormalized bases)."""
    F = tot_hi.field
    bh = cs_hi._builder if hasattr(cs_hi, "_builder") else None
    bl = cs_lo._builder if hasattr(cs_lo, "_builder") else None
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
    comps = {}
    for m, (sub_h, inc_h) in enumerate(normed_hi):
        if m >= len(normed_lo):
            continue
        sub_l, inc_l = normed_lo[m]
        f = level_maps.get(m)
        if f is None:
            continue
        for j_deg, xsol in factor_through(f.compose(inc_h),
                                          inc_l).components.items():
            ks = j_deg - m
            for (i, j), v in xsol.entries.items():
                cs2 = tot_hi.label_index(ks)[("tot", m, sub_h.labels[j_deg][j])]
                ct = tot_lo.label_index(ks)[("tot", m, sub_l.labels[j_deg][i])]
                mm = comps.get(ks)
                if mm is None:
                    mm = SparseMatrix(tot_lo.dim(ks), tot_hi.dim(ks), F)
                    comps[ks] = mm
                mm.add_to(ct, cs2, v)
    return ChainMap(tot_hi, tot_lo, comps).validate()


# ---------------------------------------------------------------------------
# Equivariant hom complexes and the K-functor on hom elements
# ---------------------------------------------------------------------------


def equivariant_hom_complex(a, b):
    """(strict invariants of Hom(a, b) under conjugation, inclusion).

    a, b are EquivariantComplexes over the same Young group."""
    if a.group != b.group:
        raise ValueError("group mismatch in equivariant hom")
    F = a.field
    h = hom_complex(a.complex, b.complex)
    action = {}
    for gi in a.group.generator_positions():
        ga = a.action[gi]
        gb = b.action[gi]
        comps = {}
        for k in h.dims:
            mm = SparseMatrix(h.dim(k), h.dim(k), F)
            for j, lab in enumerate(h.labels[k]):
                _, la, lb = lab
                # conj(E_{la -> lb}) = g_b o E o g_a^{-1}; generators are
                # involutions so g_a^{-1} = g_a
                ka, ia = a.complex.locate(la)
                kb, ib = b.complex.locate(lb)
                gam = ga.component(ka)
                gbm = gb.component(kb)
                for (ia2, jja), va in gam.entries.items():
                    if jja != ia:
                        continue
                    for (ib2, jjb), vb in gbm.entries.items():
                        if jjb != ib:
                            continue
                        new = ("hom", a.complex.labels[ka][ia2],
                               b.complex.labels[kb][ib2])
                        mm.add_to(h.label_index(k)[new], j, F.mul(va, vb))
            comps[k] = mm
        action[gi] = ChainMap(h, h, comps)
    heq = EquivariantComplex(h, a.group, action)
    inv, incl = strict_fixed(heq)
    return h, inv, incl


def sp_component_on_map(src_model, tgt_model, f: ChainMap) -> ChainMap:
    """K_q(f) for the sp comonad: slotwise on the Tate cone models (or f
    itself on collapsed diagonals)."""
    if src_model.kind == "collapsed":
        return f
    if src_model.kind != "tate" or tgt_model.kind != "tate":
        raise ValueError("sp K on maps needs matching tate models")
    # Tate labels are (cone part, ("hG"/"hGf", s, gen, ("sidx", alpha, base)))
    # with base the A-label, or (l3 label, A-label) when (r, n) = (1, 3).
    # Moving f onto A passes the cone's degree shift on "cone-src" labels and
    # an l3 edge (degree 1): each gives a Koszul sign when f is odd.
    l3 = (src_model.r, src_model.n) == (1, 3)

    def sign(lab):
        odd = (lab[0] == "cone-src") != (l3 and lab[1][3][2][0][1] != "w")
        return -1 if odd and f.degree % 2 else 1
    return slotwise_map(src_model.value.complex, tgt_model.value.complex, f,
                        (1, 3, 2, 1) if l3 else (1, 3, 2), sign).validate()


# ---------------------------------------------------------------------------
# Derived mapping complexes (the Hom-side cobar)
# ---------------------------------------------------------------------------


class DerivedHomBuilder(_Levels):
    """Levels m |-> (+)_r Hom_{Sigma_r}(A_r, (K^m A')_r), truncation <= 3.

    Cofaces follow the mapping-space cosimplicial structure: delta^0 applies
    the comonad to a map and precomposes the source coalgebra structure,
    middle cofaces insert the comultiplication, the top coface postcomposes
    the target coalgebra structure; codegeneracies postcompose counits."""

    def __init__(self, c, cprime, w: DegreeWindow):
        if c.source != cprime.source:
            raise ValueError("source tags differ")
        if c.truncation != cprime.truncation:
            raise ValueError("truncations differ")
        if c.truncation > 3:
            raise ValueError("derived hom bounded at truncation 3")
        self.c = c
        self.cp = cprime
        self.w = w
        F = c.field
        self.field = F
        self.D = max(c.truncation - 1, 0)
        K = cprime.komonad
        self.K = K
        # pieces of K^m A': level 0: raw terms; level 1: components;
        # level 2: (q, s, n)-models
        self.pieces = {0: {}, 1: {}, 2: {}}
        for n in cprime.sequence.arities():
            self.pieces[0][(n,)] = _RawPiece(cprime.sequence.term(n))
        for (q, n), comp in K.components.items():
            if _piece_nonzero(comp):
                self.pieces[1][(q, n)] = comp
        if self.D >= 2:
            for n in cprime.sequence.arities():
                for s in range(1, n + 1):
                    for q in range(1, s + 1):
                        piece = self._level2_piece(q, s, n)
                        if piece is not None and _piece_nonzero(piece):
                            self.pieces[2][(q, s, n)] = piece
        # hom complexes per piece (invariants), keyed by level and piece key
        self.hom = {0: {}, 1: {}, 2: {}}
        for lvl in range(self.D + 1):
            for key, piece in self.pieces[lvl].items():
                r = key[0]
                a_r = c.sequence.term(r)
                if a_r is None:
                    continue
                full, inv, incl = equivariant_hom_complex(a_r, piece.value)
                self.hom[lvl][key] = {"full": full, "inv": inv, "incl": incl,
                                      "piece": piece}
        keys = {lvl: sorted(self.hom[lvl]) for lvl in range(self.D + 1)}
        super().__init__(F, keys, {
            lvl: [self.hom[lvl][k]["inv"] for k in ks]
            for lvl, ks in keys.items()})
        self.cosimplicial = self._assemble()

    def _level2_piece(self, q, s, n):
        c, K = self.cp, self.K
        if c.source == "sp":
            if q < s < n:
                return None
            return K.components.get((q, n))
        if q < s < n:
            return K.delta_outer.get((q, s, n))
        return K.components.get((q, n))

    # -- piece-level maps -----------------------------------------------------

    def _kq_theta_block(self, src, tgt, q, r) -> ChainMap:
        """Hom(A_r, P)^{inv} -> Hom(A_q, K_q P)^{inv}:
        h |-> K_q(h) o theta^A_{q,r}, built column by column on the invariant
        basis and solved once per degree."""
        F = self.field
        c = self.c
        theta = c.theta_map(q, r)
        if theta is None:
            return ChainMap.zero(src["inv"], tgt["inv"])
        # K_q(A_r)-model must match theta's target (the coalgebra's own
        # component models)
        ka_model = c.komonad.component(q, r)
        kp_model = tgt["piece"]
        img = {}
        for k in src["inv"].dims:
            inc = src["incl"].component(k)
            cols = []
            for j in range(src["inv"].dim(k)):
                vec = {i: v for (i, jj), v in inc.entries.items() if jj == j}
                f = hom_element_to_map(src["full"],
                                       c.sequence.term_complex(r),
                                       src["piece"].value.complex, vec,
                                       degree=k)
                if c.source == "top":
                    src_model = ka_model
                    if src_model.kind != kp_model.kind:
                        src_model = _rebuild_like(
                            c.komonad.coop, c.sequence.term(r), q,
                            c.komonad.w, kp_model)
                    kf = top_component_on_map(c.komonad.coop, src_model,
                                              kp_model, f)
                else:
                    kf = sp_component_on_map(ka_model, kp_model, f)
                # theta recast into the model K_q(h) starts from
                th = transport(theta, target=kf.source)
                # composite: A_q -> K_q P (degree k), as an element of Hom
                cols.append(map_to_hom_element(tgt["full"], kf.compose(th)))
            img[k] = SparseMatrix.from_columns(cols, tgt["full"].dim(k), F)
        return factor_through(ChainMap(src["inv"], tgt["full"], img),
                              tgt["incl"]).validate()

    # -- assembly ---------------------------------------------------------------

    def _delta0(self, src_lvl):
        """h -> K(h) o theta (diagonal q = r gives the identity block)."""
        blocks = {}
        for key in self.level_keys[src_lvl]:
            r = key[0]
            src = self.hom[src_lvl][key]
            for q in range(1, r + 1):
                tk = (q,) + key
                if tk not in self.hom[src_lvl + 1]:
                    continue
                tgt = self.hom[src_lvl + 1][tk]
                if q == r:
                    ident = label_map(src["inv"], tgt["inv"], partial=True)
                    blocks[(key, tk)] = ident
                else:
                    blocks[(key, tk)] = self._kq_theta_block(src, tgt, q, r)
        return blocks

    def _delta_mid(self, src_lvl):
        """Insert the comultiplication: postcompose delta of the comonad."""
        blocks = {}
        K = self.K
        for key in self.level_keys[src_lvl]:
            src = self.hom[src_lvl][key]
            q, n = key[0], key[-1]
            for s in range(q, n + 1):
                tk = key[:1] + (s,) + key[1:]
                if tk not in self.hom[src_lvl + 1]:
                    continue
                tgt = self.hom[src_lvl + 1][tk]
                if self.cp.source == "sp":
                    g = ChainMap.identity(src["piece"].value.complex)
                else:
                    d = K.delta.get((q, s, n))
                    if d is None:
                        continue
                    g = transport(d, src["piece"].value.complex,
                                  tgt["piece"].value.complex)
                blocks[(key, tk)] = _post_block(src, tgt, g)
        return blocks

    def _delta_top(self, src_lvl):
        """Postcompose theta of the target coalgebra at the innermost slot."""
        blocks = {}
        cp = self.cp
        K = self.K
        for key in self.level_keys[src_lvl]:
            src = self.hom[src_lvl][key]
            s = key[-1]
            for n in range(s, cp.truncation + 1):
                tk = key + (n,)
                if tk not in self.hom[src_lvl + 1]:
                    continue
                tgt = self.hom[src_lvl + 1][tk]
                th = cp.theta_map(s, n)
                if th is None:
                    continue
                if s == n:
                    blocks[(key, tk)] = label_map(src["inv"], tgt["inv"],
                                                  partial=True)
                    continue
                q = key[0]
                if src_lvl == 0 or (cp.source == "sp" and q == key[-1]):
                    # theta itself (for sp at level 1: the collapsed outer)
                    g = transport(th, src["piece"].value.complex,
                                  tgt["piece"].value.complex)
                    blocks[(key, tk)] = _post_block(src, tgt, g)
                else:
                    if cp.source == "sp":
                        # the target was dropped or identity-kept
                        continue
                    # top: K_q(theta~)
                    inner = K.delta_inner.get((q, s, n))
                    outer = K.delta_outer.get((q, s, n))
                    if inner is None or outer is None:
                        continue
                    tau = _model_transport(K.component(s, n), inner)
                    theta_tilde = tau.compose(
                        transport(th, cp.sequence.term_complex(s)))
                    src_model = src["piece"]
                    if src_model.kind != outer.kind:
                        src_model = _rebuild_like(
                            K.coop, cp.sequence.term(s), q, K.w, outer)
                    kf = top_component_on_map(K.coop, src_model, outer,
                                              theta_tilde)
                    g = transport(kf, src["piece"].value.complex,
                                  tgt["piece"].value.complex)
                    blocks[(key, tk)] = _post_block(src, tgt, g)
        return blocks

    def _sigma(self, src_lvl, j):
        blocks = {}
        for key in self.level_keys[src_lvl]:
            src = self.hom[src_lvl][key]
            if len(key) == 2:
                q, n = key
                if q == n and (n,) in self.hom[0]:
                    blocks[(key, (n,))] = label_map(
                        src["inv"], self.hom[0][(n,)]["inv"], partial=True)
            else:
                q, s, n = key
                if j == 0 and s == q and (q, n) in self.hom[1]:
                    blocks[(key, (q, n))] = label_map(
                        src["inv"], self.hom[1][(q, n)]["inv"], partial=True)
                if j == 1 and s == n and (q, n) in self.hom[1]:
                    blocks[(key, (q, n))] = label_map(
                        src["inv"], self.hom[1][(q, n)]["inv"], partial=True)
        return blocks

    def _assemble(self) -> CosimplicialComplex:
        cofaces, codegens = {}, {}
        if self.D >= 1:
            cofaces[(0, 0)] = self._block(0, 1, self._delta0(0))
            cofaces[(0, 1)] = self._block(0, 1, self._delta_top(0))
            codegens[(1, 0)] = self._block(1, 0, self._sigma(1, 0))
        if self.D >= 2:
            cofaces[(1, 0)] = self._block(1, 2, self._delta0(1))
            cofaces[(1, 1)] = self._block(1, 2, self._delta_mid(1))
            cofaces[(1, 2)] = self._block(1, 2, self._delta_top(1))
            codegens[(2, 0)] = self._block(2, 1, self._sigma(2, 0))
            codegens[(2, 1)] = self._block(2, 1, self._sigma(2, 1))
        return CosimplicialComplex(self.levels, cofaces, codegens,
                                   degenerate_above=self.D).validate()


def derived_hom(c, cprime, w: DegreeWindow | None = None):
    """Derived K-coalgebra mapping complex and its H_0 count."""
    w = w or c.window
    builder = DerivedHomBuilder(c, cprime, w)
    t = fat_tot(builder.cosimplicial)
    D = builder.D
    win = DegreeWindow(w.lo, w.hi - D) if w.hi - D >= w.lo else w
    h0 = t.homology(0)[0]
    return {"complex": t, "h0": h0, "window": win,
            "cosimplicial": builder.cosimplicial, "builder": builder}


# ---------------------------------------------------------------------------
# The Bousfield-Kan E^1 page
# ---------------------------------------------------------------------------


class E1Page:
    """E^1_{-s,t} entries with d^1 matrices and the induced E^2."""

    def __init__(self, entries, d1, field):
        self.entries = entries      # {(s, t): (dim, basis data)}
        self.d1 = d1                # {(s, t): SparseMatrix to (s+1, t)}
        self.field = field

    def dims(self):
        return {(s, t): e[0] for (s, t), e in self.entries.items() if e[0]}

    def d1_squared_zero(self) -> bool:
        for (s, t), m in self.d1.items():
            nxt = self.d1.get((s + 1, t))
            if nxt is not None and m is not None:
                if not (nxt * m).is_zero():
                    return False
        return True

    def e2_dims(self):
        out = {}
        for (s, t), e in self.entries.items():
            dim = e[0]
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
    win = DegreeWindow(w.lo, w.hi - D) if w.hi - D >= w.lo else w
    # strict keys per column
    strict = {}
    for lvl in range(D + 1):
        keys = [k for k in builder.level_keys[lvl]
                if all(k[i] < k[i + 1] for i in range(len(k) - 1))]
        strict[lvl] = keys
    # homology bases per strict piece
    hdata = {}
    for lvl, keys in strict.items():
        for key in keys:
            inv = builder.hom[lvl][key]["inv"]
            for t in range(win.lo, win.hi + 2):
                dim, reps, _ = inv.homology_data(t)
                hdata[(lvl, key, t)] = (dim, reps, inv)
    # the cofaces restricted to strict keys, alternating sum on homology
    coface_blocks = {}
    if D >= 1:
        coface_blocks[0] = [builder._delta0(0), builder._delta_top(0)]
    if D >= 2:
        coface_blocks[1] = [builder._delta0(1), builder._delta_mid(1),
                            builder._delta_top(1)]
    entries, d1 = {}, {}
    for s in range(D + 1):
        for t in range(win.lo, win.hi + 2):
            total = sum(hdata[(s, key, t)][0] for key in strict[s])
            entries[(s, t)] = (total, [(key, hdata[(s, key, t)][0])
                                       for key in strict[s]])
    for s in range(D):
        for t in range(win.lo, win.hi + 1):
            rows = [hdata[(s + 1, key, t)][0] for key in strict[s + 1]]
            cols = [hdata[(s, key, t)][0] for key in strict[s]]
            if not (any(rows) and any(cols)):
                if any(cols) or any(rows):
                    d1[(s, t)] = SparseMatrix(sum(rows), sum(cols), F)
                continue
            # the alternating sum of the cofaces on homology, block by block
            mats = {}
            for i, blocks in enumerate(coface_blocks.get(s, [])):
                for (sk, tk), blk in blocks.items():
                    if sk not in strict[s] or tk not in strict[s + 1] or \
                            not hdata[(s, sk, t)][0]:
                        continue
                    ind = blk.induced_on_homology(t)
                    b = (strict[s + 1].index(tk), strict[s].index(sk))
                    cur = mats.get(b)
                    ind = ind if i % 2 == 0 else -ind
                    mats[b] = ind if cur is None else cur + ind
            d1[(s, t)] = SparseMatrix.block(mats, rows, cols, F)
    page = E1Page(entries, d1, F)
    tot = fat_tot(builder.cosimplicial)
    return {"e1": page, "tot": tot, "window": win, "builder": builder,
            "columns": strict}




def einf_dims(bk_result, w: DegreeWindow | None = None):
    """E-infinity dims from the column filtration of the Tot complex.

    F_p Tot = the subcomplex spanned by columns s >= p; the graded pieces of
    the image filtration on homology give the abutment."""
    builder = bk_result["builder"]
    tot = bk_result["tot"]
    w = w or bk_result["window"]
    F = tot.field
    D = builder.D
    # ranks of im(H_k(F_p) -> H_k(Tot))
    out = {}
    im_rank = {}
    for p in range(D + 2):
        # subcomplex of tot spanned by labels with level >= p
        keep = {}
        for k in tot.dims:
            idx = [i for i, lab in enumerate(tot.labels[k]) if lab[1] >= p]
            keep[k] = idx
        dims = {k: len(v) for k, v in keep.items() if v}
        labels = {k: tuple(tot.labels[k][i] for i in keep[k]) for k in dims}
        diff = {}
        for k in dims:
            if not dims.get(k - 1):
                continue
            pos_t = {i: t for t, i in enumerate(keep[k - 1])}
            m = SparseMatrix(dims[k - 1], dims[k], F)
            dk = tot.d(k)
            for c2, i in enumerate(keep[k]):
                for (r2, jj), v in dk.entries.items():
                    if jj == i and r2 in pos_t:
                        m[pos_t[r2], c2] = v
            diff[k] = m
        sub = ChainComplex(F, dims, diff, labels)
        # image rank of H_k(sub) -> H_k(tot): rank of (cycles of sub) in
        # H_k(tot) = rank of [reps | boundaries(tot)] minus boundary rank
        for k in w.degrees():
            if p > D + 1:
                continue
            zc = [z for z in _cycles(sub, k, keep)]
            bnd = Echelon(tot.d(k + 1).transpose())
            rows = list(bnd.pivot_rows)
            base = len(rows)
            mm = SparseMatrix.from_sparse_rows(rows + zc, tot.dim(k), F)
            im_rank[(p, k)] = Echelon(mm).rank - base
    for k in w.degrees():
        for s in range(D + 1):
            d = im_rank.get((s, k), 0) - im_rank.get((s + 1, k), 0)
            if d:
                out[(s, k + s)] = d
    return out


def _cycles(sub, k, keep):
    """Cycles of the subcomplex, written in the ambient coordinates."""
    if sub.dim(k) == 0:
        return []
    zs = nullspace(sub.d(k))
    amb = keep[k]
    out = []
    for z in zs:
        out.append({amb[i]: v for i, v in z.items()})
    return out


def _post_block(src, tgt, g: ChainMap) -> ChainMap:
    """Hom(M, P)^{inv} -> Hom(M, Q)^{inv} induced by g : P -> Q, for hom
    pieces {"full", "inv", "incl", "piece"} with source P and target Q."""
    big = slotwise_map(src["full"], tgt["full"], g, slot=2)
    return factor_through(big.compose(src["incl"]), tgt["incl"]).validate()
