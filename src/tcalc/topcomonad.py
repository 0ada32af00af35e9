"""The comonad for functors from based spaces (Top) to spectra.

The component K_r A_n is the Sigma_n-homotopy-orbit complex of the sum, over
surjections {0..n-1} ->> {0..r-1}, of T_{n_1} (x) ... (x) T_{n_r} (x) A_n,
with T_* the tree cooperad.  T_* is the dual of the derivatives of the
identity, so it depends on the field alone: every model reads T(m) from
`trees.term`.  When the total module is free the strict orbit complex is
used and the result is exact.  One class, `SurjectionSum`, builds that sum
W(X, r) for any Sigma_n-module X in place of A_n; a tree factor's degree
is `trees.degree` of its label.  The
comultiplication delta_{r,s} is the identity of the model where s = n or
s = r; for r < s < n it comes from ungrafting decompositions of the tree
cooperad and lives in `topdelta`, which only arity-3 and arity-4 inputs run.
The counit is the identity of the collapsed diagonal (`laws.counit`
reads it for the law checks).  A component model holds K_r on maps as one
slot rule (`TopComponentModel.on_maps`), so no job module outside the
comonads reads a model's kind.  The Sp comonad is in `comonads`; the strict
comonad K' and the comparison nu : K -> K' are in `laws`.
"""

from __future__ import annotations

from . import chainops, combinat, equivops, sequences, topdelta, trees
from .chain import (
    ChainComplex, ChainMap, DegreeWindow, direct_sum, label_map, linear_map,
)
from .equivariant import EquivariantComplex, homotopy_orbits
from .perms import YoungGroup, transposition
from .sparse import SparseMatrix, vanishes


# ---------------------------------------------------------------------------
# The (x T) (x) A_n building block
# ---------------------------------------------------------------------------


class SurjectionSum(equivops.SlotwiseModel):
    """W(X, r) = (+)_{alpha: n ->> r} T_{f_1} (x) ... (x) T_{f_r} (x) X, with
    its Sigma_n and Sigma_r actions, for any Sigma_n-module X: a term A_n,
    an orbit model, or W(A, s) itself as a Sigma_s-module (the target of
    the comultiplication).

    Sigma_n acts by precomposition on surjections, relabeling the tree
    factors within fibers and acting on X.  Sigma_r acts by postcomposition,
    permuting the tree factors with Koszul signs.
    """

    def __init__(self, a: EquivariantComplex, r: int):
        self.a = a
        self.r = r
        self.n = a.group.degree
        F = a.field
        self.field = F
        n = self.n
        self.surjections = combinat.all_surjections(n, r)
        summands = []
        self.factors = {}
        for alpha in self.surjections:
            fibers = combinat.surjection_fibers(alpha, r)
            factors = [trees.term(F, len(f)).complex
                       for f in fibers] + [a.complex]
            summands.append(chainops.tensor_many(factors))
            self.factors[alpha] = fibers
        self.total = direct_sum(summands) if summands else ChainComplex(F, {})
        # label: ("surj", alpha, (tree labels..., a label))
        labels = {}
        for k in self.total.dims:
            labs = []
            for lab in self.total.labels[k]:
                idx, inner = lab
                labs.append(("surj", self.surjections[idx], inner))
            labels[k] = tuple(labs)
        self.total = ChainComplex(F, self.total.dims, self.total.diff, labels)
        self._sigma_r = None

    def sigma_n_action(self) -> EquivariantComplex:
        """The Sigma_n-equivariant structure on the total complex."""
        n = self.n
        group = YoungGroup.full(n)
        action = {}
        for gi in group.generator_positions():
            # an adjacent transposition is its own inverse
            s = transposition(n, gi)
            moves = {}
            for alpha in self.surjections:
                beta = tuple(alpha[s[i]] for i in range(n))
                # within fiber j: relabeling s: fib_a[j] -> fib_b[j]
                relabels = []
                for fa, fb in zip(self.factors[alpha], self.factors[beta]):
                    tgt_pos = {x: t for t, x in enumerate(fb)}
                    relabels.append({t: tgt_pos[s[x]]
                                     for t, x in enumerate(fa)})
                moves[alpha] = (beta, relabels)
            action[gi] = self._summand_map(moves, self.a.action[gi])
        return EquivariantComplex(self.total, group, action)

    def sigma_r_generator(self, gi) -> ChainMap:
        """Action of the adjacent transposition (gi, gi+1) of Sigma_r by
        postcomposition: permutes tree factors with Koszul signs."""
        s_r = transposition(self.r, gi)

        def image(k, lab):
            _, alpha, inner = lab
            tree_labs = list(inner[:-1])
            degs = [trees.degree(tl[1]) for tl in tree_labs]
            tree_labs[gi], tree_labs[gi + 1] = tree_labs[gi + 1], tree_labs[gi]
            beta = tuple(s_r[v] for v in alpha)
            return ((("surj", beta, tuple(tree_labs) + inner[-1:]),
                     -1 if degs[gi] % 2 and degs[gi + 1] % 2 else 1),)
        return linear_map(self.total, self.total, image)

    def sigma_r_action(self) -> EquivariantComplex:
        """The total complex as a Sigma_r-module under postcomposition,
        validated; built once per sum, which every model over it shares."""
        if self._sigma_r is None:
            group = YoungGroup.full(self.r)
            self._sigma_r = EquivariantComplex(self.total, group, {
                gi: self.sigma_r_generator(gi)
                for gi in group.generator_positions()}).validate()
        return self._sigma_r

    def on_maps(self, tgt: "SurjectionSum"):
        """trees (x) f : W(B, r) -> W(B', r) for f : B -> B' (`SlotwiseModel`),
        with the Koszul sign (-1)^{|f| |trees|} on ("surj", alpha, trees +
        (x,))."""
        def sign(lab):
            return -1 if sum(trees.degree(tl[1])
                             for tl in lab[2][:-1]) % 2 else 1
        return self.total, tgt.total, (2, -1), sign, None, None

    def _summand_map(self, moves, a_map) -> ChainMap:
        """The map sending summand alpha to summand beta, for (beta,
        relabels) = moves[alpha]: each tree factor relabeled along its
        relabeling, a_map on the A factor, no factor reordering."""
        a_src = self.a.complex
        cols = {k: m.by_column() for k, m in a_map.components.items()}

        def image(k, lab):
            _, alpha, inner = lab
            beta, relabels = moves[alpha]
            sgn = 1
            new_trees = []
            for tl, mapping in zip(inner[:-1], relabels):
                s2, t2 = trees.relabel_terms(tl[1], mapping)
                sgn *= s2
                new_trees.append(("tree", t2))
            new_trees = tuple(new_trees)
            adeg, ai = a_src.locate(inner[-1])
            alabs = a_src.labels[adeg]
            return [(("surj", beta, new_trees + (alabs[i],)), sgn * v)
                    for i, v in cols.get(adeg, {}).get(ai, {}).items()]
        return linear_map(self.total, self.total, image)


# ---------------------------------------------------------------------------
# Component models
# ---------------------------------------------------------------------------


class TopComponentModel(equivops.SlotwiseModel):
    """K_r A_n for the based-spaces-to-spectra comonad.

    Holds the chosen orbit model (collapsed / strict / windowed), the
    surjection sum W of a strict or windowed one (no job reads the W of a
    collapsed diagonal, so none is built there), the projection W -> model
    of a strict one with its certified unit section, and the Sigma_r
    structure."""

    def __init__(self, a: EquivariantComplex, r: int, w: DegreeWindow,
                 force_windowed=False):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.a = a
        self.r = r
        self.n = a.group.degree
        self.window = w
        F = a.field
        self.field = F
        n = self.n
        if r > n:
            self.kind = "zero"
            self.value = equivops.zero_module(F, r)
            self.exact = True
            self.sursum = None
            return
        if r == n and not force_windowed:
            # collapsed model: K_n A_n = A_n on the nose
            self.kind = "collapsed"
            self.value = a
            self.exact = True
            self.sursum = None
            return
        self.sursum = SurjectionSum(a, r)
        w_total = self.sursum.sigma_n_action()
        sr = self.sursum.sigma_r_action()
        if equivops.is_free(w_total) and not force_windowed:
            self.kind = "strict"
            q, proj = equivops.strict_orbits(w_total)
            self.proj = proj
            self.section = unit_section(proj)
            self.exact = True
            action = {gi: proj.compose(g.compose(self.section))
                      for gi, g in sr.action.items()}
            self.value = EquivariantComplex(q, sr.group, action).validate()
        else:
            self.kind = "windowed"
            self.exact = False
            model = homotopy_orbits(w_total, w)
            action = {gi: equivops.slotwise_map(model, model, g)
                      for gi, g in sr.action.items()}
            self.value = EquivariantComplex(model, sr.group, action)

    def like(self, a: EquivariantComplex, w: DegreeWindow):
        """K_r(a) at window w: windowed when this model is windowed, else in
        its natural kind.  A windowed model sizes its own resolution, so
        maps between it and this one stay slotwise."""
        return TopComponentModel(a, self.r, w,
                                 force_windowed=self.kind == "windowed")

    def on_maps(self, tgt: "TopComponentModel"):
        """K_r on maps from this model into tgt of the same kind
        (`SlotwiseModel`): f itself on collapsed diagonals, else the
        surjection sums' rule, between the unit section and the projection
        of strict models, in the W slot of windowed ones.  Models of two
        kinds raise ValueError: a map out of this model rebuilt like tgt
        would miss every map that lands on this one."""
        kinds = (self.kind, tgt.kind)
        if kinds == ("collapsed", "collapsed"):
            return self.value.complex, tgt.value.complex, (), None, None, None
        if kinds not in (("strict", "strict"), ("windowed", "windowed")):
            raise ValueError("K_%d on maps from a %s model into a %s one: "
                             "carrying theta across model kinds is ROADMAP "
                             "item 4" % ((self.r,) + kinds))
        source, target, path, sign, _, _ = self.sursum.on_maps(tgt.sursum)
        if self.kind == "strict":
            return source, target, path, sign, self.section, tgt.proj
        return (self.value.complex, tgt.value.complex, (3,) + path,
                lambda lab: sign(lab[3]), None, None)


def unit_section(proj: ChainMap) -> ChainMap:
    """A section q -> W of a quotient projection proj : W -> q: each basis
    vector of q goes to the first basis vector of W that proj sends to it
    with coefficient 1, certified degreewise by proj o section = id
    (ArithmeticError where that fails).  It need not commute with the
    differentials."""
    q, W, F = proj.target, proj.source, proj.field
    comps = {}
    for k in q.dims:
        sec = {}
        for (i, j), v in proj.component(k).items():
            if i not in sec and v == 1:
                sec[i] = j
        comps[k] = SparseMatrix.from_entries(
            W.dim(k), q.dim(k), F, {(j, i): 1 for i, j in sec.items()})
        if not vanishes([(1, proj.component(k), comps[k]),
                         (-1, SparseMatrix.identity(q.dim(k), F), None)]):
            raise ArithmeticError("no unit section for the quotient basis in "
                                  "degree %d" % k)
    return ChainMap(q, W, comps)


# ---------------------------------------------------------------------------
# The comonad and its comultiplication
# ---------------------------------------------------------------------------


class TopComonad:
    """The comonad K for functors from based spaces to spectra, truncation N.

    components[(r, n)] : TopComponentModel
    delta[(r, s, n)]   : ChainMap K_r A_n -> K_r K_s A_n (model of the outer
                         component built on the stored inner component)
    delta_inner[(r, s, n)] : the inner TopComponentModel (K_s A_n)
    delta_outer[(r, s, n)] : the outer TopComponentModel (K_r of it)
    """

    def __init__(self, a: sequences.SymmetricSequence, w: DegreeWindow):
        if a.truncation > 4:
            raise ValueError("arity bound exceeded (truncation <= 4)")
        self.a = a
        self.w = w
        self.field = a.field
        self.components = {}
        self.delta = {}
        self.delta_inner = {}
        self.delta_outer = {}
        self._inner_cache = {}
        for n in a.arities():
            term = a.term(n)
            for r in range(1, n + 1):
                self.components[(r, n)] = TopComponentModel(term, r, w)
        for n in a.arities():
            for s in range(1, n + 1):
                for r in range(1, s + 1):
                    self._build_delta(r, s, n)

    def component(self, r, n) -> TopComponentModel | None:
        return self.components.get((r, n))

    def kq_theta(self, theta: ChainMap, q, s, n) -> ChainMap | None:
        """K_q(theta~) : K_q A_s -> delta_outer[(q, s, n)], for s < n and
        theta : A_s -> K_s A_n in the component model, where theta~ is theta
        followed by the strict label map into the comultiplication's inner
        model delta_inner[(q, s, n)] (the same basis, or wider when
        windowed).  None when the comultiplication has no such
        component."""
        inner = self.delta_inner.get((q, s, n))
        outer = self.delta_outer.get((q, s, n))
        if inner is None or outer is None:
            return None
        wide = inner.value.complex
        if not theta.target.same_basis(wide):
            theta = label_map(theta.target, wide).compose(theta).validate()
        return self.component(q, s).apply(theta, outer)

    def _build_delta(self, r, s, n):
        comp = self.components[(r, n)]
        if s == n or s == r:
            # collapsed inner or outer: the map is the identity on the model
            self.delta[(r, s, n)] = ChainMap.identity(comp.value.complex)
            self.delta_inner[(r, s, n)] = self.components.get((s, n))
            self.delta_outer[(r, s, n)] = comp
            return
        # genuine case r < s < n
        term = self.a.term(n)
        inner = self._inner_cache.get((s, n))
        if inner is None:
            inner = TopComponentModel(term, s, self.w.expand(n + 1))
            self._inner_cache[(s, n)] = inner
        comp2, total_map, outer = topdelta.build_top_delta(
            term, comp, inner, r, s, self.w)
        self.components[(r, n)] = comp2
        self.delta[(r, s, n)] = total_map
        self.delta_inner[(r, s, n)] = inner
        self.delta_outer[(r, s, n)] = outer
