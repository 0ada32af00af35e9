"""The Top comultiplication delta_{r,s} : K_r A_n -> K_r K_s A_n for
r < s < n.

Ungrafting the tree cooperad maps the surjection sum W(A, r) into
W(W(A, s), r), the surjection sum of W(A, s) as a Sigma_s-module, summed
over the factorizations beta = gamma o alpha of each surjection; the map then
goes on to the outer orbit model.  When both orbit models are strict it runs
through their projections and unit section; otherwise it is one map between
the windowed models, applied in the W slot of each orbit label, whose
resolution slot then moves inside the inner factor.  Only the genuine branch
of `topcomonad.TopComonad._build_delta`, which arity-3 and arity-4 inputs
reach, and the law checks in `laws` run this module.
"""

from __future__ import annotations

from . import combinat, trees
from .chain import ChainMap, DegreeWindow, linear_map
from .equivariant import EquivariantComplex
from .topcomonad import SurjectionSum, TopComponentModel


def _factorizations(beta, s):
    """All (gamma, alpha) with beta = gamma o alpha, alpha: n ->> s,
    gamma: s ->> r."""
    n = len(beta)
    r = max(beta) + 1
    out = []
    for alpha in combinat.all_surjections(n, s):
        # gamma exists iff beta is constant on alpha-fibers
        gamma = {}
        ok = True
        for i in range(n):
            g = gamma.get(alpha[i])
            if g is None:
                gamma[alpha[i]] = beta[i]
            elif g != beta[i]:
                ok = False
                break
        if not ok:
            continue
        gv = tuple(gamma[j] for j in range(s))
        if len(set(gv)) == r:
            out.append((gv, alpha))
    return out


def top_delta_on_sums(sur_r: SurjectionSum, pre: SurjectionSum) -> ChainMap:
    """The tree-splitting map W(A, r) -> pre = W(W(A, s), r), summed over all
    factorizations beta = gamma o alpha with alpha : n ->> s."""
    F = sur_r.field
    r, s = sur_r.r, pre.n
    # per beta and factorization, per tree T_{beta^{-1}(j)}: the blocks of
    # local leaf positions it splits along, sorted by their least position,
    # each with the index of its alpha fiber
    splits = {}
    for beta in sur_r.surjections:
        splits[beta] = out = []
        for gamma, alpha in _factorizations(beta, s):
            alpha_fibers = combinat.surjection_fibers(alpha, s)
            per_tree = []
            for bf, gf in zip(sur_r.factors[beta],
                              combinat.surjection_fibers(gamma, r)):
                posmap = {x: t for t, x in enumerate(bf)}
                per_tree.append(sorted(
                    (tuple(sorted(posmap[x] for x in alpha_fibers[i])), i)
                    for i in gf))
            out.append((gamma, alpha, per_tree))

    def image(k, lab):
        _, beta, inner = lab
        a_degree = sur_r.a.complex.locate(inner[-1])[0]
        terms = []
        for gamma, alpha, per_tree in splits[beta]:
            split = _split_trees(inner, per_tree, a_degree, s)
            if split is not None:
                sign, uppers, lowers = split
                inner_lab = ("surj", alpha, lowers + inner[-1:])
                terms.append((("surj", gamma, uppers + (inner_lab,)),
                              F.coerce(sign)))
        return terms
    return linear_map(sur_r.total, pre.total, image, partial=True).validate()


def _split_trees(inner, per_tree, a_degree, s):
    """Split tree j of the label tuple inner along the blocks of
    per_tree[j]: (sign, upper trees by j, lower trees by alpha fiber), or
    None when a decomposition vanishes.  The sign is the product of the
    decomposition signs and the Koszul sign of reordering the word
    (upper_j, its lowers)_j, a into (uppers, lowers by fiber, a)."""
    r = len(per_tree)
    sign = 1
    uppers, lowers = [], [None] * s
    word = []   # (target position, degree), in source order
    for j, blocks in enumerate(per_tree):
        dec = trees.decompose(inner[j][1], tuple(b for b, _ in blocks))
        if dec is None:
            return None
        sgn_j, upper, lows = dec
        sign *= sgn_j
        uppers.append(("tree", upper))
        word.append((j, trees.degree(upper)))
        for (_, i), low in zip(blocks, lows):
            lowers[i] = ("tree", low)
            word.append((r + i, trees.degree(low)))
    word.append((r + s, a_degree))
    sign *= combinat.koszul_sign([p for p, _ in word], [d for _, d in word])
    return sign, tuple(uppers), tuple(lowers)


def _slot_inside(lab):
    """("hG", s, gen, ("surj", gamma, trees + (w,))) ->
    ("surj", gamma, trees + (("hG", s, gen, w),))."""
    tag, s, gen, (_, gamma, inner) = lab
    return ("surj", gamma, inner[:-1] + ((tag, s, gen, inner[-1]),))


def build_top_delta(term: EquivariantComplex, comp: TopComponentModel,
                    inner: TopComponentModel, r: int, s: int, w: DegreeWindow):
    """delta_{r,s} : K_r(term) -> K_r(inner model of K_s(term)).

    The tree splitting maps W(A, r) into pre = W(W(A, s), r), the surjection
    sum of W(A, s) as a Sigma_s-module, and on into the outer model K_r of
    the inner model's value.  Returns (possibly rebuilt source component,
    chain map, outer model)."""
    n = term.group.degree
    if s == n or s == r:
        # collapsed inner or outer: the comultiplication is the identity
        return comp, ChainMap.identity(comp.value.complex), comp
    pre = SurjectionSum(inner.sursum.sigma_r_action(), r)
    dpre = top_delta_on_sums(comp.sursum, pre)
    if comp.kind == "strict" and inner.kind == "strict":
        # the inner factor's Sigma_n-orbits, then the outer Sigma_s-orbits
        outer = TopComponentModel(inner.value, r, w)
        total_map = outer.proj.compose(pre.apply(
            inner.proj, outer.sursum).compose(dpre).compose(comp.section))
    else:
        if comp.kind != "windowed":
            comp = TopComponentModel(term, r, w, force_windowed=True)
        if inner.kind != "windowed":
            inner = TopComponentModel(term, s, inner.window,
                                      force_windowed=True)
        outer = TopComponentModel(inner.value, r, w, force_windowed=True)
        cols = {k: m.by_column() for k, m in dpre.components.items()}

        def image(k, lab):
            # dpre in the W slot, then the resolution slot moves inside the
            # inner factor, at the outer model's resolution-0 slot
            tag, t, gen, x = lab
            p, j = dpre.source.locate(x)
            return [(("hG", 0, 0, _slot_inside(
                (tag, t, gen, dpre.target.labels[p][i]))), v)
                for i, v in cols.get(p, {}).get(j, {}).items()]
        total_map = linear_map(comp.value.complex, outer.value.complex,
                               image, partial=True)
    total_map.validate()
    return comp, total_map, outer
