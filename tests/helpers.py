"""Shared generators and oracles for the test suite."""

import random
import sys

from tcalc import classify, tower
from tcalc.chain import (
    ChainComplex, ChainMap, DegreeWindow, block_map, direct_sum, label_map,
    sphere,
)
from tcalc.chainops import factor_through, shift, transport
from tcalc.coalgebras import TruncatedCoalgebra, trivial_coalgebra
from tcalc.derivedhom import equivariant_hom_complex
from tcalc.equivariant import EquivariantComplex, regular_module, trivial_action
from tcalc.laws import hom_element_to_map, map_to_hom_element
from tcalc.perms import YoungGroup, compose, transposition
from tcalc.sequences import SymmetricSequence
from tcalc.sparse import SparseMatrix, nullspace


def triv(F, n, deg=0, label="a"):
    return trivial_action(sphere(F, deg, label="%s%d" % (label, n)),
                          YoungGroup.full(n))


def truncate(c: ChainComplex, lo, hi) -> ChainComplex:
    """Brutal truncation of c to degrees [lo, hi]; homology certified on
    (lo, hi)."""
    dims = {k: n for k, n in c.dims.items() if lo <= k <= hi}
    diff = {k: m for k, m in c.diff.items() if lo + 1 <= k <= hi}
    return ChainComplex(c.field, dims, diff, {k: c.labels[k] for k in dims})


def unit_sequence(field, truncation=1) -> SymmetricSequence:
    one = trivial_action(sphere(field, 0, label="unit"), YoungGroup.full(1))
    return SymmetricSequence(field, truncation, {1: one})


def sign_action(complex: ChainComplex, group: YoungGroup) -> EquivariantComplex:
    F = complex.field
    neg = F.neg(F.one())
    act = {i: ChainMap.identity(complex).scale(neg)
           for i in group.generator_positions()}
    return EquivariantComplex(complex, group, act)


def induced_from_trivial_subgroup(pieces, group: YoungGroup) -> EquivariantComplex:
    """k[G] (x) V presented as a direct sum of |G| copies of V permuted by G.

    `pieces` is a single ChainComplex V; the result is free.
    """
    elements = group.elements()
    parts = [pieces] * len(elements)
    total = direct_sum(parts)
    pos = {g: i for i, g in enumerate(elements)}
    ident = ChainMap.identity(pieces)
    action = {}
    for gi in group.generator_positions():
        s = transposition(group.degree, gi)
        action[gi] = block_map(total, total, parts, parts,
                               {(t, pos[compose(s, g)]): ident
                                for t, g in enumerate(elements)})
    return EquivariantComplex(total, group, action)


def staircase_sequence(F, N, top_deg=0, label="a"):
    """Terms A_r = k in degree (N - r) + top_deg: every theta target is
    populated."""
    terms = {}
    for r in range(1, N + 1):
        terms[r] = triv(F, r, deg=(N - r) + top_deg, label=label)
    return SymmetricSequence(F, N, terms)


def random_term(rng, F, n, degs=(0, 1), label="a"):
    """A small random equivariant term: trivial, regular, or a sum."""
    kind = rng.choice(["trivial", "regular", "sum"])
    g = YoungGroup.full(n)
    if kind == "trivial":
        return trivial_action(sphere(F, rng.choice(degs),
                                     label="%s%d" % (label, n)), g)
    if kind == "regular":
        return regular_module(F, g, degree=rng.choice(degs))
    c = direct_sum([sphere(F, d, label="%s%d_%d" % (label, n, i))
                    for i, d in enumerate(rng.sample(list(degs),
                                                     min(2, len(degs))))])
    return trivial_action(c, g)


def equivariant_theta_space(c, r, n):
    """Basis of Sigma_r-equivariant chain maps A_r -> K_r A_n: the degree-0
    cycles of the invariants of Hom(A_r, K_r A_n), pushed into Hom."""
    a_r = c.sequence.term(r)
    value = c.komonad.component(r, n).value
    h, inv, incl = equivariant_hom_complex(a_r, value)
    return [hom_element_to_map(h, a_r.complex, value.complex,
                               incl.component(0).apply(z))
            for z in nullspace(inv.d(0))]


def random_theta(c, r, n, rng, allow_zero=False):
    maps = equivariant_theta_space(c, r, n)
    if not maps:
        return None
    F = c.field
    out = ChainMap.zero(c.sequence.term_complex(r),
                        c.komonad.component(r, n).value.complex)
    for m in maps:
        if rng.random() < 0.5:
            out = out + m
    if out.is_zero() and not allow_zero:
        out = maps[rng.randrange(len(maps))]
    return out


def random_valid_coalgebra(rng, F, source, N, w, staircase=True):
    """A random valid coalgebra: sp sources at N <= 3 have no compatibility
    conditions; top sources use N <= 2 (likewise condition-free) or trivial
    theta at N = 3."""
    if staircase:
        seq = staircase_sequence(F, N)
    else:
        terms = {n: random_term(rng, F, n) for n in range(1, N + 1)}
        seq = SymmetricSequence(F, N, terms)
    c0 = trivial_coalgebra(source, seq, w)
    theta = {}
    pairs = [(r, n) for n in range(2, N + 1) for r in range(1, n)]
    if source == "top" and N >= 3:
        pairs = []  # keep coherence for free: trivial structure
    for (r, n) in pairs:
        th = random_theta(c0, r, n, rng, allow_zero=True)
        if th is not None and not th.is_zero():
            theta[(r, n)] = th
    return TruncatedCoalgebra(source, seq, w, theta, komonad=c0.komonad)


def kq_theta_by_columns(builder, m, sk, tk):
    """The reference for delta^0's block of a DerivedHomBuilder out of
    (m, sk) into (m + 1, tk): h |-> K_q(h) o theta composed one invariant
    basis element h at a time, through the model's K on maps, and factored
    through the target invariants; not validated."""
    src, tgt = builder.hom[m][sk], builder.hom[m + 1][tk]
    q, r = tk[0], sk[0]
    c = builder.c
    theta = c.theta_map(q, r)
    if theta is None:
        return ChainMap.zero(src["inv"], tgt["inv"])
    model = c.komonad.component(q, r)
    img = {}
    for k in src["inv"].dims:
        inc = src["incl"].component(k).by_column()
        cols = []
        for j in range(src["inv"].dim(k)):
            f = hom_element_to_map(src["full"], c.sequence.term_complex(r),
                                   builder.pieces[m][sk].complex,
                                   inc.get(j, {}), degree=k)
            kf = model.apply(f, tower.chain_model(builder.K, tk))
            th = transport(theta, target=kf.source)
            cols.append(map_to_hom_element(tgt["full"], kf.compose(th)))
        img[k] = SparseMatrix.from_columns(cols, tgt["full"].dim(k), c.field)
    return factor_through(ChainMap(src["inv"], tgt["full"], img),
                          tgt["incl"])


def widened(c, e):
    """c with every comonad model built over its window expanded by e on
    each side, and theta carried over by label: every basis vector of its
    target must have a counterpart, and theta must stay a chain map."""
    w = c.window.expand(e)
    komonad = TruncatedCoalgebra(c.source, c.sequence, w).komonad
    theta = {key: label_map(f.target, komonad.component(*key).value.complex)
             .compose(f).validate()
             for key, f in c.theta.items()}
    return TruncatedCoalgebra(c.source, c.sequence, w, theta, komonad=komonad)


def corrupt_square_map(monkeypatch, which, mutate):
    """Make classify.mccarthy_square_check see mutate(f) in place of one
    map f of its square: 0 the tower map P_n -> P_{n-1}, 1 the map to the
    fixed corner, 2 the bottom map, 3 the right map into the Tate corner.

    The square check reads 0 from tower.tower_map, 1 as the level-0
    tower.tot_projection of P_n's Tot, and 2 and 3 as the blocks of
    tower.corner_map out of P_{n-1} and out of the fixed corner (3 negated,
    as gamma holds it).  Only the calls the square check makes itself are
    patched: its P_{n-1} arity projections, its homotopy and the pullback
    route pass through unchanged.  Returns a dict whose "calls" counts the
    maps mutated; one square check mutates exactly one."""
    tower_map = tower.tower_map
    projection = tower.tot_projection
    corner_map = tower.corner_map
    square_check = classify.mccarthy_square_check.__code__
    count = {"calls": 0}
    p_n_tot = [None]    # the source of the last tower map

    def own_call(f):
        # frame 1 is the patched function, frame 2 the one that called it
        if sys._getframe(2).f_code is not square_check:
            return f
        count["calls"] += 1
        return mutate(f)

    def patched_tower_map(*args, **kwargs):
        tm = dict(tower_map(*args, **kwargs))
        p_n_tot[0] = tm["source"]["complex"]
        if which == 0:
            tm["map"] = own_call(tm["map"])
        return tm
    monkeypatch.setattr(tower, "tower_map", patched_tower_map)
    if which == 1:
        def patched(builder, tot, m, keys):
            f = projection(builder, tot, m, keys)
            return own_call(f) if m == 0 and tot is p_n_tot[0] else f
        monkeypatch.setattr(tower, "tot_projection", patched)
    elif which in (2, 3):
        def patched(builder, n, stage, projections):
            g = corner_map(builder, n, stage, projections)
            parts = [stage, tower._piece(builder, 0, (n,))]
            blocks = [g.compose(label_map(p, g.source,
                                          key=lambda lab, i=i: (i, lab)))
                      for i, p in enumerate(parts)]
            blocks[which - 2] = own_call(blocks[which - 2])
            return block_map(g.source, g.target, parts, [g.target],
                             {(0, 0): blocks[0], (1, 0): blocks[1]})
        monkeypatch.setattr(tower, "corner_map", patched)
    return count


# hand-coded resolution oracles ------------------------------------------------

def bs2_oracle(k):
    """H_k(B Sigma_2; F_2) from the 2-periodic resolution."""
    return 1 if k >= 0 else 0


def tate_s2_oracle(k):
    """Tate of the trivial module over F_2 Sigma_2: the 2-periodic complete
    resolution gives dimension 1 in every degree."""
    return 1


def s3_f3_oracle(k):
    """H_k(Sigma_3; F_3): the 4-periodic pattern 1,0,0,1 starting at 0."""
    return 1 if k >= 0 and k % 4 in (0, 3) else 0
