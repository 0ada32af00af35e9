"""The cobar construction Phi K^bullet A_{<= n} of a Top-source coalgebra
at a finite pointed set X, for a top arity n <= 2: a stage n <= 2 of a
deeper coalgebra reads its terms of arity <= n and its theta_{1,2}.

Phi(A)(X) has the exact diagonal summands (A_n (x) k[Inj(n, X)])^{Sigma_n};
the (1, 2) slot is the homotopy-orbit model of A_2 (x) St(1,2)(X), the
stratified cone standing in for the Top comonad's K_1 A_2 (see
`TopCobarBuilder`).  The index walk of the cofaces and codegeneracies lives
in `tower._Levels`; this builder supplies the pieces and its two maps off
the diagonal, the unit u12 : A_2 -> slot (1, 2) and theta12 : A_1 -> slot
(1, 2).  Each is one composite of relabellings and existing maps into the
slot, theta12 through theta_{1,2} (x) id_X (`chainops.tensor_map`), so the
slot is the only orbit model the builder makes.
"""

from __future__ import annotations

from itertools import permutations

from . import chainops, equivops
from .chain import ChainComplex, ChainMap, label_map, linear_map
from .equivariant import EquivariantComplex, homotopy_orbits
from .perms import YoungGroup, transposition
from .tower import _Levels


def tuple_module(field, r, tuples, tag):
    """k[tuples] as a Sigma_r permutation module, Sigma_r permuting the
    coordinates of the r-tuples, each labelled (tag, tuple); None when there
    are no tuples."""
    if not tuples:
        return None
    group = YoungGroup.full(r)
    pos = {t: i for i, t in enumerate(tuples)}
    table = {}
    for gi in group.generator_positions():
        sperm = transposition(r, gi)
        table[gi] = [pos[tuple(t[sperm[i]] for i in range(r))]
                     for t in tuples]
    return equivops.permutation_module(
        field, group, [(tag, t) for t in tuples], table)


def diagonal_phi_term(field, term, site_m):
    """(A_n (x) Inj_n)^{Sigma_n}: the exact diagonal summand of Phi(A)(X)."""
    n = term.group.degree
    inj = tuple_module(field, n, list(permutations(range(site_m), n)), "inj")
    if inj is None or term.complex.is_zero():
        return None
    tensored = equivops.equivariant_tensor(term, inj)
    inv, incl = equivops.strict_fixed(tensored)
    return {"complex": inv, "inclusion": incl, "tensored": tensored}


def stratified_cone(field, m):
    """St(1,2)(X): cone(k[2-tuples] -> k[injective 2-tuples]) as a
    Sigma_2-complex; quasi-isomorphic to the suspended diagonal."""
    tuples = [(a, b) for a in range(m) for b in range(m)]
    injs = [(a, b) for a in range(m) for b in range(m) if a != b]
    dims = {1: len(tuples), 0: len(injs)}
    labels = {1: tuple(("tup", t) for t in tuples),
              0: tuple(("itup", t) for t in injs)}
    # d sends an injective tuple to minus its copy; the others bound nothing
    bare = ChainComplex(field, dims, None, labels)
    d = linear_map(bare, bare, lambda k, lab: ((("itup", lab[1]), -1),),
                   degree=-1, partial=True)
    c = ChainComplex(field, dims, d.components, labels).validate()
    swap = linear_map(c, c, lambda k, lab: (((lab[0], lab[1][::-1]), 1),))
    return EquivariantComplex(c, YoungGroup.full(2), {0: swap}).validate()


class TopCobarBuilder(_Levels):
    """Phi K^bullet A_{<= n} at a finite pointed set, for a top arity
    n <= 2, on the coalgebra's own terms of arity <= n and its theta.

    The (1,2)-type slots use the stratified cone model
    orbit_{Sigma_2}(A_2 (x) cone(tuples -> injective tuples)): it receives
    the counit-side inclusion from the invariants summand and the theta-side
    translation from the tree model, so every coface is an honest chain map.
    At arity gap >= 2 the unit has no strict small model, so no route runs a
    based-spaces tower above truncation 2.  Off the diagonal the index walk
    of `_Levels` reaches only the slot (1, 2): delta^0 from A_2 (`u12`) and
    delta^1 from A_1 (`th12`), each built once."""

    def __init__(self, coalgebra, site, n):
        c = coalgebra
        if n > 2:
            raise ValueError("no route runs a based-spaces tower above "
                             "truncation 2 in this build")
        self.c = c
        self.site = site
        F = c.field
        self.field = F
        m = site.size
        seq = c.sequence
        self.diag = {a: diagonal_phi_term(F, seq.term(a), m)
                     for a in seq.arities() if a <= n}
        self.slot12 = None
        if n >= 2 and seq.term(2) is not None and m >= 1 \
                and self.diag.get(2) is not None:
            st = stratified_cone(F, m)
            carrier = equivops.equivariant_tensor(seq.term(2), st)
            self.carrier12 = carrier
            self.slot12 = homotopy_orbits(carrier, c.window)
        keys0 = [(a,) for a in sorted(self.diag) if self.diag[a] is not None]
        keys1 = sorted([(a, a) for (a,) in keys0] +
                       ([(1, 2)] if self.slot12 is not None else []))
        keys = [keys0, keys1][:n]
        super().__init__(F, {lvl: {k: self._slot(k[0], k[-1]) for k in ks}
                             for lvl, ks in enumerate(keys)})
        self.u12 = self._u12_map() if self.slot12 is not None else None
        self.th12 = self._theta12_map()

    def _outer(self, m, sk, tk):
        return self.u12

    def _inner(self, m, sk, tk):
        return self.th12

    def _slot(self, r, n):
        if r == n:
            return self.diag[n]["complex"]
        return self.slot12

    def _u12_map(self) -> ChainMap:
        """(A_2 (x) I^2)^{inv} -> slot12: invariants into the injective-tuple
        cone part, at the resolution-0 slot."""
        d2 = self.diag[2]
        carrier = self.carrier12.complex
        to_carrier = label_map(d2["tensored"].complex, carrier,
                               key=lambda lab: (lab[0], ("itup", lab[1][1])),
                               partial=True)
        iota = label_map(carrier, self.slot12,
                         key=lambda lab: ("hG", 0, 0, lab), partial=True)
        return iota.compose(to_carrier).compose(d2["inclusion"]).validate()

    def _theta12_map(self):
        """A_1 (x) X -> slot12, one composite validated once: the inclusion
        of the invariants, the relabelling of Inj(1, X) onto the points of
        X, theta_{1,2} (x) id_X, and the tree-to-cone translation
        t (x) a (x) x -> (-1)^{|a|} a (x) (x,x) inside each orbit label
        ("hG", s, gen, .) of K_1 A_2 (x) X."""
        th = self.c.theta_map(1, 2)
        if th is None or self.slot12 is None:
            return None
        m = self.site.size
        xmod = ChainComplex(self.field, {0: m},
                            labels={0: tuple(("pt", x) for x in range(m))})
        th_x = chainops.tensor_map(th, ChainMap.identity(xmod))
        d1 = self.diag[1]
        to_x = label_map(d1["tensored"].complex, th_x.source,
                         key=lambda lab: (lab[0], ("pt", lab[1][1][0])))
        a2 = self.c.sequence.term_complex(2)

        def translate(k, lab):
            (tag, s, gen, (_, _, inner)), (_, x) = lab
            sgn = -1 if a2.locate(inner[-1])[0] % 2 else 1
            return (((tag, s, gen, (inner[-1], ("tup", (x, x)))), sgn),)
        to_slot = linear_map(th_x.target, self.slot12, translate, partial=True)
        return to_slot.compose(th_x).compose(to_x).compose(
            d1["inclusion"]).validate()
