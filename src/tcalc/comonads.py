"""The spectrum-to-spectrum comonad.

``SpComonad`` models the spectrum-to-spectrum case at truncation <= 3
through its Tate identifications: K_r A_r = A_r, K_1 A_2 = Tate_{S2}(A_2),
K_1 A_3 = Tate_{S3}(L_3 (x) A_3), and K_2 A_3 = the induced Sigma_2-pair of
Tate_{S1xS2}(A_3).  Iterated components K_r K_s A_n with r < s < n are
acyclic (the swap permutes the two partition summands) and are dropped,
and with them the comultiplication, whose other components are identities:
`SpComonad.delta` is empty, and a coherence square without a
comultiplication is vacuous.

The strict right-module comonad K' and the norm comparison nu from the Top
comonad live in `laws`: no subcommand runs them.
"""

from __future__ import annotations

from . import combinat, equivops, sequences
from .chain import (
    ChainComplex, ChainMap, DegreeWindow, direct_sum, label_map, linear_map,
)
from .equivariant import EquivariantComplex, tate
from .perms import YoungGroup, compose, inverse, transposition
from .sparse import SparseMatrix


# ---------------------------------------------------------------------------
# The Sp comonad's carriers: L_3 and the surjection index
# ---------------------------------------------------------------------------


def l3_complex(field) -> EquivariantComplex:
    """Reduced cellular chains of the singular set in the 3-excisive sphere
    analysis: two fixed vertices, three edges permuted by conjugation on the
    transpositions of Sigma_3, every boundary the difference of the vertices."""
    S3 = YoungGroup.full(3)
    # degree 0: the reduced class w = v_1 - v_0 (trivial action)
    # degree 1: edges e_t indexed by transpositions t = (01), (02), (12)
    transpositions = [(1, 0, 2), (2, 1, 0), (0, 2, 1)]
    dims = {0: 1, 1: 3}
    labels = {0: (("l3", "w"),),
              1: tuple(("l3", t) for t in transpositions)}
    d1 = SparseMatrix.from_rows([[1, 1, 1]], field)
    c = ChainComplex(field, dims, {1: d1}, labels).validate()

    def conjugation(s):
        def image(k, lab):
            if k == 0:
                return ((lab, 1),)
            return ((("l3", compose(compose(s, lab[1]), inverse(s))), 1),)
        return linear_map(c, c, image)
    action = {gi: conjugation(transposition(3, gi))
              for gi in S3.generator_positions()}
    return EquivariantComplex(c, S3, action).validate()


def tensor_with_surjection_index(a: EquivariantComplex, r) -> EquivariantComplex:
    """A (x) k[Surj(n, r)] with Sigma_n acting diagonally: A's action in the
    A slot of each ("sidx", alpha, A-label), then precomposition on the
    index alpha.  Carries the Sigma_r postcomposition action via
    ``sp_sigma_r_generator``."""
    n = a.group.degree
    surjs = combinat.all_surjections(n, r)
    c = a.complex
    copies = direct_sum([c] * len(surjs))
    total = ChainComplex(a.field, copies.dims, copies.diff, {
        k: tuple(("sidx", surjs[t], lab) for t, lab in labs)
        for k, labs in copies.labels.items()})

    def act(gi):
        s = transposition(n, gi)    # its own inverse
        index = label_map(total, total, key=lambda lab: (
            "sidx", tuple(lab[1][s[i]] for i in range(n)), lab[2]))
        return index.compose(
            equivops.slotwise_map(total, total, a.action[gi], slot=2))
    return EquivariantComplex(total, a.group, {
        gi: act(gi) for gi in a.group.generator_positions()})


def sp_sigma_r_generator(value: ChainComplex, r, gi) -> ChainMap:
    """Postcomposition action of the transposition (gi, gi+1) of Sigma_r on a
    complex whose labels carry ("sidx", alpha, _) markers, slotwise."""
    s_r = transposition(r, gi)
    return label_map(value, value, key=lambda lab: _relabel_sidx(lab, s_r))


def _relabel_sidx(lab, s_r):
    if isinstance(lab, tuple):
        if len(lab) == 3 and lab[0] == "sidx":
            alpha = tuple(s_r[v] for v in lab[1])
            return ("sidx", alpha, _relabel_sidx(lab[2], s_r))
        return tuple(_relabel_sidx(x, s_r) if isinstance(x, tuple) else x
                     for x in lab)
    return lab


def coaugment_invariants(sub_incl: ChainMap,
                         fixed_model: ChainComplex) -> ChainMap:
    """Strict invariants -> homotopy fixed model, via the degree-0 slot.

    sub_incl : invariants -> W is the inclusion of the invariant subcomplex;
    an invariant element x maps to the functional f(gen_0, g) = g.x = x."""
    return label_map(sub_incl.target, fixed_model, partial=True,
                     key=lambda lab: ("hGf", 0, 0, lab)).compose(sub_incl)


# ---------------------------------------------------------------------------
# The spectrum-to-spectrum comonad at truncation <= 3
# ---------------------------------------------------------------------------


class SpComponentModel(equivops.SlotwiseModel):
    """K_r A_n for the spectra-to-spectra comonad, truncation <= 3.

    Uniform model: K_r A_n = Tate_{Sigma_n}(L (x) A_n (x) k[Surj(n, r)]) with
    L = the singular-set complex for (r, n) = (1, 3) and trivial otherwise;
    the diagonal (r = n) collapses to A_n itself."""

    def __init__(self, a: EquivariantComplex, r: int, w: DegreeWindow):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.a = a
        self.r = r
        self.n = a.group.degree
        F = a.field
        self.field = F
        n = self.n
        if n > 3:
            raise ValueError("sp comonad implemented for truncation <= 3")
        if r > n:
            self.kind = "zero"
            self.value = equivops.zero_module(F, r)
            return
        if r == n:
            self.kind = "collapsed"
            self.value = a
            return
        self.kind = "tate"
        base = a
        if (r, n) == (1, 3):
            base = equivops.equivariant_tensor(l3_complex(F), a)
        model = tate(tensor_with_surjection_index(base, r), w)
        action = {}
        for gi in YoungGroup.full(r).generator_positions():
            action[gi] = sp_sigma_r_generator(model, r, gi)
        self.value = EquivariantComplex(model, YoungGroup.full(r), action)

    def on_maps(self, tgt: "SpComponentModel"):
        """K_r on maps into tgt (`SlotwiseModel`): f itself on collapsed
        diagonals, else at the A-label in (cone part, ("hG"/"hGf", s, gen,
        ("sidx", alpha, A-label or (l3 label, A-label)))), with a Koszul
        sign for "cone-src" and for an l3 edge.  For |f| != 0, K_r(f) need
        not commute with d in the outer |f| degrees of the truncation."""
        if self.kind == "collapsed":
            return self.value.complex, tgt.value.complex, (), None, None, None
        if self.kind != "tate" or tgt.kind != "tate":
            raise ValueError("sp K on maps needs matching tate models")
        l3 = (self.r, self.n) == (1, 3)

        def sign(lab):
            odd = (lab[0] == "cone-src") != (l3 and lab[1][3][2][0][1] != "w")
            return -1 if odd else 1
        return (self.value.complex, tgt.value.complex,
                (1, 3, 2, 1) if l3 else (1, 3, 2), sign, None, None)


class SpComonad:
    """The comonad for functors from spectra to spectra, truncation <= 3.

    Nested off-diagonal components K_r K_s A_n with r < s < n are acyclic
    (the swap permutes the two partition summands of K_2 A_3) and are
    dropped, so `delta` and `delta_outer` are empty."""

    def __init__(self, a: sequences.SymmetricSequence, w: DegreeWindow):
        if a.truncation > 3:
            raise ValueError("sp comonad bounded at truncation 3")
        self.a = a
        self.w = w
        self.field = a.field
        self.components = {}
        self.delta = {}
        self.delta_outer = {}
        for n in a.arities():
            term = a.term(n)
            for r in range(1, n + 1):
                self.components[(r, n)] = SpComponentModel(term, r, w)

    def component(self, r, n) -> SpComponentModel | None:
        return self.components.get((r, n))
