"""Equivariant constructions that the comonad and tower layers build:
strict orbits and fixed points, the free-action test, permutation and zero
modules, the diagonal tensor of two modules, and maps applied in one slot
of a model's tuple labels (`slotwise_map`, `SlotwiseModel`).

They live apart from `equivariant`, which holds the action, the resolutions
and the windowed homotopy orbit, fixed and Tate models, so that `tate` does
not compile them.
"""

from __future__ import annotations

from . import chainops
from .chain import ChainComplex, ChainMap, linear_map
from .equivariant import EquivariantComplex
from .perms import YoungGroup, identity_perm
from .sparse import SparseMatrix


def zero_module(field, r) -> EquivariantComplex:
    """The zero complex with the zero action of Sigma_r."""
    z = ChainComplex(field, {})
    group = YoungGroup.full(r)
    return EquivariantComplex(z, group, {gi: ChainMap.zero(z, z)
                                         for gi in group.generator_positions()})


def permutation_module(field, group: YoungGroup, labels, action_table,
                       degree=0) -> EquivariantComplex:
    """Chain complex concentrated in one degree with a G-set action.

    action_table: {generator position: [image index per basis element]}.
    """
    n = len(labels)
    c = ChainComplex(field, {degree: n}, labels={degree: tuple(labels)})
    act = {}
    for i in group.generator_positions():
        if i not in action_table:
            raise ValueError("missing action for generator %d" % i)
        images = action_table[i]
        if sorted(images) != list(range(n)):
            raise ValueError("invalid action table for generator %d" % i)
        m = SparseMatrix.from_entries(n, n, field, {
            (img, j): 1 for j, img in enumerate(images)})
        act[i] = ChainMap(c, c, {degree: m})
    return EquivariantComplex(c, group, act).validate()


def equivariant_tensor(a: EquivariantComplex,
                       b: EquivariantComplex) -> EquivariantComplex:
    """Tensor of two complexes over the same group, diagonal action."""
    if a.group != b.group:
        raise ValueError("group mismatch")
    t = chainops.tensor(a.complex, b.complex)
    return EquivariantComplex(t, a.group, {
        gi: chainops.tensor_map(a.action[gi], b.action[gi])
        for gi in a.group.generator_positions()})


def _generator_maps(a: EquivariantComplex):
    return [a.action[i] for i in a.group.generator_positions()]


def strict_fixed(a: EquivariantComplex):
    """Subcomplex of invariants; returns (complex, inclusion ChainMap)."""
    c = a.complex
    gens = _generator_maps(a)
    constraints = {
        k: [g.component(k) - SparseMatrix.identity(c.dim(k), c.field)
            for g in gens]
        for k in c.support()}
    return chainops.subcomplex(c, constraints, lambda k, i: ("fix", k, i))


def strict_orbits(a: EquivariantComplex):
    """Quotient complex of coinvariants; returns (complex, projection ChainMap)."""
    F = a.field
    c = a.complex
    gens = _generator_maps(a)
    relations = {}
    for k in c.support():
        ident = SparseMatrix.identity(c.dim(k), F)
        relations[k] = [col for g in gens
                        for col in (g.component(k) - ident).nonzero_columns()]
    return chainops.quotient(c, relations,
                             lambda k, j: ("orb", k, c.labels[k][j]))


def is_free(a: EquivariantComplex) -> bool:
    """Detect a signed permutation basis on which G acts freely.

    Checks that every group element acts by a signed permutation matrix in
    the given basis and that no non-identity element fixes a basis line.
    """
    n = a.group.degree
    idp = identity_perm(n)
    for g in a.group.elements():
        if g == idp:
            continue
        f = a.action_of(g)
        for k in a.complex.support():
            cols = f.component(k).by_column()
            for j in range(a.complex.dim(k)):
                col = cols.get(j, {})
                if len(col) != 1 or j in col:
                    return False
    return True


def slotwise_map(src_model: ChainComplex, tgt_model: ChainComplex,
                 f: ChainMap, slot=3, sign=None) -> ChainMap:
    """f applied in one slot of tuple labels, between models built over the
    same labels: the basis vector lab of src_model goes to the sum of
    sign(lab) * c * (lab with its slot replaced by x) over the terms c * x of
    f(slot of lab); terms missing from tgt_model are dropped.

    slot is an index, or a tuple path of indices into nested tuple labels;
    negative indices count from the end.  sign(lab) is +1 (the default) or
    -1.  The default slot is the w of the orbit and fixed models'
    ("hG"/"hGf", s, gen, w) labels.  A label without the slot raises
    ValueError.  The result is not validated."""
    path = (slot,) if isinstance(slot, int) else tuple(slot)
    d = f.degree
    cols = {k: m.by_column() for k, m in f.components.items()}

    def image(k, lab):
        wk, wi = f.source.locate(_slot_value(lab, path))
        col = cols.get(wk, {}).get(wi)
        if not col:
            return ()
        neg = sign is not None and sign(lab) < 0
        tlabs = f.target.labels[wk + d]
        return [(_with_slot(lab, path, tlabs[i]), -v if neg else v)
                for i, v in col.items()]
    return linear_map(src_model, tgt_model, image, degree=d, partial=True)


def _slot_value(lab, path):
    x = lab
    for i in path:
        if not isinstance(x, tuple) or not -len(x) <= i < len(x):
            raise ValueError("label %r has no slot %r" % (lab, path))
        x = x[i]
    return x


def _with_slot(lab, path, new):
    if not path:
        return new
    i = path[0] % len(lab)
    return lab[:i] + (_with_slot(lab[i], path[1:], new),) + lab[i + 1:]


class SlotwiseModel:
    """A model K(B) over the labels of B whose functor K acts on maps by one
    rule, `on_maps(tgt)` = (source, target, path, sign, pre, post), read by
    K(f) (`apply`) and h |-> K(h) o theta (`on_homs`): f : B -> B' goes from
    source to target by `slotwise_map` at path (empty: the label is the
    B-label) with the Koszul sign(lab) when f is odd, after pre : K(B) ->
    source and before post : target -> K(B') unless None.  Nothing here is
    validated: the caller that assembles a block certifies it."""

    def apply(self, f: ChainMap, tgt) -> ChainMap:
        """K(f) : K(B) -> K(B') = tgt for f : B -> B' of any degree.  K on
        maps is not validated: the caller that assembles a block does it."""
        source, target, path, sign, pre, post = self.on_maps(tgt)
        if not path:
            return f
        out = slotwise_map(source, target, f, path,
                           sign if f.degree % 2 else None)
        out = out if pre is None else out.compose(pre)
        return out if post is None else post.compose(out)

    def on_homs(self, theta: ChainMap, tgt, hom_src: ChainComplex,
                hom_tgt: ChainComplex) -> ChainMap:
        """h |-> K(h) o theta from hom_src = Hom(B, B') to hom_tgt =
        Hom(X, K(B')), for theta : X -> K(B) carried onto the model by
        label.  It is linear in h, so the column at ("hom", x, y) is read
        off theta's entries whose slot value is x, moved to y with the sign."""
        source, target, path, sign, pre, post = self.on_maps(tgt)
        th = chainops.transport(
            theta, target=source if pre is None else pre.source)
        th = th if pre is None else pre.compose(th)
        onward, by_slot = {}, {}    # onward: target label -> post image
        for k, m in (() if post is None else post.components.items()):
            for (i, j), v in m.items():
                onward.setdefault(target.labels[k][j], []).append(
                    (post.target.labels[k][i], v))
        for k, m in th.components.items():
            for (i, j), v in m.items():
                lab = th.target.labels[k][i]
                by_slot.setdefault(_slot_value(lab, path), []).append(
                    (th.source.labels[k][j], lab, v))

        def image(k, hlab):
            out = []
            for a, lab, v in by_slot.get(hlab[1], ()):
                t = _with_slot(lab, path, hlab[2])
                v = -v if k % 2 and sign is not None and sign(lab) < 0 else v
                out.extend((("hom", a, u), c * v) for u, c in (
                    ((t, 1),) if post is None else onward.get(t, ())))
            return out
        return linear_map(hom_src, hom_tgt, image, partial=True)
