"""Group actions of Young subgroups on chain complexes; windowed homotopy
orbits, homotopy fixed points, the norm map, and Tate constructions.

Derived (co)invariants are computed from a free resolution of the trivial
module over the group algebra, built by a deterministic greedy generator
search (kernels are computed degreewise, and new free generators are added
only when a kernel vector falls outside the submodule generated so far).
This keeps ranks near-minimal, so windowed computations over Sigma_3 and
Sigma_4 stay desk-scale.  The hand-coded periodic resolutions for Sigma_2
(and Sigma_3 at p = 3) live in the test suite as independent oracles.

The orbit, fixed and Tate models are plain `ChainComplex`es whose homology
is certified on the degree window the caller passes in; outside it a model
is truncated and its homology is not certified.  The caller keeps the
window and reads homology on it: the CLI prints the window beside the dims.

Strict orbits and fixed points, permutation modules, the diagonal tensor
and slotwise maps, which only the comonad and tower layers build, live in
`equivops`.
"""

from __future__ import annotations

from . import equivops
from .chain import ChainComplex, ChainMap, DegreeWindow, cone, linear_map
from .fields import FieldSpec
from .perms import YoungGroup, compose, identity_perm, inverse, transposition
from .sparse import Span, SparseMatrix, nullspace


class EquivariantComplex:
    """A finite chain complex with an action of a Young group.

    The action is specified on the Coxeter generators (adjacent
    transpositions within blocks); validation checks each generator is a
    chain automorphism of the complex or a label-equal twin and that all
    Coxeter relations hold exactly.  It refuses groups of degree > 4 and
    order > 24, whose relations are too many to check exactly.
    """

    def __init__(self, complex: ChainComplex, group: YoungGroup, action):
        self.complex = complex
        self.group = group
        gens = group.generator_positions()
        self.action = {i: action[i] for i in gens} if action else {}
        if set(self.action) != set(gens):
            raise ValueError("action must specify every Coxeter generator")
        self._cache = {identity_perm(group.degree): ChainMap.identity(complex)}

    @property
    def field(self):
        return self.complex.field

    def validate(self):
        if self.group.degree > 4 and self.group.order > 24:
            raise ValueError("arity bound exceeded: %s" % (self.group,))
        for f in self.action.values():
            if not (self.complex.same_basis(f.source)
                    and self.complex.same_basis(f.target)):
                raise ValueError("generator action has wrong (co)domain")
            f.validate()
            if not f.is_iso():
                raise ValueError("generator action is not invertible")
        for w1, w2 in self.group.coxeter_relations():
            m1 = self._word_map(w1)
            m2 = self._word_map(w2)
            for k in self.complex.dims:
                if m1.component(k) != m2.component(k):
                    raise ValueError("Coxeter relation fails: %r vs %r" % (w1, w2))
        return self

    def _word_map(self, word) -> ChainMap:
        # word [i_1, ..., i_k] means s_{i_1} o ... o s_{i_k}
        out = ChainMap.identity(self.complex)
        for i in word:
            out = out.compose(self.action[i])
        return out

    def action_of(self, p) -> ChainMap:
        """Chain map for an arbitrary element of the Young group."""
        p = tuple(p)
        got = self._cache.get(p)
        if got is None:
            word = self.group.reduced_word(p)
            got = self._word_map(word)
            self._cache[p] = got
        return got

    def norm(self) -> ChainMap:
        """The norm sum_g g of the action, a map of the complex to itself."""
        maps = [self.action_of(g) for g in self.group.elements()]
        return ChainMap(self.complex, self.complex, {
            k: SparseMatrix.from_entries(n, n, self.field, (
                e for f in maps for e in f.component(k).items()))
            for k, n in self.complex.dims.items()})

    def restrict(self, subgroup: YoungGroup) -> "EquivariantComplex":
        """Restrict along a Young subgroup whose blocks refine this group's."""
        if subgroup.degree != self.group.degree:
            raise ValueError("degree mismatch")
        return EquivariantComplex(self.complex, subgroup, self.action)

    def __repr__(self):
        return "EquivariantComplex(%s on %r)" % (self.group, self.complex)


def trivial_action(complex: ChainComplex, group: YoungGroup) -> EquivariantComplex:
    act = {i: ChainMap.identity(complex) for i in group.generator_positions()}
    return EquivariantComplex(complex, group, act)


def regular_module(field, group: YoungGroup, degree=0) -> EquivariantComplex:
    """k[G] with left translation action."""
    elements = group.elements()
    pos = {g: i for i, g in enumerate(elements)}
    n = group.degree
    table = {}
    for i in group.generator_positions():
        s = transposition(n, i)
        table[i] = [pos[compose(s, g)] for g in elements]
    return equivops.permutation_module(
        field, group, [("g",) + g for g in elements], table, degree)


# ---------------------------------------------------------------------------
# Free resolutions over k[G]
# ---------------------------------------------------------------------------


class GroupResolution:
    """A free resolution of k over k[G], built greedily and extended on demand.

    Stage s is free of rank ranks[s]; its k-basis is (gen, g) for g in the
    fixed element order, at position gen * order + pos[g];
    h . (gen, g) = (gen, h o g).  diffs[s] maps stage s to stage s-1 as a
    k-matrix; diffs[0] is the augmentation to k.  boundaries[s][gen] is
    d(gen, e), the column of diffs[s] at (gen, e).

    Stage s+1 is chosen greedily: the kernel vectors of diffs[s], sorted by
    support, are visited in order, and one becomes the boundary of a new
    generator iff it lies outside the k-span of the translates of the
    boundaries chosen before it.
    """

    def __init__(self, field: FieldSpec, group: YoungGroup):
        self.field = field
        self.group = group
        self.elements = group.elements()
        self.order = len(self.elements)
        self.pos = {g: i for i, g in enumerate(self.elements)}
        # _mult[i][j] = position of elements[i] o elements[j]
        self._mult = [[self.pos[compose(h, g)] for g in self.elements]
                      for h in self.elements]
        self.ranks = [1]
        self.diffs = [SparseMatrix.from_entries(
            1, self.order, field, {(0, j): 1 for j in range(self.order)})]
        self.boundaries = [[{0: 1}]]

    def stage_dim(self, s):
        return self.ranks[s] * self.order

    def _translates(self, v):
        """h . v for every element h, in element order: a relabeling of the
        coordinates (gen, g) -> (gen, h o g)."""
        n = self.order
        return [{i - i % n + row[i % n]: x for i, x in v.items()}
                for row in self._mult]

    def extend_to(self, length):
        """Ensure stages 0..length exist."""
        while len(self.ranks) <= length:
            s = len(self.ranks) - 1
            ker = nullspace(self.diffs[s])
            # deterministic order: sort kernel vectors by support
            ker.sort(key=lambda v: sorted(v.items(), key=lambda t: (t[0], str(t[1]))))
            gens, cols = [], []
            span = Span(self.field)
            for v in ker:
                if v not in span:
                    gens.append(v)
                    for t in self._translates(v):
                        span.add(t)
                        cols.append(t)
            self.ranks.append(len(gens))
            self.boundaries.append(gens)
            self.diffs.append(
                SparseMatrix.from_columns(cols, self.stage_dim(s), self.field))
        return self


_RESOLUTION_CACHE = {}


def group_resolution(field: FieldSpec, group: YoungGroup) -> GroupResolution:
    key = (field.name(), group.blocks)
    res = _RESOLUTION_CACHE.get(key)
    if res is None:
        res = GroupResolution(field, group)
        _RESOLUTION_CACHE[key] = res
    return res


# ---------------------------------------------------------------------------
# Homotopy orbits / fixed points / norm / Tate
# ---------------------------------------------------------------------------


def homotopy_orbits(a: EquivariantComplex, w: DegreeWindow) -> ChainComplex:
    """Total complex of A (x)_{kG} F_*, certified on w."""
    return _total_complex(a, w, 1)


def homotopy_fixed(a: EquivariantComplex, w: DegreeWindow) -> ChainComplex:
    """Total complex of Hom_{kG}(F_*, A), certified on w."""
    return _total_complex(a, w, -1)


def _total_complex(a, w, direction):
    """The orbit model (direction 1) or the fixed model (direction -1).

    Its basis in degree k + direction * s is ("hG"/"hGf", s, gen, x) for x
    a basis vector of A_k and gen a generator of stage s of the resolution
    F; "hG" stands for x (x) (gen, e) and "hGf" for the kG-map sending
    (gen, e) to x.  The model is truncated on its unbounded side only: the
    label is present iff deg x + s <= w.hi + 1 for orbits, or
    deg x - s >= w.lo - 1 for fixed points.  So no stage beyond reach + 1
    (reach = w.hi - min deg A for orbits, max deg A - w.lo for fixed points)
    adds a basis vector or an entry, and the resolution is extended to the
    last stage a label reads: the model's own length max(reach + 1, 0),
    which no caller chooses.  Whether a label is present depends on
    (s, deg x) and w alone, not on that length, so a map between models
    over one group that keeps (s, gen) and moves x (`equivops.slotwise_map`)
    stays exact without the models sharing a length, and so do maps between
    models of one complex at different windows.

    The differential is d_A (x) 1 on each (s, gen, k) block plus, for each
    nonzero coefficient coef of (gen', g) in d(gen, e) of stage t, one
    block: orbits get coef * (-1)^k * act(g^-1) from (t, gen, k) to
    (t-1, gen', k), since a (x) (gen', g) = g^-1 a (x) (gen', e); fixed
    points get coef * (-1)^(k+t) * act(g) from (t-1, gen', k) to
    (t, gen, k), since Df = d_A f - (-1)^|f| f d_F.
    """
    F = a.field
    c = a.complex
    if c.is_zero():
        return c
    res = group_resolution(F, a.group)
    if direction > 0:
        name, edge, reach = "hG", w.hi + 1, w.hi - c.min_degree
    else:
        name, edge, reach = "hGf", w.lo - 1, c.max_degree - w.lo
    length = max(reach + 1, 0)
    res.extend_to(length)
    dims, labels, blocks = {}, {}, {}
    for s in range(length + 1):
        r = res.ranks[s]
        if r == 0:
            break
        for k in c.support():
            tot = k + direction * s
            if direction * tot > direction * edge:
                continue
            for gen in range(r):
                blocks[(s, gen, k)] = (tot, dims.get(tot, 0))
                dims[tot] = dims.get(tot, 0) + c.dim(k)
                labels.setdefault(tot, []).extend(
                    (name, s, gen, lab) for lab in c.labels[k])
    # per degree, the blocks (row, col, matrix, coef) of the differential,
    # read straight into each matrix by from_entries
    puts = {t: [] for t in dims if dims.get(t - 1)}

    def put(src, tgt, mat, coef):
        tot, col = blocks[src]
        puts[tot].append((blocks[tgt][1], col, mat, coef))

    for (s, gen, k) in blocks:
        if k in c.diff and (s, gen, k - 1) in blocks:
            put((s, gen, k), (s, gen, k - 1), c.diff[k], 1)
    for t in range(1, length + 1):
        for gen, bd in enumerate(res.boundaries[t]):
            for i, coef in bd.items():
                gen2, gpos = divmod(i, res.order)
                g = res.elements[gpos]
                for k in c.support():
                    if direction > 0:
                        src, tgt, h = (t, gen, k), (t - 1, gen2, k), inverse(g)
                        odd = k % 2
                    else:
                        src, tgt, h = (t - 1, gen2, k), (t, gen, k), g
                        odd = (k + t) % 2
                    if src in blocks and tgt in blocks:
                        put(src, tgt, a.action_of(h).component(k),
                            -coef if odd else coef)
    diff = {t: SparseMatrix.from_entries(dims[t - 1], dims[t], F, (
        ((row + i, col + j), coef * v)
        for row, col, mat, coef in block for (i, j), v in mat.items()))
        for t, block in puts.items()}
    labels = {k: tuple(v) for k, v in labels.items()}
    del puts
    return ChainComplex(F, dims, diff, labels).validate()


def norm_map(a: EquivariantComplex, w: DegreeWindow) -> ChainMap:
    """Chain-level norm: orbit model -> strict orbits -> N -> invariants -> fixed model."""
    c = a.complex
    cols = {k: m.by_column() for k, m in a.norm().components.items()}

    # src (s=0 part, identity-coset) --aug--> A --N--> A --coaug--> tgt
    def image(k, lab):
        _, s, _, alab = lab
        col = cols.get(k, {}).get(c.label_index(k)[alab]) if s == 0 else None
        if not col:
            return ()
        labs = c.labels[k]
        return [(("hGf", 0, 0, labs[i]), v) for i, v in col.items()]
    return linear_map(homotopy_orbits(a, w), homotopy_fixed(a, w), image,
                      partial=True).validate()


def tate(a: EquivariantComplex, w: DegreeWindow) -> ChainComplex:
    """Tate construction: cone of the norm map, window shrunk by 1 each end."""
    return cone(norm_map(a, w.expand(1)))
