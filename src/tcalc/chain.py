"""Finite chain complexes over an exact field, and their homological algebra.

Conventions fixed once for the whole package:

* differentials lower degree: d_k : C_k -> C_{k-1};
* tensor differential d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy;
* hom complex Hom(C, D)_n = prod_k Hom(C_k, D_{k+n}) with
  (df) = d_D f - (-1)^{|f|} f d_C.  Chain maps C -> D are its degree-0
  cycles, a homotopy from f to g is a degree-1 element whose boundary is
  f - g, and homotopy classes of maps are its H_0; no subcommand reads
  them, so `laws` holds them (`chain_map_space`, `homotopy_between`,
  `count_maps_mod_homotopy`), with `dual`,
  dual(C)_k = Hom(C_{-k}, k) with (df)(x) = -(-1)^{|f|} f(dx);
* cone(f: C -> D)_k = C_{k-1} (+) D_k with d(c, x) = (-dc, dx - f(c));
* shift(C, d)_k = C_{k-d} with differential scaled by (-1)^d;
* basis labels are unique within a complex, across all its degrees, and are
  set once at construction.  A map is built from labels by `linear_map`,
  which sends each source label to a signed combination of target labels;
  `label_map` (the map matching two bases) and `transport` (a map carried
  onto label-equal complexes) are calls of it.  A matrix is built from
  entries by `SparseMatrix.from_entries`, which sums repeated indices and
  canonicalizes once;
* a subcomplex is the span of chosen independent vectors in each degree
  (`subcomplex`, returned with its inclusion), and a quotient keeps the
  coordinates that are not pivots of the echelon form of its relations
  (`quotient`, returned with its projection).  A map into a subcomplex is
  `factor_through(g, incl)`; a map out of a quotient is read off on the kept
  coordinates, a `label_map` from the quotient back to the coordinates its
  labels name, composed with the map;
* a direct sum's basis in each degree is its summands' bases in order, the
  vector lab of summand idx labelled (idx, lab) (`direct_sum`).  Maps between
  direct sums are `block_map`, one ChainMap per pair of summands;
* constructors build, and `validate()` certifies.  A constructor rejects
  only cheap structural errors (a field mismatch, a wrong label count, a
  missing generator); `validate()` checks the identities (d o d = 0, chain
  maps commute with d, and `laws.ChainHomotopy`'s homotopy identity) and
  returns the object.
  Decoded input and maps assembled from raw matrices are validated where
  they are built, and a partial `transport`, which may drop entries,
  certifies what it builds.
"""

from __future__ import annotations

from itertools import product

from .fields import FieldSpec
from .sparse import (
    Echelon, SparseMatrix, nullspace, solve_matrix, vanishes,
)


class DegreeWindow:
    """Closed interval of homological degrees in which a result is certified."""

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ValueError("empty degree window")
        self.lo = lo
        self.hi = hi

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return "DegreeWindow(lo=%r, hi=%r)" % (self.lo, self.hi)

    def __contains__(self, k) -> bool:
        return self.lo <= k <= self.hi

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def shrink(self, n=1) -> "DegreeWindow":
        return DegreeWindow(self.lo + n, self.hi - n)

    def expand(self, n=1) -> "DegreeWindow":
        return DegreeWindow(self.lo - n, self.hi + n)

    def __str__(self):
        return "[%d,%d]" % (self.lo, self.hi)


class ChainComplex:
    """A finite chain complex with labeled bases.

    dims: {degree: dimension}; diff: {degree k: SparseMatrix C_k -> C_{k-1}};
    labels: {degree: tuple of hashable labels}.
    """

    def __init__(self, field: FieldSpec, dims, diff=None, labels=None):
        self.field = field
        self.dims = {k: n for k, n in dims.items() if n}
        self.diff = {}
        if diff:
            for k, m in diff.items():
                if m is not None and not m.is_zero():
                    self.diff[k] = m
        self.labels = {}
        for k, n in self.dims.items():
            if labels and k in labels:
                lab = tuple(labels[k])
                if len(lab) != n:
                    raise ValueError("label count mismatch in degree %d" % k)
            else:
                lab = tuple(("e", k, i) for i in range(n))
            self.labels[k] = lab
        self._label_index = {}

    # -- basic structure -----------------------------------------------------

    def dim(self, k) -> int:
        return self.dims.get(k, 0)

    def support(self):
        return sorted(self.dims)

    @property
    def min_degree(self):
        return min(self.dims) if self.dims else 0

    @property
    def max_degree(self):
        return max(self.dims) if self.dims else 0

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def d(self, k) -> SparseMatrix:
        m = self.diff.get(k)
        if m is None:
            return SparseMatrix(self.dim(k - 1), self.dim(k), self.field)
        return m

    def is_zero(self) -> bool:
        return not self.dims

    def validate(self):
        for k, m in self.diff.items():
            if m.rows != self.dim(k - 1) or m.cols != self.dim(k):
                raise ValueError("differential shape mismatch in degree %d" % k)
            if m.field != self.field:
                raise ValueError("differential field mismatch")
        for k in list(self.diff):
            if self.dim(k) and not vanishes([(1, self.d(k - 1), self.d(k))]):
                raise ValueError("d o d != 0 leaving degree %d" % k)
        return self

    def label_index(self, k):
        """{label: position} of the degree-k basis, built once per degree."""
        idx = self._label_index.get(k)
        if idx is None:
            idx = {lab: i for i, lab in enumerate(self.labels.get(k, ()))}
            self._label_index[k] = idx
        return idx

    def locate(self, lab):
        """(degree, position) of a basis label; KeyError if it is absent."""
        for k in self.dims:
            i = self.label_index(k).get(lab)
            if i is not None:
                return k, i
        raise KeyError(lab)

    def __repr__(self):
        if not self.dims:
            return "ChainComplex(0 over %s)" % self.field.name()
        return "ChainComplex(%s; dims %s)" % (
            self.field.name(), {k: self.dims[k] for k in self.support()})

    # -- homology -------------------------------------------------------------

    def homology_data(self, k):
        """(dimension, list of representing cycles, Echelon of boundary space).

        Cycles are sparse column vectors in degree k, independent mod boundaries.
        """
        n = self.dim(k)
        if n == 0:
            return 0, [], None
        cycles = nullspace(self.d(k))
        bnd = Echelon(self.d(k + 1).transpose())  # row space = image of d_{k+1}
        # a cycle is a new representative iff it is outside the span of the
        # boundaries and the representatives chosen before it
        span = bnd.span()
        reps = [z for z in cycles if span.add(z)]
        return len(reps), reps, bnd

    def homology(self, k):
        """(dim H_k, basis of representing cycles)."""
        dim, reps, _ = self.homology_data(k)
        return dim, reps

    def homology_dims(self, window: DegreeWindow | None = None):
        """{k: dim H_k != 0} over the window's degrees (default: the
        support), each differential eliminated at most once."""
        degs = window.degrees() if window else self.support()
        ranks = {}

        def rank(k):
            if k not in ranks:
                m = self.diff.get(k)
                ranks[k] = 0 if m is None else Echelon(m).rank
            return ranks[k]
        out = {}
        for k in degs:
            n = self.dim(k)
            if n == 0 and self.dim(k + 1) == 0:
                continue
            dim_h = n - rank(k) - rank(k + 1)
            if dim_h:
                out[k] = dim_h
        return out

    def is_acyclic(self, window: DegreeWindow) -> bool:
        return not self.homology_dims(window)

    # -- truncation -------------------------------------------------------------

    def truncate(self, lo, hi) -> "ChainComplex":
        """Brutal truncation to degrees [lo, hi]; homology certified on (lo, hi)."""
        dims = {k: n for k, n in self.dims.items() if lo <= k <= hi}
        diff = {k: m for k, m in self.diff.items() if lo + 1 <= k <= hi}
        labels = {k: self.labels[k] for k in dims}
        return ChainComplex(self.field, dims, diff, labels)


class ChainMap:
    """Degreewise map of chain complexes commuting with differentials."""

    def __init__(self, source: ChainComplex, target: ChainComplex, components=None,
                 degree: int = 0):
        if source.field != target.field:
            raise ValueError("field mismatch")
        self.source = source
        self.target = target
        self.degree = degree
        self.components = {}
        if components:
            for k, m in components.items():
                if m is not None and not m.is_zero():
                    self.components[k] = m

    @property
    def field(self):
        return self.source.field

    def component(self, k) -> SparseMatrix:
        m = self.components.get(k)
        if m is None:
            return SparseMatrix(self.target.dim(k + self.degree),
                                self.source.dim(k), self.field)
        return m

    def validate(self):
        for k, m in self.components.items():
            if m.rows != self.target.dim(k + self.degree) or m.cols != self.source.dim(k):
                raise ValueError("component shape mismatch in degree %d" % k)
        # d f - (-1)^|f| f d = 0; both sides vanish unless f_k or f_{k-1}
        # is nonzero, so the zero map is checked by its shapes alone
        s = -1 if self.degree % 2 == 0 else 1
        for k in set(self.components) | {k + 1 for k in self.components}:
            if not vanishes([
                    (1, self.target.d(k + self.degree), self.component(k)),
                    (s, self.component(k - 1), self.source.d(k))]):
                raise ValueError("chain map fails to commute with d in degree %d" % k)
        return self

    @classmethod
    def zero(cls, source, target, degree=0):
        return cls(source, target, {}, degree)

    @classmethod
    def identity(cls, c: ChainComplex):
        comps = {k: SparseMatrix.identity(n, c.field) for k, n in c.dims.items()}
        return cls(c, c, comps)

    def __add__(self, other):
        assert self.degree == other.degree
        comps = dict(self.components)
        out = ChainMap(self.source, self.target, None, self.degree)
        out.components = comps
        for k, m in other.components.items():
            cur = out.component(k) + m
            if cur.is_zero():
                out.components.pop(k, None)
            else:
                out.components[k] = cur
        return out

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one()))

    def scale(self, c):
        out = ChainMap(self.source, self.target, None, self.degree)
        out.components = {k: m.scale(c) for k, m in self.components.items()}
        out.components = {k: m for k, m in out.components.items() if not m.is_zero()}
        return out

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other."""
        if other.target is not self.source and other.target.dims != self.source.dims:
            raise ValueError("composition mismatch")
        deg = self.degree + other.degree
        comps = {}
        for k in other.source.dims:
            m = self.component(k + other.degree) * other.component(k)
            if not m.is_zero():
                comps[k] = m
        return ChainMap(other.source, self.target, comps, deg)

    def is_zero(self):
        return not self.components

    def is_iso(self) -> bool:
        if self.degree != 0:
            return False
        for k in set(self.source.dims) | set(self.target.dims):
            n, m = self.source.dim(k), self.target.dim(k)
            if n != m:
                return False
            if n and Echelon(self.component(k)).rank != n:
                return False
        return True

    def induced_on_homology(self, k):
        """Matrix of H_k(source) -> H_{k+degree}(target) on chosen cycle bases."""
        sd, sreps, _ = self.source.homology_data(k)
        td, treps, tbnd = self.target.homology_data(k + self.degree)
        F = self.field
        if sd == 0 or td == 0 or self.source.dim(k) == 0:
            return SparseMatrix(td, sd, F)
        # express image cycles in homology basis: solve [reps | boundaries] x = img
        ncols_t = self.target.dim(k + self.degree)
        bmat = self.target.d(k + self.degree + 1)
        A = SparseMatrix.block(
            {(0, 0): SparseMatrix.from_columns(treps, ncols_t, F),
             (0, 1): bmat}, [ncols_t], [td, bmat.cols], F)
        imgs = self.component(k) * SparseMatrix.from_columns(
            sreps, self.source.dim(k), F)
        x = solve_matrix(A, imgs)
        if x is None:
            raise ArithmeticError("image of cycle is not a cycle mod boundaries")
        return SparseMatrix.from_entries(td, sd, F, {
            ij: v for ij, v in x.items() if ij[0] < td})


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def sphere(field, degree=0, label="s") -> ChainComplex:
    """Field in a single degree."""
    return ChainComplex(field, {degree: 1}, labels={degree: ((label, degree),)})


def direct_sum(complexes) -> ChainComplex:
    complexes = list(complexes)
    if not complexes:
        raise ValueError("empty direct sum; pass at least one complex")
    field = complexes[0].field
    for c in complexes:
        if c.field != field:
            raise ValueError("field mismatch in direct sum")
    dims, labels = {}, {}
    for idx, c in enumerate(complexes):
        for k, n in c.dims.items():
            dims[k] = dims.get(k, 0) + n
            labels.setdefault(k, []).extend((idx, lab) for lab in c.labels[k])
    diff = {k: SparseMatrix.block(
        {(i, i): c.diff.get(k) for i, c in enumerate(complexes)},
        _block_sizes(complexes, k - 1), _block_sizes(complexes, k), field)
        for k in dims if k - 1 in dims}
    labels = {k: tuple(v) for k, v in labels.items()}
    return ChainComplex(field, dims, diff, labels)


def _block_sizes(parts, k):
    """The degree-k block sizes of the direct sum of parts: summand i's
    coordinates start after those of the summands before it."""
    return [c.dim(k) for c in parts]


def block_map(source, target, src_parts, tgt_parts, blocks) -> ChainMap:
    """The degree-0 map from source = direct_sum(src_parts) to target =
    direct_sum(tgt_parts) whose block from summand j to summand i is the
    ChainMap blocks[(j, i)] (None is zero).  Either side may be one complex,
    the sum of a single part.  A block whose shape differs from its
    summands' raises ValueError; nothing is validated."""
    by_degree = {}
    for (j, i), f in blocks.items():
        if f is not None:
            for k, m in f.components.items():
                by_degree.setdefault(k, {})[(i, j)] = m
    comps = {k: SparseMatrix.block(mats, _block_sizes(tgt_parts, k),
                                   _block_sizes(src_parts, k), source.field)
             for k, mats in by_degree.items()}
    return ChainMap(source, target, comps)


def linear_map(src: ChainComplex, tgt: ChainComplex, image, *, degree=0,
               partial=False) -> ChainMap:
    """The map of the given degree sending the basis vector of src labelled
    lab in degree k to the sum of c * (the vector of tgt labelled t in degree
    k + degree) over the pairs (t, c) of image(k, lab).

    A target label missing from tgt raises ValueError, or is dropped when
    partial.  Each matrix is one SparseMatrix.from_entries, so repeated
    targets are summed and scalars canonicalized once; nothing is
    validated."""
    comps = {}
    for k, labs in src.labels.items():
        tidx = tgt.label_index(k + degree)
        acc = {}
        for j, lab in enumerate(labs):
            for t, c in image(k, lab):
                i = tidx.get(t)
                if i is None:
                    if partial:
                        continue
                    raise ValueError("label %r has no image in degree %d"
                                     % (lab, k))
                acc[i, j] = acc.get((i, j), 0) + c
        comps[k] = SparseMatrix.from_entries(tgt.dim(k + degree), len(labs),
                                             src.field, acc)
    return ChainMap(src, tgt, comps, degree)


def label_map(src: ChainComplex, tgt: ChainComplex, key=None, *,
              partial=False) -> ChainMap:
    """The degree-0 map sending the basis vector of src labelled lab to the
    one of tgt labelled key(lab) in the same degree, with coefficient 1.

    key defaults to the identity.  A label whose image is missing from tgt
    raises ValueError, or is sent to zero when partial."""
    if key is None:
        return linear_map(src, tgt, lambda k, lab: ((lab, 1),),
                          partial=partial)
    return linear_map(src, tgt, lambda k, lab: ((key(lab), 1),),
                      partial=partial)


def _keyed_index(c: ChainComplex, k, key):
    if key is None:
        return c.label_index(k)
    idx = {key(lab): i for i, lab in enumerate(c.labels.get(k, ()))}
    if len(idx) != c.dim(k):
        raise ValueError("two labels share a key in degree %d" % k)
    return idx


def transport(f: ChainMap, source: ChainComplex | None = None,
              target: ChainComplex | None = None, *, key=None,
              partial=True) -> ChainMap:
    """f carried onto label-equal complexes in one pass over its entries.

    The basis vector of `source` labelled lab stands for the vector of
    f.source in the same degree whose label has the same key, and each
    vector of f.target goes to the vector of `target` whose label has the
    same key; key defaults to the identity, and a missing complex is f's
    own.  An entry without a counterpart is dropped when partial, else it
    raises ValueError.  f itself is returned when both complexes are f's
    own.  Dropping entries can break the chain-map identity, so a partial
    transport validates what it builds."""
    src = f.source if source is None else source
    tgt = f.target if target is None else target
    if src is f.source and tgt is f.target:
        return f
    skey = key if src is not f.source else None
    tkey = key if tgt is not f.target else None
    d = f.degree
    images = {}     # degree -> {key of an f.source label: [(tgt label, c)]}
    for k, m in f.components.items():
        cols = _keyed_index(src, k, skey)
        _keyed_index(f.source, k, skey)     # refuse a shared key
        rows = _keyed_index(tgt, k + d, tkey)
        slabs, tlabs = f.source.labels[k], f.target.labels[k + d]
        new = tgt.labels.get(k + d, ())
        img = images[k] = {}
        for (i, j), v in m.items():
            s = slabs[j] if skey is None else skey(slabs[j])
            t = rows.get(tlabs[i] if tkey is None else tkey(tlabs[i]))
            if t is None or s not in cols:
                if partial:
                    continue
                raise ValueError("an entry in degree %d has no counterpart"
                                 % k)
            img.setdefault(s, []).append((new[t], v))
    out = linear_map(src, tgt, lambda k, lab: images.get(k, {}).get(
        lab if skey is None else skey(lab), ()), degree=d)
    return out.validate() if partial else out


def factor_through(g: ChainMap, incl: ChainMap) -> ChainMap:
    """The map x : g.source -> incl.source with incl o x = g, for an
    injective degree-0 incl into g.target: one solve_matrix per degree where
    g is nonzero.  Raises ArithmeticError when g leaves the image of incl.
    The result is not validated."""
    d = g.degree
    comps = {}
    for k, m in g.components.items():
        x = solve_matrix(incl.component(k + d), m)
        if x is None:
            raise ArithmeticError("map leaves the subcomplex in degree %d"
                                  % (k + d))
        comps[k] = x
    return ChainMap(g.source, incl.source, comps, d)


def subcomplex(c: ChainComplex, constraints, label):
    """(sub, incl) for the subcomplex of c whose degree-k part is the joint
    kernel of the matrices constraints[k], each with c.dim(k) columns.  An
    empty list constrains nothing; a degree absent from constraints is zero.
    Each stacked constraint matrix is eliminated once and its nullspace_basis
    spans sub_k, the i-th vector labelled label(k, i).  That basis is the
    identity on the free columns, so the differential of sub is the free
    rows of y = d(k) . incl_k, certified by incl_{k-1} . m == y (y == 0 when
    sub_{k-1} is zero); ArithmeticError when d leaves the span.  Nothing is
    validated."""
    F = c.field
    incl, free = {}, {}
    for k, mats in constraints.items():
        n = c.dim(k)
        ech = Echelon(SparseMatrix.vstack(mats) if mats
                      else SparseMatrix(0, n, F))
        basis = ech.nullspace_basis()
        if basis:
            incl[k] = SparseMatrix.from_columns(basis, n, F)
            free[k] = {j: t for t, j in enumerate(ech.free_cols())}
    diff = {}
    for k, ik in incl.items():
        y = c.d(k) * ik
        below = incl.get(k - 1)
        if below is None:
            ok = y.is_zero()
        else:
            row = free[k - 1]
            m = SparseMatrix.from_entries(below.cols, ik.cols, F, {
                (row[i], j): v for (i, j), v in y.items()
                if i in row})
            ok = below * m == y
            diff[k] = m
        if not ok:
            raise ArithmeticError("differential leaves the subcomplex in "
                                  "degree %d" % k)
    sub = ChainComplex(F, {k: ik.cols for k, ik in incl.items()}, diff,
                       {k: tuple(label(k, i) for i in range(ik.cols))
                        for k, ik in incl.items()})
    return sub, ChainMap(sub, c, incl)


def quotient(c: ChainComplex, relations, label):
    """(q, proj) for c modulo the span of the sparse vectors relations[k] of
    c_k.  q keeps the coordinates j that are not pivots of the relations'
    echelon form, labelled label(k, j); proj and the differential of q
    reduce against the relations.  Nothing is validated."""
    F = c.field
    dims, labels, pmats, kept = {}, {}, {}, {}
    for k in c.support():
        n = c.dim(k)
        ech = Echelon(SparseMatrix.from_sparse_rows(relations.get(k, []), n,
                                                    F))
        piv = set(ech.pivot_cols)
        keep = [j for j in range(n) if j not in piv]
        if keep:
            dims[k] = len(keep)
            labels[k] = tuple(label(k, j) for j in keep)
        # a reduced vector is zero on the pivots, so it lies on kept columns
        pos = kept[k] = {j: t for t, j in enumerate(keep)}
        pmats[k] = SparseMatrix.from_entries(len(keep), n, F, {
            (pos[i], j): v for j in range(n)
            for i, v in ech.reduce_vector({j: 1}).items()})
    # q's differential at a kept coordinate j is proj(d e_j)
    diff = {k: pmats[k - 1] * SparseMatrix.from_entries(
        c.dim(k - 1), dims[k], F, {(i, kept[k][j]): v for (i, j), v in
                                   c.d(k).items() if j in kept[k]})
        for k in dims if dims.get(k - 1)}
    q = ChainComplex(F, dims, diff, labels)
    return q, ChainMap(c, q, {k: pmats[k] for k in dims})


def shift(c: ChainComplex, d: int) -> ChainComplex:
    sgn = c.field.one() if d % 2 == 0 else c.field.neg(c.field.one())
    dims = {k + d: n for k, n in c.dims.items()}
    diff = {k + d: m.scale(sgn) for k, m in c.diff.items()}
    labels = {k + d: tuple(("sh", d, lab) for lab in c.labels[k]) for k in c.dims}
    return ChainComplex(c.field, dims, diff, labels)


def shift_map(f: ChainMap, d: int) -> ChainMap:
    src = shift(f.source, d)
    tgt = shift(f.target, d)
    comps = {k + d: m for k, m in f.components.items()}
    return ChainMap(src, tgt, comps, f.degree)


def tensor(c: ChainComplex, dc: ChainComplex) -> ChainComplex:
    return tensor_many([c, dc])


def tensor_map(f: ChainMap, g: ChainMap) -> ChainMap:
    """f (x) g with Koszul sign (-1)^{|g| * p} on the degree-p part of f's source."""
    src = tensor(f.source, g.source)
    tgt = tensor(f.target, g.target)
    fl, gl = f.target.labels, g.target.labels
    fcols = {p: m.by_column() for p, m in f.components.items()}
    gcols = {q: m.by_column() for q, m in g.components.items()}

    def image(k, lab):
        lf, lg = lab
        p, i = f.source.locate(lf)
        q, j = g.source.locate(lg)
        fcol = fcols.get(p, {}).get(i)
        gcol = gcols.get(q, {}).get(j)
        if not (fcol and gcol):
            return ()
        sgn = -1 if g.degree * p % 2 else 1
        return [((fl[p + f.degree][i2], gl[q + g.degree][j2]), sgn * a * b)
                for i2, a in fcol.items() for j2, b in gcol.items()]
    return linear_map(src, tgt, image, degree=f.degree + g.degree)


def tensor_many(complexes) -> ChainComplex:
    """Iterated tensor with flat tuple labels ((lab_1, ..., lab_n))."""
    complexes = list(complexes)
    if not complexes:
        raise ValueError("empty tensor product")
    field = complexes[0].field
    if any(c.field != field for c in complexes):
        raise ValueError("field mismatch in tensor")
    labels, index = {}, {}
    for degs in product(*[c.support() for c in complexes]):
        k = sum(degs)
        labs = labels.setdefault(k, [])
        for idxs in product(*[range(c.dim(p))
                              for c, p in zip(complexes, degs)]):
            index[(degs, idxs)] = (k, len(labs))
            labs.append(tuple(c.labels[p][i]
                              for c, p, i in zip(complexes, degs, idxs)))
    dims = {k: len(labs) for k, labs in labels.items()}
    # each factor's differential by column: (p, i) -> [(row, scalar), ...]
    dcols = []
    for c in complexes:
        cols = {}
        for p, dp in c.diff.items():
            for (i2, i), v in dp.items():
                cols.setdefault((p, i), []).append((i2, v))
        dcols.append(cols)
    acc = {k: {} for k in dims if dims.get(k - 1)}
    for (degs, idxs), (k, col) in index.items():
        m = acc.get(k)
        if m is None:
            continue
        # each (factor, row) of a column is a distinct row of the product
        sgn = 1
        for t, pi in enumerate(zip(degs, idxs)):
            for i2, v in dcols[t].get(pi, ()):
                _, row = index[(degs[:t] + (pi[0] - 1,) + degs[t + 1:],
                                idxs[:t] + (i2,) + idxs[t + 1:])]
                m[row, col] = sgn * v
            if pi[0] % 2 != 0:
                sgn = -sgn
    diff = {k: SparseMatrix.from_entries(dims[k - 1], dims[k], field, m)
            for k, m in acc.items()}
    labels = {k: tuple(v) for k, v in labels.items()}
    return ChainComplex(field, dims, diff, labels)


def hom_complex(c: ChainComplex, d: ChainComplex) -> ChainComplex:
    """Hom(C, D) with basis labels ('hom', source label, target label)."""
    if c.field != d.field:
        raise ValueError("field mismatch in hom")
    field = c.field
    dims, labels, index = {}, {}, {}
    for p in c.support():
        for q in d.support():
            n = q - p
            base = dims.get(n, 0)
            cnt = 0
            for i in range(c.dim(p)):
                for j in range(d.dim(q)):
                    index[(p, i, q, j)] = (n, base + cnt)
                    cnt += 1
            dims[n] = base + cnt
            labels.setdefault(n, [])
            labels[n].extend(("hom", c.labels[p][i], d.labels[q][j])
                             for i in range(c.dim(p)) for j in range(d.dim(q)))
    # d_D by column and d_C by row, each in the order of items()
    dcols, crows = {}, {}
    for q, dd in d.diff.items():
        for (j2, j), v in dd.items():
            dcols.setdefault((q, j), []).append((j2, v))
    for p, dc in c.diff.items():
        for (i, i2), v in dc.items():
            crows.setdefault((p, i), []).append((i2, v))
    acc = {n: [] for n in dims if dims.get(n - 1)}
    for (p, i, q, j), (n, col) in index.items():
        # d(f) = d_D o f - (-1)^n f o d_C ; basis element E_{(p,i),(q,j)}
        m = acc.get(n)
        if m is None:
            continue
        for j2, v in dcols.get((q, j), ()):
            m.append(((index[(p, i, q - 1, j2)][1], col), v))
        sgn = -1 if n % 2 == 0 else 1  # -(-1)^n
        for i2, v in crows.get((p + 1, i), ()):
            m.append(((index[(p + 1, i2, q, j)][1], col), sgn * v))
    diff = {n: SparseMatrix.from_entries(dims[n - 1], dims[n], field, m)
            for n, m in acc.items()}
    labels = {k: tuple(v) for k, v in labels.items()}
    return ChainComplex(field, dims, diff, labels)


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: cone(f)_k = C_{k-1} (+) D_k, d(c,x) = (-dc, dx - f c)."""
    assert f.degree == 0
    c, d = f.source, f.target
    field = c.field
    dims, labels = {}, {}
    for k in set(list(c.dims) + list(d.dims) + [k + 1 for k in c.dims]):
        n = c.dim(k - 1) + d.dim(k)
        if n:
            dims[k] = n
            labels[k] = tuple(("cone-src", lab) for lab in c.labels.get(k - 1, ())) + \
                tuple(("cone-tgt", lab) for lab in d.labels.get(k, ()))
    diff = {}
    for k in dims:
        if k - 1 in dims:
            dc, fm = c.diff.get(k - 1), f.components.get(k - 1)
            diff[k] = SparseMatrix.block(
                {(0, 0): None if dc is None else -dc, (1, 1): d.diff.get(k),
                 (1, 0): None if fm is None else -fm},
                [c.dim(k - 2), d.dim(k - 1)], [c.dim(k - 1), d.dim(k)], field)
    return ChainComplex(field, dims, diff, labels)
