"""Finite chain complexes over an exact field, and their homological algebra.

Conventions fixed once for the whole package:

* differentials lower degree: d_k : C_k -> C_{k-1};
* tensor differential d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy, and
  tensor product of maps (f (x) g)(x (x) y) = (-1)^{|g||x|} f(x) (x) g(y),
  so f_1 (x) ... (x) f_n carries (-1)^{|f_j| (|x_1| + ... + |x_{j-1}|)};
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
  set once at construction; `serialize.chain_from_json` checks this on every
  decoded document, and constructors trust their callers.  Two bases meet
  when they are one complex or label-equal, degree by degree
  (`ChainComplex.same_basis`): `compose`, `+`, `-`, `block_map` and an
  equivariant complex's generators join no others, and a change of basis
  is a `label_map`, never a position.  A map is
  built from labels by `linear_map`, which sends each source label to a
  signed combination of target labels; `label_map` (the map matching two
  bases, strict unless asked to drop the labels without a counterpart) and
  `tensor_map` (the tensor product of any number of maps, on
  `tensor_many`'s flat labels) are calls of it.  A
  matrix is built from entries by `SparseMatrix.from_entries`, which sums
  repeated indices and canonicalizes once;
* a field is its characteristic (`fields.FieldSpec(p)`, p = 0 for Q) and
  does no arithmetic: scalars are canonicalized only by `FieldSpec.coerce`
  and `sparse._canonical`, every sum and product of scalars runs in
  `sparse`'s accumulate and eliminate kernel, and the maps here pass plain
  ints (`scale(-1)`) where they need a sign;
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
  they are built.

This module holds what every job reads: the value types, direct sums,
maps built from labels and the cone.  The constructions that only the
comonad and tower layers build (tensor and hom complexes, the tensor product
of maps, shifts, sub- and quotient complexes and `factor_through`) live
in `chainops`, so the equivariant subcommands do not compile them.
"""

from __future__ import annotations

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

    def same_basis(self, other) -> bool:
        """Whether other is this complex or label-equal to it."""
        return other is self or other.labels == self.labels

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
        if self.degree != other.degree:
            raise ValueError("cannot add maps of degrees %d and %d"
                             % (self.degree, other.degree))
        if not (self.source.same_basis(other.source)
                and self.target.same_basis(other.target)):
            raise ValueError("cannot add maps on other bases")
        return ChainMap(self.source, self.target, {
            k: self.component(k) + other.component(k)
            for k in {**self.components, **other.components}}, self.degree)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return ChainMap(self.source, self.target, {
            k: m.scale(c) for k, m in self.components.items()}, self.degree)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other."""
        if not self.source.same_basis(other.target):
            raise ValueError("composition mismatch")
        return ChainMap(other.source, self.target, {
            k: self.component(k + other.degree) * m
            for k, m in other.components.items()},
            self.degree + other.degree)

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
        td, treps, _ = self.target.homology_data(k + self.degree)
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
    the sum of a single part.  A block that does not meet its summands
    (`ChainComplex.same_basis`) raises ValueError; nothing is validated."""
    by_degree = {}
    for (j, i), f in blocks.items():
        if f is not None:
            if not (src_parts[j].same_basis(f.source)
                    and tgt_parts[i].same_basis(f.target)):
                raise ValueError("block %r misses its summands" % ((j, i),))
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
    key = key or (lambda lab: lab)
    return linear_map(src, tgt, lambda k, lab: ((key(lab), 1),),
                      partial=partial)


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone: cone(f)_k = C_{k-1} (+) D_k, d(c,x) = (-dc, dx - f c)."""
    if f.degree != 0:
        raise ValueError("the cone needs a degree-0 map, not degree %d"
                         % f.degree)
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
