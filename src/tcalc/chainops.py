"""Constructions on chain complexes that the comonad and tower layers build:
tensor and hom complexes, the tensor product of any number of maps
(`tensor_map`), shifts, sub- and quotient complexes, and maps carried
through an inclusion (`factor_through`).

Their conventions are `chain`'s: the tensor and hom differentials, the
Koszul sign of a tensor product of maps, the shift's sign, the subcomplex
spanned by chosen vectors and the quotient kept on the non-pivot
coordinates.  They live apart from `chain` so that a job that never builds
one (`tate`, `homology`, `bar-com`) does not compile them.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .chain import ChainComplex, ChainMap, linear_map
from .sparse import Echelon, SparseMatrix, solve_matrix


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
        ech = Echelon(SparseMatrix.block(
            {(i, 0): m for i, m in enumerate(mats)}, [m.rows for m in mats],
            [n], F))
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
    reduce against the relations.  Nothing is validated.

    proj's rows are the relations' nullspace basis, read off their reduced
    echelon rows: the t-th row kills every relation and is 1 on the t-th
    kept coordinate and 0 on the others, so a kept coordinate maps to
    itself and a pivot to minus its row's entries on the kept ones."""
    F = c.field
    dims, labels, pmats, kept = {}, {}, {}, {}
    for k in c.support():
        n = c.dim(k)
        ech = Echelon(SparseMatrix.from_columns(relations.get(k, []), n,
                                                F).transpose())
        keep = ech.free_cols()
        if keep:
            dims[k] = len(keep)
            labels[k] = tuple(label(k, j) for j in keep)
        kept[k] = {j: t for t, j in enumerate(keep)}
        pmats[k] = SparseMatrix.from_columns(ech.nullspace_basis(), n,
                                             F).transpose()
    # q's differential at a kept coordinate j is proj(d e_j)
    diff = {k: pmats[k - 1] * SparseMatrix.from_entries(
        c.dim(k - 1), dims[k], F, {(i, kept[k][j]): v for (i, j), v in
                                   c.d(k).items() if j in kept[k]})
        for k in dims if dims.get(k - 1)}
    q = ChainComplex(F, dims, diff, labels)
    return q, ChainMap(c, q, {k: pmats[k] for k in dims})


def shift(c: ChainComplex, d: int) -> ChainComplex:
    dims = {k + d: n for k, n in c.dims.items()}
    diff = {k + d: m.scale(-1 if d % 2 else 1) for k, m in c.diff.items()}
    labels = {k + d: tuple(("sh", d, lab) for lab in c.labels[k]) for k in c.dims}
    return ChainComplex(c.field, dims, diff, labels)


def shift_map(f: ChainMap, d: int) -> ChainMap:
    src = shift(f.source, d)
    tgt = shift(f.target, d)
    comps = {k + d: m for k, m in f.components.items()}
    return ChainMap(src, tgt, comps, f.degree)


def tensor(c: ChainComplex, dc: ChainComplex) -> ChainComplex:
    return tensor_many([c, dc])


def tensor_map(*maps: ChainMap, src=None, tgt=None) -> ChainMap:
    """f_1 (x) ... (x) f_n on `tensor_many`'s flat labels, with the Koszul
    sign (-1)^{|f_j| (p_1 + ... + p_{j-1})} on the part of the source whose
    factors lie in degrees p_1, ..., p_n.  src and tgt, when given, are the
    tensor products of the sources and of the targets, already built."""
    src = src or tensor_many([f.source for f in maps])
    tgt = tgt or tensor_many([f.target for f in maps])
    cols = [{p: m.by_column() for p, m in f.components.items()}
            for f in maps]

    def image(k, lab):
        hits, sgn, below = [], 1, 0
        for f, fcols, lf in zip(maps, cols, lab):
            p, i = f.source.locate(lf)
            col = fcols.get(p, {}).get(i)
            if not col:
                return ()
            if f.degree * below % 2:
                sgn = -sgn
            below += p
            tl = f.target.labels[p + f.degree]
            hits.append([(tl[i2], a) for i2, a in col.items()])
        out = []
        for combo in product(*hits):
            labs, coeffs = zip(*combo)
            out.append((labs, prod(coeffs, start=sgn)))
        return out
    return linear_map(src, tgt, image, degree=sum(f.degree for f in maps))


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
