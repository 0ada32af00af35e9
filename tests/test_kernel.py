"""Differential tests of the elimination kernel and the matrix product.

Seeded random matrices over Q, F3, F5, F7 and F2 (shapes 0..14, non-integral
rationals, zero rows and columns, dependent rows) are compared with a dense
Gauss-Jordan and a dense product written here, independently of
tcalc.sparse; F2 runs on the int-bitset path, and a few wide F2 shapes
(hundreds of columns) check its row and nullspace read-out, key order
included.  Over Q every entry the kernel stores must be in canonical form:
an int exactly when it is integral."""

import random
from fractions import Fraction

from helpers import entry
from tcalc.fields import QQ, FieldSpec
from tcalc.sparse import Echelon, SparseMatrix, nullspace

F2, F3, F5, F7 = (FieldSpec(p) for p in (2, 3, 5, 7))
FIELDS = (QQ, F3, F5, F7, F2)
MATRICES_PER_FIELD = 2500


def _random_scalar(rng, F):
    if F.p:
        return rng.randrange(1, F.p)
    num = rng.choice((-3, -2, -1, 1, 1, 1, 2, 3, 5))
    return Fraction(num, rng.choice((1, 1, 1, 2, 3, 4, 6)))


def _random_dense(rng, F, rows, cols):
    """A dense matrix (lists of Fraction or ints mod p) with zero rows, zero
    columns and rows that are combinations of earlier rows."""
    dead_cols = {j for j in range(cols) if rng.random() < 0.2}
    density = rng.choice((0.15, 0.35, 0.7))
    out = []
    for _ in range(rows):
        pick = rng.random()
        if pick < 0.1:
            row = [0] * cols
        elif pick < 0.35 and len(out) >= 2:
            a, b = rng.sample(out, 2)
            s, t = _random_scalar(rng, F), _random_scalar(rng, F)
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = [_random_scalar(rng, F)
                   if j not in dead_cols and rng.random() < density else 0
                   for j in range(cols)]
        out.append([x % F.p if F.p else Fraction(x) if x else 0
                    for x in row])
    return out


def _to_sparse(dense, cols, F):
    return SparseMatrix.from_entries(len(dense), cols, F, {
        (i, j): x for i, row in enumerate(dense)
        for j, x in enumerate(row) if x})


def _reference_rref(dense, cols, p):
    """Gauss-Jordan on Fraction rows (mod p when p > 0): the pivot columns
    and the nonzero rows of the reduced row echelon form as {col: value}."""
    rows = [list(r) for r in dense]
    pivots = []
    top = 0
    for col in range(cols):
        hit = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[top], rows[hit] = rows[hit], rows[top]
        lead = rows[top][col]
        inv = pow(lead, -1, p) if p else 1 / lead
        rows[top] = [x * inv % p if p else x * inv for x in rows[top]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != top and c:
                rows[i] = [(x - c * y) % p if p else x - c * y
                           if y else x
                           for x, y in zip(rows[i], rows[top])]
        pivots.append(col)
        top += 1
    return pivots, [{j: x for j, x in enumerate(rows[t]) if x}
                    for t in range(len(pivots))]


def _reference_nullspace(pivots, rows, cols, p):
    """The kernel basis read off a reduced row echelon form: for each free
    column f ascending, 1 at f, then -row[f] at each pivot in pivot order."""
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        vec = {f: 1}
        for col, row in zip(pivots, rows):
            if row.get(f):
                vec[col] = -row[f] % p if p else -row[f]
        basis.append(vec)
    return basis


def _dense_product(a, b, p):
    out = {}
    for i, row in enumerate(a):
        sums = {}
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        sums[j] = sums.get(j, 0) + x * y
        for j, s in sums.items():
            s = s % p if p else s
            if s:
                out[(i, j)] = s
    return out


def _assert_canonical(values, F):
    for x in values:
        if F.p:
            assert type(x) is int and 0 < x < F.p, x
        else:
            assert x != 0
            assert (type(x) is int) == (Fraction(x).denominator == 1), x
            assert type(x) in (int, Fraction), x


def test_kernel_matches_dense_gauss_jordan():
    rng = random.Random(2024)
    for F in FIELDS:
        for _ in range(MATRICES_PER_FIELD):
            rows, cols = rng.randint(0, 14), rng.randint(0, 14)
            dense = _random_dense(rng, F, rows, cols)
            m = _to_sparse(dense, cols, F)
            _assert_canonical([v for _, v in m.items()], F)
            ech = Echelon(m)
            want_cols, want_rows = _reference_rref(dense, cols, F.p)
            assert ech.pivot_cols == want_cols
            assert ech.pivot_rows == want_rows
            for row in ech.pivot_rows:
                _assert_canonical(row.values(), F)
            # nullspace certificate: cols - rank vectors that m kills
            basis = nullspace(m)
            assert len(basis) == cols - len(want_cols)
            for vec in basis:
                _assert_canonical(vec.values(), F)
            kernel = SparseMatrix.from_columns(basis, cols, F)
            assert (m * kernel).is_zero()
            assert Echelon(kernel.transpose()).rank == len(basis)
            # products against the dense reference
            inner_cols = rng.randint(0, 6)
            other = _random_dense(rng, F, cols, inner_cols)
            prod = m * _to_sparse(other, inner_cols, F)
            assert (prod.rows, prod.cols) == (rows, inner_cols)
            assert dict(prod.items()) == _dense_product(dense, other, F.p)
            _assert_canonical([v for _, v in prod.items()], F)


def test_rational_scalars_are_canonical():
    def scalar(x):
        return SparseMatrix.from_entries(1, 1, QQ, {(0, 0): x})

    half = QQ.coerce("1/2")
    # a sum, a product and a difference that are integral come out as ints
    for m, want in ((scalar(half) + scalar(half), 1),
                    (scalar(4) * scalar(half), 2),
                    (scalar(QQ.coerce("3/2")) - scalar(half), 1),
                    (SparseMatrix.from_entries(1, 1, QQ,
                                               [((0, 0), half)] * 2), 1)):
        x = entry(m, 0, 0)
        assert type(x) is int and x == want
    assert type(QQ.coerce(Fraction(6, 3))) is int
    assert QQ.format_scalar(QQ.coerce("4/2")) == "2"
    assert QQ.format_scalar(QQ.coerce("-2/6")) == "-1/3"
    assert hash(QQ.coerce("3")) == hash(Fraction(3))


def test_gf2_kernel_on_wide_matrices():
    rng = random.Random(7)
    for rows, cols in ((3, 200), (12, 300), (40, 257), (25, 512), (90, 640)):
        dense = _random_dense(rng, F2, rows, cols)
        ech = Echelon(_to_sparse(dense, cols, F2))
        want_cols, want_rows = _reference_rref(dense, cols, 2)
        assert ech.pivot_cols == want_cols
        # the same rows with the same key order (ascending columns)
        assert [list(r.items()) for r in ech.pivot_rows] == \
            [sorted(r.items()) for r in want_rows]
        want_null = _reference_nullspace(want_cols, want_rows, cols, 2)
        assert [list(v.items()) for v in ech.nullspace_basis()] == \
            [list(v.items()) for v in want_null]
