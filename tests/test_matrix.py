"""SparseMatrix against a dense reference, and rank certificates.

Every operation of the matrix type is checked on seeded random draws over
F2 (rows stored as bitsets), F3 and Q (rows stored as {col: scalar} dicts)
against dense lists of canonical scalars computed here, independently of
tcalc.sparse.  The vanishing test for signed sums of products is checked against the
materialized sum on draws that vanish and draws that do not.  The rank
certificates are rank-nullity in each degree of a random integral complex
whose homology is known over each field, and rank over Q >= rank over F_p on
integral input."""

import random
from fractions import Fraction

import pytest

from helpers import nnz
from tcalc.chain import ChainComplex
from tcalc.fields import QQ, FieldSpec
from tcalc.laws import rank
from tcalc.sparse import Echelon, SparseMatrix, nullspace, vanishes

F2, F3 = FieldSpec(2), FieldSpec(3)
FIELDS = (F2, F3, QQ)
DRAWS = 300


def _canon(F, x):
    return x % F.p if F.p else Fraction(x)


def _scalar(rng, F):
    if F.p:
        return rng.randrange(F.p)
    return Fraction(rng.choice((-2, -1, 1, 1, 3)), rng.choice((1, 1, 2, 3)))


def _dense(rng, F, rows, cols):
    density = rng.choice((0.0, 0.2, 0.5, 0.9))
    return [[_scalar(rng, F) if rng.random() < density else _canon(F, 0)
             for _ in range(cols)] for _ in range(rows)]


def _sparse(dense, cols, F):
    return SparseMatrix.from_entries(len(dense), cols, F, {
        (i, j): x for i, row in enumerate(dense)
        for j, x in enumerate(row) if x})


def _entries(dense):
    return {(i, j): x for i, row in enumerate(dense)
            for j, x in enumerate(row) if x}


def _add(a, b, F, c=1):
    return [[_canon(F, x + c * y) for x, y in zip(r, s)]
            for r, s in zip(a, b)]


def _mul(a, b, F, cols):
    return [[_canon(F, sum(x * b[k][j] for k, x in enumerate(row)))
             for j in range(cols)] for row in a]


def _assert_matches(m, dense, F):
    """m equals the dense matrix, entry by entry and through every reader,
    with canonical scalars."""
    rows, cols = len(dense), m.cols
    assert m.rows == rows and m.field == F
    want = _entries(dense)
    got = dict(m.items())
    assert got == want
    assert nnz(m) == len(want)
    assert m.is_zero() == (not want)
    for v in got.values():
        if F.p:
            assert type(v) is int and 0 < v < F.p
        else:
            assert (type(v) is int) == (Fraction(v).denominator == 1)
    cols_want = {}
    for (i, j), v in sorted(want.items(), key=lambda e: (e[0][1], e[0][0])):
        cols_want.setdefault(j, {})[i] = v
    assert m.by_column() == cols_want
    assert m == _sparse(dense, cols, F)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.name())
def test_matrix_operations_match_a_dense_reference(F):
    rng = random.Random(16 + F.p)
    for _ in range(DRAWS):
        # past 64 columns a row bitset spans two machine words
        r, k = rng.randint(0, 6), rng.randint(0, 6)
        c = rng.randint(0, 70 if F.p == 2 else 24)
        a, b = _dense(rng, F, r, c), _dense(rng, F, r, c)
        A, B = _sparse(a, c, F), _sparse(b, c, F)
        _assert_matches(A, a, F)
        # repeated indices are summed, and sums to zero dropped
        pairs = [(ij, v) for ij, v in _entries(a).items()] * 2 + \
            [(ij, v) for ij, v in _entries(b).items()] + \
            [(ij, -v) for ij, v in _entries(b).items()]
        rng.shuffle(pairs)
        _assert_matches(SparseMatrix.from_entries(r, c, F, pairs),
                        _add(a, a, F), F)
        _assert_matches(A + B, _add(a, b, F), F)
        _assert_matches(A - B, _add(a, b, F, -1), F)
        _assert_matches(-A, _add([[0] * c] * r, a, F, -1), F)
        s = _scalar(rng, F)
        _assert_matches(A.scale(s), [[_canon(F, s * x) for x in row]
                                     for row in a], F)
        _assert_matches(A.transpose(), [list(col) for col in zip(*a)]
                        if r else [[] for _ in range(c)], F)
        other = _dense(rng, F, c, k)
        _assert_matches(A * _sparse(other, k, F), _mul(a, other, F, k), F)
        _assert_matches(SparseMatrix.identity(c, F),
                        [[_canon(F, i == j) for j in range(c)]
                         for i in range(c)], F)
        assert (A == B) == (a == b)
        assert A != SparseMatrix(r, c + 1, F)
        # blocks: a random 2 x 2 layout with some blocks left out
        rs, cs = [r, rng.randint(0, 4)], [c, rng.randint(0, 40)]
        dense_blocks = {(bi, bj): _dense(rng, F, rs[bi], cs[bj])
                        for bi in range(2) for bj in range(2)
                        if rng.random() < 0.7}
        big = [[_canon(F, 0)] * sum(cs) for _ in range(sum(rs))]
        for (bi, bj), d in dense_blocks.items():
            for i, row in enumerate(d):
                for j, x in enumerate(row):
                    big[rs[0] * bi + i][cs[0] * bj + j] = x
        _assert_matches(SparseMatrix.block(
            {ij: _sparse(d, cs[ij[1]], F) for ij, d in dense_blocks.items()},
            rs, cs, F), big, F)
        _assert_matches(SparseMatrix.block({(0, 0): A, (1, 0): B}, [r, r],
                                           [c], F), a + b, F)
        with pytest.raises(ValueError):
            SparseMatrix.block({(0, 0): A}, [r + 1], [c], F)


def _terms(rng, F, r, c):
    """Random (c, A, B) terms of shape r x c with their dense sum; B None
    stands for the identity."""
    terms, total = [], [[_canon(F, 0)] * c for _ in range(r)]
    for _ in range(rng.randint(1, 4)):
        coef = rng.choice((1, -1, 2))
        if rng.random() < 0.3:
            a = prod = _dense(rng, F, r, c)
            terms.append((coef, _sparse(a, c, F), None))
        else:
            inner = rng.randint(0, 5)
            a, b = _dense(rng, F, r, inner), _dense(rng, F, inner, c)
            prod = _mul(a, b, F, c)
            terms.append((coef, _sparse(a, inner, F), _sparse(b, c, F)))
        total = _add(total, prod, F, coef)
    return terms, total


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.name())
def test_vanishes_matches_the_materialized_sum(F):
    rng = random.Random(61 + F.p)
    seen = {True: 0, False: 0}
    for _ in range(DRAWS):
        r, c = rng.randint(0, 5), rng.randint(0, 40)
        terms, total = _terms(rng, F, r, c)
        if rng.random() < 0.5:
            # cancel the sum with its negation, shuffled into the terms
            terms += [(-coef, a, b) for coef, a, b in terms]
            rng.shuffle(terms)
            total = [[_canon(F, 0)] * c for _ in range(r)]
        materialized = SparseMatrix(r, c, F)
        for coef, a, b in terms:
            materialized = materialized + (a if b is None else a * b).scale(
                coef)
        want = not any(x for row in total for x in row)
        assert materialized.is_zero() == want
        assert vanishes(terms) == want
        seen[want] += 1
    assert min(seen.values()) > DRAWS // 5, seen
    # an undefined product raises as * does; differing shapes never vanish
    z = SparseMatrix(2, 3, F)
    with pytest.raises(ValueError):
        vanishes([(1, z, z)])
    assert not vanishes([(1, z, None), (1, SparseMatrix(3, 2, F), None)])
    assert vanishes([(1, z, SparseMatrix(3, 4, F))])


def _integral_complex(rng, top):
    """A complex of free abelian groups in degrees 0..top: a sum of spheres
    and of two-cell pieces Z --m--> Z (m in 1, 2, 3, 6), each degree then
    conjugated by a random unimodular change of basis.  Returns its integer
    differentials {k: dense rows} and dims, and {p: {k: dim H_k}} over Q,
    F_2 and F_3, read off the pieces."""
    dims, pieces = {k: 0 for k in range(top + 1)}, []
    for _ in range(rng.randint(2, 6)):
        k = rng.randint(0, top)
        if k and rng.random() < 0.7:
            m = rng.choice((1, 2, 3, 6))
            pieces.append((k, dims[k], dims[k - 1], m))
            dims[k] += 1
            dims[k - 1] += 1
        else:
            dims[k] += 1
    d = {k: [[0] * dims[k] for _ in range(dims[k - 1])]
         for k in range(1, top + 1)}
    for k, col, row, m in pieces:
        d[k][row][col] = m
    for k in range(top + 1):
        # x -> x + c y on two basis vectors: rows i += c * rows j of the
        # outgoing map's target side, columns j -= c * column i on the other
        for _ in range(3 * dims[k]):
            if dims[k] < 2:
                break
            i, j = rng.sample(range(dims[k]), 2)
            c = rng.choice((-1, 1, 2))
            if k in d:       # d_k has C_k as its source: columns
                for row in d[k]:
                    row[j] -= c * row[i]
            if k + 1 in d:   # d_{k+1} has C_k as its target: rows
                d[k + 1][i] = [x + c * y
                               for x, y in zip(d[k + 1][i], d[k + 1][j])]
    homology = {}
    for p in (0, 2, 3):
        h = {k: n for k, n in dims.items()}
        for k, _, _, m in pieces:
            if m % p if p else m:
                h[k] -= 1
                h[k - 1] -= 1
        homology[p] = {k: n for k, n in h.items() if n}
    return d, dims, homology


def test_rank_certificates_on_integral_complexes():
    rng = random.Random(1616)
    for _ in range(200):
        d, dims, homology = _integral_complex(rng, rng.randint(1, 4))
        ranks = {}
        for F in (QQ, F2, F3):
            mats = {k: SparseMatrix.from_entries(
                dims[k - 1], dims[k], F, _entries(rows)) for k, rows in d.items()}
            c = ChainComplex(F, dims, mats).validate()
            ranks[F.p] = {k: rank(m) for k, m in mats.items()}
            for k, n in dims.items():
                # rank-nullity in each degree, with a certified kernel basis
                ech = Echelon(c.d(k))
                kernel = nullspace(c.d(k))
                assert ech.rank + len(kernel) == n
                if kernel:
                    basis = SparseMatrix.from_columns(kernel, n, F)
                    assert (c.d(k) * basis).is_zero()
                    assert rank(basis) == len(kernel)
            assert c.homology_dims() == homology[F.p], F.name()
        for p in (2, 3):
            assert all(ranks[0][k] >= ranks[p][k] for k in d)


def test_rank_over_q_bounds_rank_mod_p():
    rng = random.Random(99)
    strict = 0
    for _ in range(400):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        ent = {(i, j): rng.choice((0, 0, 1, -1, 2, 3, 6))
               for i in range(rows) for j in range(cols)}
        rq = rank(SparseMatrix.from_entries(rows, cols, QQ, ent))
        for F in (F2, F3):
            rp = rank(SparseMatrix.from_entries(rows, cols, F, ent))
            assert rq >= rp
            strict += rq > rp
    assert strict
