"""Sparse exact matrices over a FieldSpec and the elimination kernel.

Matrices map column vectors to column vectors: an (r x c) matrix is a map
k^c -> k^r.  Entries live in ``entries[(i, j)]`` with no stored zeros, in
the field's canonical scalar form.

Elimination over F_2 runs on int bitsets.  Over F_p and Q one lead-keyed
kernel serves both ``Span`` and ``Echelon``: each incoming row is reduced
against the rows kept so far, keyed by their lowest column (the lead), until
its lead is new or it vanishes.  Over F_p the kept rows have lead 1 and all
arithmetic is inline ``% p``.  Over Q the kept rows are primitive int
vectors (denominators cleared, content divided out): one reduction step is
the fraction-free combination a*v - c*row with a, c the two leads over their
gcd, followed by division by the content, so no ``Fraction`` is formed while
eliminating (compare Bareiss, Math. Comp. 22 (1968)).  ``Echelon`` then
back-substitutes from the last pivot up and divides each row by its lead
once, which yields the unique reduced row echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .fields import FieldSpec


class SparseMatrix:
    __slots__ = ("rows", "cols", "field", "entries")

    def __init__(self, rows: int, cols: int, field: FieldSpec):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        self.rows = rows
        self.cols = cols
        self.field = field
        self.entries = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_entries(cls, rows, cols, field, acc):
        """The rows x cols matrix with the entries acc: a dict {(i, j):
        scalar}, or an iterable of ((i, j), scalar) pairs whose repeated
        indices are summed.  Each entry is brought to canonical form once
        (an int stays an int over Q, and is reduced by % p over F_p) and
        zeros are dropped; an index outside the shape raises IndexError.
        This is the one way to build a matrix from entries."""
        if not isinstance(acc, dict):
            pairs, acc = acc, {}
            for ij, v in pairs:
                acc[ij] = acc.get(ij, 0) + v
        for ij in acc:
            i, j = ij
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError("entry %r out of range for %dx%d"
                                 % (ij, rows, cols))
        m = cls(rows, cols, field)
        p = field.p
        coerce = field.coerce
        if p:
            m.entries = {ij: r for ij, v in acc.items()
                         if (r := v % p if v.__class__ is int else coerce(v))}
        else:
            m.entries = {ij: v if v.__class__ is int else coerce(v)
                         for ij, v in acc.items() if v}
        return m

    @classmethod
    def identity(cls, n, field):
        m = cls(n, n, field)
        m.entries = {(i, i): 1 for i in range(n)}
        return m

    @classmethod
    def from_rows(cls, rows_list, field):
        c = len(rows_list[0]) if rows_list else 0
        return cls.from_entries(len(rows_list), c, field, {
            (i, j): v for i, row in enumerate(rows_list)
            for j, v in enumerate(row)})

    @classmethod
    def from_sparse_rows(cls, rows, cols, field):
        """The matrix whose r-th row is the sparse vector rows[r] ({col: scalar})."""
        return cls.from_entries(len(rows), cols, field, {
            (r, j): v for r, vec in enumerate(rows) for j, v in vec.items()})

    @classmethod
    def from_columns(cls, columns, rows, field):
        """The matrix whose j-th column is the sparse vector columns[j]."""
        return cls.from_entries(rows, len(columns), field, {
            (i, j): v for j, vec in enumerate(columns) for i, v in vec.items()})

    @classmethod
    def vstack(cls, mats):
        """One or more matrices with equal column counts, stacked top to bottom."""
        cols, field = mats[0].cols, mats[0].field
        if any(m.cols != cols or m.field != field for m in mats):
            raise ValueError("vstack needs equal column counts and fields")
        return cls.block({(i, 0): m for i, m in enumerate(mats)},
                         [m.rows for m in mats], [cols], field)

    def by_column(self):
        """{column: {row: scalar}} over the nonzero columns, each column's
        entries in stored order."""
        cols = {}
        for (i, j), v in self.entries.items():
            cols.setdefault(j, {})[i] = v
        return cols

    def nonzero_columns(self):
        """The nonzero columns, left to right, as {row: scalar} vectors."""
        cols = self.by_column()
        return [cols[j] for j in sorted(cols)]

    # -- entry access ---------------------------------------------------------

    def __getitem__(self, ij):
        return self.entries.get(ij, self.field.zero())

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self):
        return "SparseMatrix(%dx%d over %s, %d nonzero)" % (
            self.rows, self.cols, self.field.name(), len(self.entries))

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        self._check_shape(other)
        return SparseMatrix.from_entries(
            self.rows, self.cols, self.field,
            chain(self.entries.items(), other.entries.items()))

    def __sub__(self, other):
        self._check_shape(other)
        return SparseMatrix.from_entries(
            self.rows, self.cols, self.field,
            chain(self.entries.items(),
                  ((ij, -v) for ij, v in other.entries.items())))

    def __neg__(self):
        m = SparseMatrix(self.rows, self.cols, self.field)
        F = self.field
        m.entries = {ij: F.neg(v) for ij, v in self.entries.items()}
        return m

    def scale(self, c):
        c = self.field.coerce(c)
        m = SparseMatrix(self.rows, self.cols, self.field)
        if self.field.is_zero(c):
            return m
        F = self.field
        m.entries = {ij: F.mul(c, v) for ij, v in self.entries.items()}
        return m

    def __mul__(self, other):
        """Matrix product self * other (composition: self after other)."""
        if not isinstance(other, SparseMatrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d * %dx%d" %
                             (self.rows, self.cols, other.rows, other.cols))
        if self.field != other.field:
            raise ValueError("field mismatch")
        F = self.field
        # group other's entries by row
        by_row = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        acc = {}
        for (i, k), a in self.entries.items():
            hits = by_row.get(k)
            if hits is None:
                continue
            for j, b in hits:
                ij = (i, j)
                acc[ij] = acc.get(ij, 0) + a * b
        return SparseMatrix.from_entries(self.rows, other.cols, F, acc)

    def transpose(self):
        m = SparseMatrix(self.cols, self.rows, self.field)
        m.entries = {(j, i): v for (i, j), v in self.entries.items()}
        return m

    def apply(self, vec: dict) -> dict:
        """Apply to a sparse column vector {index: scalar}."""
        F = self.field
        out = {}
        for (i, j), a in self.entries.items():
            b = vec.get(j)
            if b is None:
                continue
            cur = out.get(i, F.zero())
            cur = F.add(cur, F.mul(a, b))
            if F.is_zero(cur):
                out.pop(i, None)
            else:
                out[i] = cur
        return out

    def _check_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        if self.field != other.field:
            raise ValueError("field mismatch")

    # -- block assembly ---------------------------------------------------------

    @classmethod
    def block(cls, blocks, row_sizes, col_sizes, field):
        """Assemble from {(bi, bj): SparseMatrix or None} with given block
        sizes; a block whose shape differs from its sizes raises ValueError."""
        roff = [0]
        for s in row_sizes:
            roff.append(roff[-1] + s)
        coff = [0]
        for s in col_sizes:
            coff.append(coff[-1] + s)
        out = cls(roff[-1], coff[-1], field)
        entries = out.entries
        for (bi, bj), m in blocks.items():
            if m is None:
                continue
            if m.rows != row_sizes[bi] or m.cols != col_sizes[bj]:
                raise ValueError("block (%d,%d) has wrong shape" % (bi, bj))
            r0, c0 = roff[bi], coff[bj]
            for (i, j), v in m.entries.items():
                entries[(r0 + i, c0 + j)] = v
        return out


# ---------------------------------------------------------------------------
# Elimination kernel
# ---------------------------------------------------------------------------


def _rows_as_bitsets(m: SparseMatrix):
    rows = [0] * m.rows
    for (i, j), _ in m.entries.items():
        rows[i] |= 1 << j
    return rows


def _gf2_echelon(rows, ncols):
    """In-place forward elimination; returns list of (pivot_col, row_bits)."""
    pivots = []
    work = [r for r in rows if r]
    for col in range(ncols):
        mask = 1 << col
        pivot_row = None
        for idx, r in enumerate(work):
            if r & mask:
                pivot_row = idx
                break
        if pivot_row is None:
            continue
        pr = work.pop(pivot_row)
        pivots.append((col, pr))
        work = [(r ^ pr) if (r & mask) else r for r in work]
        work = [r for r in work if r]
    return pivots


class Echelon:
    """Reduced row echelon data for a matrix, reusable for rank / solve /
    nullspace.

    pivot_cols ascend, and pivot_rows[t] is the t-th row of the reduced row
    echelon form of the row space ({col: scalar}): 1 at pivot_cols[t] and 0
    at every other pivot column.  That form is unique, so it does not depend
    on the elimination order."""

    def __init__(self, m: SparseMatrix):
        self.field = m.field
        self.cols = m.cols
        if m.field.p == 2:
            self._init_gf2(m)
        else:
            self._init_lead_keyed(m)

    def _init_gf2(self, m):
        pivots = _gf2_echelon(_rows_as_bitsets(m), m.cols)
        # back-substitute for reduced form
        pivots.sort()
        for idx in range(len(pivots) - 1, -1, -1):
            col, row = pivots[idx]
            for k in range(idx):
                c2, r2 = pivots[k]
                if r2 & (1 << col):
                    pivots[k] = (c2, r2 ^ row)
        self.pivot_cols = [c for c, _ in pivots]
        self.pivot_rows = []
        for c, bits in pivots:
            # walk the set bits, lowest first
            row = {}
            while bits:
                low = bits & -bits
                row[low.bit_length() - 1] = 1
                bits ^= low
            self.pivot_rows.append(row)

    def _init_lead_keyed(self, m):
        # forward: grow the span of the rows, one kept row per pivot column
        by_row = {}
        for (i, j), v in m.entries.items():
            by_row.setdefault(i, {})[j] = v
        span = Span(self.field)
        for row in by_row.values():
            span.add(row)
        # back-substitute from the last pivot up: the rows below a pivot are
        # already reduced, so clearing their leads in any order is enough
        p = self.field.p
        done = {}
        for col in sorted(span.rows, reverse=True):
            row = span.rows[col]
            for lead in [j for j in row if j in done]:
                row = _eliminate(row, done[lead], lead, p)
            done[col] = row
        self.pivot_cols = sorted(done)
        self.pivot_rows = [done[c] if p else _divide_q(done[c], done[c][c])
                           for c in self.pivot_cols]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def reduce_vector(self, vec: dict) -> dict:
        """Reduce a column vector (as {col: scalar}) against the row space."""
        F = self.field
        v = dict(vec)
        for col, row in zip(self.pivot_cols, self.pivot_rows):
            c = v.get(col)
            if c is None:
                continue
            for j, w in row.items():
                cur = F.sub(v.get(j, F.zero()), F.mul(c, w))
                if F.is_zero(cur):
                    v.pop(j, None)
                else:
                    v[j] = cur
        return v

    def free_cols(self):
        """The non-pivot columns, ascending."""
        pivset = set(self.pivot_cols)
        return [j for j in range(self.cols) if j not in pivset]

    def nullspace_basis(self):
        """Basis of the kernel (column vectors as dicts).  The t-th vector is
        1 on free_cols()[t] and 0 on the other free columns."""
        F = self.field
        basis = {fj: {fj: 1} for fj in self.free_cols()}
        # one pass over the pivot rows: a reduced row is 0 at every other
        # pivot column, so each entry off its own pivot lies in a free column
        for col, row in zip(self.pivot_cols, self.pivot_rows):
            for j, c in row.items():
                vec = basis.get(j)
                if vec is not None:
                    vec[col] = F.neg(c)
        return list(basis.values())


def _primitive(vec):
    """A nonzero multiple of vec (Q scalars) with coprime int entries, as a
    new dict: denominators cleared, content divided out."""
    den = lcm(*[x.denominator for x in vec.values()])
    if den == 1:
        v = dict(vec)
    else:
        v = {j: x.numerator * (den // x.denominator) for j, x in vec.items()}
    g = gcd(*v.values())
    return v if g == 1 else {j: x // g for j, x in v.items()}


def _eliminate(v, row, lead, p):
    """v with its entry at row's lead cleared by row, which owns that lead.
    Over F_p (p > 0) row[lead] == 1 and v is updated in place.  Over Q (p ==
    0) v and row are primitive int vectors, row[lead] > 0, and the result
    is a primitive int multiple of v - (v[lead] / row[lead]) row."""
    c = v[lead]
    if p:
        for j, w in row.items():
            x = (v.get(j, 0) - c * w) % p
            if x:
                v[j] = x
            else:
                del v[j]
        return v
    a = row[lead]
    g = gcd(a, c)
    if g != 1:
        a //= g
        c //= g
    if a != 1:
        v = {j: a * x for j, x in v.items()}
    for j, w in row.items():
        x = v.get(j, 0) - c * w
        if x:
            v[j] = x
        else:
            del v[j]
    g = gcd(*v.values())
    return v if g == 1 else {j: x // g for j, x in v.items()}


def _divide_q(v, a):
    """The int vector v divided by the int a, in canonical Q scalars."""
    if a == 1:
        return v
    return {j: x // a if x % a == 0 else Fraction(x, a) for j, x in v.items()}


class Span:
    """A span of sparse vectors ({index: scalar}, no stored zeros) grown one
    vector at a time.

    Each stored row is keyed by its lowest index (its lead), with distinct
    leads; a vector lies in the span iff reducing it lead by lead empties it.
    Over F_2 rows are int bitsets, over F_p dicts with lead coefficient 1,
    and over Q primitive int vectors with a positive lead, so that reducing
    never leaves the integers.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.rows = {}

    def _residue(self, vec):
        """vec reduced against the rows until its lead is no row's lead:
        (residue, its lead), or (empty residue, None) when vec is in the span.
        Over Q the residue is a primitive int multiple."""
        rows = self.rows
        p = self.field.p
        if p == 2:
            v = 0
            for j in vec:
                v |= 1 << j
            while v:
                lead = (v & -v).bit_length() - 1
                row = rows.get(lead)
                if row is None:
                    return v, lead
                v ^= row
            return v, None
        if not vec:
            return {}, None
        v = dict(vec) if p else _primitive(vec)
        while v:
            lead = min(v)
            row = rows.get(lead)
            if row is None:
                return v, lead
            v = _eliminate(v, row, lead, p)
        return v, None

    def __contains__(self, vec) -> bool:
        return self._residue(vec)[1] is None

    def add(self, vec) -> bool:
        """Add vec to the span; True iff the span grew."""
        v, lead = self._residue(vec)
        if lead is None:
            return False
        p = self.field.p
        if p != 2:
            c = v[lead]
            if p and c != 1:
                inv = pow(c, -1, p)
                v = {j: x * inv % p for j, x in v.items()}
            elif not p and c < 0:
                v = {j: -x for j, x in v.items()}
        self.rows[lead] = v
        return True


def rank(m: SparseMatrix) -> int:
    return Echelon(m).rank


def nullspace(m: SparseMatrix):
    return Echelon(m).nullspace_basis()


def solve(m: SparseMatrix, b: dict):
    """One solution x (dict) of m x = b, or None.  b is {row: scalar}."""
    F = m.field
    # eliminate on the augmented matrix [m | b]
    aug = SparseMatrix(m.rows, m.cols + 1, F)
    aug.entries = dict(m.entries)
    for i, v in b.items():
        if not F.is_zero(v):
            aug.entries[(i, m.cols)] = v
    ech = Echelon(aug)
    x = {}
    for col, row in zip(ech.pivot_cols, ech.pivot_rows):
        if col == m.cols:
            return None  # inconsistent
        c = row.get(m.cols)
        if c is not None:
            x[col] = c
    return x


def solve_matrix(m: SparseMatrix, b: SparseMatrix):
    """Solve m X = b columnwise; returns X or None."""
    if m.rows != b.rows or m.field != b.field:
        raise ValueError("shape/field mismatch")
    F, n = m.field, m.cols
    # single elimination of m with all right-hand sides appended
    ech = Echelon(SparseMatrix.block({(0, 0): m, (0, 1): b}, [m.rows],
                                     [n, b.cols], F))
    if ech.pivot_cols and ech.pivot_cols[-1] >= n:
        return None
    x = SparseMatrix(n, b.cols, F)
    x.entries = {(col, j - n): v
                 for col, row in zip(ech.pivot_cols, ech.pivot_rows)
                 for j, v in row.items() if j >= n}
    # verify (cheap insurance against pivoting into the rhs block)
    if (m * x) != b:
        return None
    return x
