"""Sparse exact matrices and the package's one scalar kernel.

Every sum and product of scalars in the package runs here: a field
(`fields.FieldSpec`) is only its characteristic p, and it holds no
arithmetic.  A matrix is built from entries by ``from_entries`` (repeated
indices summed, each scalar canonicalized once), stacked from blocks by
``block``, and pushed through another by a product; a vector is a
one-column matrix.

Matrices map column vectors to column vectors: an (r x c) matrix is a map
k^c -> k^r.  It is stored row by row in ``data``, ``{i: row}`` with no empty
rows, and only this module reads it; elsewhere a matrix is read through
``items()`` (``((i, j), scalar)`` pairs) and ``by_column()``.  A row is

* over F_2, an int bitset, bit j of row i set iff entry (i, j) is 1: sums
  XOR rows and blocks shift them;
* over F_p and Q, a dict ``{j: scalar}`` with no stored zeros, each scalar
  in the field's canonical form.

Sums, products and ``vanishes`` (is a signed sum of products zero?) all add
c * A * B into one accumulator of rows, ``_accumulate``: a row of A adds up
the stored rows of B that its entries pick (over F_2 it XORs them), and
``_canonical`` turns the sums back into storage; with ``FieldSpec.coerce``
it is the only code that brings a scalar to canonical form.

One lead-keyed kernel serves both ``Span`` and ``Echelon`` on every field,
and reads the stored rows as they are: each incoming row is reduced against
the rows kept so far, keyed by their lowest column (the lead), until its
lead is new or it vanishes.  Over F_2 a step is one XOR.  Over F_p the kept
rows have lead 1 and all arithmetic is inline ``% p``.  Over Q the kept rows
are primitive int vectors (denominators cleared, content divided out): one
reduction step is the fraction-free combination a*v - c*row with a, c the
two leads over their gcd, followed by division by the content, so no
``Fraction`` is formed while eliminating (compare Bareiss, Math. Comp. 22
(1968)).  ``Echelon`` then back-substitutes from the last lead up and
divides each row by its lead once, which yields the unique reduced row
echelon form.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm

from . import rationals
from .fields import FieldSpec


def _ones(bits):
    """The set bits of an int, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _accumulate(acc, c, a, b):
    """Add c * a * b (b None: c * a) into acc, {row: row} in the storage
    form of a's field, for c nonzero in the field; sums that cancel stay as
    zeros.  Each row of a adds up c times the rows of b its entries pick,
    scaled by those entries; over F_2 it XORs them."""
    rows = None if b is None else b.data
    if a.field.p == 2:
        for i, r in a.data.items():
            if rows is not None:
                x = 0
                while r:
                    low = r & -r
                    x ^= rows.get(low.bit_length() - 1, 0)
                    r ^= low
                r = x
            acc[i] = acc.get(i, 0) ^ r
        return
    for i, r in a.data.items():
        out = acc.setdefault(i, {})
        get = out.get
        for k, x in r.items():
            if c != 1:
                x = c * x
            if rows is None:
                out[k] = get(k, 0) + x
            elif k in rows:
                for j, y in rows[k].items():
                    out[j] = get(j, 0) + x * y


def _canonical(field, acc):
    """The storage of rows of sums, {i: bits} or {i: {j: scalar}}: each
    scalar brought to canonical form in place (% p over F_p, an int or a
    reduced Fraction over Q), zeros and empty rows dropped."""
    p = field.p
    if p == 2:
        return {i: x for i, x in acc.items() if x}
    coerce = field.coerce
    data = {}
    for i, row in acc.items():
        for j, v in row.items():
            x = (v % p if p else v) if v.__class__ is int else coerce(v)
            if x is not v:
                row[j] = x
        if 0 in row.values():
            row = {j: x for j, x in row.items() if x}
        if row:
            data[i] = row
    return data


def _check_product(a, b):
    if a.cols != b.rows:
        raise ValueError("shape mismatch %dx%d * %dx%d" %
                         (a.rows, a.cols, b.rows, b.cols))
    if a.field != b.field:
        raise ValueError("field mismatch")


class SparseMatrix:
    __slots__ = ("rows", "cols", "field", "data")

    def __init__(self, rows: int, cols: int, field: FieldSpec, data=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        self.rows = rows
        self.cols = cols
        self.field = field
        self.data = {} if data is None else data

    # -- construction -------------------------------------------------------

    @classmethod
    def from_entries(cls, rows, cols, field, acc):
        """The rows x cols matrix with the entries acc: a dict {(i, j):
        scalar}, or an iterable of ((i, j), scalar) pairs whose repeated
        indices are summed.  Each entry is brought to canonical form once
        (an int stays an int over Q, and is reduced by % p over F_p) and
        zeros are dropped; an index outside the shape raises IndexError.
        This is the one way to build a matrix from entries."""
        two = field.p == 2
        coerce = field.coerce
        data = {}
        for ij, v in acc.items() if isinstance(acc, dict) else acc:
            i, j = ij
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError("entry %r out of range for %dx%d"
                                 % (ij, rows, cols))
            if not two:
                row = data.setdefault(i, {})
                row[j] = row[j] + v if j in row else v
            # summing over F_2 is XOR, so entries are packed as they come
            elif v & 1 if v.__class__ is int else coerce(v):
                data[i] = data.get(i, 0) ^ 1 << j
        return cls(rows, cols, field, _canonical(field, data))

    @classmethod
    def identity(cls, n, field):
        return cls(n, n, field, {i: 1 << i if field.p == 2 else {i: 1}
                                 for i in range(n)})

    @classmethod
    def from_rows(cls, rows_list, field):
        c = len(rows_list[0]) if rows_list else 0
        return cls.from_entries(len(rows_list), c, field, {
            (i, j): v for i, row in enumerate(rows_list)
            for j, v in enumerate(row)})

    @classmethod
    def from_columns(cls, columns, rows, field):
        """The matrix whose j-th column is the sparse vector columns[j]."""
        return cls.from_entries(rows, len(columns), field, {
            (i, j): v for j, vec in enumerate(columns) for i, v in vec.items()})

    # -- entry access ---------------------------------------------------------

    def items(self):
        """The nonzero entries as ((i, j), scalar) pairs, row by row in
        stored row order; over F_2 each row's columns ascend."""
        if self.field.p == 2:
            return (((i, j), 1) for i, b in self.data.items()
                    for j in _ones(b))
        return (((i, j), v) for i, r in self.data.items()
                for j, v in r.items())

    def by_column(self):
        """{column: {row: scalar}} over the nonzero columns, each column's
        entries in the order of items()."""
        cols = {}
        for (i, j), v in self.items():
            cols.setdefault(j, {})[i] = v
        return cols

    def nonzero_columns(self):
        """The nonzero columns, left to right, as {row: scalar} vectors."""
        cols = self.by_column()
        return [cols[j] for j in sorted(cols)]

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.data == other.data
        )

    def __repr__(self):
        return "SparseMatrix(%dx%d over %s, %d nonzero)" % (
            self.rows, self.cols, self.field.name(), len(list(self.items())))

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        if self.field != other.field:
            raise ValueError("field mismatch")
        acc = {}
        _accumulate(acc, 1, self, None)
        _accumulate(acc, sign, other, None)
        return SparseMatrix(self.rows, self.cols, self.field,
                            _canonical(self.field, acc))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        acc = {}
        if c:
            _accumulate(acc, c, self, None)
        return SparseMatrix(self.rows, self.cols, F, _canonical(F, acc))

    def __mul__(self, other):
        """Matrix product self * other (composition: self after other)."""
        if not isinstance(other, SparseMatrix):
            return self.scale(other)
        _check_product(self, other)
        acc = {}
        _accumulate(acc, 1, self, other)
        return SparseMatrix(self.rows, other.cols, self.field,
                            _canonical(self.field, acc))

    def transpose(self):
        data = {}
        two = self.field.p == 2
        for i, r in self.data.items():
            if two:
                bit = 1 << i
                for j in _ones(r):
                    data[j] = data.get(j, 0) | bit
            else:
                for j, v in r.items():
                    data.setdefault(j, {})[i] = v
        return SparseMatrix(self.cols, self.rows, self.field, data)

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
        data = out.data
        two = field.p == 2
        for (bi, bj), m in blocks.items():
            if m is None:
                continue
            if m.rows != row_sizes[bi] or m.cols != col_sizes[bj]:
                raise ValueError("block (%d,%d) has wrong shape" % (bi, bj))
            r0, c0 = roff[bi], coff[bj]
            for i, r in m.data.items():
                if two:
                    data[r0 + i] = data.get(r0 + i, 0) | r << c0
                else:
                    row = data.setdefault(r0 + i, {})
                    for j, v in r.items():
                        row[c0 + j] = v
        return out


def vanishes(terms) -> bool:
    """Whether the sum of c * A * B over the triples (c, A, B) of terms is
    zero, c an int; B None stands for the identity.  The terms are added
    one by one into a single accumulator of rows, so no product and no
    negated copy is built: a row of A adds up the stored rows of B it picks.

    A * B with A.cols != B.rows or mixed fields raises ValueError as the
    product would; terms of different shapes or fields never vanish, as ==
    between their sums would say."""
    shapes = set()
    for _, a, b in terms:
        if b is not None:
            _check_product(a, b)
        shapes.add((a.rows, a.cols if b is None else b.cols, a.field))
    if len(shapes) > 1:
        return False
    p = terms[0][1].field.p
    acc = {}
    for c, a, b in terms:
        if c % p if p else c:
            _accumulate(acc, c, a, b)
    if p == 2:
        return not any(acc.values())
    return not any(x % p if p else x for r in acc.values() for x in r.values())


# ---------------------------------------------------------------------------
# Elimination kernel
# ---------------------------------------------------------------------------


class Echelon:
    """Reduced row echelon data for a matrix, reusable for rank / solve /
    nullspace.

    pivot_cols ascend, and pivot_rows[t] is the t-th row of the reduced row
    echelon form of the row space ({col: scalar}), built on first read: 1 at
    pivot_cols[t] and 0 at every other pivot column.  That form is unique,
    so it does not depend on the elimination order."""

    def __init__(self, m: SparseMatrix):
        self.field = m.field
        self.cols = m.cols
        p = self.field.p
        # forward: grow the span of the stored rows, one kept row per lead
        span = Span(self.field)
        for row in m.data.values():
            span.add(row)
        # back-substitute from the last pivot up: the rows below a pivot are
        # already reduced, so clearing their leads in any order is enough;
        # each reduced row keeps its lead and is still a row of a Span
        done = self._done = {}
        mask = 0    # the leads in done, over F_2
        for col in sorted(span.rows, reverse=True):
            row = span.rows[col]
            if p == 2:
                for lead in _ones(row & mask):
                    row ^= done[lead]
                mask |= 1 << col
            else:
                for lead in [j for j in row if j in done]:
                    row = _eliminate(row, done[lead], lead, p)
            done[col] = row
        self.pivot_cols = sorted(done)

    @cached_property
    def pivot_rows(self):
        p = self.field.p
        done = self._done
        return [dict.fromkeys(_ones(done[c]), 1) if p == 2
                else done[c] if p else _divide_q(done[c], done[c][c])
                for c in self.pivot_cols]

    def span(self):
        """A new Span of the row space, to grow without changing this one."""
        span = Span(self.field)
        span.rows = dict(self._done)
        return span

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def free_cols(self):
        """The non-pivot columns, ascending."""
        pivset = set(self.pivot_cols)
        return [j for j in range(self.cols) if j not in pivset]

    def nullspace_basis(self):
        """Basis of the kernel (column vectors as dicts).  The t-th vector is
        1 on free_cols()[t] and 0 on the other free columns."""
        p = self.field.p
        basis = {fj: {fj: 1} for fj in self.free_cols()}
        # one pass over the pivot rows: a reduced row is 0 at every other
        # pivot column, so each entry off its own pivot lies in a free column
        for col, row in zip(self.pivot_cols, self.pivot_rows):
            for j, c in row.items():
                vec = basis.get(j)
                if vec is not None:
                    vec[col] = -c % p if p else -c
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
    fraction = rationals.Fraction
    return {j: x // a if x % a == 0 else fraction(x, a) for j, x in v.items()}


class Span:
    """A span of sparse vectors ({index: scalar}, no stored zeros) grown one
    vector at a time.

    Each stored row is keyed by its lowest index (its lead), with distinct
    leads; a vector lies in the span iff reducing it lead by lead empties it.
    Over F_2 rows are int bitsets (a vector may be given as one), over F_p
    dicts with lead coefficient 1, and over Q primitive int vectors with a
    positive lead, so that reducing never leaves the integers.
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
            v = vec if vec.__class__ is int else sum(1 << j for j in vec)
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


def nullspace(m: SparseMatrix):
    return Echelon(m).nullspace_basis()


def solve_matrix(m: SparseMatrix, b: SparseMatrix):
    """Solve m X = b columnwise; returns X or None.  A single vector is the
    one-column case."""
    if m.rows != b.rows or m.field != b.field:
        raise ValueError("shape/field mismatch")
    F, n = m.field, m.cols
    # single elimination of m with all right-hand sides appended
    ech = Echelon(SparseMatrix.block({(0, 0): m, (0, 1): b}, [m.rows],
                                     [n, b.cols], F))
    if ech.pivot_cols and ech.pivot_cols[-1] >= n:
        return None
    x = SparseMatrix.from_entries(n, b.cols, F, (
        ((col, j - n), v) for col, row in zip(ech.pivot_cols, ech.pivot_rows)
        for j, v in row.items() if j >= n))
    # verify (cheap insurance against pivoting into the rhs block)
    if (m * x) != b:
        return None
    return x
