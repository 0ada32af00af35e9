"""The cobar's certificate: the one check of the cosimplicial identities
(`check_identities`), on levels that are sums of keyed pieces, and the
keyed structure maps of a level builder (`tower._Levels`) it reads.

The `cobar` subcommand certifies a level builder on its keyed blocks and
builds no level (`certify`); no other job runs this module.  The whole
cosimplicial object (`laws.CosimplicialComplex`, a bare one the one-key
case of `check_identities`), its conormalization and `laws.assemble`,
which builds it from a level builder, are in `laws`.

Conventions: a cosimplicial object has levels 0..M with cofaces delta^i
(0 <= i <= m+1) raising the level and codegeneracies sigma^j
(0 <= j <= m-1) lowering it.
"""

from __future__ import annotations

from .sparse import SparseMatrix, vanishes


def _agree(pieces, f, g, h=None, e=None) -> bool:
    """Whether f o g == h o e (h None: the identity) for maps {(sk, tk):
    block} out of the level pieces {key: complex}, pair (sk, tk) by pair and
    degree by degree of the piece of sk; sparse.vanishes reads the
    difference summed over the middle keys, so no composite is built."""
    terms = {(sk, sk): [(-1, None, None)] for sk in pieces} if h is None \
        else {}
    for c, outer, inner in [(1, f, g)] + ([] if h is None else [(-1, h, e)]):
        out = {}
        for (mk, tk), a in outer.items():
            out.setdefault(mk, []).append((tk, a))
        for (sk, mk), b in inner.items():
            for tk, a in out.get(mk, ()):
                terms.setdefault((sk, tk), []).append((c, a, b))
    for (sk, _), ts in terms.items():
        for k, n in pieces[sk].dims.items():
            if not vanishes([
                    (c, SparseMatrix.identity(n, pieces[sk].field), None)
                    if a is None else
                    (c, a.component(k + b.degree), b.component(k))
                    for c, a, b in ts]):
                return False
    return True


def check_identities(pieces, cofaces, codegens):
    """Raise ValueError at the first cosimplicial identity that fails:
    pieces[m] is {key: complex} at level m, and cofaces[(m, i)] and
    codegens[(m, j)] are {(sk, tk): block}, a certified chain map from the
    piece of sk to that of tk (absent: zero).  Codegeneracies may be
    absent, but whichever are present must satisfy the identities."""
    M = len(pieces) - 1
    d, s, has = cofaces.__getitem__, codegens.__getitem__, \
        codegens.__contains__
    for m in range(M - 1):
        for i in range(m + 2):
            for j in range(i + 1, m + 3):
                if not _agree(pieces[m], d((m + 1, j)), d((m, i)),
                              d((m + 1, i)), d((m, j - 1))):
                    raise ValueError(
                        "coface identity fails at level %d (%d, %d)" %
                        (m, i, j))
    for m in range(M):
        for i in range(m + 2):
            for j in range(m + 1):
                if not has((m + 1, j)):
                    continue
                if i in (j, j + 1):
                    if not _agree(pieces[m], s((m + 1, j)), d((m, i))):
                        raise ValueError(
                            "sigma delta != id at (%d; %d, %d)" % (m, i, j))
                    continue
                key = (m, j - 1) if i < j else (m, j)
                if has(key) and not _agree(
                        pieces[m], s((m + 1, j)), d((m, i)),
                        d((m - 1, i if i < j else i - 1)), s(key)):
                    raise ValueError(
                        "mixed identity fails (%d; %d, %d)" % (m, i, j))
    for m in range(2, M + 1):
        for j in range(m - 1):
            for i in range(j, m - 1):
                if not all(map(has, ((m, i + 1), (m - 1, j), (m, j),
                                     (m - 1, i)))):
                    continue
                if not _agree(pieces[m], s((m - 1, j)), s((m, i + 1)),
                              s((m - 1, i)), s((m, j))):
                    raise ValueError(
                        "codegeneracy identity fails at %d (%d, %d)" %
                        (m, i, j))


def keyed_maps(b):
    """(cofaces, codegens) of a level builder as `check_identities` reads
    them, without zero blocks: each coface's blocks into strict and
    degenerate chains, and each sigma^j's, `_same` from the piece of every
    chain with i_j = i_{j+1} onto its copy, the chain without the repeat."""
    cofaces = {(m, i): {key: f for key, f in {
        **strict, **b._coface_blocks(m, i, False)}.items() if not f.is_zero()}
        for (m, i), strict in b.coface_blocks.items()}
    codegens = {(m, j): {
        (sk, sk[:j] + sk[j + 1:]): b._same(m, sk)
        for sk in b.summands[m]
        if sk[j] == sk[j + 1] and sk[:j] + sk[j + 1:] in b.summands[m - 1]}
        for m in range(1, len(b.summands)) for j in range(m)}
    return cofaces, codegens


def certify(b):
    """The level builder b, certified on its keyed blocks."""
    check_identities(b.summands, *keyed_maps(b))
    return b
