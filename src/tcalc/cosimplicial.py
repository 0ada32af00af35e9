"""Cosimplicial chain complexes: levels 0..M with cofaces and
codegeneracies, the one check of the cosimplicial identities
(`check_identities`, on levels that are sums of keyed pieces, a bare
`CosimplicialComplex` its one-key case), the codegeneracy kernels
(conormalization) and the normal form `tower.fat_tot` reads.

The `cobar` subcommand certifies a level builder (`tower._Levels`) on its
keyed blocks and builds no level (`certify`); only the tests and `laws`
assemble the whole object (`assemble`) or build their own.  No other job
runs this module.

Conventions: a cosimplicial complex stores chain-complex levels 0..M with
cofaces delta^i (0 <= i <= m+1) raising the level and codegeneracies sigma^j
(0 <= j <= m-1) lowering it.
"""

from __future__ import annotations

from .chain import (
    ChainComplex, ChainMap, block_map, direct_sum, factor_through, subcomplex,
)
from .sparse import SparseMatrix, nullspace, vanishes


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


class CosimplicialComplex:
    """Levels 0..M of chain complexes with cofaces and codegeneracies."""

    def __init__(self, levels, cofaces, codegens, degenerate_above=None):
        self.levels = list(levels)
        self.cofaces = dict(cofaces)
        self.codegens = dict(codegens)
        self.M = len(self.levels) - 1
        self.degenerate_above = degenerate_above \
            if degenerate_above is not None else self.M
        if not 0 <= self.degenerate_above <= self.M:
            raise ValueError("degeneracy bound %r outside the levels 0..%d" %
                             (self.degenerate_above, self.M))

    @property
    def field(self):
        return self.levels[0].field

    def coface(self, m, i) -> ChainMap:
        f = self.cofaces.get((m, i))
        if f is None:
            raise KeyError("missing coface (%d, %d)" % (m, i))
        return f

    def codegen(self, m, j) -> ChainMap:
        f = self.codegens.get((m, j))
        if f is None:
            raise KeyError("missing codegeneracy (%d, %d)" % (m, j))
        return f

    def validate(self):
        """Check every present structure map and all cosimplicial identities
        among present maps: the one-key case of `check_identities`."""
        for m in range(self.M):
            for i in range(m + 2):
                self.coface(m, i).validate()
        for f in self.codegens.values():
            f.validate()
        check_identities([{None: lv} for lv in self.levels], *(
            {key: {(None, None): f} for key, f in maps.items()}
            for maps in (self.cofaces, self.codegens)))
        return self

    def verify_degeneracy(self) -> bool:
        """Levels above the bound carry no conormalized content: the joint
        kernel of the codegeneracies vanishes."""
        for m in range(self.degenerate_above + 1, self.M + 1):
            for k in self.levels[m].dims:
                stacked = SparseMatrix.vstack(
                    [self.codegen(m, j).component(k) for j in range(m)])
                if nullspace(stacked):
                    return False
        return True

    def normalized(self):
        """The normal form `fat_tot` reads: at each level m up to the
        degeneracy bound the one piece (None, N^m), N^m the joint kernel of
        the codegeneracies (`conormalized_level`), and the alternating coface
        sum N^m -> N^{m+1} as the block {(m, None, None): (0, map)}.  Levels
        above the bound are verified to conormalize to zero."""
        if not self.verify_degeneracy():
            raise ValueError("degeneracy verification failed above level %d"
                             % self.degenerate_above)
        F = self.field
        normed = [conormalized_level(self, m)
                  for m in range(self.degenerate_above + 1)]
        cofaces = {}
        for m, (sub, inc) in enumerate(normed[:-1]):
            # the coface sum o incl, solved back into the next basis
            comps = {}
            for j in sub.dims:
                big = SparseMatrix(self.levels[m + 1].dim(j), sub.dim(j), F)
                sgn = F.one()
                for i in range(m + 2):
                    cf = self.coface(m, i).component(j)
                    big = big + (cf * inc.component(j)).scale(sgn)
                    sgn = F.neg(sgn)
                comps[j] = big
            cofaces[(m, None, None)] = (0, factor_through(
                ChainMap(sub, self.levels[m + 1], comps), normed[m + 1][1]))
        return [[(None, sub)] for sub, _ in normed], cofaces


def constant_cosimplicial(c: ChainComplex, levels: int) -> CosimplicialComplex:
    ident = ChainMap.identity(c)
    return CosimplicialComplex(
        [c] * (levels + 1),
        {(m, i): ident for m in range(levels) for i in range(m + 2)},
        {(m, j): ident for m in range(1, levels + 1) for j in range(m)},
        degenerate_above=0).validate()


def conormalized_level(x: CosimplicialComplex, m):
    """(subcomplex N^m = joint kernel of the codegeneracies, inclusion).
    chain.subcomplex eliminates the stacked codegeneracies once per degree
    and reads the differential of N^m off the free coordinates of its
    kernel basis, certifying it (ArithmeticError if a codegeneracy is not a
    chain map)."""
    lv = x.levels[m]
    sigmas = [x.codegens[(m, j)] for j in range(m) if (m, j) in x.codegens]
    if not sigmas:
        return lv, ChainMap.identity(lv)
    return subcomplex(lv, {k: [f.component(k) for f in sigmas]
                           for k in lv.support()},
                      lambda k, i: ("norm", m, k, i))


def keyed_maps(b):
    """(cofaces, codegens) of a level builder as `check_identities` reads
    them, without zero blocks: each coface's blocks into strict and
    degenerate chains, and each sigma^j's, `_same` from the piece of every
    chain with i_j = i_{j+1} onto its copy, the chain without the repeat."""
    cofaces = {(m, i): {key: f for key, f in {
        **strict, **b._coface_blocks(m, i, False)}.items() if not f.is_zero()}
        for (m, i), strict in b.coface_blocks.items()}
    codegens = {(m, j): {
        (sk, sk[:j] + sk[j + 1:]): b._same(m, sk, m - 1, sk[:j] + sk[j + 1:])
        for sk in b.summands[m]
        if sk[j] == sk[j + 1] and sk[:j] + sk[j + 1:] in b.summands[m - 1]}
        for m in range(1, len(b.summands)) for j in range(m)}
    return cofaces, codegens


def certify(b):
    """The level builder b, certified on its keyed blocks."""
    check_identities(b.summands, *keyed_maps(b))
    return b


def assemble(b) -> CosimplicialComplex:
    """The whole cosimplicial object of a level builder, certified on its
    keyed blocks: each level the direct sum of its pieces, each structure
    map the block map of its blocks."""
    cofaces, codegens = keyed_maps(b)
    check_identities(b.summands, cofaces, codegens)
    parts = [list(b.summands[m].values()) for m in range(len(b.summands))]
    levels = [direct_sum(p) if p else ChainComplex(b.field, {}) for p in parts]
    pos = [{key: n for n, key in enumerate(b.summands[m])}
           for m in range(len(parts))]

    def block(src, tgt, blocks):
        return block_map(levels[src], levels[tgt], parts[src], parts[tgt], {
            (pos[src][sk], pos[tgt][tk]): f for (sk, tk), f in blocks.items()})
    return CosimplicialComplex(
        levels, {(m, i): block(m, m + 1, f) for (m, i), f in cofaces.items()},
        {(m, j): block(m, m - 1, f) for (m, j), f in codegens.items()},
        degenerate_above=len(levels) - 1)
