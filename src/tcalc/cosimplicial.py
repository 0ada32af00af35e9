"""Cosimplicial chain complexes: levels 0..M with cofaces and
codegeneracies, the check of the cosimplicial identities, the codegeneracy
kernels (conormalization) and the normal form `tower.fat_tot` reads.

Only the `cobar` subcommand builds one, through a level builder's whole
cosimplicial object (`tower._Levels.cosimplicial`); every other tower job
totalizes the builder's strict-chain pieces and never runs this module.
The law checks in `laws` (the box product, the collapse lemma) build their
own.

Conventions: a cosimplicial complex stores chain-complex levels 0..M with
cofaces delta^i (0 <= i <= m+1) raising the level and codegeneracies sigma^j
(0 <= j <= m-1) lowering it.
"""

from __future__ import annotations

from .chain import ChainComplex, ChainMap, factor_through, subcomplex
from .sparse import SparseMatrix, nullspace, vanishes


def _agree(f, g, h=None, e=None) -> bool:
    """Whether f o g == h o e (h None: the identity), degree by degree of
    g's source; sparse.vanishes reads the difference, so no composite is
    built."""
    for k, n in g.source.dims.items():
        rhs = ((SparseMatrix.identity(n, g.field), None) if h is None
               else (h.component(k + e.degree), e.component(k)))
        if not vanishes([(1, f.component(k + g.degree), g.component(k)),
                         (-1,) + rhs]):
            return False
    return True


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
        among present maps.  Cofaces are mandatory; codegeneracies may be
        absent (the fat totalization ignores them), but whichever are present
        must satisfy the identities."""
        for m in range(self.M):
            for i in range(m + 2):
                self.coface(m, i).validate()
        for (m, j), f in self.codegens.items():
            f.validate()
        d, s, has = self.coface, self.codegen, self.codegens.__contains__
        for m in range(self.M - 1):
            for i in range(m + 2):
                for j in range(i + 1, m + 3):
                    if not _agree(d(m + 1, j), d(m, i), d(m + 1, i),
                                  d(m, j - 1)):
                        raise ValueError(
                            "coface identity fails at level %d (%d, %d)" %
                            (m, i, j))
        for m in range(1, self.M):
            for i in range(m + 2):
                for j in range(m):
                    if not has((m + 1, j)):
                        continue
                    if i in (j, j + 1):
                        if not _agree(s(m + 1, j), d(m, i)):
                            raise ValueError(
                                "sigma delta != id at (%d; %d, %d)" % (m, i, j))
                        continue
                    key = (m, j - 1) if i < j else (m, j)
                    if has(key) and not _agree(
                            s(m + 1, j), d(m, i),
                            d(m - 1, i if i < j else i - 1), s(*key)):
                        raise ValueError(
                            "mixed identity fails (%d; %d, %d)" % (m, i, j))
        for m in range(2, self.M + 1):
            for j in range(m - 1):
                for i in range(j, m - 1):
                    if not all(map(has, ((m, i + 1), (m - 1, j), (m, j),
                                         (m - 1, i)))):
                        continue
                    if not _agree(s(m - 1, j), s(m, i + 1), s(m - 1, i),
                                  s(m, j)):
                        raise ValueError(
                            "codegeneracy identity fails at %d (%d, %d)" %
                            (m, i, j))
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
    cofaces, codegens = {}, {}
    ident = ChainMap.identity(c)
    for m in range(levels):
        for i in range(m + 2):
            cofaces[(m, i)] = ident
    for m in range(1, levels + 1):
        for j in range(m):
            codegens[(m, j)] = ident
    return CosimplicialComplex([c] * (levels + 1), cofaces, codegens,
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
