"""Mathematics no subcommand runs, loaded only by the test suite: its
oracles and certificates of the structures the other modules build.

Chain homotopies, duals and the maps and homotopy classes read off the
mapping complex; operads and right modules over them; the whole
cosimplicial object (`CosimplicialComplex`), its conormalization and
`assemble`, which builds it from a level builder; the commutative operad,
plethysm and the dual tree operad (the derivatives of the identity); the
leveled bar construction B(1, Com, 1), whose normalized complexes are
`operads.bar_complex`; the decomposition maps of the tree cooperad T_*
(`decomposition`, over a field: T(n) is `trees.term`) with their
coassociativity, and the right-module laws over an operad; the strict
right-module comonad K' and the norm comparison nu from the Top comonad;
the coassociativity of the Top comonad (on homology) and of K' (exactly),
and the counit; the box product of cosimplicial complexes with the
collapse lemma; the representable modules over finite pointed sets and the
divided-power factorization
psi = nu o theta of a Top coalgebra; the n-truncation of a coalgebra as a
coalgebra of its own (`truncate_coalgebra`), the reference the stages p_n
are compared with; the splitting criterion, which compares p_n of free
coefficients with the sum of its layers and, on Top sources, with the
strict module derived hom through K'; and the paragraph-7 validators of
space-valued 2-excisive data with explicit witnesses.

The law checks compose tensor products of maps (`chainops.tensor_map`, of
any number of maps), reorder tensor factors with Koszul signs
(`tensor_reorder_map`) and re-bracket them through one strict label map,
`_associator`, which matches two bracketings of one tensor product by
their flattened labels.
"""

from __future__ import annotations

from itertools import combinations, permutations
from itertools import product as _iterprod

from . import trees
from .chain import (
    ChainComplex, ChainMap, DegreeWindow, block_map, cone, direct_sum,
    label_map, linear_map, sphere,
)
from .chainops import (
    factor_through, hom_complex, quotient, subcomplex, tensor, tensor_many,
    tensor_map,
)
from .classify import suspension
from .coalgebras import (
    FinitePointedSet, TruncatedCoalgebra, trivial_coalgebra,
)
from .combinat import (
    apply_perm_to_partition, koszul_sign, normalize_partition, refines,
    set_partitions,
)
from .comonads import SpComponentModel, tensor_with_surjection_index
from .cosimplicial import check_identities, keyed_maps
from .derivedhom import _HomLevels
from .equivariant import (
    EquivariantComplex, homotopy_fixed, homotopy_orbits, trivial_action,
)
from .equivops import (
    equivariant_tensor, is_free, strict_fixed, strict_orbits, zero_module,
)
from .fields import FieldSpec
from .operads import DISCRETE, TOP, _refinements, bar_complex
from .perms import YoungGroup, transposition
from .sequences import SymmetricSequence
from .sparse import Echelon, SparseMatrix, nullspace, solve_matrix, vanishes
from .topcobar import tuple_module
from .topcomonad import (
    SurjectionSum, TopComponentModel, unit_section,
)
from .topdelta import build_top_delta, top_delta_on_sums
from .tower import fat_tot, p_n


# ---------------------------------------------------------------------------
# Homotopies, duals and the mapping complex (the conventions of `chain`)
# ---------------------------------------------------------------------------


class ChainHomotopy:
    """h with f - g = d h + h d (components h_k : C_k -> D_{k+1})."""

    def __init__(self, f: ChainMap, g: ChainMap, components):
        self.f = f
        self.g = g
        self.components = {k: m for k, m in components.items() if not m.is_zero()}

    def component(self, k):
        m = self.components.get(k)
        if m is None:
            return SparseMatrix(self.f.target.dim(k + 1), self.f.source.dim(k), self.f.field)
        return m

    def validate(self):
        C, D = self.f.source, self.f.target
        for k in set(C.dims) | {k - 1 for k in D.dims}:
            if not vanishes([(1, self.f.component(k), None),
                             (-1, self.g.component(k), None),
                             (-1, D.d(k + 1), self.component(k)),
                             (-1, self.component(k - 1), C.d(k))]):
                raise ValueError("homotopy identity fails in degree %d" % k)
        return self


def hom_element_to_map(h: ChainComplex, c: ChainComplex, d: ChainComplex,
                       vec: dict, degree=0) -> ChainMap:
    """Interpret a degree-`degree` element of hom_complex(c, d) as a
    ChainMap (a chain map when the element is a cycle)."""
    images = {}
    for idx, v in vec.items():
        _, lc, ld = h.labels[degree][idx]
        images.setdefault(lc, []).append((ld, v))
    return linear_map(c, d, lambda k, lab: images.get(lab, ()), degree=degree)


def map_to_hom_element(h: ChainComplex, f: ChainMap) -> dict:
    """Inverse of hom_element_to_map: ChainMap -> vector in hom complex."""
    pos, d = h.label_index(f.degree), f.degree
    return {pos[("hom", f.source.labels[p][i], f.target.labels[p + d][j])]: v
            for p, m in f.components.items() for (j, i), v in m.items()}


def homotopy_between(f: ChainMap, g: ChainMap) -> ChainHomotopy | None:
    """Solve f - g = d h + h d for h; None if no exact witness exists.

    h is a degree-1 element of hom_complex(C, D) whose boundary is f - g:
    in degree 1 that complex's d(h) = d_D h - (-1)^1 h d_C is d h + h d."""
    C, D = f.source, f.target
    h = hom_complex(C, D)
    d1 = h.d(1)
    x = solve_matrix(d1, SparseMatrix.from_columns(
        [map_to_hom_element(h, f - g)], d1.rows, f.field))
    if x is None:
        return None
    hmap = hom_element_to_map(h, C, D, x.by_column().get(0, {}), 1)
    return ChainHomotopy(f, g, hmap.components).validate()


def nullhomotopy(f: ChainMap) -> ChainHomotopy | None:
    return homotopy_between(f, ChainMap.zero(f.source, f.target))


def dual(c: ChainComplex) -> ChainComplex:
    """Spanier-Whitehead style dual: dual(C)_k = Hom(C_{-k}, field)."""
    field = c.field
    dims = {-k: n for k, n in c.dims.items()}
    labels = {-k: tuple(("dual", lab) for lab in c.labels[k]) for k in c.dims}
    diff = {}
    one = field.one()
    for k in c.support():
        # d_dual : dual_{-k} -> dual_{-k-1} is induced by d : C_{k+1} -> C_k
        dk1 = c.diff.get(k + 1)
        if dk1 is None:
            continue
        n = -k
        # (df)(x) = -(-1)^{|f|} f(dx), |f| = n
        sgn = field.neg(one) if n % 2 == 0 else one
        diff[n] = dk1.transpose().scale(sgn)
    return ChainComplex(field, dims, diff, labels)


def is_quasi_iso(f: ChainMap, w: DegreeWindow) -> bool:
    return cone(f).is_acyclic(w)


def chain_map_space(c: ChainComplex, d: ChainComplex):
    """A basis of the chain maps c -> d: the degree-0 cycles of
    hom_complex(c, d), as ChainMaps."""
    h = hom_complex(c, d)
    return [hom_element_to_map(h, c, d, z) for z in nullspace(h.d(0))]


def count_maps_mod_homotopy(c: ChainComplex, d: ChainComplex) -> int:
    """dim of (chain maps c -> d)/(nullhomotopic maps) = dim H_0 Hom(c, d)."""
    return hom_complex(c, d).homology(0)[0]


def homology_coordinates(c: ChainComplex, k):
    """A matrix pi : c_k -> H_k with pi(boundary) = 0, pi(rep_i) = e_i,
    pi(non-cycle complement) = 0.  Returns (pi, reps)."""
    F = c.field
    n = c.dim(k)
    h, reps, bnd = c.homology_data(k)
    if n == 0:
        return SparseMatrix(h, 0, F), reps
    # basis adapted to c_k: [reps | boundaries | complement]
    chosen = reps + bnd.pivot_rows
    span = bnd.span()
    for v in reps:
        span.add(v)
    for j in range(n):
        probe = {j: F.one()}
        if span.add(probe):
            chosen.append(probe)
    P = SparseMatrix.from_columns(chosen, n, F)
    Pinv = solve_matrix(P, SparseMatrix.identity(n, F))
    if Pinv is None:
        raise ArithmeticError("adapted basis not invertible")
    pi = SparseMatrix.from_entries(h, n, F, {
        ij: v for ij, v in Pinv.items() if ij[0] < h})
    return pi, reps


def rank(m: SparseMatrix) -> int:
    return Echelon(m).rank


# ---------------------------------------------------------------------------
# Plethysm (composition product)
# ---------------------------------------------------------------------------


def _perm_of_blocks(p, blocks):
    """Blocks sorted by min; image blocks re-sorted; returns (tau, per-block perms).

    tau[i] = position of image of block i among the image blocks; the
    per-block permutation is the relabeling sorted(b) -> sorted(p(b)) induced
    by p, written as a permutation of {0..|b|-1}."""
    images = [tuple(sorted(p[x] for x in b)) for b in blocks]
    order = sorted(range(len(blocks)), key=lambda i: images[i][0])
    tau = [0] * len(blocks)
    for newpos, i in enumerate(order):
        tau[i] = newpos
    inner = []
    for b, img in zip(blocks, images):
        sb = sorted(b)
        pos_in_img = {x: t for t, x in enumerate(img)}
        inner.append(tuple(pos_in_img[p[x]] for x in sb))
    return tuple(tau), inner


def plethysm(a: SymmetricSequence, b: SymmetricSequence) -> SymmetricSequence:
    """(A o B)_n = (+) over set partitions P of {0..n-1} of A_r (x) (x)_i B_{|b_i|}."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    F = a.field
    N = a.truncation
    out_terms = {}
    for n in range(1, N + 1):
        summands = []  # (partition, complex, factor complexes)
        for part in set_partitions(list(range(n))):
            r = len(part)
            if a.term(r) is None:
                continue
            if any(b.term(len(blk)) is None for blk in part):
                continue
            factors = [a.term_complex(r)] + [b.term_complex(len(blk)) for blk in part]
            summands.append((part, tensor_many(factors), factors))
        if not summands:
            continue
        parts = [part for part, _, _ in summands]
        complexes = [c for _, c, _ in summands]
        summed = direct_sum(complexes)
        total = ChainComplex(F, summed.dims, summed.diff, {
            k: tuple(("pleth", parts[idx], inner) for idx, inner in labs)
            for k, labs in summed.labels.items()})
        index = {part: j for j, part in enumerate(parts)}
        group = YoungGroup.full(n)

        def act(s):
            # A_r gets tau and block i its inner permutation; then the
            # b-factors move along tau, with Koszul signs
            blocks = {}
            for j, (part, _, factors) in enumerate(summands):
                tau, inner_perms = _perm_of_blocks(s, part)
                moved = tensor_map(
                    a.term(len(part)).action_of(tau),
                    *[b.term(len(blk)).action_of(ip)
                      for blk, ip in zip(part, inner_perms)])
                reorder = tensor_reorder_map(
                    factors, (0,) + tuple(1 + t for t in tau))
                blocks[j, index[apply_perm_to_partition(s, part)]] = \
                    reorder.compose(moved)
            return block_map(total, total, complexes, complexes, blocks)
        out_terms[n] = EquivariantComplex(total, group, {
            gi: act(transposition(n, gi))
            for gi in group.generator_positions()})
    return SymmetricSequence(F, N, out_terms)


# ---------------------------------------------------------------------------
# Operads and right modules
# ---------------------------------------------------------------------------


class Operad:
    """An operad on an N-truncated symmetric sequence.

    gamma[(r, comp)] for a composition comp = (n_1, ..., n_r) is a chain map
    P_r (x) P_{n_1} (x) ... (x) P_{n_r} -> P_n along consecutive blocks."""

    def __init__(self, sequence: SymmetricSequence, gamma):
        self.sequence = sequence
        self.gamma = gamma

    @property
    def field(self):
        return self.sequence.field

    @property
    def truncation(self):
        return self.sequence.truncation

    def term(self, n):
        return self.sequence.term(n)

    def term_complex(self, n):
        return self.sequence.term_complex(n)

    def composition(self, r, comp) -> ChainMap | None:
        return self.gamma.get((r, tuple(comp)))


class RightModule:
    """Right module over an operad: action[(r, comp)] :
    M_r (x) P_{n_1} (x) ... (x) P_{n_r} -> M_n."""

    def __init__(self, operad: Operad, sequence: SymmetricSequence, action):
        self.operad = operad
        self.sequence = sequence
        self.action = action

    @property
    def field(self):
        return self.sequence.field

    @property
    def truncation(self):
        return self.sequence.truncation

    def action_map(self, r, comp) -> ChainMap | None:
        return self.action.get((r, tuple(comp)))


def decomposition(field, n, blocks) -> ChainMap:
    """The tree cooperad's decomposition T_n -> T_r (x) T_{|b_1|} (x) ...
    over `field` along the partition blocks of {0..n-1} (sorted tuples,
    sorted by min), read off `trees.decompose`, certified."""
    tgt = tensor_many([trees.term(field, m).complex
                       for m in [len(blocks)] + [len(b) for b in blocks]])

    def image(k, lab):
        dec = trees.decompose(lab[1], blocks)
        if dec is None:
            return ()
        sgn, upper, lowers = dec
        return ((tuple(("tree", t) for t in (upper,) + lowers), sgn),)
    return linear_map(trees.term(field, n).complex, tgt, image).validate()


# ---------------------------------------------------------------------------
# The commutative operad
# ---------------------------------------------------------------------------


def commutative_operad(field, N) -> Operad:
    if N < 1:
        raise ValueError("N >= 1 required")
    terms = {}
    for n in range(1, N + 1):
        terms[n] = trivial_action(sphere(field, 0, label="com%d" % n),
                                  YoungGroup.full(n))
    seq = SymmetricSequence(field, N, terms)
    gamma = {}
    for r in range(1, N + 1):
        for comp in compositions_of_bounded(r, N):
            n = sum(comp)
            src = tensor_many([seq.term_complex(r)] +
                              [seq.term_complex(m) for m in comp])
            tgt = seq.term_complex(n)
            gamma[(r, comp)] = ChainMap(
                src, tgt, {0: SparseMatrix.identity(1, field)})
    return Operad(seq, gamma)


def compositions_of_bounded(r, N):
    """All compositions (n_1..n_r) of length r >= 1 with sum <= N, each
    n_i >= 1, in lexicographic order."""
    if r < 1:
        return []
    return [comp for comp in _iterprod(range(1, N - r + 2), repeat=r)
            if sum(comp) <= N]


# ---------------------------------------------------------------------------
# The leveled bar construction B(1, Com, 1)
# ---------------------------------------------------------------------------


def _weak_chains(n, length):
    """Weakly decreasing chains (P_1 >= ... >= P_length) of partitions of
    {0..n-1}, as tuples (coarsest first), in lexicographic order of
    set_partitions positions."""
    if length == 0:
        return [()]
    parts, finer = _refinements(n)
    chains = [(p,) for p in parts]
    for _ in range(length - 1):
        chains = [ch + (q,) for ch in chains for q in finer[ch[-1]]]
    return chains


class BarConstruction:
    """The simplicial symmetric sequence B(1, P, 1) for a Com-like operad:
    level s in arity n is spanned by the weakly decreasing chains of s - 1
    partitions of {0..n-1}, with the simplicial structure maps.  Its
    normalized complexes are `operads.bar_complex`, the oracle's side of
    what `bar-com` prints."""

    def __init__(self, operad: Operad):
        F = operad.field
        N = operad.truncation
        for n in range(1, N + 1):
            t = operad.term_complex(n)
            if t.dims != {0: 1}:
                raise ValueError(
                    "bar construction implemented for operads with one-"
                    "dimensional degree-0 terms (the commutative operad)")
        self.field = F
        self.truncation = N
        self.max_level = N + 1
        self.levels = {}     # (s, n) -> ChainComplex (degree 0, chain basis)
        self.faces = {}      # (s, i, n) -> ChainMap level s -> s-1
        self.degens = {}     # (s, j, n) -> ChainMap level s -> s+1
        self.normalized = {}  # n -> ChainComplex with degree = level
        for n in range(1, N + 1):
            self._build_arity(n)
            self.normalized[n] = bar_complex(F, n)

    def _build_arity(self, n):
        F = self.field
        top, bot = TOP(n), DISCRETE(n)
        for s in range(0, self.max_level + 1):
            if s == 0:
                chains = [()] if n == 1 else []
            else:
                chains = _weak_chains(n, s - 1)
            c = ChainComplex(F, {0: len(chains)} if chains else {},
                             labels={0: tuple(("bar", ch) for ch in chains)}
                             if chains else None)
            self.levels[(s, n)] = c
        # face maps: d_i composes around the partition at position i of the
        # full chain (top,) + ch + (bot,); at level 1 the chain () goes to
        # level 0 only when n == 1
        for s in range(1, self.max_level + 1):
            src = self.levels[(s, n)]
            tgt = self.levels[(s - 1, n)]
            for i in range(0, s + 1):
                def image(k, lab, s=s, i=i):
                    ch = lab[1]
                    full = (top,) + ch + (bot,)
                    if i == 0 or i == s:
                        if full[1 if i == 0 else s - 1] != (top if i == 0
                                                            else bot):
                            return ()
                        if s == 1:
                            return (((("bar", ()), 1),) if n == 1 else ())
                        new = ch[1:] if i == 0 else ch[:-1]
                    else:
                        new = ch[:i - 1] + ch[i:]
                    return ((("bar", new), 1),)
                self.faces[(s, i, n)] = linear_map(src, tgt, image)
        # degeneracy maps: the level-s full chain (P_0, ..., P_s); for s = 0
        # it is the single entry (top,), which forces n = 1
        for s in range(0, self.max_level):
            src = self.levels[(s, n)]
            tgt = self.levels[(s + 1, n)]
            for j in range(0, s + 1):
                def image(k, lab, s=s, j=j):
                    full = (top,) + lab[1] + (bot,) if s >= 1 else (top,)
                    return ((("bar", (full[:j + 1] + (full[j],)
                                      + full[j + 1:])[1:-1]), 1),)
                self.degens[(s, j, n)] = linear_map(src, tgt, image)

    def simplicial_identities_hold(self) -> bool:
        """The simplicial identities in each arity, as the cosimplicial
        ones of the transposed maps: d_i^T and s_j^T are the cofaces and
        codegeneracies of the dual object (`check_identities`)."""
        def dual(f):
            return ChainMap(f.target, f.source, {
                k: m.transpose() for k, m in f.components.items()})
        for n in range(1, self.truncation + 1):
            try:
                check_identities(
                    [{n: self.levels[(s, n)]}
                     for s in range(self.max_level + 1)],
                    {(s - 1, i): {(n, n): dual(f)}
                     for (s, i, a), f in self.faces.items() if a == n},
                    {(s + 1, j): {(n, n): dual(f)}
                     for (s, j, a), f in self.degens.items() if a == n})
            except ValueError:
                return False
        return True


def _is_strict(ch, n, s):
    top, bot = TOP(n), DISCRETE(n)
    full = ((top,) + ch + (bot,)) if s >= 1 else (top,)
    for a, b in zip(full, full[1:]):
        if a == b:
            return False
    return True


def bar_construction(operad: Operad):
    """Returns (BarConstruction, {n: normalized ChainComplex})."""
    bc = BarConstruction(operad)
    return bc, dict(bc.normalized)


def spectral_lie(field, N) -> Operad:
    """The operad dual to T_*: derivatives of the identity on based spaces."""
    if N > 6:
        raise ValueError("arity bound exceeded")
    terms = {}
    dual_complexes = {}
    for n in range(1, N + 1):
        tn = trees.term(field, n)
        dc = dual(tn.complex)
        dual_complexes[n] = dc
        group = YoungGroup.full(n)
        action = {}
        for gi in group.generator_positions():
            # dual of an involution's action, transposed degreewise
            f = tn.action[gi]
            comps = {}
            for k, m in f.components.items():
                comps[-k] = m.transpose()
            action[gi] = ChainMap(dc, dc, comps)
        terms[n] = EquivariantComplex(dc, group, action)
    seq = SymmetricSequence(field, N, terms)
    gamma = {}
    for n in range(1, N + 1):
        for r in range(1, n + 1):
            for comp in compositions_of_bounded(r, N):
                if sum(comp) != n:
                    continue
                blocks = _consecutive_blocks(comp)
                dmap = decomposition(field, n, blocks)
                gamma[(r, comp)] = _dualize_decomposition(
                    dmap, [seq.term_complex(r)] +
                    [seq.term_complex(m) for m in comp],
                    dual_complexes[n])
    op = Operad(seq, gamma)
    _validate_operad_units(op)
    return op


def _consecutive_blocks(comp):
    blocks = []
    start = 0
    for m in comp:
        blocks.append(tuple(range(start, start + m)))
        start += m
    return tuple(blocks)


def _dualize_decomposition(dmap: ChainMap, dual_factors, dual_target):
    """gamma := dual of a decomposition map, with Koszul evaluation signs.

    dmap : T(n) -> T(r) (x) T(b_1) (x) ... ; the result maps
    tensor(dual factors) -> dual(T(n)).  Entry convention:
    gamma[t*, (x_0*, ..., x_r*)] = (-1)^{sum_{i<j} |x_i||x_j|} delta[x_., t].
    """
    src = tensor_many(dual_factors)
    degs = _undual(dual_factors)
    # the rows of dmap, from the target side
    rows = {k: m.transpose().by_column() for k, m in dmap.components.items()}

    def image(k, lab):
        xlab = tuple(l for _, l in lab)     # a tuple of tree labels
        row = rows.get(-k, {}).get(dmap.target.label_index(-k).get(xlab))
        if not row:
            return ()
        dk = [fc[fl] for fl, fc in zip(xlab, degs)]
        sgn = koszul_sign(range(len(dk))[::-1], dk)
        tlabs = dmap.source.labels[-k]
        return [(("dual", tlabs[col]), sgn * v) for col, v in row.items()]
    return linear_map(src, dual_target, image).validate()


def _undual(dual_factors):
    """Recover original complexes' label degrees from dual complexes."""
    out = []
    for dc in dual_factors:
        dm = {}
        for k in dc.dims:
            for lab in dc.labels[k]:
                dm[lab[1]] = -k
        out.append(dm)
    return out


def _validate_operad_units(op: Operad):
    F = op.field
    for n in range(1, op.truncation + 1):
        if op.term(n) is None:
            continue
        # unit on the right: gamma(x; 1, ..., 1) = x
        comp = (1,) * n
        g = op.composition(n, comp)
        if g is not None:
            if not _is_unit_iso(g, op.term_complex(n), F):
                raise ValueError("right unit law fails at arity %d" % n)
        # unit on the left: gamma(1; x) = x
        g2 = op.composition(1, (n,))
        if g2 is not None:
            if not _is_unit_iso(g2, op.term_complex(n), F):
                raise ValueError("left unit law fails at arity %d" % n)


def _is_unit_iso(g: ChainMap, target: ChainComplex, F):
    for k in target.dims:
        m = g.component(k)
        if m.rows != target.dim(k):
            return False
        ent = dict(m.items())
        # must be a bijection matrix with unit entries
        if len(ent) != target.dim(k):
            return False
        rows = {i for (i, j) in ent}
        cols = {j for (i, j) in ent}
        if len(rows) != target.dim(k) or len(cols) != target.dim(k):
            return False
        for v in ent.values():
            if v != 1 and F.neg(v) != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Coassociativity of the tree cooperad, and right-module laws
# ---------------------------------------------------------------------------


def tensor_reorder_map(factors, perm) -> ChainMap:
    """Koszul reordering iso tensor(factors) -> tensor(factors[perm^-1]).

    perm[i] = new position of factor i."""
    src = tensor_many(factors)
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    tgt_factors = [factors[inv[j]] for j in range(len(perm))]
    tgt = tensor_many(tgt_factors)

    def image(k, lab):
        degs = [c.locate(l)[0] for c, l in zip(factors, lab)]
        return ((tuple(lab[inv[j]] for j in range(len(lab))),
                 koszul_sign(perm, degs)),)
    return linear_map(src, tgt, image)


def quotient_partition(coarse, fine):
    """Blocks of `coarse` as a partition of the blocks of `fine` (by index)."""
    lookup = {}
    for bi, block in enumerate(fine):
        for x in block:
            lookup[x] = bi
    return normalize_partition(
        [sorted({lookup[x] for x in block}) for block in coarse])


def restrict_partition(part, block):
    """Restriction of a partition to a subset, relabeled along sorted(block)."""
    pos = {x: i for i, x in enumerate(sorted(block))}
    bs = []
    sblock = set(block)
    for b in part:
        inter = [pos[x] for x in b if x in sblock]
        if inter:
            bs.append(inter)
    return normalize_partition(bs)


def check_coassociativity(F, n, coarse, fine) -> bool:
    """Exact coassociativity for a refinement `fine` <= `coarse` of {0..n-1}.

    Route A: split along `fine`, then split the upper factor along the
    induced partition of fine's blocks.  Route B: split along `coarse`, then
    split each lower factor along the restriction of `fine`; then reorder so
    both land in T(upper') (x) (x)_j T(mid_j) (x) (x)_c T(c), over F."""
    def T(m):
        return trees.term(F, m).complex
    if not refines(fine, coarse):
        raise ValueError("fine must refine coarse")
    rf, rc = len(fine), len(coarse)
    d_fine = decomposition(F, n, fine)
    d_coarse = decomposition(F, n, coarse)
    qpart = quotient_partition(coarse, fine)  # partition of {0..rf-1}
    # Route A: delta_fine then delta_{qpart} on the first factor
    d_q = decomposition(F, rf, qpart)
    fine_factors = [T(rf)] + [T(len(b)) for b in fine]
    routeA = _apply_to_factor(d_fine, d_q, 0, fine_factors)
    # Route B: delta_coarse then delta_{fine|b} on each lower factor,
    # processed right-to-left so slot positions stay stable
    cur = d_coarse
    cur_factors = [T(rc)] + [T(len(b)) for b in coarse]
    rests = [restrict_partition(fine, b) for b in coarse]
    for j in range(rc - 1, -1, -1):
        b = coarse[j]
        d_rest = decomposition(F, len(b), rests[j])
        cur = _apply_to_factor(cur, d_rest, 1 + j, cur_factors)
        rest_factors = [T(len(rests[j]))] + [T(len(c)) for c in rests[j]]
        cur_factors = cur_factors[:1 + j] + rest_factors + cur_factors[2 + j:]
    routeB = cur
    # Align orders: route A = [upper', mids, fine blocks in fine order];
    # route B = [upper'] + per coarse block [mid_j, its fine blocks].
    permA = _fine_to_grouped_perm(coarse, fine)
    routeA_factors = [T(rc)] + [T(len(b)) for b in qpart] + \
        [T(len(c)) for c in fine]
    reorderA = tensor_reorder_map(routeA_factors, permA)
    routeA2 = reorderA.compose(
        _associator(routeA.target, reorderA.source).compose(routeA))
    return _associator(routeA2.target, routeB.target).compose(
        routeA2).components == routeB.components


def _fine_to_grouped_perm(coarse, fine):
    """Regroup [upper, mid_0.., fine_0..] as [upper] + per-coarse-block
    [mid_j, fine blocks inside coarse_j]; returns perm[i] = new position."""
    rc, rf = len(coarse), len(fine)
    lookup = {}
    for fi, c in enumerate(fine):
        for j, b in enumerate(coarse):
            if set(c) <= set(b):
                lookup[fi] = j
                break
    posn = 1
    grouped_positions = {}
    for j in range(rc):
        grouped_positions[("mid", j)] = posn
        posn += 1
        for fi in range(rf):
            if lookup[fi] == j:
                grouped_positions[("fine", fi)] = posn
                posn += 1
    perm = [0] * (1 + rc + rf)
    for j in range(rc):
        perm[1 + j] = grouped_positions[("mid", j)]
    for fi in range(rf):
        perm[1 + rc + fi] = grouped_positions[("fine", fi)]
    return perm


def _flat_label(lab):
    """A tensor label with its nesting removed, so that every bracketing of
    one tensor product labels each basis vector alike."""
    if isinstance(lab, tuple) and lab and not isinstance(lab[0], str):
        return tuple(x for part in lab for x in _flat_label(part))
    return (lab,)


def _associator(a: ChainComplex, b: ChainComplex) -> ChainMap:
    """The iso a -> b between two bracketings of one tensor product: the
    basis vector of a goes to the one of b with the same `_flat_label`.
    Raises ValueError when two labels of b flatten alike, or when a label
    of a has no partner in b."""
    partner = {}
    for labs in b.labels.values():
        for lab in labs:
            flat = _flat_label(lab)
            if flat in partner:
                raise ValueError("two labels flatten to %r" % (flat,))
            partner[flat] = lab
    return label_map(a, b, lambda lab: partner.get(_flat_label(lab)))


def _apply_to_factor(base: ChainMap, piece: ChainMap, slot,
                     base_factors) -> ChainMap:
    """Compose base with (id (x) ... (x) piece (x) ... (x) id) at `slot`
    of base's target tensor factors."""
    big = tensor_map(*[piece if i == slot else ChainMap.identity(c)
                       for i, c in enumerate(base_factors)])
    return big.compose(_associator(base.target, big.source).compose(base))


def validate_right_module(mod: RightModule):
    """Checks unit, associativity and (generator) equivariance exactly.

    Returns a report dict {"valid": bool, "failures": [description, ...]}."""
    failures = []
    op = mod.operad
    F = mod.field
    N = min(mod.truncation, op.truncation)
    # unit law: action along (1, ..., 1) is the identity (on the nose, up to
    # the canonical iso M_r (x) k (x) ... (x) k = M_r)
    for r in mod.sequence.arities():
        comp = (1,) * r
        act = mod.action_map(r, comp)
        if act is None:
            failures.append("missing unit action at arity %d" % r)
            continue
        if not _is_unit_iso(act, mod.sequence.term_complex(r), F):
            failures.append("unit law fails at arity %d" % r)
    # associativity: m . (p . q) vs (m . p) . q on composable patterns
    for r in mod.sequence.arities():
        for comp in compositions_of_bounded(r, N):
            if mod.action_map(r, comp) is None and any(
                    op.term(c) is None for c in comp):
                continue
            for comp2_parts in _iterprod(*[compositions_of_bounded(c, N)
                                           for c in comp]):
                comp2 = tuple(x for part in comp2_parts for x in part)
                n = sum(comp2)
                if n > N:
                    continue
                ok = _check_module_assoc(mod, r, comp, comp2_parts)
                if ok is False:
                    failures.append(
                        "associativity fails at (%d; %s; %s)" %
                        (r, comp, comp2_parts))
    for r in mod.sequence.arities():
        for comp in compositions_of_bounded(r, N):
            bad = _check_module_equivariance(mod, r, comp)
            if bad:
                failures.append(bad)
    return {"valid": not failures, "failures": failures}


def _check_module_assoc(mod: RightModule, r, comp, comp2_parts):
    """(m.p).q = m.(p o q) as maps M_r (x) P_* (x) P_** -> M_n."""
    op = mod.operad
    comp2 = tuple(x for part in comp2_parts for x in part)
    a1 = mod.action_map(r, comp)
    a2 = mod.action_map(sum(comp), comp2)
    if a1 is None or a2 is None:
        return None
    m_r = mod.sequence.term_complex(r)
    p_factors = [op.term_complex(c) for c in comp]
    q_factors = [op.term_complex(c) for c in comp2]
    src_factors = [m_r] + p_factors + q_factors
    if any(c.is_zero() for c in src_factors):
        return None
    # route 1: (a1 (x) id_q...) then a2
    big = tensor_map(a1, *map(ChainMap.identity, q_factors))
    big = big.compose(_associator(tensor_many(src_factors), big.source))
    route1 = a2.compose(_associator(big.target, a2.source).compose(big))
    # route 2: reorder q-factors to sit beside their p-factor, apply gamma on
    # each group, then a1' along the composed pattern
    reorder = tensor_reorder_map(src_factors,
                                 _group_q_after_p_perm(comp, comp2_parts))
    gammas = [op.composition(c, part) for c, part in zip(comp, comp2_parts)]
    a3 = mod.action_map(r, tuple(sum(part) for part in comp2_parts))
    if a3 is None or any(g is None for g in gammas):
        return None
    big2 = tensor_map(ChainMap.identity(m_r), *gammas)
    big2 = big2.compose(_associator(reorder.target, big2.source))
    route2 = a3.compose(_associator(big2.target, a3.source).compose(
        big2.compose(reorder)))
    return _associator(route1.target, route2.target).compose(
        route1).components == route2.components


def _group_q_after_p_perm(comp, comp2_parts):
    """Factors: [m, p_1..p_r, q_1..q_s] -> [m, p_1, q(p_1 group), p_2, ...]."""
    r = len(comp)
    s = sum(len(part) for part in comp2_parts)
    perm = [0] * (1 + r + s)
    perm[0] = 0
    pos = 1
    qstart = 1 + r
    qoff = 0
    targets = {}
    for i, part in enumerate(comp2_parts):
        targets[("p", i)] = pos
        pos += 1
        for t in range(len(part)):
            targets[("q", qoff + t)] = pos
            pos += 1
        qoff += len(part)
    for i in range(r):
        perm[1 + i] = targets[("p", i)]
    for t in range(s):
        perm[qstart + t] = targets[("q", t)]
    return perm


def _check_module_equivariance(mod: RightModule, r, comp):
    """Spot-check equivariance on within-block generators of Sigma_{n_i}."""
    op = mod.operad
    act = mod.action_map(r, comp)
    if act is None:
        return None
    n = sum(comp)
    m_r = mod.sequence.term(r)
    m_n = mod.sequence.term(n)
    if m_r is None or m_n is None:
        return None
    offs = []
    start = 0
    for c in comp:
        offs.append(start)
        start += c
    for bi, c in enumerate(comp):
        pterm = op.term(c)
        if pterm is None or c < 2:
            continue
        for gi in YoungGroup.full(c).generator_positions():
            big = tensor_map(
                ChainMap.identity(mod.sequence.term_complex(r)),
                *[pterm.action[gi] if bj == bi
                  else ChainMap.identity(op.term_complex(c2))
                  for bj, c2 in enumerate(comp)])
            lhs = act.compose(_associator(big.target, act.source).compose(
                big).compose(_associator(act.source, big.source)))
            # global generator at position offs[bi] + gi
            rhs = m_n.action[offs[bi] + gi].compose(act)
            if _associator(lhs.target, rhs.target).compose(
                    lhs).components != rhs.components:
                return ("equivariance fails at (%d; %s), block %d, gen %d" %
                        (r, comp, bi, gi))
    return None


# ---------------------------------------------------------------------------
# The strict right-module comonad K' and the comparison map nu
# ---------------------------------------------------------------------------


class KPrimeComponent:
    """K'_r A_n = strict Sigma_n-invariants of W(A, r), as a subcomplex."""

    def __init__(self, a: EquivariantComplex, r: int):
        self.a = a
        self.r = r
        self.n = a.group.degree
        F = a.field
        self.field = F
        if r > self.n:
            self.value = zero_module(F, r)
            self.inclusion = None
            self.sursum = None
            return
        self.sursum = SurjectionSum(a, r)
        eq = self.sursum.sigma_n_action()
        inv, incl = strict_fixed(eq)
        self.inclusion = incl
        sr = self.sursum.sigma_r_action()
        action = {gi: factor_through(g.compose(incl), incl)
                  for gi, g in sr.action.items()}
        self.value = EquivariantComplex(inv, sr.group, action)

    def apply(self, f: ChainMap, tgt: "KPrimeComponent") -> ChainMap:
        """K'_r(f) : K'_r B -> K'_r B' for an equivariant map f : B -> B', on
        the strict invariants models."""
        big = self.sursum.apply(f, tgt.sursum)
        return factor_through(big.compose(self.inclusion),
                              tgt.inclusion).validate()


class KPrimeComonad:
    """The strict comonad whose coalgebras are right modules over the dual
    tree operad; all structure maps are exact identities."""

    def __init__(self, a: SymmetricSequence):
        if a.truncation > 4:
            raise ValueError("arity bound exceeded (truncation <= 4)")
        self.a = a
        self.field = a.field
        self.components = {}
        self.delta = {}
        self.delta_outer = {}
        for n in a.arities():
            term = a.term(n)
            for r in range(1, n + 1):
                self.components[(r, n)] = KPrimeComponent(term, r)
        for n in a.arities():
            for s in range(1, n + 1):
                for r in range(1, s + 1):
                    self._build_delta(r, s, n)

    def component(self, r, n) -> KPrimeComponent | None:
        return self.components.get((r, n))

    def epsilon(self, r) -> ChainMap | None:
        """K'_r A_r -> A_r: evaluate at the identity-bijection summand."""
        comp = self.components.get((r, r))
        if comp is None:
            return None
        idb = tuple(range(r))
        at_id = label_map(
            comp.sursum.total, comp.a.complex, partial=True,
            key=lambda lab: lab[2][-1] if lab[1] == idb else None)
        return at_id.compose(comp.inclusion)

    def epsilon_section(self, r) -> ChainMap | None:
        """The canonical section A_r -> K'_r A_r: a |-> sum over the orbit of
        the identity-bijection slot."""
        comp = self.components.get((r, r))
        if comp is None:
            return None
        # a |-> sum_{sigma} sigma . (id, a): strictly invariant.  Include a at
        # the identity-bijection summand, then sum over the group to land in
        # the invariants
        return factor_through(comp.sursum.sigma_n_action().norm().compose(
            unit_inclusion(comp.sursum)), comp.inclusion)

    def _build_delta(self, r, s, n):
        comp = self.components.get((r, n))
        if comp is None or comp.sursum is None:
            return
        F = self.field
        term = self.a.term(n)
        if s == n or s == r:
            # collapsing a diagonal K' factor is the canonical identification
            self.delta[(r, s, n)] = ChainMap.identity(comp.value.complex)
            self.delta_outer[(r, s, n)] = comp
            return
        inner = KPrimeComponent(term, s)
        outer = KPrimeComponent(inner.value, r)
        pre = SurjectionSum(inner.sursum.sigma_r_action(), r)
        dpre = top_delta_on_sums(comp.sursum, pre)
        # restrict to invariants: D(inv(W_r)) is Sigma_s-invariant; express
        # it in the basis of the outer invariants model through its
        # surjection sum.
        conv = _pre_to_outer_invariants(pre, inner, outer, F)
        dmap = factor_through(conv.compose(dpre.compose(comp.inclusion)),
                              outer.inclusion).validate()
        self.delta[(r, s, n)] = dmap
        self.delta_outer[(r, s, n)] = outer


def _pre_to_outer_invariants(pre: SurjectionSum,
                             inner: KPrimeComponent,
                             outer: KPrimeComponent, F) -> ChainMap:
    """pre.total = W(W(A, s), r) -> outer.sursum.total: express the W(A, s)
    factor in the inner invariants coordinates through a left inverse L of
    the invariants inclusion (L inc = id), which projects W(A, s) onto
    inv(W(A, s)) along a chosen complement.

    The projection cannot be a solve through the inclusion: D(inv W_r) does
    not lie in the tensors with inv(W_s).  Factoring it through
    `outer.sursum.apply(inner.inclusion, pre)` instead raises "map leaves
    the subcomplex" on the trivial Sigma_4-module in arity 4.  Only the
    composite into the outer invariants is certified, by the caller's
    `factor_through`."""
    inv = inner.value.complex
    inc = inner.inclusion
    left = {}
    for k in inv.dims:
        m = inc.component(k)
        # left inverse L with L m = I: solve m^T X = I and take L = X^T
        x = solve_matrix(m.transpose(), SparseMatrix.identity(inv.dim(k), F))
        if x is None:
            raise ArithmeticError("invariants inclusion not split")
        left[k] = x.transpose()
    return pre.apply(ChainMap(pre.a.complex, inv, left), outer.sursum)


def unit_inclusion(sursum: SurjectionSum) -> ChainMap:
    """A -> W: a |-> (id, units, a), the copy of a in the identity-bijection
    summand of the surjection sum W with a unit tree in every factor."""
    idb = tuple(range(sursum.r))
    units = tuple(("tree", trees.leaf(0)) for _ in range(sursum.r))
    return label_map(sursum.a.complex, sursum.total, partial=True,
                     key=lambda lab: ("surj", idb, units + (lab,)))


def to_strict_orbits(top_comp: TopComponentModel):
    """(to_q, proj, eq): the surjection sum W of a Top component model as
    the Sigma_n-module eq, the projection proj : W -> q onto its strict
    orbits, and the map to_q from the model to q.  A collapsed model keeps
    no W, so W is built here, and it is q through the collapse, so to_q
    inverts the collapse first; a windowed one goes through its
    resolution-degree-0 slot."""
    sursum = top_comp.sursum or SurjectionSum(top_comp.a, top_comp.r)
    eq = sursum.sigma_n_action()
    if top_comp.kind == "strict":
        return ChainMap.identity(top_comp.value.complex), top_comp.proj, eq
    _, proj = strict_orbits(eq)
    if top_comp.kind == "collapsed":
        return proj.compose(unit_inclusion(sursum)), proj, eq
    slot0 = label_map(top_comp.value.complex, sursum.total, partial=True,
                      key=lambda lab: lab[3] if lab[1] == 0 else None)
    return proj.compose(slot0), proj, eq


def nu_component(top_comp: TopComponentModel,
                 kp_comp: KPrimeComponent,
                 w: DegreeWindow) -> ChainMap:
    """The comparison K_r A_n -> K'_r A_n: map the model to the strict
    orbits of its surjection sum W, apply the norm sum, and land in the
    strict invariants."""
    if top_comp.r > top_comp.n:     # the zero model: no surjection n ->> r
        return ChainMap.zero(top_comp.value.complex, kp_comp.value.complex)
    to_q, proj, eq = to_strict_orbits(top_comp)
    # the norm sum_g g induces strict orbits -> strict invariants: factor it
    # through the quotient by a unit section, and into the invariants through
    # their inclusion (which certifies that the norm lands there)
    nbar_map = factor_through(eq.norm().compose(unit_section(proj)),
                              kp_comp.inclusion)
    return nbar_map.compose(to_q).validate()


# ---------------------------------------------------------------------------
# Comonad laws: coassociativity and the counit
# ---------------------------------------------------------------------------


def _like(model: TopComponentModel, a: EquivariantComplex, w: DegreeWindow):
    """K_r(a) at window w, for model's r: windowed when model is (the only
    inexact kind), else in its natural kind.  A windowed model sizes its own
    resolution, so maps between it and model stay slotwise."""
    return TopComponentModel(a, model.r, w, force_windowed=not model.exact)


def top_coassociativity_check(term: EquivariantComplex, r, s, t,
                              w: DegreeWindow) -> bool:
    """Comonad coassociativity (delta K)delta = (K delta)delta on homology,
    for the component chain K_r A_n -> K_r K_s K_t A_n (r <= s <= t <= n)."""
    n = term.group.degree
    w2 = w.expand(n + 1)
    comp_r = TopComponentModel(term, r, w)
    # inner models
    inner_t = TopComponentModel(term, t, w2)
    comp_r, d_rt, outer_rt = build_top_delta(term, comp_r, inner_t, r, t, w)
    inner_s = TopComponentModel(term, s, w2)
    _, d_rs, outer_rs = build_top_delta(term, comp_r, inner_s, r, s, w)
    # route A: d_rs then K_r(delta_{s,t} of term at the wide window)
    comp_s_wide = inner_s
    inner_t_wide = TopComponentModel(term, t, w2.expand(n + 1))
    comp_s_wide, d_st, outer_st = build_top_delta(
        term, comp_s_wide, inner_t_wide, s, t, w2)
    # K_r of d_st: source outer_rs (K_r of inner_s); target K_r(outer_st)
    tgt_model = _like(outer_rs, outer_st.value, w)
    src_model = _like(outer_rs, inner_s.value, w)
    k_dst = src_model.apply(d_st, tgt_model)
    routeA = k_dst.compose(d_rs)
    # route B: d_rt then delta_{r,s} of the inner_t value
    comp_b = _like(outer_rt, inner_t.value, w)
    inner_b = _like(inner_s, inner_t.value, w2)
    _, d_b, _ = build_top_delta(inner_t.value, comp_b, inner_b, r, s, w)
    routeB = d_b.compose(d_rt)
    # compare on homology: the two routes land on label-equal models of
    # K_r K_s K_t A_n, built from surjection sums over one label structure
    diff = routeA - routeB
    return all(diff.induced_on_homology(k).is_zero()
               for k in w.shrink(1).degrees())


def counit(k_value, r) -> ChainMap | None:
    """The counit K_r A_r -> A_r of a TopComonad or SpComonad: the identity
    of the collapsed diagonal, which is A_r on the nose."""
    comp = k_value.component(r, r)
    if comp is None:
        return None
    return ChainMap.identity(comp.value.complex)


def counit_check(k_value, a: SymmetricSequence, w: DegreeWindow):
    """epsilon : K(A)_N -> A_N is a quasi-iso on w; reports per-degree cone
    homology.  k_value is a TopComonad or SpComonad."""
    N = a.truncation
    comp = k_value.component(N, N)
    report = {"pass": False, "cone_homology": {}}
    if comp is None:
        report["pass"] = not a.term(N)
        return report
    cn = cone(counit(k_value, N))
    dims = cn.homology_dims(w)
    report["cone_homology"] = dims
    report["pass"] = not dims
    return report


def kprime_coassociativity_check(a: SymmetricSequence, r, s, t, n) -> bool:
    """Exact comonadic coassociativity for K' on the component chain
    K'_r A_n -> K'_r K'_s K'_t A_n, with r < s < t < n (all maps strict)."""
    F = a.field
    term = a.term(n)
    # route pieces on A_n
    inner_t = KPrimeComponent(term, t)
    inner_s = KPrimeComponent(term, s)
    KP = KPrimeComonad(a)
    d_rs = KP.delta[(r, s, n)]
    d_rt = KP.delta[(r, t, n)]
    # route A: d_rs then K'_r(d_st of A_n)
    d_st = KP.delta[(s, t, n)]
    outer_st = KP.delta_outer[(s, t, n)]
    # K'_r of d_st: source K'_r(inner_s value); target K'_r(outer_st value)
    src_model = KPrimeComponent(inner_s.value, r)
    tgt_model = KPrimeComponent(outer_st.value, r)
    k_dst = src_model.apply(d_st, tgt_model)
    routeA = k_dst.compose(d_rs)
    # route B: d_rt then d'_{r,s} of the inner_t value
    single = SymmetricSequence(F, t, {t: inner_t.value})
    KP_b = KPrimeComonad(single)
    d_b = KP_b.delta[(r, s, t)]
    routeB = d_b.compose(d_rt)
    # both land in label-equal models of K'_r K'_s K'_t A_n; compare
    # entrywise
    return (routeA - routeB).is_zero()


# ---------------------------------------------------------------------------
# Cosimplicial complexes and conormalization
# ---------------------------------------------------------------------------


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
    chainops.subcomplex eliminates the stacked codegeneracies once per degree
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


# ---------------------------------------------------------------------------
# Box product
# ---------------------------------------------------------------------------



def box_product(x: CosimplicialComplex, y: CosimplicialComplex,
                max_level=None) -> CosimplicialComplex:
    """The box product of cosimplicial objects, levelwise the coequalizer of
    (delta^{p+1} (x) 1) and (1 (x) delta^0)."""
    if x.field != y.field:
        raise ValueError("field mismatch")
    F = x.field
    M = min(x.M, y.M) if max_level is None else max_level
    sums = []          # per level: list of (p, q, tensor complex)
    totals = []        # per level: direct sum complex
    quotients = []
    for m in range(M + 1):
        parts = []
        for p in range(m + 1):
            q = m - p
            parts.append((p, q, tensor(x.levels[p], y.levels[q])))
        total = direct_sum([c for _, _, c in parts])
        sums.append(parts)
        totals.append(total)
        # coequalizer relations from level m-1 summands
        spans = {}
        if m >= 1:
            prev = sums[m - 1]
            for (p, q, tc) in prev:
                f1 = tensor_map(x.coface(p, p + 1),
                                ChainMap.identity(y.levels[q]))
                f2 = tensor_map(ChainMap.identity(x.levels[p]),
                                y.coface(q, 0))
                # into the level-m summands (p+1, q) and (p, q+1), at
                # indices p + 1 and p
                g = block_map(tc, total, [tc], [c for _, _, c in parts],
                              {(0, p + 1): f1,
                               (0, p): f2.scale(F.neg(F.one()))})
                for k in tc.dims:
                    spans.setdefault(k, []).extend(
                        g.component(k).nonzero_columns())
        quotients.append(quotient(total, spans,
                                  lambda k, j: ("q", total.labels[k][j])))
    levels = [q for q, _ in quotients]
    cofaces, codegens = {}, {}
    for m in range(M):
        for i in range(m + 2):
            comps_map = _box_structure_map(
                x, y, sums, totals, quotients, m, i, kind="coface")
            cofaces[(m, i)] = comps_map
    for m in range(1, M + 1):
        for j in range(m):
            codegens[(m, j)] = _box_structure_map(
                x, y, sums, totals, quotients, m, j, kind="codegen")
    out = CosimplicialComplex(levels, cofaces, codegens,
                              degenerate_above=min(x.degenerate_above +
                                                   y.degenerate_above,
                                                   M)).validate()
    out._quotients = quotients
    return out


def _box_structure_map(x, y, sums, totals, quotients, m, i, kind):
    """The coface or codegeneracy i out of box level m: on the direct sums,
    the (p, q) summand goes to one summand of the target level, whose index
    is its x-level; then induced on the quotients."""
    tgt_level = m + 1 if kind == "coface" else m - 1
    blocks = {}
    for t, (p, q, _) in enumerate(sums[m]):
        if kind == "coface" and i <= p:
            blocks[(t, p + 1)] = tensor_map(x.coface(p, i),
                                            ChainMap.identity(y.levels[q]))
        elif kind == "coface":
            blocks[(t, p)] = tensor_map(ChainMap.identity(x.levels[p]),
                                        y.coface(q, i - p - 1))
        elif i <= p - 1:
            blocks[(t, p - 1)] = tensor_map(x.codegen(p, i),
                                            ChainMap.identity(y.levels[q]))
        else:
            blocks[(t, p)] = tensor_map(ChainMap.identity(x.levels[p]),
                                        y.codegen(q, i - p))
    big = block_map(totals[m], totals[tgt_level],
                    [c for _, _, c in sums[m]],
                    [c for _, _, c in sums[tgt_level]], blocks)
    # q_tgt o big o (the kept coordinates of the source quotient)
    src_q, _ = quotients[m]
    _, tgt_proj = quotients[tgt_level]
    return tgt_proj.compose(big.compose(_kept_coordinates(src_q, totals[m])))


def _kept_coordinates(q, total) -> ChainMap:
    """The box level q -> its direct sum, each basis vector ("q", lab) to
    the coordinate lab it keeps; a section of the projection."""
    return label_map(q, total, key=lambda lab: lab[1])


# ---------------------------------------------------------------------------
# The simplex cosimplicial complex and the collapse lemma
# ---------------------------------------------------------------------------


def simplex_cosimplicial(field, levels: int) -> CosimplicialComplex:
    """m |-> normalized chains of the m-simplex (basis: nonempty subsets)."""
    lvls = []
    for m in range(levels + 1):
        dims, labels = {}, {}
        for j in range(m + 1):
            subs = list(combinations(range(m + 1), j + 1))
            dims[j] = len(subs)
            labels[j] = tuple(("simp", s) for s in subs)
        # d(s) = sum_t (-1)^t (s without its t-th vertex)
        bare = ChainComplex(field, dims, None, labels)
        d = linear_map(bare, bare, lambda k, lab: [
            (("simp", lab[1][:t] + lab[1][t + 1:]), -1 if t % 2 else 1)
            for t in range(len(lab[1]))], degree=-1, partial=True)
        lvls.append(ChainComplex(field, dims, d.components, labels))

    def simplicial(src, tgt, vertex_map):
        """The map of normalized chains induced by a monotone vertex map: a
        simplex whose image repeats a vertex is degenerate and dies."""
        def image(k, lab):
            img = [vertex_map(v) for v in lab[1]]
            if len(set(img)) != len(img):
                return ()
            return ((("simp", tuple(sorted(img))), 1),)
        return linear_map(src, tgt, image)
    cofaces, codegens = {}, {}
    for m in range(levels):
        for i in range(m + 2):
            cofaces[(m, i)] = simplicial(
                lvls[m], lvls[m + 1], lambda v, i=i: v if v < i else v + 1)
    for m in range(1, levels + 1):
        for j in range(m):
            codegens[(m, j)] = simplicial(
                lvls[m], lvls[m - 1], lambda v, j=j: v if v <= j else v - 1)
    return CosimplicialComplex(lvls, cofaces, codegens,
                               degenerate_above=0).validate()


def lemma_ij_check(x: CosimplicialComplex, max_level=None):
    """The collapse j : N(Delta) box X -> X is a levelwise quasi-iso with an
    explicit exact homotopy i j ~ id; returns a report.

    Corrupted inputs (non-cosimplicial structure maps) are reported as
    failures rather than raised."""
    F = x.field
    M = x.M if max_level is None else max_level
    delta = simplex_cosimplicial(F, M)
    try:
        bx = box_product(delta, x, max_level=M)
    except (ValueError, ArithmeticError) as e:
        return {"pass": False, "levels": {}, "error": str(e)}
    report = {"pass": True, "levels": {}}
    for m in range(M + 1):
        level = bx.levels[m]
        try:
            jmap = _collapse_map(delta, x, bx, m)
            imap = _collapse_section(x, bx, m)
        except (ValueError, ArithmeticError) as e:
            report["levels"][m] = {"error": str(e)}
            report["pass"] = False
            continue
        ji = jmap.compose(imap)
        ident_x = ChainMap.identity(x.levels[m])
        ok_ji = ji.components == ident_x.components
        ij = imap.compose(jmap)
        h = homotopy_between(ChainMap.identity(level), ij)
        w = DegreeWindow(min(level.support() or [0]) - 1,
                         max(level.support() or [0]) + 1)
        qi = is_quasi_iso(jmap, w)
        report["levels"][m] = {"section": ok_ji, "homotopy": h is not None,
                               "quasi_iso": qi}
        if not (ok_ji and h is not None and qi):
            report["pass"] = False
    return report


def _collapse_map(delta, x, bx, m) -> ChainMap:
    """(N Delta box X)^m -> X^m: augmentation, then push to level m by
    iterated 0-th cofaces."""
    tgt = x.levels[m]
    q, proj = bx._quotients[m]
    total = proj.source
    # on the (p, m-p)-summand of the presentation: aug (x) (delta^0)^p, where
    # aug keeps the vertices of the simplex
    summands = [tensor(delta.levels[p], x.levels[m - p]) for p in range(m + 1)]
    blocks = {}
    for p, tc in enumerate(summands):
        push = ChainMap.identity(x.levels[m - p])
        for t in range(m - p, m):
            push = x.coface(t, 0).compose(push)
        aug = label_map(
            tc, x.levels[m - p], partial=True,
            key=lambda lab: lab[1] if len(lab[0][1]) == 1 else None)
        blocks[(p, 0)] = push.compose(aug)
    big = block_map(total, tgt, summands, [tgt], blocks)
    # the map kills the coequalized subspace, so any section computes it
    return big.compose(_kept_coordinates(q, total)).validate()


def _collapse_section(x, bx, m) -> ChainMap:
    """X^m -> (N Delta box X)^m via the (0, m) summand with the vertex 0."""
    _, proj = bx._quotients[m]
    vertex = label_map(x.levels[m], proj.source,
                       key=lambda xl: (0, (("simp", (0,)), xl)))
    return proj.compose(vertex).validate()


# ---------------------------------------------------------------------------
# Representable modules and the divided-power factorization
# ---------------------------------------------------------------------------


def representable_module(x: FinitePointedSet, N: int, field: FieldSpec,
                         window: DegreeWindow | None = None):
    """(RightModule, TruncatedCoalgebra) for the stable mapping functor out
    of a finite pointed set.

    M(X)_n is the dual of the permutation module on injections of
    {0..n-1} into the non-basepoint elements of X; the module action is zero
    in every non-unit component (the tree factors live in strictly positive
    degrees while the module is concentrated in degree 0), and the coalgebra
    obtained through the inverse of the norm comparison has trivial theta."""
    if N > 4:
        raise ValueError("N out of range (<= 4)")
    m = x.size
    window = window or DegreeWindow(0, 2)
    op = spectral_lie(field, N)
    seq = SymmetricSequence(field, N, {
        n: tuple_module(field, n, list(permutations(range(m), n)), "minj")
        for n in range(1, N + 1)})
    # module action: unit components only
    module = RightModule(op, seq, _unit_action(seq, op))
    coalg = trivial_coalgebra("top", seq, window)
    return module, coalg


def evaluation_pairing_check(x: FinitePointedSet, r: int, field: FieldSpec):
    """The pairing of M(X)_r against the injections module: for X = [r]_+ it
    is an isomorphism onto a |Sigma_r|-dimensional space with the identity
    component the canonical evaluation."""
    m = x.size
    injs = list(permutations(range(m), r))
    report = {"rank": 0, "identity_component_nonzero": False,
              "target_zero": not injs}
    if not injs:
        return report
    # pairing matrix: dual basis against basis = identity permutation matrix
    pairing = SparseMatrix.identity(len(injs), field)
    report["rank"] = rank(pairing)
    if m == r:
        ident = tuple(range(r))
        report["identity_component_nonzero"] = ident in injs
    return report


def psi_from_theta(c: TruncatedCoalgebra):
    """psi_{r,n} := nu o theta_{r,n} : A_r -> K'_r A_n, as chain maps."""
    if c.source != "top":
        raise ValueError("divided powers live on the top source")
    K = c.komonad
    KP = KPrimeComonad(c.sequence)
    psi = {}
    for n in range(1, c.truncation + 1):
        for r in range(1, n):
            theta = c.theta_map(r, n)
            kp_comp = KP.component(r, n)
            if kp_comp is None:
                continue
            if theta is None:
                psi[(r, n)] = ChainMap.zero(c.sequence.term_complex(r),
                                            kp_comp.value.complex)
                continue
            top_comp = K.component(r, n)
            nu = nu_component(top_comp, kp_comp, c.window)
            psi[(r, n)] = nu.compose(theta)
    return psi, KP


def module_from_psi(c: TruncatedCoalgebra, psi,
                    KP: KPrimeComonad) -> RightModule:
    """Convert psi maps (into strict invariants of the surjection sums) to
    right-module action maps along consecutive-block surjections."""
    op = spectral_lie(c.field, c.truncation)
    seq = c.sequence
    action = _unit_action(seq, op)
    for r in seq.arities():
        for comp in compositions_of_bounded(r, c.truncation):
            n = sum(comp)
            if n == r or n not in seq.terms:
                continue
            ps = psi.get((r, n))
            kp_comp = KP.component(r, n)
            if ps is None or kp_comp is None:
                continue
            action[(r, comp)] = _adjoint_action(
                c, ps, kp_comp, comp, op)
    return RightModule(op, seq, action)


def _unit_action(seq: SymmetricSequence, op: Operad):
    """The unit components of a right module's action: A_r (x) dI_1^{(x) r}
    -> A_r identifies each basis vector with its A_r factor (the unit
    factors are one-dimensional in degree 0)."""
    return {(r, (1,) * r): label_map(
        tensor_many([seq.term_complex(r)] + [op.term_complex(1)] * r),
        seq.term_complex(r), key=lambda lab: lab[0])
        for r in seq.arities()}


def _adjoint_action(c, ps: ChainMap, kp_comp, comp,
                    op: Operad) -> ChainMap:
    """A_r (x) dI_{n_1} (x) ... (x) dI_{n_r} -> A_n from
    psi : A_r -> [(+)_alpha ((x) T) (x) A_n]^{Sigma_n}, evaluated at the
    consecutive-blocks surjection."""
    r = len(comp)
    n = sum(comp)
    a_r = c.sequence.term_complex(r)
    a_n = c.sequence.term_complex(n)
    duals = [op.term_complex(m) for m in comp]
    src = tensor_many([a_r] + duals)
    # consecutive blocks surjection alpha0
    alpha0 = []
    for j, mify in enumerate(comp):
        alpha0.extend([j] * mify)
    alpha0 = tuple(alpha0)
    W = kp_comp.sursum.total
    inc = kp_comp.inclusion
    images = {}
    for k0 in a_r.dims:
        pm = ps.component(k0)
        im = inc.component(k0)
        if pm.is_zero():
            continue
        big = im * pm   # A_r degree-k0 -> W degree-k0
        for (wi, j), v in big.items():
            lab = W.labels[k0][wi]
            _, alpha, inner = lab
            if alpha != alpha0:
                continue
            tree_labs = inner[:-1]
            an_lab = inner[-1]
            # the source basis elements pairing with these trees
            try:
                t_degs = [-d.locate(("dual", t_lab))[0]
                          for t_lab, d in zip(tree_labs, duals)]
            except KeyError:
                continue
            # Koszul sign for the multi-evaluation of duals against trees
            sgn = koszul_sign(range(len(t_degs))[::-1], t_degs)
            src_lab = (a_r.labels[k0][j],) + \
                tuple(("dual", t) for t in tree_labs)
            images.setdefault(src_lab, []).append((an_lab, sgn * v))
    return linear_map(src, a_n, lambda k, lab: images.get(lab, ())).validate()


def divided_power_check(c: TruncatedCoalgebra, w: DegreeWindow | None = None,
                        module: RightModule | None = None):
    """Extract psi = nu o theta, optionally compare with a given module's
    action maps, and validate the resulting right module."""
    if c.source != "top":
        raise ValueError("top source required")
    w = w or c.window
    psi, KP = psi_from_theta(c)
    mod = module_from_psi(c, psi, KP)
    report = {"valid": True, "failures": [], "triangle": {}}
    if module is not None:
        for key, act in mod.action.items():
            given = module.action_map(*key)
            if given is None:
                if not act.is_zero():
                    report["failures"].append("extra action at %r" % (key,))
                continue
            if act.components != given.components:
                report["failures"].append("action mismatch at %r" % (key,))
    vr = validate_right_module(mod)
    if not vr["valid"]:
        report["failures"].extend(vr["failures"])
    report["valid"] = not report["failures"]
    report["module"] = mod
    return report


# ---------------------------------------------------------------------------
# The strict module derived hom through K'
# ---------------------------------------------------------------------------


class _ModuleHomLevels(_HomLevels):
    """Levels m |-> (+)_r Hom_{Sigma_r}(M(X)_r, (K'^m A)_r) of the strict
    module derived hom.  M(X) has trivial psi, so delta^0 keeps only its
    diagonal blocks; delta^1 out of level 0 postcomposes psi of A, whose
    components out of level 1 vanish for the free representables."""

    def __init__(self, mseq, seq, KP, top, psi):
        self.psi = psi
        super().__init__(mseq, seq, KP, top)

    def _outer(self, m, sk, tk):
        return None

    def _inner(self, m, sk, tk):
        ps = self.psi.get((sk[0], tk[-1])) if m == 0 else None
        if ps is None or ps.is_zero():
            return None
        return self._post(m, sk, tk, ps)


def truncate_coalgebra(c: TruncatedCoalgebra, n: int) -> TruncatedCoalgebra:
    """The n-truncation of c as a coalgebra of its own: the terms and theta
    maps of arity <= n over a comonad built afresh on them.  On those
    arities its comonad's models are label-equal to c's, so a stage p_n of c
    reads c itself; this copy is the reference the tests compare it with,
    and the input of `module_hom_tower`."""
    if n < 1:
        raise ValueError("truncation must be >= 1")
    if n > c.truncation:
        raise ValueError("cannot truncate upwards")
    seq = SymmetricSequence(c.field, n, {
        m: t for m, t in c.sequence.terms.items() if m <= n})
    theta = {(r, m): f for (r, m), f in c.theta.items() if m <= n}
    return TruncatedCoalgebra(c.source, seq, c.window, theta)


def module_hom_tower(c, site, n, win: DegreeWindow):
    """Map_{dI}(M(X), A_{<= n}) through the strict K'-cobar; exact."""
    cn = truncate_coalgebra(c, n) if n < c.truncation else c
    module, _ = representable_module(FinitePointedSet(site.size),
                                     cn.truncation, c.field)
    psi, KP = psi_from_theta(cn)
    t = fat_tot(assemble(_ModuleHomLevels(
        module.sequence, cn.sequence, KP, cn.truncation, psi)))
    return {k: t.homology(k)[0] for k in win.degrees()}


# ---------------------------------------------------------------------------
# The splitting criterion
# ---------------------------------------------------------------------------


def splitting_check(c, site, n=None, w: DegreeWindow | None = None):
    """With every A_n free: P_n homology equals the sum of the layers; for
    top sources it also equals the strict module derived hom through K'."""
    w = w or c.window
    n = n or c.truncation
    report = {"free": True, "layers_match": None, "module_match": None,
              "details": {}}
    for m in c.sequence.arities():
        if not is_free(c.sequence.term(m)):
            report["free"] = False
    st = p_n(c, site, n)
    win = st["window"]
    pn_h = {k: st["complex"].homology(k)[0] for k in win.degrees()}
    layer_h = {k: 0 for k in win.degrees()}
    for j in range(1, n + 1):
        d_j = _layer(c, site, j)
        if d_j is None:
            continue
        for k in win.degrees():
            layer_h[k] += d_j.homology(k)[0]
    report["details"]["p_n"] = pn_h
    report["details"]["layers"] = layer_h
    report["layers_match"] = pn_h == layer_h
    if c.source == "top":
        mod_h = module_hom_tower(c, site, n, win)
        report["details"]["module_hom"] = mod_h
        report["module_match"] = mod_h == pn_h
    report["pass"] = bool(report["layers_match"]) and \
        (report["module_match"] in (None, True))
    return report


def _layer(c, site, j):
    """D_j at the site: orbits of A_j (x) X-power (strict when free).

    The top-source power is the full smash power (all j-tuples of points),
    not the injective part."""
    term = c.sequence.term(j)
    if term is None:
        return None
    F = c.field
    if c.source == "sp":
        if is_free(term):
            q, _ = strict_orbits(term)
            return q
        return homotopy_orbits(term, c.window)
    tup = tuple_module(F, j, list(_iterprod(range(site.size), repeat=j)),
                       "xt")
    if tup is None:
        return ChainComplex(F, {})
    tens = equivariant_tensor(term, tup)
    if is_free(tens):
        q, _ = strict_orbits(tens)
        return q
    return homotopy_orbits(tens, c.window)


# ---------------------------------------------------------------------------
# Space-valued 2-excisive validators (paragraph 7)
# ---------------------------------------------------------------------------


def tensor_power(x: ChainComplex, n: int) -> EquivariantComplex:
    """X^{(x) n} with Sigma_n permuting the factors with Koszul signs."""
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    group = YoungGroup.full(n)
    t = tensor_many([x] * n)
    return EquivariantComplex(t, group, {
        gi: tensor_reorder_map([x] * n, transposition(n, gi))
        for gi in group.generator_positions()}).validate()


def fixed_part_inclusion(model: SpComponentModel,
                         fixed_model: ChainComplex) -> ChainMap:
    """The canonical map (homotopy fixed points of the carrier) -> the Tate
    model of an Sp component (the cone of the norm): include as the
    cone-target part."""
    return label_map(fixed_model, model.value.complex,
                     key=lambda lab: ("cone-tgt", lab), partial=True)


def tate_diagonal_unitlike(a1: ChainComplex, t_model, w: DegreeWindow):
    """The diagonal A_1 -> Tate_{Sigma_2}(A_1 (x) A_1) for coefficients with
    homology concentrated in degree 0.

    Over a field of odd or zero characteristic the target vanishes on the
    window and the map is zero.  Over F_2 a degree-0 class [z] goes to the
    Frobenius square class [z (x) z], placed as a strictly invariant cycle in
    the fixed-part slot of the Tate cone; the assignment is F_2-linear on
    homology (cross terms are norms)."""
    F = a1.field
    tgt = t_model.value.complex
    if F.p != 2:
        return ChainMap.zero(a1, tgt)
    pi, reps = homology_coordinates(a1, 0)
    if not reps:
        return ChainMap.zero(a1, tgt)
    squares = SparseMatrix.from_columns(
        [_square_into_tate(z, a1, tgt, F) for z in reps], tgt.dim(0), F)
    return ChainMap(a1, tgt, {0: squares * pi}).validate()


def _square_into_tate(z, a1, tgt, F):
    """The cycle z (x) z written in the Tate model: strictly invariant over
    F_2, placed in the degree-0 fixed-part slot of the cone."""
    tidx = tgt.label_index(0)
    out = {}
    labs = a1.labels.get(0, ())
    for i1, v1 in z.items():
        for i2, v2 in z.items():
            lab = ("sidx", (0, 0), (labs[i1], labs[i2]))
            row = tidx.get(("cone-tgt", ("hGf", 0, 0, lab)))
            if row is not None:
                cur = F.add(out.get(row, F.zero()), F.mul(v1, v2))
                if F.is_zero(cur):
                    out.pop(row, None)
                else:
                    out[row] = cur
    return out


def _tate_of_m_after_diagonal(a1, a2, m_map, w):
    """(Tate(m) o delta, the Tate model of Sigma A_2): the diagonal
    A_1 -> Tate(A_1 (x) A_1) with the swap action, then the Tate functor on
    the equivariant m : A_1 (x) A_1 -> Sigma A_2 through the sidx-wrapped
    carrier, certified here."""
    sq_idx = SpComponentModel(tensor_power(a1, 2), 1, w)
    t_sa2 = SpComponentModel(suspension(a2), 1, w)
    tm = sq_idx.apply(m_map, t_sa2).validate()
    return tm.compose(tate_diagonal_unitlike(a1, sq_idx, w)), t_sa2


def validate_2exc_sp_to_top(a1: ChainComplex, a2: EquivariantComplex,
                            m_map: ChainMap, w: DegreeWindow, witness=None):
    """Spectra-to-spaces 2-excisive data: a module map
    m : A_1 (x) A_1 -> Sigma A_2 with a nullhomotopy of the composite
    A_1 -> Tate(A_1 (x) A_1) -> Tate(Sigma A_2)."""
    composite, _ = _tate_of_m_after_diagonal(a1, a2, m_map, w)
    h = None
    if witness is not None:
        try:
            ChainHomotopy(composite, ChainMap.zero(composite.source,
                                                   composite.target),
                          witness).validate()
            h = witness
        except ValueError:
            return {"valid": False, "reason": "witness fails",
                    "obstruction_dim": None}
    else:
        h = nullhomotopy(composite)
    # the composite's class in H_0 of the mapping complex: zero exactly
    # when a nullhomotopy exists
    obstruction = 0 if h is not None else 1
    return {"valid": h is not None, "obstruction_vanishes": obstruction == 0,
            "obstruction_dim": obstruction, "found_witness": h is not None}


def validate_2exc_top_to_top(a1: ChainComplex, a2: EquivariantComplex,
                             m_map: ChainMap, m_prime: ChainMap,
                             w: DegreeWindow, witness=None):
    """Spaces-to-spaces 2-excisive data: maps m : A_1 (x) A_1 -> Sigma A_2
    and m' : A_1 -> Sigma A_2, with a homotopy between the two composites
    into Tate(Sigma A_2)."""
    route2, t_sa2 = _tate_of_m_after_diagonal(a1, a2, m_map, w)
    # route 1: m' lifted through the fixed points, then into the cone; the
    # fixed model is the one `tate` builds for t_sa2, on the widened window
    fx = homotopy_fixed(tensor_with_surjection_index(suspension(a2), 1),
                        w.expand(1))
    # m' is equivariant into the trivial-action suspension; lift x -> m'(x)
    # as a strictly invariant functional
    lift = _invariant_lift(m_prime, fx)
    incl = fixed_part_inclusion(t_sa2, fx)
    route1 = incl.compose(lift)
    h = None
    if witness is not None:
        try:
            ChainHomotopy(route1, route2, witness).validate()
            h = witness
        except ValueError:
            return {"valid": False, "reason": "witness fails"}
    else:
        h = nullhomotopy(route1 - route2)
    return {"valid": h is not None,
            "obstruction_dim": 0 if h is not None else 1,
            "found_witness": h is not None}


def _invariant_lift(m_prime: ChainMap, fixed_model: ChainComplex) -> ChainMap:
    """m' : A_1 -> Sigma A_2 with invariant image lifts to the homotopy fixed
    points as the degree-0 functional slot (carrier wrapped in sidx)."""
    return label_map(m_prime.target, fixed_model, partial=True,
                     key=lambda lab: ("hGf", 0, 0, ("sidx", (0, 0), lab))
                     ).compose(m_prime).validate()
