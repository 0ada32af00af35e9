"""Plethysm, the bar construction on the commutative operad, the
partition-poset nerve, and the derivatives-of-the-identity operad.

Two models of the bar construction coexist deliberately:

* ``bar_construction`` builds the honest leveled simplicial object
  1 o P^{o s} o 1 (basis: weakly decreasing chains of set partitions) and its
  normalized complex per arity.  It is the oracle side: homology ranks are
  cross-checked against ``partition_poset_nerve``.
* ``cooperad.tree_cooperad`` builds T_* on the rooted-tree basis.  Its
  arity-wise dual ``spectral_lie`` is the operad acting on everything
  downstream.  The two models coincide through arity 3 and have the same
  homology in arity 4.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as _iterprod

from .chain import (
    ChainComplex, ChainMap, direct_sum, dual, linear_map, sphere, tensor_many,
)
from .cooperad import Operad, tree_cooperad
from .equivariant import EquivariantComplex, trivial_action
from .perms import (
    YoungGroup, apply_perm_to_partition, refines, set_partitions,
    transposition,
)
from .sequences import SymmetricSequence
from .sparse import SparseMatrix


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
        summed = direct_sum([c for _, c, _ in summands])
        parts = [part for part, _, _ in summands]
        total = ChainComplex(F, summed.dims, summed.diff, {
            k: tuple(("pleth", parts[idx], inner) for idx, inner in labs)
            for k, labs in summed.labels.items()})
        factors_of = {part: factors for part, _, factors in summands}
        group = YoungGroup.full(n)

        def act(s):
            # A_r gets tau, block i gets its inner permutation, and the
            # b-factors are reordered along tau
            moves = {}
            for part in parts:
                tau, inner_perms = _perm_of_blocks(s, part)
                b_maps = [b.term(len(blk)).action_of(tuple(ip))
                          for blk, ip in zip(part, inner_perms)]
                moves[part] = (apply_perm_to_partition(s, part),
                               a.term(len(part)).action_of(tuple(tau)),
                               b_maps, tau)

            def image(k, lab):
                _, part, inner = lab
                tgt_part, a_map, b_maps, tau = moves[part]
                return [(("pleth", tgt_part, tl), v) for (tl, _), v in
                        _plethysm_image(F, inner, factors_of[part], a_map,
                                        b_maps, tau).items()]
            return linear_map(total, total, image)
        out_terms[n] = EquivariantComplex(total, group, {
            gi: act(transposition(n, gi))
            for gi in group.generator_positions()})
    return SymmetricSequence(F, N, out_terms)


def _plethysm_image(F, lab, factors, a_map, b_maps, tau):
    """Image of a tensor basis element under (a_map (x) b_maps) followed by
    reordering the b-factors along tau, with Koszul signs.

    Returns {(target label, degree): coefficient}."""
    maps = [a_map] + b_maps
    # apply each map factorwise; collect (coefficient, target label, degree)
    per_factor = []
    for c, l, mp in zip(factors, lab, maps):
        k0, i0 = c.locate(l)
        comp = mp.component(k0)
        hits = []
        tgt = mp.target
        for (i2, j2), v in comp.entries.items():
            if j2 == i0:
                hits.append((tgt.labels[k0][i2], k0, v))
        per_factor.append(hits)
    out = {}
    for combo in _iterprod(*per_factor):
        coeff = F.one()
        new_lab = []
        degs = []
        for l2, k2, v in combo:
            coeff = F.mul(coeff, v)
            new_lab.append(l2)
            degs.append(k2)
        # reorder b-factors (positions 1..r) along tau with Koszul signs
        r = len(tau)
        b_labels = new_lab[1:]
        b_degs = degs[1:]
        sgn = _koszul_reorder_sign(F, b_degs, tau)
        reordered = [None] * r
        for i in range(r):
            reordered[tau[i]] = b_labels[i]
        final_lab = (new_lab[0],) + tuple(reordered)
        key = (final_lab, sum(degs))
        cur = out.get(key, F.zero())
        cur = F.add(cur, F.mul(sgn, coeff))
        if F.is_zero(cur):
            out.pop(key, None)
        else:
            out[key] = cur
    return out


def _koszul_reorder_sign(F, degs, tau):
    """Sign of reordering graded factors: factor i moves to position tau[i]."""
    sign = 1
    r = len(tau)
    for i in range(r):
        for j in range(i + 1, r):
            if tau[i] > tau[j] and degs[i] % 2 and degs[j] % 2:
                sign = -sign
    return F.one() if sign == 1 else F.neg(F.one())

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
    return Operad(seq, gamma, name="Com")


def compositions_of_bounded(r, N):
    """All compositions (n_1..n_r) of length r with sum <= N, each n_i >= 1."""
    out = []

    def rec(acc, total):
        if len(acc) == r:
            out.append(tuple(acc))
            return
        rem = r - len(acc) - 1
        for v in range(1, N - total - rem + 1):
            acc.append(v)
            rec(acc, total + v)
            acc.pop()

    if r >= 1 and r <= N:
        rec([], 0)
    return out


# ---------------------------------------------------------------------------
# The leveled bar construction B(1, Com, 1)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _refinements(n):
    """The partitions of {0..n-1} in set_partitions order, and for each
    partition q the ordered list of those partitions that refine q."""
    parts = set_partitions(list(range(n)))
    return parts, {q: [p for p in parts if refines(p, q)] for q in parts}


def _weak_chains(n, length):
    """Weakly decreasing chains (P_1 >= ... >= P_length) of partitions of
    {0..n-1}, as tuples (coarsest first)."""
    parts, finer = _refinements(n)
    if length == 0:
        return [()]
    out = []

    def rec(acc, choices):
        if len(acc) == length:
            out.append(tuple(acc))
            return
        for p in choices:
            acc.append(p)
            rec(acc, finer[p])
            acc.pop()

    rec([], parts)
    return out


TOP = lambda n: (tuple(range(n)),)
DISCRETE = lambda n: tuple((i,) for i in range(n))


class BarConstruction:
    """The simplicial symmetric sequence B(1, P, 1) for a Com-like operad,
    with normalized complexes and simplicial structure maps."""

    def __init__(self, operad: Operad, max_level=None):
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
        self.max_level = N + 1 if max_level is None else max_level
        self.levels = {}     # (s, n) -> ChainComplex (degree 0, chain basis)
        self.faces = {}      # (s, i, n) -> ChainMap level s -> s-1
        self.degens = {}     # (s, j, n) -> ChainMap level s -> s+1
        self.normalized = {}  # n -> ChainComplex with degree = level
        for n in range(1, N + 1):
            self._build_arity(n)

    def _build_arity(self, n):
        F = self.field
        top, bot = TOP(n), DISCRETE(n)
        chains_by_level = {}
        for s in range(0, self.max_level + 1):
            if s == 0:
                chains = [()] if n == 1 else []
            else:
                chains = _weak_chains(n, s - 1)
            chains_by_level[s] = chains
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
        # normalized complex: strict chains, degree = level; interior
        # deletions only, and their results stay strict
        dims, labels = {}, {}
        for s in range(0, self.max_level + 1):
            strict = [ch for ch in chains_by_level[s] if _is_strict(ch, n, s)]
            if strict:
                dims[s] = len(strict)
                labels[s] = tuple(("bar", ch) for ch in strict)
        bare = ChainComplex(F, dims, None, labels)
        d = linear_map(bare, bare, lambda k, lab: [
            (("bar", lab[1][:i - 1] + lab[1][i:]), -1 if i % 2 else 1)
            for i in range(1, k)], degree=-1, partial=True)
        self.normalized[n] = ChainComplex(F, dims, d.components, labels)

    def simplicial_identities_hold(self) -> bool:
        for n in range(1, self.truncation + 1):
            for s in range(2, self.max_level + 1):
                for i in range(s):
                    for j in range(i + 1, s + 1):
                        lhs = self.faces[(s - 1, i, n)].compose(self.faces[(s, j, n)])
                        rhs = self.faces[(s - 1, j - 1, n)].compose(self.faces[(s, i, n)])
                        if lhs.components != rhs.components:
                            return False
            for s in range(0, self.max_level - 1):
                for i in range(s + 1):
                    for j in range(i, s + 1):
                        lhs = self.degens[(s + 1, i, n)].compose(self.degens[(s, j, n)])
                        rhs = self.degens[(s + 1, j + 1, n)].compose(self.degens[(s, i, n)])
                        if lhs.components != rhs.components:
                            return False
            # mixed identities d_i s_j
            for s in range(0, self.max_level):
                for j in range(s + 1):
                    for i in range(s + 2):
                        ds = self.faces[(s + 1, i, n)].compose(self.degens[(s, j, n)])
                        if i == j or i == j + 1:
                            rhs = ChainMap.identity(self.levels[(s, n)])
                        elif i < j:
                            rhs = self.degens[(s - 1, j - 1, n)].compose(
                                self.faces[(s, i, n)])
                        else:
                            rhs = self.degens[(s - 1, j, n)].compose(
                                self.faces[(s, i - 1, n)])
                        if ds.components != rhs.components:
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
    coop = tree_cooperad(field, N)
    terms = {}
    dual_complexes = {}
    for n in range(1, N + 1):
        tc = coop.term_complex(n)
        dc = dual(tc)
        dual_complexes[n] = dc
        group = YoungGroup.full(n)
        action = {}
        for gi in group.generator_positions():
            # dual of an involution's action, transposed degreewise
            f = coop.term(n).action[gi]
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
                dmap = coop.decomposition(n, blocks)
                gamma[(r, comp)] = _dualize_decomposition(
                    dmap, [seq.term_complex(r)] +
                    [seq.term_complex(m) for m in comp],
                    dual_complexes[n])
    op = Operad(seq, gamma, name="spectral-lie")
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
        sgn = 1
        for i in range(len(dk)):
            for j in range(i + 1, len(dk)):
                if dk[i] % 2 and dk[j] % 2:
                    sgn = -sgn
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
        ent = {}
        for (i, j), v in m.entries.items():
            ent[(i, j)] = v
        # must be a bijection matrix with unit entries
        if len(ent) != target.dim(k):
            return False
        rows = {i for (i, j) in ent}
        cols = {j for (i, j) in ent}
        if len(rows) != target.dim(k) or len(cols) != target.dim(k):
            return False
        for v in ent.values():
            if not (F.is_one(v) or F.is_one(F.neg(v))):
                return False
    return True


# ---------------------------------------------------------------------------
# Partition poset nerve (independent oracle)
# ---------------------------------------------------------------------------


def partition_poset_nerve(field, n):
    """(simplicial chains of the nerve of proper nontrivial partitions of
    {1..n} with Sigma_n action, comparison complex = reduced chains [+2])."""
    if not (2 <= n <= 4):
        raise ValueError("n out of range [2, 4]")
    proper = [p for p in set_partitions(list(range(n)))
              if 1 < len(p) < n]
    # chains ordered by refinement: ascending chains p_0 < p_1 < ... (finer first)
    simplices = {0: [(p,) for p in proper]}
    j = 0
    while simplices.get(j):
        nxt = []
        for ch in simplices[j]:
            for p in proper:
                if p != ch[-1] and refines(ch[-1], p):
                    nxt.append(ch + (p,))
        if nxt:
            simplices[j + 1] = sorted(nxt)
        j += 1
    dims, labels = {}, {}
    for j, sims in simplices.items():
        if sims:
            dims[j] = len(sims)
            labels[j] = tuple(("simplex", s) for s in sims)
    bare = ChainComplex(field, dims, None, labels)
    d = linear_map(bare, bare, lambda k, lab: [
        (("simplex", lab[1][:i] + lab[1][i + 1:]), -1 if i % 2 else 1)
        for i in range(len(lab[1]))], degree=-1, partial=True)
    diff = d.components
    nerve = ChainComplex(field, dims, diff, labels).validate()
    group = YoungGroup.full(n)

    def act(s):
        return linear_map(nerve, nerve, lambda k, lab: ((("simplex", tuple(
            apply_perm_to_partition(s, p) for p in lab[1])), 1),))
    nerve_eq = EquivariantComplex(nerve, group, {
        gi: act(transposition(n, gi)) for gi in group.generator_positions()})
    # comparison complex: reduced chains shifted up by 2
    rdims = {j + 2: d for j, d in dims.items()}
    rdims[1] = 1  # the empty simplex in reduced degree -1, shifted to 1
    rlabels = {j + 2: labels[j] for j in dims}
    rlabels[1] = (("simplex", ()),)
    rdiff = {j + 2: m for j, m in diff.items()}
    if dims.get(0):
        rdiff[2] = SparseMatrix.from_rows([[1] * dims[0]], field)
    comparison = ChainComplex(field, rdims, rdiff, rlabels).validate()
    return nerve_eq, comparison
