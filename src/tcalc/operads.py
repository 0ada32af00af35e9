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
    ChainComplex, ChainMap, direct_sum, dual, sphere, tensor_many,
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
        total = direct_sum([c for _, c, _ in summands])
        relabeled = {}
        offset_of = {}
        for idx, (part, c, _) in enumerate(summands):
            offset_of[part] = idx
        # index: (summand idx, degree, position) -> global position
        pos = {}
        for k in total.dims:
            for i, lab in enumerate(total.labels[k]):
                idx, inner = lab
                pos[(idx, k, inner)] = i
        # build the Sigma_n action on generators
        action = {}
        group = YoungGroup.full(n)
        for gi in group.generator_positions():
            s = transposition(n, gi)
            comps = {}
            for k in total.dims:
                m = SparseMatrix(total.dim(k), total.dim(k), F)
                comps[k] = m
            for idx, (part, c, factors) in enumerate(summands):
                tgt_part = apply_perm_to_partition(s, part)
                tgt_idx = offset_of[tgt_part]
                tau, inner_perms = _perm_of_blocks(s, part)
                a_r = a.term(len(part))
                b_terms = [b.term(len(blk)) for blk in part]
                # map on the tensor factors: A_r gets tau, block i gets inner perm
                a_map = a_r.action_of(tuple(tau))
                b_maps = [bt.action_of(tuple(ip))
                          for bt, ip in zip(b_terms, inner_perms)]
                for k in c.dims:
                    for col, lab in enumerate(c.labels[k]):
                        # lab = (a_lab, b_lab_1, ..., b_lab_r) in summand order
                        srcpos = pos[(idx, k, lab)]
                        image = _plethysm_image(
                            F, lab, factors, a_map, b_maps, tau)
                        for (tgt_lab, deg2), v in image.items():
                            tgtpos = pos[(tgt_idx, k, tgt_lab)]
                            comps[k].add_to(tgtpos, srcpos, v)
            action[gi] = ChainMap(total, total, comps)
        new_labels = {}
        for k in total.dims:
            labs = []
            for lab in total.labels[k]:
                idx, inner = lab
                part = summands[idx][0]
                labs.append(("pleth", part, inner))
            new_labels[k] = tuple(labs)
        total2 = ChainComplex(F, total.dims, total.diff, new_labels)
        action2 = {gi: ChainMap(total2, total2, f.components)
                   for gi, f in action.items()}
        out_terms[n] = EquivariantComplex(total2, group, action2)
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
            m = SparseMatrix(1, 1, field)
            m[0, 0] = field.one()
            gamma[(r, comp)] = ChainMap(src, tgt, {0: m})
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
        # face maps
        for s in range(1, self.max_level + 1):
            src = self.levels[(s, n)]
            tgt = self.levels[(s - 1, n)]
            src_chains = chains_by_level[s]
            tgt_pos = {ch: i for i, ch in enumerate(chains_by_level[s - 1])}
            for i in range(0, s + 1):
                m = SparseMatrix(tgt.dim(0), src.dim(0), F)
                for col, ch in enumerate(src_chains):
                    full = (top,) + ch + (bot,)
                    # d_i composes around the partition at position i
                    if i == 0:
                        if full[1] == top:
                            new = ch[1:] if s >= 2 else ()
                            if s == 1:
                                # chain () at level 1 -> level 0 requires n == 1
                                if n == 1:
                                    m.add_to(tgt_pos[()], col, F.one())
                                continue
                            m.add_to(tgt_pos[new], col, F.one())
                    elif i == s:
                        if full[s - 1] == bot:
                            if s == 1:
                                if n == 1:
                                    m.add_to(tgt_pos[()], col, F.one())
                                continue
                            new = ch[:-1]
                            m.add_to(tgt_pos[new], col, F.one())
                    else:
                        new = ch[:i - 1] + ch[i:]
                        m.add_to(tgt_pos[new], col, F.one())
                self.faces[(s, i, n)] = ChainMap(
                    src, tgt, {0: m} if not m.is_zero() else {})
        # degeneracy maps
        for s in range(0, self.max_level):
            src = self.levels[(s, n)]
            tgt = self.levels[(s + 1, n)]
            src_chains = chains_by_level[s]
            tgt_pos = {ch: i for i, ch in enumerate(chains_by_level[s + 1])}
            for j in range(0, s + 1):
                m = SparseMatrix(tgt.dim(0), src.dim(0), F)
                for col, ch in enumerate(src_chains):
                    # level-s full chain (P_0, ..., P_s); for s = 0 it is the
                    # single entry (top,), which forces n = 1
                    full = (top,) + ch + (bot,) if s >= 1 else (top,)
                    new = (full[:j + 1] + (full[j],) + full[j + 1:])[1:-1]
                    m.add_to(tgt_pos[new], col, F.one())
                self.degens[(s, j, n)] = ChainMap(
                    src, tgt, {0: m} if not m.is_zero() else {})
        # normalized complex: strict chains, degree = level
        dims, labels, pos = {}, {}, {}
        for s in range(0, self.max_level + 1):
            strict = [ch for ch in chains_by_level[s] if _is_strict(ch, n, s)]
            if strict:
                dims[s] = len(strict)
                labels[s] = tuple(("bar", ch) for ch in strict)
                pos[s] = {ch: i for i, ch in enumerate(strict)}
        diff = {}
        for s in sorted(dims):
            if not dims.get(s - 1):
                continue
            m = SparseMatrix(dims[s - 1], dims[s], F)
            for col, (_, ch) in enumerate(labels[s]):
                # interior deletions only; results stay strict
                for i in range(1, s):
                    new = ch[:i - 1] + ch[i:]
                    sgn = F.one() if i % 2 == 0 else F.neg(F.one())
                    row = pos[s - 1].get(new)
                    if row is not None:
                        m.add_to(row, col, sgn)
            diff[s] = m
        self.normalized[n] = ChainComplex(F, dims, diff, labels)

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
                    dual_complexes[n], field)
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


def _dualize_decomposition(dmap: ChainMap, dual_factors, dual_target, field):
    """gamma := dual of a decomposition map, with Koszul evaluation signs.

    dmap : T(n) -> T(r) (x) T(b_1) (x) ... ; the result maps
    tensor(dual factors) -> dual(T(n)).  Entry convention:
    gamma[t*, (x_0*, ..., x_r*)] = (-1)^{sum_{i<j} |x_i||x_j|} delta[x_., t].
    """
    src = tensor_many(dual_factors)
    F = field
    # positions of dual labels: dual label = ("dual", original)
    tgt_pos = {}
    for k in dual_target.dims:
        for i, lab in enumerate(dual_target.labels[k]):
            tgt_pos[lab[1]] = (k, i)
    # decode dmap target labels (tuples of originals) and source labels
    comps = {}
    for k, m in dmap.components.items():
        for (row, col), v in m.entries.items():
            xlab = dmap.target.labels[k][row]      # tuple of tree labels
            tlab = dmap.source.labels[k][col]      # ("tree", t)
            # degrees of the x factors
            degs = []
            for fl, fc in zip(xlab, _undual(dual_factors)):
                degs.append(fc[fl])
            sgn = 1
            for i in range(len(degs)):
                for j in range(i + 1, len(degs)):
                    if degs[i] % 2 and degs[j] % 2:
                        sgn = -sgn
            # source basis position in tensor of duals
            dual_lab = tuple(("dual", l) for l in xlab)
            sk, spos = src.locate(dual_lab)
            tk, tpos = tgt_pos[tlab]
            mm = comps.get(sk)
            if mm is None:
                mm = SparseMatrix(dual_target.dim(sk), src.dim(sk), F)
                comps[sk] = mm
            val = F.mul(F.coerce(sgn), v)
            mm.add_to(tpos, spos, val)
    return ChainMap(src, dual_target, comps).validate()


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
    pos = {}
    for j in dims:
        for i, lab in enumerate(labels[j]):
            pos[lab[1]] = (j, i)
    diff = {}
    for j in dims:
        if j == 0 or not dims.get(j - 1):
            continue
        m = SparseMatrix(dims[j - 1], dims[j], field)
        for col, lab in enumerate(labels[j]):
            ch = lab[1]
            for i in range(len(ch)):
                face = ch[:i] + ch[i + 1:]
                sgn = field.one() if i % 2 == 0 else field.neg(field.one())
                _, row = pos[face]
                m.add_to(row, col, sgn)
        diff[j] = m
    nerve = ChainComplex(field, dims, diff, labels).validate()
    group = YoungGroup.full(n)
    action = {}
    for gi in group.generator_positions():
        s = transposition(n, gi)
        comps = {}
        for j in nerve.dims:
            m = SparseMatrix(nerve.dim(j), nerve.dim(j), field)
            for col, lab in enumerate(nerve.labels[j]):
                ch = lab[1]
                newch = tuple(apply_perm_to_partition(s, p) for p in ch)
                _, row = pos[newch]
                m.add_to(row, col, field.one())
            comps[j] = m
        action[gi] = ChainMap(nerve, nerve, comps)
    nerve_eq = EquivariantComplex(nerve, group, action)
    # comparison complex: reduced chains shifted up by 2
    rdims = {j + 2: d for j, d in dims.items()}
    rdims[1] = 1  # the empty simplex in reduced degree -1, shifted to 1
    rlabels = {j + 2: labels[j] for j in dims}
    rlabels[1] = (("simplex", ()),)
    rdiff = {j + 2: m for j, m in diff.items()}
    if dims.get(0):
        m = SparseMatrix(1, dims[0], field)
        for col in range(dims[0]):
            m[0, col] = field.one()
        rdiff[2] = m
    comparison = ChainComplex(field, rdims, rdiff, rlabels).validate()
    return nerve_eq, comparison
