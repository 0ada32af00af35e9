"""The two partition complexes the CLI prints: the normalized bar complex
of the commutative operad and the partition-poset nerve.

* ``bar_complex`` is the normalized complex of B(1, Com, 1) in one arity,
  built straight from the strict chains of set partitions (`bar-com`).
* ``partition_poset_nerve`` is the nerve of the proper nontrivial
  partitions with its Sigma_n action (`partition-nerve`), an independent
  homology oracle for the bar complex.

The leveled simplicial object B(1, Com, 1), with its weak chains, faces and
degeneracies, lives in `laws` with the commutative operad, plethysm and the
dual tree operad: the test suite checks `bar_complex` against it, and no
subcommand runs it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product

from . import combinat, equivariant, sequences
from .chain import ChainComplex, linear_map
from .perms import YoungGroup, transposition
from .sparse import SparseMatrix


def __getattr__(name):
    """`SymmetricSequence` still resolves here, where it lived before
    `sequences`, without running `sequences` for the two subcommands."""
    if name == "SymmetricSequence":
        return sequences.SymmetricSequence
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# ---------------------------------------------------------------------------
# The normalized bar complex of Com
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _refinements(n):
    """The partitions of {0..n-1} in set_partitions order, and for each
    partition q the ordered list of those partitions that refine q: one
    partition of each block of q, joined.  set_partitions sorts its
    normalized tuples, and a join sorted by block minima is normalized, so
    sorting the joins keeps that order."""
    parts = combinat.set_partitions(list(range(n)))
    split = {b: combinat.set_partitions(b)
             for b in {b for q in parts for b in q}}
    return parts, {q: sorted(tuple(sorted(chain.from_iterable(pick)))
                             for pick in product(*[split[b] for b in q]))
                   for q in parts}


TOP = lambda n: (tuple(range(n)),)
DISCRETE = lambda n: tuple((i,) for i in range(n))


def _strict_chains(n):
    """{level s: the strict chains top > P_1 > ... > P_{s-1} > discrete of
    partitions of {0..n-1}, as tuples (P_1, ..., P_{s-1})}, each level in
    lexicographic order of set_partitions positions.  In arity 1 top is
    discrete, and the one chain is the empty one at level 0."""
    if n == 1:
        return {0: [()]}
    parts, finer = _refinements(n)
    top, bot = TOP(n), DISCRETE(n)
    below = {p: [q for q in finer[p] if q != p and q != bot] for p in parts}
    levels = {1: [()]}
    chains = [(p,) for p in below[top]]
    while chains:
        levels[len(chains[0]) + 1] = chains
        chains = [ch + (q,) for ch in chains for q in below[ch[-1]]]
    return levels


def bar_complex(field, n) -> ChainComplex:
    """The normalized complex of B(1, Com, 1) in arity n: degree s is
    spanned by the strict chains of level s, labelled ("bar", chain), and d
    is the alternating sum of the interior deletions."""
    if not 1 <= n <= 6:
        raise ValueError("n out of range [1, 6]")
    labels = {s: tuple(("bar", ch) for ch in chains)
              for s, chains in _strict_chains(n).items()}
    dims = {s: len(labs) for s, labs in labels.items()}
    bare = ChainComplex(field, dims, None, labels)
    d = linear_map(bare, bare, lambda k, lab: [
        (("bar", lab[1][:i - 1] + lab[1][i:]), -1 if i % 2 else 1)
        for i in range(1, k)], degree=-1)
    return ChainComplex(field, dims, d.components, labels).validate()


# ---------------------------------------------------------------------------
# Partition poset nerve (independent oracle)
# ---------------------------------------------------------------------------


def partition_poset_nerve(field, n):
    """(simplicial chains of the nerve of proper nontrivial partitions of
    {1..n} with Sigma_n action, comparison complex = reduced chains [+2])."""
    if not (2 <= n <= 4):
        raise ValueError("n out of range [2, 4]")
    proper = [p for p in combinat.set_partitions(list(range(n)))
              if 1 < len(p) < n]
    # chains ordered by refinement: ascending chains p_0 < p_1 < ... (finer first)
    simplices = {0: [(p,) for p in proper]}
    j = 0
    while simplices.get(j):
        nxt = []
        for ch in simplices[j]:
            for p in proper:
                if p != ch[-1] and combinat.refines(ch[-1], p):
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
            combinat.apply_perm_to_partition(s, p) for p in lab[1])), 1),))
    nerve_eq = equivariant.EquivariantComplex(nerve, group, {
        gi: act(transposition(n, gi))
        for gi in group.generator_positions()}).validate()
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
