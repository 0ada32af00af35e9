"""Cooperads on truncated symmetric sequences, and the tree cooperad T_*
that the Top comonad decorates with.

``tree_cooperad`` builds the Sigma_n-complexes T(n) of T_* on the
rooted-tree basis (`trees`).  No job reads T_*'s decomposition maps: the
ungrafting maps, exactly coassociative and counital, are built on demand by
``laws.decomposition`` for the law checks, and the Top comultiplication
(`topdelta`) ungrafts trees one basis element at a time.  Its arity-wise
dual, the derivatives-of-the-identity operad, is ``laws.spectral_lie``;
operads and right modules over them are in `laws`.
"""

from __future__ import annotations

from . import trees
from .chain import ChainComplex, linear_map
from .equivariant import EquivariantComplex
from .perms import YoungGroup
from .sequences import SymmetricSequence


class Cooperad:
    """A cooperad, held as its symmetric sequence; its decompositions
    T_n -> T_r (x) T_{|b_1|} (x) ... are built by `laws.decomposition`."""

    def __init__(self, sequence: SymmetricSequence):
        self.sequence = sequence

    def term_complex(self, n):
        return self.sequence.term_complex(n)


# ---------------------------------------------------------------------------
# The tree cooperad T_*
# ---------------------------------------------------------------------------


def tree_complex(field, n) -> ChainComplex:
    """T(n) on the rooted-tree basis; degree = number of internal vertices."""
    dims, labels = {}, {}
    for t in trees.all_trees(tuple(range(n))):
        d = trees.degree(t)
        dims[d] = dims.get(d, 0) + 1
        labels.setdefault(d, []).append(("tree", t))
    labels = {d: tuple(v) for d, v in labels.items()}
    bare = ChainComplex(field, dims, None, labels)
    d = linear_map(bare, bare, lambda k, lab: [
        (("tree", t2), sgn) for sgn, t2 in trees.differential_terms(lab[1])],
        degree=-1)
    return ChainComplex(field, dims, d.components, labels).validate()


def tree_equivariant(field, n) -> EquivariantComplex:
    c = tree_complex(field, n)
    group = YoungGroup.full(n)

    def swap(gi):
        mapping = {x: x for x in range(n)}
        mapping[gi], mapping[gi + 1] = gi + 1, gi

        def image(k, lab):
            sgn, t2 = trees.relabel_terms(lab[1], mapping)
            return ((("tree", t2), sgn),)
        return linear_map(c, c, image)
    action = {gi: swap(gi) for gi in group.generator_positions()}
    # certified here: SymmetricSequence does not validate its terms
    return EquivariantComplex(c, group, action).validate()


def tree_cooperad(field, N) -> Cooperad:
    """The cooperad T_* through arity N, as its Sigma_n-complexes T(n)."""
    return Cooperad(SymmetricSequence(field, N, {
        n: tree_equivariant(field, n) for n in range(1, N + 1)}))
