"""Rooted-tree bases for the bar construction on the commutative operad.

A basis element of T(S), for a finite leaf set S of integers with |S| >= 2,
is a rooted tree with leaf set S whose internal vertices all have arity >= 2;
its homological degree is the number of internal vertices.  For |S| = 1 the
single leaf is the unit element in degree 0.

Encoding: a tree is ("L", label) or ("N", (child, ...)) with the children
sorted by minimal leaf.  An internal vertex is named by its leaf set: the
name is unique because every internal vertex has arity >= 2, it does not
change when another edge is contracted or the tree is cut elsewhere, and a
relabelling of the leaves carries it to the image set.

Signs are handled by the determinant of odd slots: a tree of degree m+1 is
oriented by the word (s, e_1, ..., e_m) where s is a global suspension slot
and e_i are the internal edges, each named by the leaf set of its child
vertex, in depth-first order.  The differential contracts internal edges;
the cooperad decomposition along a set partition ungrafts the subtrees
spanned by the blocks, converting each cut edge into the suspension slot of
its lower tree.  All signs are permutation signs of slot words, so d o d = 0
is automatic and the decompositions are exactly coassociative.

`term` builds T(n) over a field as a Sigma_n-complex on this basis, once
per field and arity: T_* is the dual of the derivatives of the identity,
so no caller chooses it.  Its decomposition maps are built only by
`laws.decomposition`; a job ungrafts trees one basis element at a time
(`topdelta`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import combinat
from .chain import ChainComplex, linear_map
from .equivariant import EquivariantComplex
from .perms import YoungGroup


def leaf(x):
    return ("L", x)


def node(children):
    children = tuple(sorted(children, key=min_leaf))
    if len(children) < 2:
        raise ValueError("internal vertices need arity >= 2")
    return ("N", children)


def is_leaf(t):
    return t[0] == "L"


def min_leaf(t):
    if is_leaf(t):
        return t[1]
    return min(min_leaf(c) for c in t[1])


def degree(t) -> int:
    """Number of internal vertices."""
    if is_leaf(t):
        return 0
    return 1 + sum(degree(c) for c in t[1])


@lru_cache(maxsize=None)
def all_trees(leaves):
    """All trees with leaf set `leaves` (a sorted tuple); the bare leaf when
    |leaves| = 1."""
    leaves = tuple(sorted(leaves))
    if len(leaves) == 1:
        return (leaf(leaves[0]),)
    out = []
    for part in combinat.set_partitions(list(leaves)):
        if len(part) < 2:
            continue
        choices = [all_trees(tuple(b)) for b in part]
        for combo in product(*choices):
            out.append(node(combo))
    out = sorted(set(out), key=lambda t: (degree(t), repr(t)))
    return tuple(out)


def _vertices(t):
    """[(leaf set, subtree)] over the internal vertices of t, in depth-first
    order; the root comes first."""
    out = []

    def walk(t):
        if is_leaf(t):
            return frozenset((t[1],))
        at = len(out)
        out.append(None)
        out[at] = (frozenset().union(*map(walk, t[1])), t)
        return out[at][0]
    walk(t)
    return out


def _word(t):
    """The orientation word (s, e_1, ..., e_m) of t, each edge named by the
    leaf set of its child vertex; empty for a leaf."""
    if is_leaf(t):
        return []
    return ["s"] + [name for name, _ in _vertices(t)[1:]]


def _word_sign(old, new) -> int:
    pos = {x: i for i, x in enumerate(old)}
    return combinat.perm_sign(tuple(pos[x] for x in new))


def _rebuild(t, rename, cuts=None, contract=None):
    """t with each leaf x renamed rename[x], each subtree that `cuts` holds
    replaced by the leaf cuts[subtree], and the subtree `contract` (an
    internal vertex of t itself) merged into its parent."""
    if is_leaf(t):
        return leaf(rename[t[1]])
    if cuts and t in cuts:
        return leaf(cuts[t])
    kids = []
    for c in t[1]:
        new = _rebuild(c, rename, cuts, contract)
        kids.extend(new[1] if c is contract else (new,))
    return node(kids)


def differential_terms(t):
    """[(sign, contracted tree)] over internal edges of t.

    d(s ^ e_1 ^ ... ^ e_m) = sum_i (-1)^i (contract e_i), followed by the
    sign of reordering the surviving edges into the canonical order of the
    contracted tree."""
    if is_leaf(t):
        return []
    (leaves, _), *inner = _vertices(t)
    same = {x: x for x in leaves}
    word = ["s"] + [e for e, _ in inner]
    out = []
    for i, (e, sub) in enumerate(inner, start=1):
        contracted = _rebuild(t, same, contract=sub)
        surviving = [x for x in word if x != e]
        out.append(((-1) ** i * _word_sign(surviving, _word(contracted)),
                    contracted))
    return out


def relabel_terms(t, mapping):
    """(sign, relabeled canonical tree) for a leaf relabeling."""
    new = _rebuild(t, mapping)
    old = [e if e == "s" else frozenset(map(mapping.get, e))
           for e in _word(t)]
    return _word_sign(old, _word(new)), new


def decompose(t, blocks):
    """Ungraft t along a partition into `blocks` (tuple of sorted tuples,
    sorted by min).  Returns None, or (sign, upper tree with leaves 0..r-1,
    tuple of lower trees, the one of block b with leaves 0..|b|-1 in the
    order of b).

    Nonzero exactly when each block of size >= 2 is the leaf set of a
    complete subtree.  Slot bookkeeping: the source word (s, e_1, ..., e_m)
    is reordered to (s, upper edges) then, per cut block in block order,
    (cut edge, lower edges); the sign is the permutation sign.  A cut at the
    root (one block equal to the whole leaf set) moves the suspension slot
    to the lower tree.  Renaming a lower tree's leaves keeps their order,
    so it carries no sign."""
    vertices = dict(_vertices(t))
    subs = [vertices.get(frozenset(b)) if len(b) > 1 else leaf(b[0])
            for b in blocks]
    if None in subs:
        return None
    index = {x: i for i, b in enumerate(blocks) for x in b}
    upper = _rebuild(t, index, {sub: i for i, sub in enumerate(subs)})
    # the upper tree's vertices, named back by the leaves of t they span
    word = [e if e == "s" else frozenset(x for x in index if index[x] in e)
            for e in _word(upper)]
    lowers = []
    for b, sub in zip(blocks, subs):
        lower = _word(sub)
        word += lower if sub is t or not lower else [frozenset(b)] + lower[1:]
        lowers.append(_rebuild(sub, {x: i for i, x in enumerate(b)}))
    return _word_sign(_word(t), word), upper, tuple(lowers)


@lru_cache(maxsize=None)
def term(field, n) -> EquivariantComplex:
    """T(n) over `field`, with its Sigma_n action by leaf relabeling, on the
    basis all_trees(0..n-1); degree = number of internal vertices.  Built
    and certified once per (field, n)."""
    labels = {}
    for t in all_trees(tuple(range(n))):
        labels.setdefault(degree(t), []).append(("tree", t))
    dims = {d: len(v) for d, v in labels.items()}
    labels = {d: tuple(v) for d, v in labels.items()}
    bare = ChainComplex(field, dims, None, labels)
    d = linear_map(bare, bare, lambda k, lab: [
        (("tree", t2), sgn) for sgn, t2 in differential_terms(lab[1])],
        degree=-1)
    c = ChainComplex(field, dims, d.components, labels).validate()
    group = YoungGroup.full(n)

    def swap(gi):
        mapping = {x: x for x in range(n)}
        mapping[gi], mapping[gi + 1] = gi + 1, gi

        def image(k, lab):
            sgn, t2 = relabel_terms(lab[1], mapping)
            return ((("tree", t2), sgn),)
        return linear_map(c, c, image)
    return EquivariantComplex(c, group, {
        gi: swap(gi) for gi in group.generator_positions()}).validate()
