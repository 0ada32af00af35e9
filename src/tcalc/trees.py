"""Rooted-tree bases for the bar construction on the commutative operad.

A basis element of T(S), for a finite leaf set S of integers with |S| >= 2,
is a rooted tree with leaf set S whose internal vertices all have arity >= 2;
its homological degree is the number of internal vertices.  For |S| = 1 the
single leaf is the unit element in degree 0.

Signs are handled by the determinant of odd slots: a tree of degree m+1 is
oriented by the word (s, e_1, ..., e_m) where s is a global suspension slot
and e_i are the internal edges (named by their child vertex) in depth-first
order, children sorted by minimal leaf.  The differential contracts internal
edges; the cooperad decomposition along a set partition ungrafts the subtrees
spanned by the blocks, converting each cut edge into the suspension slot of
its lower tree.  All signs are permutation signs of slot words, so d o d = 0
is automatic and the decompositions are exactly coassociative.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import combinat

# tree encoding: ("L", label) or ("N", (child, ...)) with children sorted by
# minimal leaf.


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


# ---------------------------------------------------------------------------
# id-trees: internal vertices named by depth-first discovery order
# ---------------------------------------------------------------------------


def _to_idtree(t, counter):
    if is_leaf(t):
        return t
    my_id = counter[0]
    counter[0] += 1
    return ("N", my_id, tuple(_to_idtree(c, counter) for c in t[1]))


def to_idtree(t):
    return _to_idtree(t, [0])


def idtree_min_leaf(t):
    if is_leaf(t):
        return t[1]
    return min(idtree_min_leaf(c) for c in t[2])


def idtree_sort(t):
    if is_leaf(t):
        return t
    kids = tuple(sorted((idtree_sort(c) for c in t[2]), key=idtree_min_leaf))
    return ("N", t[1], kids)


def idtree_strip(t):
    if is_leaf(t):
        return t
    return node(tuple(idtree_strip(c) for c in t[2]))


def edge_word(idt):
    """Internal edges in depth-first order, named by their child vertex id.

    The root contributes no edge; every other internal vertex names the edge
    to its parent."""
    out = []

    def rec(t, is_root):
        if is_leaf(t):
            return
        if not is_root:
            out.append(t[1])
        for c in t[2]:
            rec(c, False)

    rec(idt, True)
    return out


def _word_sign(old, new) -> int:
    pos = {x: i for i, x in enumerate(old)}
    return combinat.perm_sign(tuple(pos[x] for x in new))


def differential_terms(t):
    """[(sign, contracted tree)] over internal edges of t.

    d(s ^ e_1 ^ ... ^ e_m) = sum_i (-1)^i (contract e_i), followed by the
    sign of reordering the surviving edges into the canonical order of the
    contracted tree."""
    if is_leaf(t) or degree(t) < 2:
        return []
    idt = to_idtree(t)
    edges = edge_word(idt)
    out = []
    for i, child_id in enumerate(edges, start=1):
        contracted = idtree_sort(_contract_by_id(idt, child_id))
        new_edges = edge_word(contracted)
        surviving = [e for e in edges if e != child_id]
        sign = (-1) ** i
        sign *= _word_sign(surviving, new_edges)
        out.append((sign, idtree_strip(contracted)))
    return out


def _contract_by_id(idt, child_id):
    """Contract the edge whose child vertex has the given id."""
    if is_leaf(idt):
        return idt
    kids = []
    for c in idt[2]:
        if not is_leaf(c) and c[1] == child_id:
            kids.extend(c[2])
        else:
            kids.append(_contract_by_id(c, child_id))
    return ("N", idt[1], tuple(kids))


def relabel_terms(t, mapping):
    """(sign, relabeled canonical tree) for a leaf relabeling."""
    if is_leaf(t):
        return 1, leaf(mapping[t[1]])
    idt = to_idtree(t)
    old_edges = edge_word(idt)
    relabeled = idtree_sort(_relabel_idtree(idt, mapping))
    new_edges = edge_word(relabeled)
    return _word_sign(old_edges, new_edges), idtree_strip(relabeled)


def _relabel_idtree(idt, mapping):
    if is_leaf(idt):
        return ("L", mapping[idt[1]])
    return ("N", idt[1], tuple(_relabel_idtree(c, mapping) for c in idt[2]))


def decompose(t, blocks):
    """Ungraft t along a partition into `blocks` (tuple of sorted tuples,
    sorted by min).  Returns None, or (sign, upper tree with leaves 0..r-1,
    tuple of lower trees with leaf sets the blocks).

    Nonzero exactly when each block of size >= 2 is the leaf set of a
    complete subtree.  Slot bookkeeping: the source word (s, e_1, ..., e_m)
    is reordered to (s, upper edges) then, per cut block in block order,
    (cut edge, lower edges); the sign is the permutation sign.  A cut at the
    root (one block equal to the whole leaf set) moves the suspension slot
    to the lower tree."""
    if is_leaf(t):
        if len(blocks) == 1 and len(blocks[0]) == 1:
            return 1, leaf(0), (t,)
        return None
    idt = to_idtree(t)
    edges = edge_word(idt)
    full_word = ["s"] + edges
    lowers = []
    lower_words = []
    cut_root_ids = {}
    leaf_to_block = {}
    root_cut = None
    for bi, b in enumerate(blocks):
        if len(b) == 1:
            lowers.append(leaf(b[0]))
            lower_words.append([])
            leaf_to_block[b[0]] = bi
            continue
        sub = _find_subtree(idt, frozenset(b))
        if sub is None:
            return None
        sub = idtree_sort(sub)
        lowers.append(idtree_strip(sub))
        if sub[1] == idt[1]:
            root_cut = bi
            lower_words.append(["s"] + edge_word(sub))
        else:
            lower_words.append([sub[1]] + edge_word(sub))
        cut_root_ids[sub[1]] = bi
    upper = _cut_idtree(idt, cut_root_ids, leaf_to_block)
    if not is_leaf(upper):
        upper = idtree_sort(upper)
        upper_word = ["s"] + edge_word(upper)
    else:
        upper_word = []
    new_word = list(upper_word)
    for w in lower_words:
        new_word.extend(w)
    sign = _word_sign(full_word, new_word)
    upper_tree = idtree_strip(upper)
    return sign, upper_tree, tuple(lowers)


def _find_subtree(idt, bset):
    """The complete subtree with leaf set exactly bset, or None."""
    if is_leaf(idt):
        return None
    ls = _idtree_leafset(idt)
    if ls == bset:
        return idt
    if not bset < ls:
        return None
    for c in idt[2]:
        if is_leaf(c):
            continue
        if bset <= _idtree_leafset(c):
            return _find_subtree(c, bset)
    return None


def _idtree_leafset(idt):
    if is_leaf(idt):
        return frozenset([idt[1]])
    out = frozenset()
    for c in idt[2]:
        out |= _idtree_leafset(c)
    return out


def _cut_idtree(idt, cut_root_ids, leaf_to_block):
    if is_leaf(idt):
        return ("L", leaf_to_block[idt[1]])
    bi = cut_root_ids.get(idt[1])
    if bi is not None:
        return ("L", bi)
    kids = tuple(_cut_idtree(c, cut_root_ids, leaf_to_block) for c in idt[2])
    return ("N", idt[1], kids)
